"""The paper's primary contribution: the DRCF modeling methodology.

* :class:`Drcf` — the dynamically reconfigurable fabric component with the
  Section 5.3 context scheduler and instrumentation.
* :mod:`~repro.core.transform` — the four-phase automatic model
  transformation of Section 5.2 / Figure 4.
* :mod:`~repro.core.codegen` — the before/after source listings.
* :class:`Ref8Drcf` — the reference-[8] baseline that models switch delay
  but not configuration-memory traffic.
* :mod:`~repro.core.prefetch`, :mod:`~repro.core.power`, area slots in
  :mod:`~repro.core.policies` — the paper's future-work extensions
  (background loading, power accounting, partial reconfiguration).
"""

from .baseline_ref8 import Ref8Drcf
from .cache import ConfigCache
from .codegen import (
    CodegenError,
    default_env,
    exec_build_source,
    generate_build_source,
    generate_drcf_listing,
    generate_transformation_diff,
)
from .context import Context, ContextParameters, context_parameters_for
from .drcf import Drcf
from .netlist import ComponentSpec, ElaboratedDesign, Netlist
from .policies import (
    AreaSlotManager,
    FifoPolicy,
    FixedSlotManager,
    LruPolicy,
    PinnedLruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    Slot,
    SlotManager,
    make_policy,
)
from .power import EnergyBreakdown, PowerModel
from .recovery import (
    FULL_RECOVERY,
    NO_RECOVERY,
    RECOVERY_PRESETS,
    RETRY_BACKOFF,
    VERIFY_ONLY,
    RecoveryPolicy,
    recovery_preset,
)
from .prefetch import (
    ContextPrefetcher,
    MarkovPredictor,
    NextContextPredictor,
    SequencePredictor,
)
from .scheduler import ContextScheduler, SwitchRequest
from .stats import ContextStats, DrcfStats
from .transform import (
    ContextAllocation,
    InstanceAnalysis,
    ModuleAnalysis,
    TransformReport,
    TransformResult,
    analyze_instance,
    analyze_module_spec,
    transform_to_drcf,
)

__all__ = [
    "AreaSlotManager",
    "CodegenError",
    "ConfigCache",
    "ComponentSpec",
    "Context",
    "ContextAllocation",
    "ContextParameters",
    "ContextPrefetcher",
    "ContextScheduler",
    "ContextStats",
    "Drcf",
    "DrcfStats",
    "ElaboratedDesign",
    "EnergyBreakdown",
    "FifoPolicy",
    "FixedSlotManager",
    "FULL_RECOVERY",
    "NO_RECOVERY",
    "RECOVERY_PRESETS",
    "RETRY_BACKOFF",
    "RecoveryPolicy",
    "VERIFY_ONLY",
    "recovery_preset",
    "InstanceAnalysis",
    "LruPolicy",
    "MarkovPredictor",
    "ModuleAnalysis",
    "Netlist",
    "NextContextPredictor",
    "PinnedLruPolicy",
    "PowerModel",
    "RandomPolicy",
    "Ref8Drcf",
    "ReplacementPolicy",
    "SequencePredictor",
    "Slot",
    "SlotManager",
    "SwitchRequest",
    "TransformReport",
    "TransformResult",
    "analyze_instance",
    "analyze_module_spec",
    "context_parameters_for",
    "default_env",
    "exec_build_source",
    "generate_build_source",
    "generate_drcf_listing",
    "generate_transformation_diff",
    "make_policy",
    "transform_to_drcf",
]
