"""Design-space exploration.

Parameter spaces and parallel, cached, resumable sweeps (:mod:`space`,
:mod:`explorer`, :mod:`cache`, :mod:`evaluators`), Pareto/crossover
analysis (:mod:`pareto`), text/CSV reports (:mod:`report`), the Section
5.1 partitioning rules (:mod:`partition`) and the full ADRIATIC flow of
Figure 3 (:mod:`flow`).

Each submodule loads on first use of one of its names (PEP 562). A
Figure-1 SoC run needs :mod:`evaluators` alone; loading every submodule
would make each fresh interpreter import, and without bytecode compile,
the flow, the linter it imports and the sweep cache.
"""

import importlib

# Public name -> the submodule that defines it.
_EXPORTS = {
    "CacheStats": "cache",
    "EvalCache": "cache",
    "SweepJournal": "cache",
    "canonical_params": "cache",
    "evaluator_fingerprint": "cache",
    "params_key": "cache",
    "DEFAULT_ACCELS": "evaluators",
    "evaluate_architecture": "evaluators",
    "evaluate_robustness": "evaluators",
    "make_jobs": "evaluators",
    "DsePoint": "explorer",
    "Explorer": "explorer",
    "SweepReport": "explorer",
    "best_point": "explorer",
    "AdriaticFlow": "flow",
    "FlowResult": "flow",
    "StageRun": "flow",
    "evaluate_flow": "flow",
    "Objective": "pareto",
    "crossover_point": "pareto",
    "dominates": "pareto",
    "pareto_front": "pareto",
    "BlockProfile": "partition",
    "PartitionRecommendation": "partition",
    "profiles_from_run": "partition",
    "recommend_candidates": "partition",
    "format_points": "report",
    "format_table": "report",
    "points_to_rows": "report",
    "to_csv": "report",
    "write_csv": "report",
    "ParameterSpace": "space",
}

__all__ = [
    "AdriaticFlow",
    "BlockProfile",
    "CacheStats",
    "DEFAULT_ACCELS",
    "DsePoint",
    "EvalCache",
    "Explorer",
    "FlowResult",
    "Objective",
    "ParameterSpace",
    "PartitionRecommendation",
    "StageRun",
    "SweepJournal",
    "SweepReport",
    "best_point",
    "canonical_params",
    "crossover_point",
    "dominates",
    "evaluate_architecture",
    "evaluate_flow",
    "evaluate_robustness",
    "evaluator_fingerprint",
    "format_points",
    "format_table",
    "make_jobs",
    "pareto_front",
    "params_key",
    "points_to_rows",
    "profiles_from_run",
    "recommend_candidates",
    "to_csv",
    "write_csv",
]


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and bind the value here,
    so later reads of it are plain attribute reads."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
