"""repro — reproduction of "System-Level Modeling of Dynamically
Reconfigurable Hardware with SystemC" (Pelkonen, Masselos, Čupák;
RAW/IPDPS 2003, ADRIATIC project).

Package map
-----------
``repro.kernel``
    SystemC-2.0-like discrete-event simulation kernel (the substrate).
``repro.bus``
    Arbitrated shared bus, memories, DMA, traffic monitor.
``repro.cpu``
    Processor model, software tasks, traffic generators.
``repro.core``
    The paper's contribution: the DRCF component, context scheduler,
    automatic model transformation, codegen, and the future-work
    extensions (prefetch, power, partial reconfiguration).
``repro.tech``
    Technology parameter library (Virtex-II Pro, VariCore, MorphoSys,
    ASIC) and the Figure 2 efficiency bands.
``repro.apps``
    Accelerator IP, SoC templates (Figure 1a/1b), workloads.
``repro.dse``
    Design-space exploration: sweeps, Pareto analysis, the ADRIATIC flow.
``repro.analysis``
    Metrics aggregation and deadlock diagnosis.
``repro.faults``
    Fault-injection campaigns and dependability metrics for the DRCF's
    recovery policies (``repro.core.recovery``).

Quickstart: see ``examples/quickstart.py`` and the README.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
