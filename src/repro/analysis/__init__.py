"""Post-run analysis: metric aggregation, deadlock diagnosis, static lint."""

from .cfg import (
    Cfg,
    FunctionControlFlow,
    ProcessControlFlow,
    analyze_function,
    analyze_process,
)
from .dataflow import (
    DesignDataflow,
    ProcessSummary,
    SignalUse,
    cross_check,
    summarize_process,
)
from .deadlock import BlockedProcess, DeadlockReport, diagnose, watchdog_report
from .interproc import (
    AcquireSite,
    LockTrace,
    acquire_sites,
    lock_order_trace,
    release_closure,
)
from .lint import (
    DEADLOCK_RULE_CODE,
    STATIC_DEADLOCK_RULE_CODE,
    RULES,
    Diagnostic,
    LintContext,
    LintReport,
    Rule,
    all_rule_codes,
    register_rule,
    rule,
    run_lint,
)
from .metrics import RunReport, collect_run_metrics, per_context_rows, speedup

__all__ = [
    "AcquireSite",
    "BlockedProcess",
    "Cfg",
    "DEADLOCK_RULE_CODE",
    "DeadlockReport",
    "DesignDataflow",
    "Diagnostic",
    "FunctionControlFlow",
    "LintContext",
    "LintReport",
    "LockTrace",
    "ProcessControlFlow",
    "ProcessSummary",
    "RULES",
    "Rule",
    "RunReport",
    "STATIC_DEADLOCK_RULE_CODE",
    "SignalUse",
    "acquire_sites",
    "all_rule_codes",
    "analyze_function",
    "analyze_process",
    "collect_run_metrics",
    "cross_check",
    "diagnose",
    "lock_order_trace",
    "per_context_rows",
    "register_rule",
    "release_closure",
    "rule",
    "run_lint",
    "speedup",
    "summarize_process",
    "watchdog_report",
]
