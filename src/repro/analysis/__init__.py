"""Static verifier suite over compiled transform IR.

Six pass families — symbolic/witness bounds checking, write-write race
detection, coverage auditing, hygiene lints, the leaf-path
eligibility report, and the dependence/fusion-legality analysis that
gates the rewrite layer — each reporting through one collector,
:class:`~repro.analysis.diagnostics.Findings`, whose
:class:`~repro.analysis.diagnostics.Diagnostic` records carry stable
``PBxxx`` codes (severity is the code's ``CODE_TABLE`` row), source
positions, fix hints, and concrete witnesses.
Exposed through the ``repro check`` CLI subcommand and the
``compile_program(..., analyze=True)`` pipeline hook.
"""

from repro.analysis.diagnostics import (
    AnalysisReport,
    CODE_TABLE,
    Diagnostic,
    ERROR,
    INFO,
    WARNING,
)
from repro.analysis.witness import DEFAULT_BUDGET, Replay, WitnessBudget
from repro.analysis.bounds import check_bounds
from repro.analysis.races import check_races
from repro.analysis.coverage import check_coverage
from repro.analysis.lints import check_lints
from repro.analysis.leafpaths import check_leaf_paths
from repro.analysis.depend import (
    Dependence,
    FusionCandidate,
    Witness,
    check_depend,
    fusion_candidates,
    rule_dependences,
    validate_witness,
)
from repro.analysis.check import (
    analyze_program,
    analyze_transform,
    check_file,
    check_source,
    diagnostic_from_error,
    record_report,
    run_check,
)

__all__ = [
    "AnalysisReport",
    "CODE_TABLE",
    "Diagnostic",
    "ERROR",
    "INFO",
    "WARNING",
    "WitnessBudget",
    "DEFAULT_BUDGET",
    "Dependence",
    "FusionCandidate",
    "Replay",
    "Witness",
    "analyze_program",
    "analyze_transform",
    "check_bounds",
    "check_coverage",
    "check_depend",
    "check_file",
    "check_leaf_paths",
    "check_lints",
    "check_races",
    "check_source",
    "diagnostic_from_error",
    "fusion_candidates",
    "record_report",
    "rule_dependences",
    "run_check",
    "validate_witness",
]
