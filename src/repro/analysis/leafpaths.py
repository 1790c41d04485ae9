"""Leaf-path eligibility report (pass family 5: PB501, PB502, PB503).

Informational pass over the choice grid: for every (segment, option)
site with a DSL instance rule, report whether the engine's vectorized
leaf path (:mod:`repro.engine_fast.vectorize`) is legal there — and when
it is not, the exact reason the planner rejected it.  The verdicts are
the sites' own (``Site.vector``, the object the executor runs), so
``repro check`` describes precisely what ``__leaf_path__ = 2`` would do
at run time.

PB503 is the batch-axis companion, one per transform: whether the batch
execution engine (:mod:`repro.batch`) can run buckets of this transform
as stacked sweeps — under every configuration, only some, or none.  The
verdict comes from :func:`repro.batch.stacked.batch_eligibility`, the
same predicate the engine's bucket planner applies, so the diagnostic
can never disagree with runtime stacking behavior.

All three codes are INFO severity: rejection is not a defect (the
closure path / per-request fallback still applies), and eligibility is
an optimization opportunity.
"""

from __future__ import annotations

from typing import List

from repro.analysis.diagnostics import Diagnostic, Findings


def check_leaf_paths(compiled, path: str = "") -> List[Diagnostic]:
    """PB501/PB502 eligibility diagnostics for one compiled transform,
    plus its PB503 stacking verdict."""
    ir = compiled.ir
    found = Findings(ir, path)
    for site in compiled.sites.values():
        rule = site.rule
        if rule.native_body is not None or not rule.is_instance_rule:
            continue
        if not rule.body:
            continue
        plan, reason = site.vector
        key = (rule.rule_id, reason)
        if plan is not None:
            found.add(
                "PB501",
                rule,
                f"qualifies for vectorized leaf execution over "
                f"({', '.join(plan.free_vars)}) (segment {site.segment.key})",
                f"set tunable {ir.name}.__leaf_path__ = 2 (or let the "
                "autotuner pick it) to run whole data-parallel steps as "
                "NumPy slice arithmetic",
                key=key,
            )
        else:
            found.add(
                "PB502",
                rule,
                f"not vectorizable: {reason}",
                "the rule still runs through the compiled closure path "
                "(__leaf_path__ = 1, the default)",
                key=key,
            )
    _batch_diagnostic(compiled, found)
    return found.diagnostics


def _batch_diagnostic(compiled, found: Findings) -> None:
    """The per-transform PB503 stacking verdict."""
    # Local import: repro.batch sits on top of the analysis layer.
    from repro.batch.stacked import batch_eligibility

    status, detail = batch_eligibility(compiled)
    if status == "full":
        message = "batch-stackable under every configuration"
        hint = (
            "repro.batch runs whole buckets of this transform as "
            "stacked sweeps along a leading request axis"
        )
    elif status == "partial":
        message = f"batch-stackable under some configurations ({detail})"
        hint = (
            "buckets whose configuration selects a blocked option fall "
            "back to per-request execution (identical results)"
        )
    else:
        message = f"not batch-stackable: {detail}"
        hint = (
            "buckets of this transform run per-request through the "
            "serial engine (identical results, lower throughput)"
        )
    found.add("PB503", None, message, hint)
