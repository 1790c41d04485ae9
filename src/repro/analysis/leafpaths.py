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

from typing import List, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, INFO


def check_leaf_paths(compiled, budget=None, path: str = "") -> List[Diagnostic]:
    """PB501/PB502 eligibility diagnostics for one compiled transform.

    ``budget`` is accepted for driver uniformity but unused: eligibility
    is a static property of the rule body and dependency directions, not
    of any concrete size environment.
    """
    ir = compiled.ir
    diagnostics: List[Diagnostic] = []
    seen: Set[Tuple] = set()
    for site in compiled.sites.values():
        rule = site.rule
        if rule.native_body is not None or not rule.is_instance_rule:
            continue
        if not rule.body:
            continue
        plan, reason = site.vector
        key = (rule.rule_id, plan is not None, reason)
        if key in seen:
            continue
        seen.add(key)
        if plan is not None:
            over = f" over ({', '.join(plan.free_vars)})"
            code = "PB501"
            message = (
                f"qualifies for vectorized leaf execution{over} "
                f"(segment {site.segment.key})"
            )
            hint = (
                f"set tunable {ir.name}.__leaf_path__ = 2 (or let the "
                "autotuner pick it) to run whole data-parallel steps as "
                "NumPy slice arithmetic"
            )
        else:
            code = "PB502"
            message = f"not vectorizable: {reason}"
            hint = (
                "the rule still runs through the compiled closure path "
                "(__leaf_path__ = 1, the default)"
            )
        diagnostics.append(
            Diagnostic(
                code=code,
                severity=INFO,
                message=message,
                transform=ir.name,
                rule=rule.label,
                line=rule.line,
                column=rule.column,
                hint=hint,
                path=path,
            )
        )
    diagnostics.append(_batch_diagnostic(compiled, path))
    return diagnostics


def _batch_diagnostic(compiled, path: str) -> Diagnostic:
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
    return Diagnostic(
        code="PB503",
        severity=INFO,
        message=message,
        transform=compiled.ir.name,
        line=compiled.ir.line,
        column=compiled.ir.column,
        hint=hint,
        path=path,
    )
