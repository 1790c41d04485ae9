"""Symbolic bounds checker (pass family 1: PB101, PB103).

For every rule selectable in any choice-grid segment, verify that every
region it reads or writes stays inside its matrix for all admitted input
sizes.  The admitted sizes come from the symbolic layer (assumptions +
folded order guards + per-rule size guards); within them the checker
replays the engine's exact instance geometry — including the meta-rule
fallback taken when a residual where-clause rejects an instance — and
compares each concrete region box against the matrix extents, the same
check :class:`repro.runtime.matrix.MatrixView` enforces with
``IndexError`` at run time.  A PB101 therefore always carries a witness
``(sizes, instance)`` at which execution would crash.

Rules guarded by runtime size guards get an informational PB103: the
engine refuses the sizes the guard excludes, so in-bounds execution is
conditional on the guard, not proven for all sizes.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, ERROR, INFO
from repro.analysis.witness import Replay, describe_bounds, describe_env


def check_bounds(replay: Replay, path: str = "") -> List[Diagnostic]:
    compiled = replay.compiled
    ir = compiled.ir
    diagnostics: List[Diagnostic] = []
    seen: Set[Tuple[int, str, int]] = set()

    def report_violation(
        rule, region, region_index: int, env, assignment, bounds, shape
    ) -> None:
        key = (rule.rule_id, region.matrix, region_index)
        if key in seen:
            return
        seen.add(key)
        access = "writes" if region in rule.to_regions else "reads"
        diagnostics.append(
            Diagnostic(
                code="PB101",
                severity=ERROR,
                message=(
                    f"{access} {describe_bounds(region.matrix, bounds)} "
                    f"outside matrix extent "
                    f"{describe_bounds(region.matrix, [(0, s) for s in shape])}"
                ),
                transform=ir.name,
                rule=rule.label,
                region=f"{region.matrix}.{region.view_kind}({region.box})",
                line=region.line or rule.line,
                column=region.column or rule.column,
                hint=(
                    "tighten the rule's region bounds or add a where-clause "
                    "excluding the out-of-range instances"
                ),
                witness=describe_env(env, assignment),
                path=path,
            )
        )

    for segment, option in replay.options():
        for e, env in enumerate(replay.envs):
            for app in replay.applications(segment, option, e) or ():
                for index, region in enumerate(app.rule.all_regions):
                    shape = replay.shape(region.matrix, e)
                    bounds = region.box.concrete(app.env)
                    if _out_of_bounds(bounds, shape):
                        report_violation(
                            app.rule, region, index, env, app.assignment,
                            bounds, shape,
                        )

    diagnostics.extend(_guard_notes(compiled, path))
    return diagnostics


def _out_of_bounds(
    bounds: Tuple[Tuple[int, int], ...], shape: Tuple[int, ...]
) -> bool:
    """Mirror of MatrixView's constructor check: 0 <= lo <= hi <= extent
    per axis (a cell box [c, c+1) needs 0 <= c < extent, same predicate)."""
    for (lo, hi), extent in zip(bounds, shape):
        if not (0 <= lo <= hi <= extent):
            return True
    return False


def _guard_notes(compiled, path: str) -> List[Diagnostic]:
    """PB103: in-bounds execution relies on runtime-checked guards."""
    ir = compiled.ir
    notes: List[Diagnostic] = []
    for rule in ir.rules:
        if rule.size_guards:
            guards = ", ".join(f"{g} >= 0" for g in rule.size_guards)
            notes.append(
                Diagnostic(
                    code="PB103",
                    severity=INFO,
                    message=(
                        f"in-bounds only under runtime size guard(s): {guards}"
                    ),
                    transform=ir.name,
                    rule=rule.label,
                    line=rule.line,
                    column=rule.column,
                    hint="the engine rejects sizes violating these guards",
                    path=path,
                )
            )
    if compiled.grid.order_guards:
        guards = ", ".join(f"{g} >= 0" for g in compiled.grid.order_guards)
        notes.append(
            Diagnostic(
                code="PB103",
                severity=INFO,
                message=(
                    f"choice-grid segmentation assumes runtime ordering "
                    f"guard(s): {guards}"
                ),
                transform=ir.name,
                line=ir.line,
                column=ir.column,
                hint="inputs violating the ordering are rejected at run time",
                path=path,
            )
        )
    return notes
