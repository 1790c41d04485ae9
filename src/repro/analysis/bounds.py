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

from typing import List, Tuple

from repro.analysis.diagnostics import Diagnostic, Findings
from repro.analysis.witness import Replay, describe_bounds, describe_env


def check_bounds(replay: Replay, path: str = "") -> List[Diagnostic]:
    compiled = replay.compiled
    found = Findings(compiled.ir, path)
    for segment, option in replay.options():
        for e, env in enumerate(replay.envs):
            for app in replay.applications(segment, option, e) or ():
                rule = app.rule
                for index, region in enumerate(rule.all_regions):
                    shape = replay.shape(region.matrix, e)
                    bounds = region.box.concrete(app.env)
                    if not _out_of_bounds(bounds, shape):
                        continue
                    access = "writes" if region in rule.to_regions else "reads"
                    found.add(
                        "PB101",
                        rule,
                        f"{access} {describe_bounds(region.matrix, bounds)} "
                        f"outside matrix extent "
                        f"{describe_bounds(region.matrix, [(0, s) for s in shape])}",
                        "tighten the rule's region bounds or add a "
                        "where-clause excluding the out-of-range instances",
                        witness=describe_env(env, app.assignment),
                        key=(rule.rule_id, region.matrix, index),
                        region=f"{region.matrix}.{region.view_kind}({region.box})",
                        at=(region.line, region.column),
                    )
    _guard_notes(compiled, found)
    return found.diagnostics


def _out_of_bounds(
    bounds: Tuple[Tuple[int, int], ...], shape: Tuple[int, ...]
) -> bool:
    """Mirror of MatrixView's constructor check: 0 <= lo <= hi <= extent
    per axis (a cell box [c, c+1) needs 0 <= c < extent, same predicate)."""
    for (lo, hi), extent in zip(bounds, shape):
        if not (0 <= lo <= hi <= extent):
            return True
    return False


def _guard_notes(compiled, found: Findings) -> None:
    """PB103: in-bounds execution relies on runtime-checked guards."""
    for rule in compiled.ir.rules:
        if rule.size_guards:
            guards = ", ".join(f"{g} >= 0" for g in rule.size_guards)
            found.add(
                "PB103",
                rule,
                f"in-bounds only under runtime size guard(s): {guards}",
                "the engine rejects sizes violating these guards",
            )
    if compiled.grid.order_guards:
        guards = ", ".join(f"{g} >= 0" for g in compiled.grid.order_guards)
        found.add(
            "PB103",
            None,
            f"choice-grid segmentation assumes runtime ordering "
            f"guard(s): {guards}",
            "inputs violating the ordering are rejected at run time",
        )
