"""Legality-gated loop tiling and interchange (the scheduling layer's
second and third axes).

Fusion (:mod:`repro.rewrite.fuse`) changes *what* the rules compute
over; tiling changes *how their iteration space is walked*.  A
PB604-legal site — an instance rule with at least one sequential chain
variable and one data-parallel free variable whose cross-instance
dependences never point against the blocked order — may have its free
variables blocked into fixed-size tiles without changing any value the
program produces.  Interchange then runs the *entire* chain per tile
while it is cache-hot instead of sweeping every tile at every chain
step; with every tile-crossing dependence pointing along the blocked
order, the two factors commute, so it is legal exactly where tiling is.

Both rewrites are one annotation: :func:`apply_schedule` merges a
:class:`~repro.compiler.ir.ScheduleIR` into the rule, which the engine's
vector leaf path lowers to cache-blocked NumPy execution and which the
``__tile_i__``/``__tile_j__``/``__interchange__`` tunables can override
at run time.  Like every rewrite in this package it passes
:func:`~repro.rewrite.fuse.require_legal` (PB605 sites carry a witness
of a concrete instance pair the blocked order would reorder).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Mapping, Optional, Tuple, Union

from repro.analysis.depend import ScheduleCandidate, schedule_candidates
from repro.analysis.witness import WitnessBudget
from repro.compiler.ir import ScheduleIR, TransformIR
from repro.rewrite.fuse import REWRITE_BUDGET, RewriteError, require_legal, unanalyzed

__all__ = ["apply_schedule", "schedule_transform"]

Sizes = Union[int, Mapping[str, int]]


def _tile_pairs(
    candidate: ScheduleCandidate, sizes: Sizes
) -> Tuple[Tuple[str, int], ...]:
    """``(var, size)`` pairs in free-variable order, validated."""
    pairs: List[Tuple[str, int]] = []
    for var in candidate.free_vars:
        if isinstance(sizes, int):
            size = sizes
        elif var in sizes:
            size = int(sizes[var])
        else:
            continue
        if size < 1:
            raise RewriteError(
                f"tile size for {var} must be >= 1, got {size}"
            )
        pairs.append((var, size))
    if not pairs:
        raise RewriteError(
            f"no tile sizes for any free variable of {candidate.rule} "
            f"(free: {', '.join(candidate.free_vars)})"
        )
    return tuple(pairs)


def apply_schedule(
    ir: TransformIR,
    candidate: ScheduleCandidate,
    tile: Optional[Sizes] = None,
    interchange: bool = False,
) -> TransformIR:
    """``ir`` with one PB604-legal candidate's schedule annotation
    merged in.

    ``tile`` is either one edge length for every free variable or a
    ``{var: size}`` mapping (variables it omits stay untiled); ``None``
    keeps the tiles the rule already declares, and ``interchange`` only
    ever turns interchange on, so annotations compose in either order.
    Every rule is rebuilt with cleared analysis fields (the
    applicable-regions pass re-runs when the new IR is compiled),
    mirroring :func:`~repro.rewrite.fuse.apply_fusion`.
    """
    require_legal(candidate)
    pairs = None if tile is None else _tile_pairs(candidate, tile)
    new_rules = []
    for rule in ir.rules:
        if rule.rule_id == candidate.rule_id:
            old = rule.schedule or ScheduleIR()
            merged = ScheduleIR(
                tile=old.tile if pairs is None else pairs,
                interchange=old.interchange or interchange,
            )
            rule = replace(rule, schedule=merged)
        new_rules.append(unanalyzed(rule))
    return replace(ir, rules=new_rules)


def schedule_transform(
    compiled,
    tile: Optional[Sizes] = None,
    interchange: bool = False,
    budget: WitnessBudget = REWRITE_BUDGET,
) -> Tuple[object, List[ScheduleCandidate]]:
    """Annotate every PB604-legal site of a compiled transform, once per
    rule (a rule legal in several segments carries one annotation).

    Returns the recompiled transform (the input itself when no site is
    legal, or when there is nothing to annotate) and the candidates
    that were applied.  Interchange without tiles is inert at run time.
    """
    from repro.compiler.codegen import CompiledTransform

    applied: List[ScheduleCandidate] = []
    if tile is None and not interchange:
        return compiled, applied
    ir = compiled.ir
    for cand in schedule_candidates(compiled, budget):
        if cand.status == "legal" and all(
            cand.rule_id != done.rule_id for done in applied
        ):
            ir = apply_schedule(ir, cand, tile, interchange)
            applied.append(cand)
    if not applied:
        return compiled, applied
    return CompiledTransform(ir, compiled.program), applied
