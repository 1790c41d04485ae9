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

Both rewrites are purely annotations: they merge a
:class:`~repro.compiler.ir.ScheduleIR` into the rule, which the engine's
vector leaf path lowers to cache-blocked NumPy execution and which the
``__tile_i__``/``__tile_j__``/``__interchange__`` tunables can override
at run time.  Like every rewrite in this package they pass
:func:`~repro.rewrite.fuse.require_legal` (PB605 sites carry a witness
of a concrete instance pair the blocked order would reorder).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Mapping, Tuple, Union

from repro.analysis.depend import ScheduleCandidate, schedule_candidates
from repro.analysis.witness import WitnessBudget
from repro.compiler.ir import ScheduleIR, TransformIR
from repro.rewrite.fuse import REWRITE_BUDGET, RewriteError, require_legal, unanalyzed

__all__ = [
    "annotate_schedule",
    "apply_interchange",
    "apply_tiling",
    "rewrite_legal_sites",
    "tile_transform",
]

#: Default tile edge when the caller does not pick one: big enough to
#: amortize per-tile step cost, small enough that a 2D float64 tile
#: (32 * 32 * 8 = 8 KiB) stays deep inside L1.
DEFAULT_TILE = 32

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


def annotate_schedule(
    ir: TransformIR,
    rule_id: int,
    *,
    tile: Tuple[Tuple[str, int], ...] = None,
    interchange: bool = None,
) -> TransformIR:
    """``ir`` with the schedule annotation of one rule merged in.

    ``None`` fields keep whatever the rule already declares, so tiling
    and interchange compose in either order.  Every rule is rebuilt
    with cleared analysis fields (the applicable-regions pass re-runs
    when the new IR is compiled), mirroring :func:`apply_fusion`.
    """
    new_rules = []
    for rule in ir.rules:
        if rule.rule_id == rule_id:
            old = rule.schedule or ScheduleIR()
            merged = ScheduleIR(
                tile=old.tile if tile is None else tile,
                interchange=(
                    old.interchange if interchange is None else interchange
                ),
            )
            rule = replace(rule, schedule=merged)
        new_rules.append(unanalyzed(rule))
    return replace(ir, rules=new_rules)


def rewrite_legal_sites(
    compiled,
    budget: WitnessBudget,
    apply: Callable[[TransformIR, ScheduleCandidate], TransformIR],
) -> Tuple[object, List[ScheduleCandidate]]:
    """Run one schedule rewrite over every PB604-legal site, once per
    rule (a rule legal in several segments carries one annotation).

    Returns the recompiled transform (the input itself when no site is
    legal) and the candidates that were applied.  Interchange without
    tiles is inert at run time, so ``apply_interchange`` is typically
    run after :func:`tile_transform` — annotations merge, they do not
    overwrite."""
    from repro.compiler.codegen import CompiledTransform

    applied: List[ScheduleCandidate] = []
    ir = compiled.ir
    for cand in schedule_candidates(compiled, budget):
        if cand.status != "legal" or any(
            cand.rule_id == done.rule_id for done in applied
        ):
            continue
        ir = apply(ir, cand)
        applied.append(cand)
    if not applied:
        return compiled, []
    return CompiledTransform(ir, compiled.program), applied


def apply_tiling(
    ir: TransformIR,
    candidate: ScheduleCandidate,
    sizes: Sizes = DEFAULT_TILE,
) -> TransformIR:
    """The tiled transform IR for one PB604-legal candidate.

    ``sizes`` is either one edge length for every free variable or a
    ``{var: size}`` mapping (variables it omits stay untiled).  Purely
    structural — callers re-verify through the compile pipeline before
    executing the result.
    """
    require_legal(candidate)
    return annotate_schedule(
        ir, candidate.rule_id, tile=_tile_pairs(candidate, sizes)
    )


def tile_transform(
    compiled,
    sizes: Sizes = DEFAULT_TILE,
    budget: WitnessBudget = REWRITE_BUDGET,
) -> Tuple[object, List[ScheduleCandidate]]:
    """Tile every PB604-legal site of a compiled transform.

    Returns the recompiled transform (the input itself when no site is
    legal) and the candidates that were applied.
    """
    return rewrite_legal_sites(
        compiled, budget, lambda ir, cand: apply_tiling(ir, cand, sizes)
    )


def apply_interchange(
    ir: TransformIR, candidate: ScheduleCandidate
) -> TransformIR:
    """The interchanged transform IR for one PB604-legal candidate.

    Purely structural — callers re-verify through the compile pipeline
    before executing the result.
    """
    require_legal(candidate)
    return annotate_schedule(ir, candidate.rule_id, interchange=True)
