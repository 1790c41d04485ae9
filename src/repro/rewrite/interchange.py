"""Legality-gated loop interchange (the scheduling layer's third axis).

A PB604-legal site iterates a sequential chain (time steps, pipeline
stages, reduction depth) over a data-parallel tile space.  The default
order walks the chain outermost — every tile is touched at every chain
step, so a working set larger than cache is streamed through it once
per step.  Interchange flips the nest: each tile runs the *entire*
chain while it is cache-hot, which is exactly the permutation the
paper's generated code would pick for a cache-blocked schedule.

Legality is the same PB604 condition as tiling — with every
tile-crossing dependence component pointing along the blocked order,
any consistent product order over (chain, tile) coordinates preserves
every dependence, so the two factors commute.  :func:`apply_interchange`
therefore shares the analyzer gate (and the annotation plumbing) with
:mod:`repro.rewrite.tile`; the engine honors the annotation only on
sites the same analyzer verdict clears, and the ``__interchange__``
tunable can override it either way at run time.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.depend import ScheduleCandidate
from repro.analysis.witness import WitnessBudget
from repro.compiler.ir import TransformIR
from repro.rewrite.fuse import REWRITE_BUDGET
from repro.rewrite.tile import (
    annotate_schedule,
    require_legal,
    rewrite_legal_sites,
)

__all__ = [
    "apply_interchange",
    "interchange_transform",
]


def apply_interchange(
    ir: TransformIR, candidate: ScheduleCandidate
) -> TransformIR:
    """The interchanged transform IR for one PB604-legal candidate.

    Purely structural — callers re-verify through the compile pipeline
    before executing the result.
    """
    require_legal(candidate)
    return annotate_schedule(ir, candidate.rule_id, interchange=True)


def interchange_transform(
    compiled, budget: WitnessBudget = REWRITE_BUDGET
) -> Tuple[object, List[ScheduleCandidate]]:
    """Interchange every PB604-legal site of a compiled transform.

    Returns the recompiled transform (the input itself when no site is
    legal) and the candidates that were applied.  Interchange without
    tiles is inert at run time (there is nothing to hoist), so this is
    typically composed after :func:`repro.rewrite.tile.tile_transform`
    — annotations merge, they do not overwrite.
    """
    return rewrite_legal_sites(compiled, budget, apply_interchange)
