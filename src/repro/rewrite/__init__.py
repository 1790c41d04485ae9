"""Legality-gated IR-to-IR rewrites (the scheduling layer's first axis).

Every rewrite here is *verified*: it may only be applied to a candidate
the static dependence analyzer (:mod:`repro.analysis.depend`) proves
legal (PB601 for fusion, PB604 for tiling/interchange) — one gate,
:func:`require_legal`, raising :class:`RewriteError` otherwise — and the
rewritten IR is re-checked by the full error-severity verifier before
it runs (the fused variant in :func:`build_fused_variant`, the source
``repro rewrite --apply`` emits by compiling it).  There is one entry
point per axis, :func:`fuse_transform` and :func:`schedule_transform`
(tiles and interchange are one annotation); they compose — fuse-then-tile
blocks the fused rule's iteration space — and each is exposed to the
genetic tuner as a reserved tunable (``__fuse__``, ``__tile_i__``/
``__tile_j__``, ``__interchange__``) and to the CLI as ``repro rewrite``.
"""

from repro.rewrite.fuse import (
    REWRITE_BUDGET,
    RewriteError,
    apply_fusion,
    build_fused_variant,
    fuse_transform,
    require_legal,
)
from repro.rewrite.tile import apply_schedule, schedule_transform
from repro.rewrite.unparse import (
    UnparseError,
    affine_src,
    expr_src,
    program_src,
    region_src,
    rule_src,
    transform_src,
)

__all__ = [
    "REWRITE_BUDGET",
    "RewriteError",
    "UnparseError",
    "affine_src",
    "apply_fusion",
    "apply_schedule",
    "build_fused_variant",
    "expr_src",
    "fuse_transform",
    "program_src",
    "region_src",
    "require_legal",
    "rule_src",
    "schedule_transform",
    "transform_src",
]
