"""Coverage auditor (pass family 3: PB301, PB302).

Every cell of every computed matrix must be written no matter which
option the selector picks: per (segment, option, size env) the cells
written by the option's applications must include every cell of the
segment, and per matrix the segment boxes must add up to the whole
matrix.  Uncovered cells are PB301 errors with a concrete witness —
the engine would leave them at their initial value, silently.

PB301 is also raised during compilation (by `repro.compiler.choicegrid`)
when a matrix has no rules at all or a segment has no applicable rule;
this pass catches the finer-grained failures segmentation cannot see,
e.g. an instance rule whose stride skips cells inside its applicable
region.

PB302 is informational: a segment with several interchangeable options
is the paper's *algorithmic choice* (the autotuner's search space), and
is reported only so `repro check` output shows where choices live.
"""

from __future__ import annotations

from typing import List, Set

from repro.analysis.diagnostics import Diagnostic, Findings
from repro.analysis.witness import Cell, Replay, describe_bounds, describe_env
from repro.compiler.ir import ROLE_INPUT


def check_coverage(replay: Replay, path: str = "") -> List[Diagnostic]:
    ir = replay.compiled.ir
    found = Findings(ir, path)
    for segment in replay.compiled.grid.all_segments():
        for option in segment.options:
            for e in range(len(replay.envs)):
                _check_segment_option(replay, segment, option, e, found)
        if len(segment.options) > 1:
            found.add(
                "PB302",
                ir.matrices[segment.matrix],
                f"segment {segment.key} has "
                f"{len(segment.options)} interchangeable options: "
                + ", ".join(opt.describe(ir) for opt in segment.options),
                "the autotuner selects among these",
                region=f"{segment.matrix}[{segment.box}]",
            )
    _matrix_partition(replay, found)
    return found.diagnostics


def _check_segment_option(replay, segment, option, e: int, found: Findings) -> None:
    """One PB301 (or none) for this segment/option at sizes ``e``."""
    ir = replay.compiled.ir
    seg_bounds = replay.box(segment, e)
    target = replay.cells(seg_bounds)
    if not target:
        return
    apps = replay.applications(segment, option, e)
    if apps is None:
        return
    written: Set[Cell] = set()
    for chosen, instance_env, _assignment in apps:
        for region in chosen.to_regions:
            if region.matrix != segment.matrix:
                continue
            cells = replay.cells(region.box.concrete(instance_env))
            if cells is None:
                return
            written.update(cells)
    missing = [cell for cell in target if cell not in written]
    if not missing:
        return
    rule = ir.rules[option.primary]
    cell = missing[0]
    found.add(
        "PB301",
        rule,
        f"option {option.describe(ir)} leaves "
        f"{len(missing)} cell(s) of segment {segment.key} "
        f"{describe_bounds(segment.matrix, seg_bounds)} unwritten, "
        f"first {describe_bounds(segment.matrix, [(c, c + 1) for c in cell])}",
        "widen the rule's to-region or add a rule covering the "
        "skipped cells",
        witness=describe_env(replay.envs[e]),
        key=(segment.matrix, segment.index, rule.label),
        region=f"{segment.matrix}[{segment.box}]",
    )


def _matrix_partition(replay, found: Findings) -> None:
    """PB301 when a matrix's segments do not add up to its whole box."""
    for name, segments in replay.compiled.grid.segments.items():
        mat = replay.compiled.ir.matrices[name]
        if mat.role == ROLE_INPUT:
            continue
        for e, env in enumerate(replay.envs):
            whole = replay.cells(mat.whole_box().concrete(env))
            boxes = [replay.cells(replay.box(seg, e)) for seg in segments]
            if whole is None or None in boxes:
                continue  # over budget
            covered: Set[Cell] = set().union(*boxes)
            missing = [cell for cell in whole if cell not in covered]
            if missing:
                cell = missing[0]
                found.add(
                    "PB301",
                    mat,
                    f"choice grid of {name!r} misses "
                    f"{len(missing)} cell(s), first "
                    f"{describe_bounds(name, [(c, c + 1) for c in cell])}",
                    "a rule's applicable region excludes these "
                    "cells and no other rule covers them",
                    witness=describe_env(env),
                )
                break  # one witness per matrix is enough
