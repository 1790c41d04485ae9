"""Write-write race detector (pass family 2: PB201, PB202, PB203).

The §3.6 scheduler may run every instance of a segment's chosen option
concurrently, so within one (segment, option) the instance applications
must write pairwise-disjoint cells; different segments of one matrix are
likewise independently schedulable and must not overlap.  The detector
replays the engine's geometry per admitted size environment and records
the first writer of every cell:

* PB201 — two *instances* of the same rule write one cell (the rule's
  to-region strides/offsets collide across the instance space).
* PB202 — two to-bindings of a *single application* overlap (the rule
  hands the body two aliased writable views).
* PB203 — two *different* writers overlap: primary vs fallback of a
  meta-rule at different instances, or two segments of the same matrix
  whose concrete boxes intersect.

PB204 (deadlock cycle) and PB205 (no iteration order) belong to this
family but are raised during compilation by `repro.compiler.depgraph`;
the check driver converts those CompileErrors into diagnostics.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Findings
from repro.analysis.witness import Cell, Replay, describe_bounds, describe_env


def check_races(replay: Replay, path: str = "") -> List[Diagnostic]:
    found = Findings(replay.compiled.ir, path)
    for segment, option in replay.options():
        for e, env in enumerate(replay.envs):
            apps = replay.applications(segment, option, e)
            _check_option_writes(replay, apps or (), env, found)
    _cross_segment_overlaps(replay, found)
    return found.diagnostics


def _check_option_writes(replay, apps, env, found: Findings) -> None:
    # cell -> (rule, assignment) of its first writer, per matrix
    writers: Dict[str, Dict[Cell, Tuple]] = {}
    for chosen, instance_env, assignment in apps:
        app_cells: Dict[str, Set[Cell]] = {}
        for region in chosen.to_regions:
            cells = replay.cells(region.box.concrete(instance_env))
            if cells is None:
                return  # over budget: skip this option/env entirely
            mine = app_cells.setdefault(region.matrix, set())
            for cell in cells:
                if cell in mine:
                    found.add(
                        "PB202",
                        chosen,
                        f"to-bindings of one application alias cell "
                        f"{describe_bounds(region.matrix, [(c, c + 1) for c in cell])}",
                        "split the rule so each application writes each "
                        "cell through a single binding",
                        witness=describe_env(env, assignment),
                        key=(chosen.rule_id, region.matrix),
                    )
                    break
                mine.add(cell)
        for matrix, cells in app_cells.items():
            first = writers.setdefault(matrix, {})
            for cell in cells:
                prior = first.get(cell)
                if prior is None:
                    first[cell] = (chosen, assignment)
                    continue
                prior_rule, prior_assignment = prior
                where = describe_bounds(
                    matrix, [(c, c + 1) for c in cell]
                )
                if prior_rule.rule_id == chosen.rule_id:
                    found.add(
                        "PB201",
                        chosen,
                        f"instances {describe_env({}, prior_assignment)} and "
                        f"{describe_env({}, assignment)} both write {where}",
                        "make the to-region stride cover each cell "
                        "exactly once per instance",
                        witness=describe_env(env, assignment),
                        key=(chosen.rule_id, matrix),
                    )
                else:
                    found.add(
                        "PB203",
                        chosen,
                        f"concurrent writers {prior_rule.label} and "
                        f"{chosen.label} both write {where}",
                        "restrict one writer's region or give the rules "
                        "different priorities",
                        witness=describe_env(env, assignment),
                        key=(prior_rule.rule_id, chosen.rule_id, matrix),
                    )


def _cross_segment_overlaps(replay, found: Findings) -> None:
    """PB203 for two segments of one matrix whose concrete boxes overlap
    (the grid should partition each matrix; overlap means two segment
    schedules would write the same cells)."""
    ir = replay.compiled.ir
    for matrix, segments in replay.compiled.grid.segments.items():
        for e, env in enumerate(replay.envs):
            boxes = [(seg, replay.box(seg, e)) for seg in segments]
            for i, (seg_a, box_a) in enumerate(boxes):
                for seg_b, box_b in boxes[i + 1 :]:
                    if _boxes_overlap(box_a, box_b):
                        found.add(
                            "PB203",
                            ir.matrices[matrix],
                            f"segments {seg_a.key} "
                            f"{describe_bounds(matrix, box_a)} and "
                            f"{seg_b.key} "
                            f"{describe_bounds(matrix, box_b)} overlap",
                            "segment boundaries are mis-ordered at "
                            "these sizes; an ordering guard is missing",
                            witness=describe_env(env),
                            key=("segments", matrix, seg_a.index, seg_b.index),
                        )


def _boxes_overlap(
    box_a: Tuple[Tuple[int, int], ...], box_b: Tuple[Tuple[int, int], ...]
) -> bool:
    if not box_a or not box_b:
        return False  # 0-D scalar segments never coexist in one matrix
    for (lo_a, hi_a), (lo_b, hi_b) in zip(box_a, box_b):
        if min(hi_a, hi_b) <= max(lo_a, lo_b):
            return False
    return True
