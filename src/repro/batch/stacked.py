"""Stacked execution: one bucket of same-shaped requests, one sweep.

``plan_stacked`` takes the transform's :class:`RunPlan` for the bucket's
(config, shapes, sizes) — a bucket's identity is that plan's key, and
the plan comes from the transform's own cache, the one plan cache that
batches share with serial runs.  It is the very plan a serial run
replays: same size binding, same size guards, same option selection,
same cached geometry, the same fused variant where the plan's decisions
fuse — and reads, for every step, the site's one vector plan
(``step.site.vector`` — the same object the serial vector leaf runs at
batch 1; its step takes arrays with a leading batch axis).
If every step qualifies, the whole transform runs as a sequence of those
vector steps over the stacked requests; otherwise the first blocking
reason is reported and the engine falls back to per-request serial
execution.

A site stacks exactly when it vectorizes (PB501) — there is no second
predicate here; :func:`repro.engine_fast.vectorize.plan_vector_leaf`
says why.  A *bucket* is narrower than a serial vector run only in that
every step of its plan must qualify, where the serial engine runs a
whole-region, native or where-clause step on another leaf.  The
correctness contract is unchanged either way: stacked outputs are
byte-identical to per-request serial outputs (the batch axis is pure
broadcast; see :mod:`repro.engine_fast.vectorize`), and any error a
stacked run raises demotes its bucket to serial execution, which
reproduces each request's exact serial outcome.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.codegen import CompiledTransform
from repro.compiler.config import ChoiceConfig
from repro.compiler.plan import RunPlan, lockstep
from repro.runtime.matrix import Matrix


def plan_stacked(
    transform: CompiledTransform,
    shapes: Sequence[Tuple[int, ...]],
    config: Optional[ChoiceConfig],
    explicit_sizes=None,
) -> Tuple[Optional[RunPlan], str]:
    """Plan one bucket, or explain why it must run serially.

    Returns ``(plan, "")`` when every step of the transform's run plan
    under ``config`` admits a batched vector step, else ``(None,
    reason)``.  The plan is the serial :class:`RunPlan` with every
    step's ``plan`` set to its site's vector plan, untiled, whatever leaf
    the configuration picks for serial runs.  Planning failures include
    anything the serial engine would raise at this (shapes, config)
    point — guard violations, bad option indices — because the serial
    fallback reproduces those errors per request.
    """
    try:
        plan = transform.plan(config, shapes, explicit_sizes)
        steps = []
        for step in plan.steps:
            vector, reason = step.site.vector
            if vector is None:
                return None, f"{step.site.segment.key}: {reason}"
            steps.append(dataclasses.replace(step, plan=vector, tiles=None))
        return dataclasses.replace(plan, steps=tuple(steps)), ""
    except Exception as error:  # serial fallback reproduces the error
        return None, str(error)


def run_stacked(
    plan: RunPlan,
    stacked_inputs: Dict[str, np.ndarray],
    batch: int,
    sink=None,
) -> Dict[str, Matrix]:
    """Replay one planned bucket over ``batch`` stacked requests
    (``plan`` names the transform that runs — the bucket's transform,
    or its fused variant where the plan's decisions fuse).

    ``stacked_inputs`` maps each declared input to an array of shape
    ``(batch,) + serial_shape``.  Outputs come back batched the same
    way; the engine slices lane ``i`` out for request ``i``.  Output
    and through storage is allocated via ``Matrix.zeros`` so unwritten
    cells match serial allocation bit-for-bit (the differential suite
    monkeypatches allocation to sentinel-fill and compares write sets).
    Each step call is the serial leaf's own strip-mined ufunc chain —
    its strips count the batch axis, its scratch belongs to the
    ``maker`` call made here — in the serial replay's order: a plan
    group's rows of :func:`~repro.compiler.plan.lockstep`, untiled.
    """
    arrays: Dict[str, np.ndarray] = dict(stacked_inputs)
    outputs: Dict[str, Matrix] = {}
    for name, shape, is_output, label in plan.allocations:
        storage = Matrix.zeros((batch,) + shape, name=label)
        arrays[name] = storage.data
        if is_output:
            outputs[name] = storage
    for group in plan.groups:
        steps = plan.steps[group.start : group.stop]
        step_fns = [
            step.plan.maker(
                plan.env,
                plan.tunables,
                {name: arrays[name] for name in step.plan.matrices},
            )
            for step in steps
        ]
        leaves = [
            lambda item, step_fn=step_fn: step_fn(*item[0], *item[1])
            for step_fn in step_fns
        ]
        for _row in lockstep(steps, leaves):
            if sink is not None:
                sink.count("batch.stacked_steps", len(steps))
    return outputs


def batch_eligibility(
    transform: CompiledTransform,
) -> Tuple[str, str]:
    """Static per-transform batch-axis eligibility, for PB503.

    Returns ``(status, detail)`` with status one of:

    * ``"full"`` — every (segment, option) site stacks; any
      configuration of this transform batches without fallback.
    * ``"partial"`` — every segment has at least one stackable option,
      so *some* configurations batch; ``detail`` names the first
      blocked site.
    * ``"none"`` — some segment has no stackable option; every bucket
      of this transform falls back to per-request execution.  ``detail``
      carries the blocking reason.
    """
    any_blocked = ""
    for segment_key, sites in itertools.groupby(
        transform.sites.values(), key=lambda site: site.segment.key
    ):
        statuses = [site.vector for site in sites]
        blocked = [reason for plan, reason in statuses if plan is None]
        if len(blocked) == len(statuses):
            return "none", f"{segment_key}: {blocked[0]}"
        if blocked and not any_blocked:
            any_blocked = f"{segment_key}: {blocked[0]}"
    if any_blocked:
        return "partial", any_blocked
    return "full", ""
