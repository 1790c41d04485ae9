"""The Sort benchmark (paper §1.1, §4.3, §5.1-5.2).

One generalized ``Sort`` transform with seven algorithmic choices, each
of which recurses *through Sort itself*, so the autotuner can switch
algorithms at every level of the recursion — the paper's central example:

====  =====================================  =======================
rule  algorithm                              parallel structure
====  =====================================  =======================
0     insertion sort (IS)                    sequential
1     quicksort (QS), median-of-3            parallel recursion only
2     2-way merge sort (2MS)                 parallel recursion +
                                             parallelizable recursive
                                             merge (paper §4.3)
3     4-way merge sort (4MS)                 parallel recursion,
                                             sequential k-way merge
4     8-way merge sort (8MS)                 as 4MS
5     16-way merge sort (16MS)               as 4MS
6     16-bucket MSD radix sort (RS)          sequential scatter,
                                             parallel bucket recursion
====  =====================================  =======================

Cost model (work unit = one comparison-and-move; constants calibrated so
the sequential IS/QS crossover lands in the paper's 60-150 range and
radix wins large sequential sorts, as in Table 2):

* every Sort call charges ``CALL_OVERHEAD`` (function/dispatch cost),
* IS: ``n^2/4 + n`` (average-case shifts),
* QS: ``1.2 n`` per partition,
* kMS: ``1.35 n log2(k)`` per merge + per-chunk split cost,
* RS: ``2.4 n`` per scatter pass + ``BUCKET_OVERHEAD`` for the 16
  bucket headers.

The numeric results are always exact (kernels sort for real); the work
charges price them for the schedule simulator (see DESIGN.md).
"""

from __future__ import annotations

import random
from typing import List

import numpy as np

from repro.compiler import CompiledProgram, TransformBuilder, compile_program

CALL_OVERHEAD = 15.0
IS_SHIFT = 0.25
QS_PARTITION = 1.2
MS_MERGE = 1.35
MS_SPLIT = 0.15
RS_SCATTER = 2.4
BUCKET_OVERHEAD = 60.0
RADIX_BUCKETS = 16
#: block size below which the 2-way parallel merge stops splitting
MERGE_LEAF = 1024

#: rule index -> the paper's abbreviation (Table 2 naming)
ALGORITHM_NAMES = ("IS", "QS", "2MS", "4MS", "8MS", "16MS", "RS")


def _read(ctx):
    view = ctx["in"]
    return view.to_numpy(), ctx["out"], view.shape[0]


def insertion_sort(ctx) -> None:
    data, out, n = _read(ctx)
    out.assign(np.sort(data, kind="stable"))
    ctx.charge(CALL_OVERHEAD + IS_SHIFT * n * n + n)


def _partition(keys: np.ndarray):
    """Median-of-three pivot, three-way partition of ``keys``."""
    k = keys.size
    pivot = sorted((keys[0], keys[k // 2], keys[k - 1]))[1]
    return keys[keys < pivot], keys[keys == pivot], keys[keys > pivot]


def quick_sort(ctx) -> None:
    data, out, n = _read(ctx)
    if n <= 1:
        out.assign(data)
        ctx.charge(CALL_OVERHEAD)
        return
    left, middle, right = _partition(data)
    nans = None
    if left.size + middle.size + right.size < n:
        # NaN keys compare false, so they fall in no part (a NaN pivot
        # empties all three): partition the other keys and put the NaNs
        # last, in input order, where every other choice puts them.
        is_nan = np.isnan(data)
        keys, nans = data[~is_nan], data[is_nan]
        left, middle, right = _partition(keys) if keys.size else (keys,) * 3
    ctx.charge(CALL_OVERHEAD + QS_PARTITION * n)
    parts = ctx.parallel(
        lambda: ctx.call("Sort", left).to_numpy() if left.size else left,
        lambda: ctx.call("Sort", right).to_numpy() if right.size else right,
    )
    merged = [parts[0], middle, parts[1]]
    if nans is not None:
        merged.append(nans)
    out.assign(np.concatenate(merged))


def _parallel_merge(ctx, size: int) -> None:
    """Task structure of the 2-way recursive merge (paper §4.3): the
    merge splits in half around a binary search and the halves proceed
    in parallel; work totals MS_MERGE * size across the leaves."""
    if size <= MERGE_LEAF:
        ctx.charge(MS_MERGE * size)
        return
    half = size // 2
    ctx.charge(np.log2(max(2, size)))  # the binary search
    ctx.parallel(
        lambda: _parallel_merge(ctx, half),
        lambda: _parallel_merge(ctx, size - half),
    )


def make_merge_sort(ways: int):
    """An n-way merge sort rule body (paper: the compiler selects n)."""

    def merge_sort(ctx) -> None:
        data, out, n = _read(ctx)
        if n <= 1:
            out.assign(data)
            ctx.charge(CALL_OVERHEAD)
            return
        # np.array_split's chunks: the first n % ways one key longer
        size, extra = divmod(n, ways)
        ends = [k * size + min(k, extra) for k in range(ways + 1)]
        chunks = [data[lo:hi] for lo, hi in zip(ends, ends[1:]) if hi > lo]
        ctx.charge(CALL_OVERHEAD + MS_SPLIT * n)
        sorted_chunks = ctx.parallel(
            *[
                (lambda chunk=chunk: ctx.call("Sort", chunk).to_numpy())
                for chunk in chunks
            ]
        )
        merged = np.sort(np.concatenate(sorted_chunks), kind="stable")
        out.assign(merged)
        if ways == 2:
            # 2MS: the recursive merge itself is a parallel task tree.
            _parallel_merge(ctx, n)
        else:
            # k-way heap merge: sequential, n log2(k) comparisons.
            ctx.charge(MS_MERGE * n * np.log2(ways))

    merge_sort.__name__ = f"merge_sort_{ways}way"
    return merge_sort


def radix_sort(ctx) -> None:
    """MSD radix sort with 16 buckets; each bucket recursively calls the
    generalized Sort (so the tuner picks the per-bucket algorithm)."""
    data, out, n = _read(ctx)
    if n <= 1:
        out.assign(data)
        ctx.charge(CALL_OVERHEAD)
        return
    lo = float(np.min(data))
    hi = float(np.max(data))
    if lo == hi:
        out.assign(data)
        ctx.charge(CALL_OVERHEAD + n)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = (data - lo) * (RADIX_BUCKETS / (hi - lo))
        scaled = np.nan_to_num(
            scaled, nan=0.0, posinf=RADIX_BUCKETS - 1, neginf=0.0
        )
    digits = np.clip(scaled.astype(np.int64), 0, RADIX_BUCKETS - 1)
    buckets = [data[digits == k] for k in range(RADIX_BUCKETS)]
    if max(bucket.size for bucket in buckets) == n:
        # Degenerate key range (e.g. a subnormal span, where
        # RADIX_BUCKETS/(hi-lo) overflows): every key lands in one
        # bucket and recursing would never make progress.  Sort
        # directly, priced as the merge pass it replaces.
        out.assign(np.sort(data, kind="stable"))
        ctx.charge(CALL_OVERHEAD + MS_MERGE * n * max(1.0, np.log2(n)))
        return
    ctx.charge(CALL_OVERHEAD + BUCKET_OVERHEAD + RS_SCATTER * n)
    sorted_buckets = ctx.parallel(
        *[
            (lambda bucket=bucket: ctx.call("Sort", bucket).to_numpy())
            for bucket in buckets
            if bucket.size
        ]
    )
    out.assign(np.concatenate(sorted_buckets))


def build_program() -> CompiledProgram:
    """Compile the Sort benchmark program."""
    b = TransformBuilder("Sort")
    b.input("A", "n")
    b.output("B", "n")
    bodies = [
        ("IS", insertion_sort, False),
        ("QS", quick_sort, True),
        ("2MS", make_merge_sort(2), True),
        ("4MS", make_merge_sort(4), True),
        ("8MS", make_merge_sort(8), True),
        ("16MS", make_merge_sort(16), True),
        ("RS", radix_sort, True),
    ]
    for label, body, recursive in bodies:
        b.rule(
            to=[("B", "all", "out")],
            from_=[("A", "all", "in")],
            body=body,
            label=label,
            recursive=recursive,
        )
    return compile_program([b.build()])


#: The single choice site of the Sort benchmark.
SORT_SITE = "Sort.B.0"


def input_generator(size: int, rng: random.Random) -> List[np.ndarray]:
    """Uniform random keys (the paper sorts random integer arrays; a
    uniform float key exercises identical comparison behaviour)."""
    return [np.array([rng.random() for _ in range(size)])]


def size_metric(n: int) -> int:
    """The engine's selection metric for a Sort call on ``n`` elements:
    input + output footprint (pass as the tuner's ``threshold_metric``)."""
    return 2 * n


def make_evaluator(
    machine_name: str = "xeon8",
    workers=None,
    trials: int = 1,
    seed: int = 20090615,
):
    """Build the Sort objective — also the picklable spec factory
    (``"repro.apps.sort:make_evaluator"``) that parallel-tuning worker
    processes call to rebuild the evaluator on their side."""
    from repro.autotuner.evaluation import Evaluator
    from repro.runtime.machine import MACHINES

    return Evaluator(
        build_program(),
        "Sort",
        input_generator,
        MACHINES[machine_name],
        workers=workers,
        trials=trials,
        seed=seed,
    )


def describe_config(config) -> str:
    """Render a tuned sort config in the paper's Table 2 notation, e.g.
    ``IS(150) QS(1420) 2MS(inf)``.  Selector thresholds are stored in
    footprint units (2n), so they are halved back to element counts."""
    selector = config.choice_for(SORT_SITE)
    if selector is None:
        return "IS(inf)"
    parts = []
    for max_size, option in selector.levels:
        bound = "inf" if max_size is None else str(max_size // 2)
        parts.append(f"{ALGORITHM_NAMES[option]}({bound})")
    return " ".join(parts)
