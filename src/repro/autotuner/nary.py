"""N-ary search for scalar tunables (paper §3.3).

PetaBricks tunes cutoffs, block sizes, and user tunables with an n-ary
search: probe ``n`` geometrically spaced values across the range, narrow
the range around the best probe, repeat until converged.  Cutoff-style
parameters have smooth unimodal-ish cost curves, so this converges in a
handful of rounds with far fewer evaluations than a full sweep.

Each round's probe set is known before any probe is evaluated, so the
objective scores a whole list of values at once: the tuner hands each
round to the evaluator as one batch, which may fan it out over a process
pool (:mod:`repro.autotuner.evaluation`).
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple


def _probe_points(lo: int, hi: int, arity: int) -> List[int]:
    """At most ``arity`` distinct integers spanning [lo, hi] geometrically.

    Degenerate cases: an empty or single-point range yields ``[lo]``;
    ``arity < 2`` cannot space interior probes, so it degrades to
    endpoint probing ``[lo, hi]``.
    """
    if lo < 0:
        raise ValueError("n-ary search operates on non-negative ranges")
    if hi <= lo:
        return [lo]
    if arity < 2:
        return [lo, hi]
    if lo == 0:
        # Zero breaks geometric spacing (binary knobs like __fuse__,
        # zero-based user tunables): probe it explicitly and space the
        # remaining probes over [1, hi].
        return sorted({0, *_probe_points(1, hi, max(1, arity - 1))})
    points = set()
    ratio = (hi / lo) ** (1.0 / (arity - 1))
    value = float(lo)
    for _ in range(arity):
        points.add(int(round(value)))
        value *= ratio
    points.add(lo)
    points.add(hi)
    return sorted(p for p in points if lo <= p <= hi)


def nary_search(
    objective: Callable[[Sequence[int]], Sequence[float]],
    lo: int,
    hi: int,
    arity: int = 4,
    rounds: int = 4,
) -> Tuple[int, float]:
    """Minimize the cost ``objective`` assigns to integers in [lo, hi].

    Returns ``(best_value, best_cost)``.  ``objective`` is called once
    per round with the not-yet-memoized probe values (distinct, in
    ascending order) and must return one cost per value; at most
    ``arity * rounds`` values are probed (plus boundary probes).
    """
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    cache = {}

    def evaluate_many(values: Sequence[int]) -> List[float]:
        missing = [v for v in values if v not in cache]
        if missing:
            costs = objective(missing)
            if len(costs) != len(missing):
                raise ValueError(
                    f"objective returned {len(costs)} costs "
                    f"for {len(missing)} values"
                )
            cache.update(zip(missing, costs))
        return [cache[v] for v in values]

    def evaluate(value: int) -> float:
        return evaluate_many([value])[0]

    cur_lo, cur_hi = lo, hi
    best_value, best_cost = lo, evaluate(lo)
    for _ in range(rounds):
        points = _probe_points(cur_lo, cur_hi, arity)
        scored = sorted(zip(evaluate_many(points), points))
        cost, value = scored[0]
        if cost < best_cost:
            best_cost, best_value = cost, value
        if len(points) <= 2:
            break
        # Narrow to the neighbourhood of the best probe.
        index = points.index(value)
        cur_lo = points[max(0, index - 1)]
        cur_hi = points[min(len(points) - 1, index + 1)]
        if cur_hi - cur_lo <= 1:
            break
    # Final local polish, only when the remaining range is small enough
    # to sweep exhaustively.
    if cur_hi - cur_lo <= 16:
        sweep = list(range(cur_lo, cur_hi + 1))
        for cost, value in zip(evaluate_many(sweep), sweep):
            if cost < best_cost:
                best_cost, best_value = cost, value
    return best_value, best_cost
