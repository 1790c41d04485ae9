"""Variable-accuracy autotuning support (paper §4.1.3-4.1.4).

For algorithms with a time/accuracy trade-off (the multigrid Poisson
solver), the tuner keeps, instead of one optimal algorithm per input
size, a *set*: the fastest algorithm achieving at least ``p_i`` for each
accuracy level in a discrete bin list (:data:`ACCURACY_BINS`, the
paper's).  This module is the one home of that vocabulary: the bins,
the metric, the iterate-until-accurate search and the per-bin pick.

``accuracy`` follows the paper's definition: the ratio of input RMS
error to output RMS error, so higher is better and one multigrid V-cycle
multiplies accuracies roughly independently of absolute error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generic, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: The paper's discrete accuracy levels (the Poisson benchmark's bins).
ACCURACY_BINS: Tuple[float, ...] = (1e1, 1e3, 1e5, 1e7, 1e9)


@dataclass(frozen=True)
class Scored(Generic[T]):
    """A candidate with its measured time and achieved accuracy."""

    candidate: T
    time: float
    accuracy: float


def accuracy_ratio(err0: float, err: float) -> float:
    """Paper §4.1.3: accuracy = RMS error of the input (``err0``) / RMS
    error of the output (``err``)."""
    if err <= 0:
        return float("inf")
    return err0 / err


def rms(values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(np.square(values))))


def fewest_steps(
    step: Callable[[T], T],
    state: T,
    accuracy: Callable[[T], float],
    target: float,
    cap: int,
) -> Optional[int]:
    """The fewest applications of ``step`` to ``state`` after which
    ``accuracy`` reaches ``target`` — the trained count behind the
    paper's "iterate until accuracy p_i is achieved".  ``None`` past
    ``cap`` steps or when a step raises."""
    for count in range(1, cap + 1):
        try:
            state = step(state)
        except Exception:
            return None
        if accuracy(state) >= target:
            return count
    return None


def pareto_front(scored: Sequence[Scored]) -> List[Scored]:
    """Candidates not dominated in both accuracy and time (the square
    markers of Figure 9a).  Lower time and higher accuracy are better."""
    ordered = sorted(scored, key=lambda s: (s.time, -s.accuracy))
    front: List[Scored] = []
    best_accuracy = -float("inf")
    for entry in ordered:
        if entry.accuracy > best_accuracy:
            front.append(entry)
            best_accuracy = entry.accuracy
    return front


def fastest_per_bin(
    scored: Sequence[Scored],
    bins: Sequence[float] = ACCURACY_BINS,
) -> Dict[float, Optional[Scored]]:
    """For each accuracy level, the fastest candidate achieving at least
    it (the solid squares of Figure 9a); None when no candidate reaches
    the level."""
    result: Dict[float, Optional[Scored]] = {}
    for level in bins:
        achieving = [s for s in scored if s.accuracy >= level]
        result[level] = (
            min(achieving, key=lambda s: s.time) if achieving else None
        )
    return result
