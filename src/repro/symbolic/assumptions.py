"""Variable-range assumptions used to decide symbolic inequalities.

The compiler reasons about region bounds like ``0 <= 1 <= n`` which only
hold under assumptions such as ``n >= 1``.  An :class:`Assumptions` object
records an inclusive integer range per variable, stored as plain ints so
that :class:`~repro.symbolic.expr.Affine` folds them into its integer
numerators without leaving the integers.  By default every variable is
assumed non-negative (coordinates and sizes are never negative in
PetaBricks), and transform *size* variables are typically registered
with a minimum of 1 by the compiler frontend.
"""

from __future__ import annotations

from operator import index
from typing import Dict, Mapping, Optional, Tuple, Union

Bound = Optional[int]
AssumptionsLike = Union["Assumptions", Mapping[str, Tuple[int, Optional[int]]], None]

_DEFAULT_RANGE: Tuple[Bound, Bound] = (0, None)


def _bound(value: Optional[int]) -> Bound:
    return None if value is None else index(value)


class Assumptions:
    """Inclusive per-variable ranges ``lo <= var <= hi`` (``hi=None`` means
    unbounded above)."""

    __slots__ = ("_ranges",)

    def __init__(
        self, ranges: Optional[Mapping[str, Tuple[Optional[int], Optional[int]]]] = None
    ) -> None:
        self._ranges: Dict[str, Tuple[Bound, Bound]] = {}
        if ranges:
            for var, (lo, hi) in ranges.items():
                self._ranges[var] = (_bound(lo), _bound(hi))

    @staticmethod
    def coerce(value: AssumptionsLike) -> "Assumptions":
        if value is None:
            return Assumptions()
        if isinstance(value, Assumptions):
            return value
        return Assumptions(value)

    def range_of(self, var: str) -> Tuple[Bound, Bound]:
        """The assumed inclusive range of ``var``."""
        return self._ranges.get(var, _DEFAULT_RANGE)

    def with_at_least(self, var: str, minimum: int) -> "Assumptions":
        """A copy with ``var >= minimum`` added (tightening only)."""
        lo, hi = self.range_of(var)
        new_lo = index(minimum) if lo is None else max(lo, index(minimum))
        copy = Assumptions()
        copy._ranges = dict(self._ranges)
        copy._ranges[var] = (new_lo, hi)
        return copy

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{var}:[{lo},{'inf' if hi is None else hi}]"
            for var, (lo, hi) in sorted(self._ranges.items())
        )
        return f"Assumptions({inner})"
