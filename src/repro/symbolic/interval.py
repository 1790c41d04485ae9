"""Half-open symbolic intervals and n-dimensional boxes.

Every region in PetaBricks is a rectilinear box with affine bounds; the
applicable-region and choice-grid passes manipulate these as
``[lo, hi)`` products.  Interval endpoints are :class:`Affine`
expressions, so emptiness and containment are decided symbolically under
:class:`Assumptions`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.symbolic.assumptions import AssumptionsLike
from repro.symbolic.expr import Affine, AffineLike, Number, SymbolicCompareError

IntervalLike = Union["Interval", Tuple[AffineLike, AffineLike]]


class Interval:
    """A half-open interval ``[lo, hi)`` with affine endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: AffineLike, hi: AffineLike) -> None:
        self.lo = Affine.coerce(lo)
        self.hi = Affine.coerce(hi)

    @staticmethod
    def coerce(value: IntervalLike) -> "Interval":
        if isinstance(value, Interval):
            return value
        lo, hi = value
        return Interval(lo, hi)

    @staticmethod
    def point(at: AffineLike) -> "Interval":
        """The unit interval ``[at, at+1)`` covering a single cell."""
        expr = Affine.coerce(at)
        return Interval(expr, expr + 1)

    @staticmethod
    def empty() -> "Interval":
        return Interval(0, 0)

    def length(self) -> Affine:
        return self.hi - self.lo

    def is_empty(self, assumptions: AssumptionsLike = None) -> Optional[bool]:
        """True/False if decidable, None if it depends on variable values."""
        if self.hi.always_le(self.lo, assumptions):
            return True
        if self.lo.always_lt(self.hi, assumptions):
            return False
        return None

    def intersect(
        self, other: IntervalLike, assumptions: AssumptionsLike = None
    ) -> "Interval":
        """Symbolic intersection: max of lows, min of highs.

        When the ordering of the two lows (or highs) is undecidable under
        the assumptions the result cannot be expressed as a single affine
        bound and a :class:`SymbolicCompareError` is raised.
        """
        other = Interval.coerce(other)
        return Interval(
            symbolic_max(self.lo, other.lo, assumptions),
            symbolic_min(self.hi, other.hi, assumptions),
        )

    def shift(self, offset: AffineLike) -> "Interval":
        offset = Affine.coerce(offset)
        return Interval(self.lo + offset, self.hi + offset)

    def subs(self, env: Mapping[str, AffineLike]) -> "Interval":
        return Interval(self.lo.subs(env), self.hi.subs(env))

    def contains(
        self, other: IntervalLike, assumptions: AssumptionsLike = None
    ) -> bool:
        """True when ``other`` is provably inside ``self``."""
        other = Interval.coerce(other)
        if other.is_empty(assumptions) is True:
            return True
        return self.lo.always_le(other.lo, assumptions) and other.hi.always_le(
            self.hi, assumptions
        )

    def concrete(self, env: Mapping[str, Number]) -> Tuple[int, int]:
        """Integer endpoints under a full assignment.

        For integer iteration over ``[lo, hi)``, a fractional lower bound
        rounds up (smallest integer >= lo) and a fractional upper bound
        rounds up as well (integers i satisfy ``i < q`` iff ``i < ceil(q)``).
        """
        return self.lo.eval_ceil(env), self.hi.eval_ceil(env)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi})"


def _sweep(expr: Affine, bounds: Mapping[str, Interval], upper: bool) -> Affine:
    swept = expr
    for var in expr.variables():
        interval = bounds.get(var)
        if interval is not None:
            high = (swept.coefficient_sign(var) > 0) == upper
            swept = swept.subs({var: interval.hi - 1 if high else interval.lo})
    return swept


def symbolic_max(a: Affine, b: Affine, assumptions: AssumptionsLike = None) -> Affine:
    """Whichever of ``a``, ``b`` is provably the larger under ``assumptions``."""
    if a.always_ge(b, assumptions):
        return a
    if b.always_ge(a, assumptions):
        return b
    raise SymbolicCompareError(f"cannot compute max({a}, {b}) symbolically")


def symbolic_min(a: Affine, b: Affine, assumptions: AssumptionsLike = None) -> Affine:
    """Whichever of ``a``, ``b`` is provably the smaller under ``assumptions``."""
    if a.always_le(b, assumptions):
        return a
    if b.always_le(a, assumptions):
        return b
    raise SymbolicCompareError(f"cannot compute min({a}, {b}) symbolically")


class Box:
    """An n-dimensional product of half-open intervals.

    A zero-dimensional box represents a scalar region (used for
    zero-dimensional matrices, which PetaBricks treats as single values).
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[IntervalLike]) -> None:
        self.intervals: Tuple[Interval, ...] = tuple(
            Interval.coerce(iv) for iv in intervals
        )

    @staticmethod
    def cell(coords: Sequence[AffineLike]) -> "Box":
        """The unit box covering a single cell at ``coords``."""
        return Box([Interval.point(c) for c in coords])

    @staticmethod
    def whole(sizes: Sequence[AffineLike]) -> "Box":
        """The box ``[0, size)`` in every dimension."""
        return Box([Interval(0, s) for s in sizes])

    @property
    def ndim(self) -> int:
        return len(self.intervals)

    def is_empty(self, assumptions: AssumptionsLike = None) -> Optional[bool]:
        """Empty if any dimension is empty; None when undecidable."""
        any_unknown = False
        for interval in self.intervals:
            state = interval.is_empty(assumptions)
            if state is True:
                return True
            if state is None:
                any_unknown = True
        return None if any_unknown else False

    def intersect(
        self, other: "Box", assumptions: AssumptionsLike = None
    ) -> "Box":
        if self.ndim != other.ndim:
            raise ValueError(
                f"dimension mismatch: {self.ndim} vs {other.ndim}"
            )
        return Box(
            a.intersect(b, assumptions)
            for a, b in zip(self.intervals, other.intervals)
        )

    def shift(self, offsets: Sequence[AffineLike]) -> "Box":
        if len(offsets) != self.ndim:
            raise ValueError("offset arity mismatch")
        return Box(
            iv.shift(off) for iv, off in zip(self.intervals, offsets)
        )

    def subs(self, env: Mapping[str, AffineLike]) -> "Box":
        return Box(iv.subs(env) for iv in self.intervals)

    def swept(self, bounds: Mapping[str, Interval]) -> "Box":
        """The box covered as each variable of ``bounds`` sweeps its
        half-open interval: per dimension the least ``lo`` and the
        greatest ``hi``; other variables stay symbolic."""
        return Box(
            Interval(_sweep(iv.lo, bounds, False), _sweep(iv.hi, bounds, True))
            for iv in self.intervals
        )

    def contains(self, other: "Box", assumptions: AssumptionsLike = None) -> bool:
        if self.ndim != other.ndim:
            return False
        return all(
            a.contains(b, assumptions)
            for a, b in zip(self.intervals, other.intervals)
        )

    def concrete(self, env: Mapping[str, Number]) -> Tuple[Tuple[int, int], ...]:
        """Integer ``(lo, hi)`` per dimension under a full assignment."""
        return tuple(iv.concrete(env) for iv in self.intervals)

    def volume(self, env: Mapping[str, Number]) -> int:
        """Number of integer cells under a full assignment."""
        total = 1
        for lo, hi in self.concrete(env):
            total *= max(0, hi - lo)
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        if not self.intervals:
            return "Box(scalar)"
        return " x ".join(repr(iv) for iv in self.intervals)
