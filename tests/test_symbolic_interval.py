"""Tests for symbolic intervals, boxes, and constraint solving."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.symbolic import Affine, Assumptions, Box, Interval, solve_bounds_for
from repro.symbolic.expr import SymbolicCompareError
from repro.symbolic.solve import UnsatisfiableConstraint

n = Affine.var("n")
i = Affine.var("i")
ASM = Assumptions({"n": (1, None)})


class TestInterval:
    def test_point(self):
        iv = Interval.point(i)
        assert iv.lo == i and iv.hi == i + 1

    def test_length(self):
        assert Interval(1, n).length() == n - 1

    def test_emptiness_decidable(self):
        assert Interval(0, 0).is_empty() is True
        assert Interval(0, 1).is_empty() is False
        assert Interval(0, n).is_empty(ASM) is False

    def test_emptiness_undecidable(self):
        assert Interval(0, n).is_empty() is None  # n could be 0

    def test_intersect(self):
        left = Interval(0, n)
        right = Interval(1, n + 1)
        both = left.intersect(right)
        assert both == Interval(1, n)

    def test_intersect_undecidable(self):
        with pytest.raises(SymbolicCompareError):
            Interval(i, n).intersect(Interval(n, i))

    def test_shift(self):
        assert Interval(0, n).shift(1) == Interval(1, n + 1)

    def test_contains(self):
        assert Interval(0, n).contains(Interval(1, n - 1), ASM)
        assert not Interval(1, n).contains(Interval(0, n), ASM)

    def test_contains_empty_always(self):
        assert Interval(5, 6).contains(Interval(3, 3))

    def test_concrete(self):
        assert Interval(1, n).concrete({"n": 10}) == (1, 10)

    def test_concrete_rounds_halfopen(self):
        # [n/2, n): for n=5 integer members are 3,4 -> (3, 5)
        assert Interval(n / 2, n).concrete({"n": 5}) == (3, 5)


class TestBox:
    def test_cell(self):
        box = Box.cell([i, i + 1])
        assert box.ndim == 2
        assert box.intervals[0] == Interval(i, i + 1)

    def test_whole(self):
        box = Box.whole([n, n])
        assert box.intervals == (Interval(0, n), Interval(0, n))

    def test_intersect(self):
        a = Box([(0, n), (0, n)])
        b = Box([(1, n), (0, n - 1)])
        assert a.intersect(b) == Box([(1, n), (0, n - 1)])

    def test_intersect_dim_mismatch(self):
        with pytest.raises(ValueError):
            Box([(0, n)]).intersect(Box([(0, n), (0, n)]))

    def test_shift(self):
        assert Box([(0, n)]).shift([2]) == Box([(2, n + 2)])

    def test_volume(self):
        assert Box([(0, n), (1, n)]).volume({"n": 4}) == 12

    def test_volume_empty_clamps_to_zero(self):
        assert Box([(3, 1)]).volume({}) == 0

    def test_scalar_box(self):
        box = Box([])
        assert box.ndim == 0
        assert box.is_empty() is False
        assert box.volume({}) == 1

    def test_contains(self):
        outer = Box.whole([n, n])
        inner = Box([(1, n - 1), (0, n)])
        assert outer.contains(inner, ASM)
        assert not inner.contains(outer, ASM)

    def test_emptiness_any_dimension(self):
        assert Box([(0, 1), (2, 2)]).is_empty() is True


class TestSolveBounds:
    def test_identity_index(self):
        # 0 <= i < n  =>  i in [0, n)
        assert solve_bounds_for("i", i, 0, n) == Interval(0, n)

    def test_offset_index(self):
        # 0 <= i-1 < n  =>  i in [1, n+1)
        assert solve_bounds_for("i", i - 1, 0, n) == Interval(1, n + 1)

    def test_scaled_index(self):
        # 0 <= 2i < n  =>  i in [0, n/2)
        assert solve_bounds_for("i", i * 2, 0, n) == Interval(0, n / 2)

    def test_negative_coefficient(self):
        # 0 <= n-1-i < n  =>  i in (-1, n-1] = [0, n)
        iv = solve_bounds_for("i", n - 1 - i, 0, n)
        assert iv.concrete({"n": 7}) == (0, 7)

    def test_unconstrained_variable(self):
        assert solve_bounds_for("i", n / 2, 0, n, ASM) is None

    def test_provably_violated(self):
        with pytest.raises(UnsatisfiableConstraint):
            solve_bounds_for("i", Affine.const(-1), 0, n, ASM)

    @given(st.integers(1, 40), st.integers(-3, 3), st.integers(1, 3))
    def test_solution_matches_bruteforce(self, size, offset, scale):
        # constraint: 0 <= scale*i + offset < size
        expr = i * scale + offset
        interval = solve_bounds_for("i", expr, 0, n)
        lo, hi = interval.concrete({"n": size})
        expected = [
            v for v in range(-10, size + 10) if 0 <= scale * v + offset < size
        ]
        got = [v for v in range(lo, hi)]
        assert got == expected

    @given(st.integers(1, 40), st.integers(-3, 3), st.integers(1, 3))
    def test_solution_matches_bruteforce_negative_scale(self, size, offset, scale):
        # constraint: 0 <= -scale*i + offset + n < size; the negative-
        # coefficient branch flips strict/inclusive bounds, and for
        # |scale| > 1 the half-open conversion must shift by the exact
        # 1/lcm step (a flat +1 used to admit an extra instance).
        expr = i * (-scale) + offset + n
        interval = solve_bounds_for("i", expr, 0, n)
        lo, hi = interval.concrete({"n": size})
        expected = [
            v
            for v in range(-60, size + 60)
            if 0 <= -scale * v + offset + size < size
        ]
        assert [v for v in range(lo, hi)] == expected
