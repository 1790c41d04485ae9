"""Solving affine constraints for a single variable.

The applicable-region pass needs to answer: for which values of the rule
variable ``i`` does an index expression ``e(i)`` fall inside ``[lo, hi)``?
Because ``e`` is affine in ``i``, this is a one-variable linear
inequality: with ``e = c*i + r`` (``r`` free of ``i``),

* ``c > 0``:  ``i in [ (lo - r)/c, (hi - r)/c )``
* ``c < 0``:  the inequalities flip; the interval endpoints come from the
  opposite constraint sides.  Over the integers ``i > q`` is
  ``i >= floor(q) + 1`` — we encode that exactly as the affine bound
  ``q.stepped(1)`` (``q + 1/L`` over ``q``'s common denominator ``L``,
  see :meth:`Affine.stepped`; concrete evaluation rounds interval
  endpoints with ceil).  The same shift turns the inclusive upper bound
  ``i <= q`` into the half-open ``i < q + 1/L``.
* ``c == 0``: the constraint does not restrict ``i``; it is either always
  satisfiable (leave unbounded) or a compile-time error when provably
  violated.
"""

from __future__ import annotations

from typing import Optional

from repro.symbolic.assumptions import AssumptionsLike
from repro.symbolic.expr import Affine, AffineLike
from repro.symbolic.interval import Interval


class UnsatisfiableConstraint(Exception):
    """A dependency index provably falls outside its matrix for every value
    of the rule variables (a compile-time bug in the input program)."""


def solve_bounds_for(
    var: str,
    expr: AffineLike,
    lo: AffineLike,
    hi: AffineLike,
    assumptions: AssumptionsLike = None,
) -> Optional[Interval]:
    """Solve ``lo <= expr(var) < hi`` for ``var``.

    Returns the half-open interval of satisfying values of ``var`` (whose
    endpoints may mention other free variables), or ``None`` when the
    constraint does not involve ``var`` and is not provably violated.
    Raises :class:`UnsatisfiableConstraint` when the constraint is provably
    violated regardless of ``var``.
    """
    expr = Affine.coerce(expr)
    lo = Affine.coerce(lo)
    hi = Affine.coerce(hi)
    sign = expr.coefficient_sign(var)
    if sign == 0:
        # The constraint is independent of var: check satisfiability.
        if expr.always_lt(lo, assumptions) or hi.always_le(expr, assumptions):
            raise UnsatisfiableConstraint(
                f"index {expr} can never lie in [{lo}, {hi})"
            )
        return None

    # With expr = c*v + r: where expr meets lo, and where it meets hi.
    at_lo = (expr - lo).solved_for(var)
    at_hi = (expr - hi).solved_for(var)
    if sign > 0:
        return Interval(at_lo, at_hi)
    # Negative coefficient: lo <= c*v + r < hi  <=>
    #   (lo - r)/c >= v  and  v > (hi - r)/c.
    # expr decreasing in var: v ranges over ( (hi-r)/c , (lo-r)/c ].
    return Interval(at_hi.stepped(1), at_lo.stepped(1))

