"""Symbolic algebra for region analysis.

The PetaBricks compiler performs all of its region reasoning on *affine*
expressions over free variables (matrix sizes like ``n`` and rule
coordinates like ``i``, ``x``, ``y``).  The original system shelled out to
the Maxima CAS for this; everything the compiler actually needs — exact
rational affine arithmetic, inequality reasoning under variable bounds,
half-open interval algebra, and solving affine constraints for a single
variable — is provided natively by this package.

Representation invariant, shared by the whole package: an expression is
integer numerators over one positive, gcd-normalised common denominator
— ``(n0 + n1*v1 + ...) / den`` — and assumption ranges are plain ints, so
arithmetic, substitution, inequality reasoning and floor/ceil evaluation
are integer arithmetic throughout.  The form is canonical (``==`` and
``hash`` compare the stored fields) and is the one the generated kernels
evaluate.  :class:`fractions.Fraction` appears only in the exact read-out
accessors (``constant``, ``coefficient``, ``evaluate``, ``bounds`` ...).

Public surface:

* :class:`~repro.symbolic.expr.Affine` — exact affine expression
  ``c0 + c1*v1 + ...`` with rational coefficients.
* :class:`~repro.symbolic.assumptions.Assumptions` — per-variable integer
  bounds used to decide symbolic inequalities.
* :class:`~repro.symbolic.interval.Interval` /
  :class:`~repro.symbolic.interval.Box` — half-open symbolic intervals and
  their n-dimensional products.
* :func:`~repro.symbolic.solve.solve_bounds_for` — turn a constraint
  ``lo <= e(v) < hi`` into an interval for ``v``.

The package parses no text: expressions come from the DSL's one parser
and tree (:meth:`repro.language.ast_nodes.ExprNode.to_affine`).
"""

from repro.symbolic.assumptions import Assumptions
from repro.symbolic.expr import Affine, SymbolicCompareError
from repro.symbolic.interval import Box, Interval
from repro.symbolic.solve import solve_bounds_for

__all__ = [
    "Affine",
    "Assumptions",
    "Box",
    "Interval",
    "SymbolicCompareError",
    "solve_bounds_for",
]
