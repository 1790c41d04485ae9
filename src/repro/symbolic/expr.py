"""Exact affine symbolic expressions.

An :class:`Affine` is an expression of the form ``c0 + c1*v1 + c2*v2 + ...``
with exact rational coefficients over string-named variables.  This is the
only expression family the PetaBricks compiler needs: every region bound in
the language (``n``, ``n/2``, ``i-1``, ``c/2 + 1`` ...) is affine in the
transform's free variables.

**Representation invariant.**  An expression is stored as integer
numerators over one common denominator,

    ``(n0 + n1*v1 + n2*v2 + ...) / den``

with the terms sorted by variable name, every ``ni != 0``, ``den > 0`` and
``gcd(n0, n1, ..., den) == 1``.  That form is canonical — two expressions
are equal exactly when the three stored fields are — so ``==`` and ``hash``
are tuple compares, arithmetic is integer arithmetic (numerators merge when
the denominators match, which is almost always ``den == 1``), and the
inequality reasoning tests the sign of an integer numerator.  It is also
the form the generated kernels evaluate (``KernelBuilder._affine`` emits
``-((-num) // den)``), read off here through :meth:`Affine.as_integers`
rather than re-derived.

Division keeps exact rational coefficients; integral semantics (C-style
flooring) are applied only when an expression is *evaluated* against a
concrete environment, which matches how the original compiler deferred
integer rounding to the runtime.  ``eval_floor``/``eval_ceil`` are
``num // den`` and ``-((-num) // den)`` and never leave the integers.
``evaluate`` (and ``constant``, ``coefficient(s)``, ``as_constant``,
``bounds``) still return :class:`fractions.Fraction`: they are the exact
rational *read-out* of the public surface, built on demand for callers
that compare or print a value, and nothing on the compile or run path
needs them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.symbolic.assumptions import Assumptions, AssumptionsLike

Number = Union[int, Fraction]
AffineLike = Union["Affine", int, Fraction]
Terms = Tuple[Tuple[str, int], ...]


class SymbolicCompareError(Exception):
    """Raised when an inequality between affine expressions is undecidable
    under the available assumptions."""


def _ratio(value: Number) -> Tuple[int, int]:
    """``(numerator, denominator)`` of an int or Fraction, in lowest terms."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Affine:
    """An immutable affine expression ``const + sum(coeff[v] * v)``.

    Instances are hashable and support ``+ - * /`` with other affine
    expressions and numbers (multiplication and division require at least
    one constant operand, since the result must stay affine).
    """

    __slots__ = ("_n0", "_terms", "_den", "_hash")

    def __init__(
        self,
        const: Number = 0,
        coeffs: Optional[Mapping[str, Number]] = None,
    ) -> None:
        n0, den = _ratio(const)
        terms: Terms = ()
        if coeffs:
            ratios = [(var, *_ratio(c)) for var, c in coeffs.items()]
            common = math.lcm(den, *(d for _, _, d in ratios))
            n0 *= common // den
            den = common
            # Every input is in lowest terms and ``den`` is their lcm, so
            # the scaled numerators already share no factor with it.
            terms = tuple(
                sorted((var, n * (den // d)) for var, n, d in ratios if n)
            )
        self._n0 = n0
        self._terms = terms
        self._den = den
        self._hash: Optional[int] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def var(name: str) -> "Affine":
        """The expression consisting of a single variable."""
        return _raw(0, ((name, 1),), 1)

    @staticmethod
    def const(value: Number) -> "Affine":
        """A constant expression."""
        return Affine(value)

    @staticmethod
    def coerce(value: AffineLike) -> "Affine":
        """Convert ints, Fractions, or Affines to Affine.  Text is the DSL
        parser's: ``repro.language.parser.parse_expression(text).to_affine()``."""
        if isinstance(value, Affine):
            return value
        if isinstance(value, (int, Fraction)):
            return Affine(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Affine")

    # -- accessors ---------------------------------------------------------

    @property
    def constant(self) -> Fraction:
        """The constant term."""
        return Fraction(self._n0, self._den)

    @property
    def coefficients(self) -> Dict[str, Fraction]:
        """A fresh dict of variable coefficients (non-zero only)."""
        den = self._den
        return {var: Fraction(n, den) for var, n in self._terms}

    def coefficient(self, var: str) -> Fraction:
        """The coefficient of ``var`` (zero if absent)."""
        return Fraction(self._numerator_of(var), self._den)

    def coefficient_sign(self, var: str) -> int:
        """-1, 0 or +1: the sign of the coefficient of ``var``."""
        n = self._numerator_of(var)
        return (n > 0) - (n < 0)

    def _numerator_of(self, var: str) -> int:
        for name, n in self._terms:
            if name == var:
                return n
        return 0

    def variables(self) -> Tuple[str, ...]:
        """The variables with non-zero coefficient, sorted."""
        return tuple(name for name, _ in self._terms)

    def is_constant(self) -> bool:
        return not self._terms

    def without(self, names: Collection[str]) -> "Affine":
        """This expression with the terms of ``names`` dropped."""
        kept = tuple(term for term in self._terms if term[0] not in names)
        return self if len(kept) == len(self._terms) else _reduced(self._n0, kept, self._den)

    def as_integers(self) -> Tuple[int, Terms, int]:
        """The stored form ``(n0, ((var, n), ...), den)``: the expression is
        ``(n0 + sum(n * var)) / den`` with terms sorted by variable and the
        integers sharing no common factor (see the module docstring)."""
        return self._n0, self._terms, self._den

    def denominator_lcm(self) -> int:
        """LCM of all coefficient/constant denominators — the stored
        common denominator.

        Under any integer assignment of the variables, the expression's
        value is a multiple of ``1/L`` where ``L`` is this LCM.  That
        granularity is what converts inclusive integer bounds to exact
        half-open form, see :meth:`stepped`.
        """
        return self._den

    def stepped(self, steps: int) -> "Affine":
        """``self + steps/L`` with ``L = denominator_lcm()``: the next
        (``steps=1``) or previous (``steps=-1``) value the expression can
        take under integer variables.

        This is how integer strictness is encoded in half-open bounds:
        ``v <= q`` over integers is ``v < q + 1/L``, and ``ceil(q + 1/L)
        == floor(q) + 1`` exactly (for integral ``q`` both sides are
        ``q + 1``); likewise ``e > 0`` is ``e - 1/L >= 0``.  A flat ``± 1``
        shift is off by one whenever ``q`` evaluates to a non-integer.
        """
        return _reduced(self._n0 + steps, self._terms, self._den)

    def as_constant(self) -> Fraction:
        """The value of a constant expression (raises if not constant)."""
        if self._terms:
            raise ValueError(f"{self} is not constant")
        return Fraction(self._n0, self._den)

    # -- arithmetic --------------------------------------------------------

    def _plus(self, other: AffineLike, k: int) -> "Affine":
        """``self + k*other`` (``k`` is ±1), in integers."""
        den = self._den
        if other.__class__ is not Affine:
            if other.__class__ is int:
                # n0 ± m*den keeps the gcd with den, the terms unchanged.
                return _raw(self._n0 + k * other * den, self._terms, den)
            other = Affine.coerce(other)
        mine: Iterable[Tuple[str, int]] = self._terms
        theirs: Iterable[Tuple[str, int]] = other._terms
        if den == other._den:
            n0 = self._n0 + k * other._n0
        else:
            common = math.lcm(den, other._den)
            a, b = common // den, common // other._den
            n0 = a * self._n0 + k * b * other._n0
            mine = tuple((var, a * n) for var, n in mine)
            theirs = [(var, b * n) for var, n in theirs]
            den = common
        if theirs:
            merged = dict(mine)
            for var, n in theirs:
                total = merged.get(var, 0) + k * n
                if total:
                    merged[var] = total
                else:
                    del merged[var]
            mine = tuple(sorted(merged.items()))
        return _reduced(n0, mine, den)

    def __add__(self, other: AffineLike) -> "Affine":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return _raw(
            -self._n0, tuple((var, -n) for var, n in self._terms), self._den
        )

    def __sub__(self, other: AffineLike) -> "Affine":
        return self._plus(other, -1)

    def __rsub__(self, other: AffineLike) -> "Affine":
        return Affine.coerce(other)._plus(self, -1)

    def _scaled(self, num: int, den: int) -> "Affine":
        """``self * num/den`` for ``den > 0``."""
        if num == 0:
            return _raw(0, (), 1)
        return _reduced(
            self._n0 * num,
            tuple((var, n * num) for var, n in self._terms),
            self._den * den,
        )

    def __mul__(self, other: AffineLike) -> "Affine":
        if other.__class__ is int:
            return self._scaled(other, 1)
        other = Affine.coerce(other)
        if not other._terms:
            return self._scaled(other._n0, other._den)
        if not self._terms:
            return other._scaled(self._n0, self._den)
        raise ValueError(
            f"product of {self} and {other} is not affine"
        )

    def __rmul__(self, other: AffineLike) -> "Affine":
        return self.__mul__(other)

    def __truediv__(self, other: AffineLike) -> "Affine":
        other = Affine.coerce(other)
        if other._terms:
            raise ValueError(f"cannot divide by symbolic {other}")
        num, den = other._den, other._n0
        if den == 0:
            raise ZeroDivisionError("affine division by zero")
        if den < 0:
            num, den = -num, -den
        return self._scaled(num, den)

    # -- substitution, solving and evaluation --------------------------------

    def subs(self, env: Mapping[str, AffineLike]) -> "Affine":
        """Substitute variables with affine expressions or numbers."""
        if not any(var in env for var, _ in self._terms):
            return self
        replaced = [
            (n, Affine.coerce(env[var]) if var in env else Affine.var(var))
            for var, n in self._terms
        ]
        # One pass over a common denominator: self's, times the lcm of the
        # replacements' (1 in nearly every substitution the compiler makes).
        scale = math.lcm(*(by._den for _, by in replaced))
        n0 = self._n0 * scale
        terms: Dict[str, int] = {}
        for n, by in replaced:
            k = n * (scale // by._den)
            n0 += k * by._n0
            for inner, m in by._terms:
                terms[inner] = terms.get(inner, 0) + k * m
        return _reduced(
            n0,
            tuple(sorted((var, n) for var, n in terms.items() if n)),
            self._den * scale,
        )

    def solved_for(self, var: str) -> "Affine":
        """The value of ``var`` at which this expression is zero: with
        ``self = c*var + rest`` that is ``-rest/c``.  ``var`` must occur
        (``coefficient_sign(var) != 0``)."""
        c = self._numerator_of(var)
        if c == 0:
            raise ValueError(f"{self} does not depend on {var!r}")
        sign = -1 if c > 0 else 1
        return _reduced(
            sign * self._n0,
            tuple((name, sign * n) for name, n in self._terms if name != var),
            abs(c),
        )

    def _numerator(self, env: Mapping[str, Number]) -> Number:
        """``den`` times the value under a full assignment: an int when
        every value is an int, an exact Fraction otherwise."""
        total: Number = self._n0
        try:
            for var, n in self._terms:
                value = env[var]
                if not isinstance(value, (int, Fraction)):
                    raise TypeError(
                        f"expected int or Fraction, got {type(value).__name__}"
                    )
                total += n * value
        except KeyError:
            raise KeyError(
                f"no value for variable {var!r} in {self}"
            ) from None
        return total

    def evaluate(self, env: Mapping[str, Number]) -> Fraction:
        """Exact rational value under a full variable assignment."""
        return Fraction(self._numerator(env), self._den)

    def eval_floor(self, env: Mapping[str, Number]) -> int:
        """Integer value with C-style flooring (``n/2`` -> ``n // 2``)."""
        return self._numerator(env) // self._den

    def eval_ceil(self, env: Mapping[str, Number]) -> int:
        """Integer value rounded up; used for lower bounds of intervals."""
        return -((-self._numerator(env)) // self._den)

    # -- inequality reasoning ------------------------------------------------

    def _extreme(self, assumptions: AssumptionsLike, side: int) -> Optional[int]:
        """The largest (``side=1``) or smallest (``side=-1``) value the
        numerator takes over the assumed variable ranges; ``None`` when
        unbounded on that side."""
        range_of = Assumptions.coerce(assumptions).range_of
        total = self._n0
        for var, n in self._terms:
            lo, hi = range_of(var)
            end = hi if n * side > 0 else lo
            if end is None:
                return None
            total += n * end
        return total

    def bounds(
        self, assumptions: AssumptionsLike = None
    ) -> Tuple[Optional[Fraction], Optional[Fraction]]:
        """Smallest interval ``[lo, hi]`` guaranteed to contain this
        expression's value, given per-variable bounds.  ``None`` means
        unbounded on that side."""
        lo = self._extreme(assumptions, -1)
        hi = self._extreme(assumptions, 1)
        return (
            None if lo is None else Fraction(lo, self._den),
            None if hi is None else Fraction(hi, self._den),
        )

    def compare(
        self, other: AffineLike, assumptions: AssumptionsLike = None
    ) -> Optional[int]:
        """Return -1, 0, or +1 if ``self`` is always <, ==, or > ``other``
        under the assumptions; ``None`` if undecidable."""
        diff = self - other
        lo = diff._extreme(assumptions, -1)
        hi = diff._extreme(assumptions, 1)
        if lo is not None and lo > 0:
            return 1
        if hi is not None and hi < 0:
            return -1
        if lo is not None and hi is not None and lo == hi == 0:
            return 0
        return None

    def always_le(self, other: AffineLike, assumptions: AssumptionsLike = None) -> bool:
        hi = (self - other)._extreme(assumptions, 1)
        return hi is not None and hi <= 0

    def always_ge(self, other: AffineLike, assumptions: AssumptionsLike = None) -> bool:
        return Affine.coerce(other).always_le(self, assumptions)

    def always_lt(self, other: AffineLike, assumptions: AssumptionsLike = None) -> bool:
        hi = (self - other)._extreme(assumptions, 1)
        return hi is not None and hi < 0

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Affine):
            return (
                self._n0 == other._n0
                and self._terms == other._terms
                and self._den == other._den
            )
        if isinstance(other, (int, Fraction)):
            return not self._terms and (self._n0, self._den) == _ratio(other)
        return NotImplemented

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            if self._terms:
                value = hash((self._n0, self._terms, self._den))
            else:
                # A constant equals its number, so it must hash like it
                # (hash(Fraction(n, 1)) == hash(n)).
                value = hash(self._n0 if self._den == 1 else self.constant)
            self._hash = value
        return value

    def __repr__(self) -> str:
        return f"Affine({self})"

    def __str__(self) -> str:
        den = self._den
        parts = []
        if self._n0 != 0 or not self._terms:
            parts.append(_format_ratio(self._n0, den))
        for var, n in self._terms:
            if n == den:
                term = var
            elif n == -den:
                term = f"-{var}"
            else:
                term = _format_ratio(n, den, f"*{var}")
            if parts and not term.startswith("-"):
                parts.append(f"+{term}")
            else:
                parts.append(term)
        return "".join(parts) if len(parts) == 1 else " ".join(parts)


_new = object.__new__


def _raw(n0: int, terms: Terms, den: int) -> Affine:
    """An :class:`Affine` from fields already in canonical form."""
    expr = _new(Affine)
    expr._n0 = n0
    expr._terms = terms
    expr._den = den
    expr._hash = None
    return expr


def _reduced(n0: int, terms: Terms, den: int) -> Affine:
    """An :class:`Affine` from sorted non-zero ``terms`` over ``den > 0``,
    divided through by the common factor."""
    if den != 1:
        factor = math.gcd(den, n0, *(n for _, n in terms))
        if factor != 1:
            n0 //= factor
            den //= factor
            terms = tuple((var, n // factor) for var, n in terms)
    return _raw(n0, terms, den)


def _format_ratio(num: int, den: int, suffix: str = "") -> str:
    """``num/den`` in lowest terms, the way ``Fraction`` prints: the
    ``suffix`` (a ``*var`` factor) goes between numerator and ``/den``."""
    factor = math.gcd(num, den)
    num //= factor
    den //= factor
    return f"{num}{suffix}" if den == 1 else f"{num}{suffix}/{den}"


def sort_bounds(
    exprs: Iterable[Affine], assumptions: AssumptionsLike = None
) -> Tuple[Affine, ...]:
    """Sort affine expressions into non-decreasing order under assumptions.

    Duplicates (symbolically equal expressions) are collapsed.  Raises
    :class:`SymbolicCompareError` when two bounds cannot be ordered; the
    caller (the choice-grid pass) surfaces this as a compile error, exactly
    as the original compiler did when its inference system failed.
    """
    unique: list[Affine] = []
    for expr in exprs:
        if not any(expr == seen for seen in unique):
            unique.append(expr)
    # Insertion sort with symbolic comparisons: n is tiny (region bounds).
    # Non-strict comparisons suffice: after deduplication, a <= b places a
    # first (ties cannot occur between distinct canonical expressions that
    # are provably <= in both directions unless they are equal everywhere
    # in the assumed range, in which case either order is valid).
    ordered: list[Affine] = []
    for expr in unique:
        placed = False
        for idx, existing in enumerate(ordered):
            if expr.always_le(existing, assumptions):
                ordered.insert(idx, expr)
                placed = True
                break
            if not existing.always_le(expr, assumptions):
                raise SymbolicCompareError(
                    f"cannot order bounds {expr} and {existing}"
                )
        if not placed:
            ordered.append(expr)
    return tuple(ordered)
