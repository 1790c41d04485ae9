"""Unit and property tests for repro.symbolic.expr."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.language.errors import PetaBricksError
from repro.language.parser import parse_expression
from repro.symbolic import Affine, Assumptions, SymbolicCompareError
from repro.symbolic.expr import sort_bounds


def affine_of(text):
    """Expression text as an Affine, through the DSL's one parser."""
    return parse_expression(text).to_affine()


n = Affine.var("n")
i = Affine.var("i")


class TestConstruction:
    def test_constant(self):
        expr = Affine.const(5)
        assert expr.is_constant()
        assert expr.as_constant() == 5

    def test_variable(self):
        expr = Affine.var("n")
        assert not expr.is_constant()
        assert expr.coefficient("n") == 1
        assert expr.variables() == ("n",)

    def test_zero_coefficients_dropped(self):
        expr = Affine(3, {"n": 0})
        assert expr.is_constant()

    def test_coerce_string(self):
        with pytest.raises(TypeError):
            Affine.coerce("n+1")

    def test_coerce_fraction(self):
        assert Affine.coerce(Fraction(1, 2)).as_constant() == Fraction(1, 2)

    def test_coerce_rejects_float(self):
        with pytest.raises(TypeError):
            Affine.coerce(1.5)


class TestArithmetic:
    def test_add(self):
        assert (n + 1) + (n + 2) == Affine(3, {"n": 2})

    def test_sub_cancels(self):
        assert (n + 1) - (n + 1) == Affine(0)

    def test_scalar_mul(self):
        assert n * 3 == Affine(0, {"n": 3})
        assert 3 * n == Affine(0, {"n": 3})

    def test_nonaffine_product_rejected(self):
        with pytest.raises(ValueError):
            _ = n * n

    def test_division_exact(self):
        half = n / 2
        assert half.coefficient("n") == Fraction(1, 2)

    def test_division_by_symbol_rejected(self):
        with pytest.raises(ValueError):
            _ = Affine.const(1) / n

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            _ = n / 0

    def test_neg(self):
        assert -(n - 1) == Affine(1, {"n": -1})


class TestEvaluation:
    def test_evaluate_exact(self):
        assert (n / 2 + 1).evaluate({"n": 5}) == Fraction(7, 2)

    def test_eval_floor_matches_c_division(self):
        for size in range(1, 20):
            assert (n / 2).eval_floor({"n": size}) == size // 2

    def test_missing_variable_raises(self):
        with pytest.raises(KeyError):
            (n + i).evaluate({"n": 3})

    def test_subs_expression(self):
        expr = (n + 1).subs({"n": i * 2})
        assert expr == Affine(1, {"i": 2})

    def test_subs_partial(self):
        expr = (n + i).subs({"n": 4})
        assert expr == Affine(4, {"i": 1})


class TestComparison:
    def test_constant_compare(self):
        assert Affine.const(1).compare(Affine.const(2)) == -1
        assert Affine.const(2).compare(Affine.const(2)) == 0

    def test_nonneg_default_assumption(self):
        # all variables >= 0 by default, so n + 1 > 0 always.
        assert (n + 1).compare(Affine.const(0)) == 1

    def test_needs_assumption(self):
        asm = Assumptions({"n": (1, None)})
        assert Affine.const(1).always_le(n, asm)
        assert not Affine.const(1).always_le(n)  # n could be 0

    def test_undecidable_returns_none(self):
        assert n.compare(i) is None

    def test_always_lt_strict(self):
        asm = Assumptions({"n": (2, None)})
        assert Affine.const(1).always_lt(n, asm)
        assert not Affine.const(2).always_lt(n, asm)

    def test_bounds_with_ranges(self):
        asm = Assumptions({"n": (1, 10)})
        lo, hi = (2 * n + 1).bounds(asm)
        assert lo == 3 and hi == 21

    def test_bounds_negative_coefficient(self):
        asm = Assumptions({"n": (1, 10)})
        lo, hi = (-n).bounds(asm)
        assert lo == -10 and hi == -1

    def test_bounds_unbounded(self):
        lo, hi = n.bounds()
        assert lo == 0 and hi is None


class TestSortBounds:
    def test_orders_constants_and_symbols(self):
        asm = Assumptions({"n": (1, None)})
        ordered = sort_bounds([n, Affine.const(0), Affine.const(1)], asm)
        assert ordered == (Affine.const(0), Affine.const(1), n)

    def test_collapses_duplicates(self):
        ordered = sort_bounds([n + 1, Affine(1, {"n": 1})])
        assert len(ordered) == 1

    def test_undecidable_raises(self):
        with pytest.raises(SymbolicCompareError):
            sort_bounds([n, i])

    def test_equal_constant_and_symbolic_zero(self):
        ordered = sort_bounds([Affine.const(0), n - n])
        assert len(ordered) == 1


class TestParser:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", Affine.const(0)),
            ("n", n),
            ("n+1", n + 1),
            ("n - 1", n - 1),
            ("2*n", n * 2),
            ("n/2", n / 2),
            ("(n+1)/2", (n + 1) / 2),
            ("-n", -n),
            ("n/2 + 1", n / 2 + 1),
            ("3*(n - 2)", (n - 2) * 3),
        ],
    )
    def test_roundtrip(self, text, expected):
        assert affine_of(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(PetaBricksError):
            affine_of("n + @")

    def test_rejects_unbalanced(self):
        with pytest.raises(PetaBricksError):
            affine_of("(n + 1")

    def test_rejects_product_of_variables(self):
        with pytest.raises(ValueError):
            affine_of("n*i")

    def test_str_parse_roundtrip(self):
        expr = (n * 2 - i) / 3 + 1
        assert affine_of(str(expr)) == expr


@st.composite
def affine_exprs(draw):
    const = draw(st.integers(-20, 20))
    coeffs = {}
    for name in draw(st.sets(st.sampled_from(["n", "i", "j"]), max_size=3)):
        coeffs[name] = draw(st.integers(-5, 5))
    return Affine(const, coeffs)


ENVS = st.fixed_dictionaries(
    {"n": st.integers(0, 50), "i": st.integers(0, 50), "j": st.integers(0, 50)}
)


class TestProperties:
    @given(affine_exprs(), affine_exprs(), ENVS)
    def test_addition_homomorphic(self, a, b, env):
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @given(affine_exprs(), st.integers(-5, 5), ENVS)
    def test_scaling_homomorphic(self, a, k, env):
        assert (a * k).evaluate(env) == a.evaluate(env) * k

    @given(affine_exprs(), ENVS)
    def test_bounds_contain_value(self, a, env):
        asm = Assumptions({v: (0, 50) for v in ("n", "i", "j")})
        lo, hi = a.bounds(asm)
        value = a.evaluate(env)
        assert lo is not None and hi is not None
        assert lo <= value <= hi

    @given(affine_exprs(), affine_exprs(), ENVS)
    def test_compare_sound(self, a, b, env):
        asm = Assumptions({v: (0, 50) for v in ("n", "i", "j")})
        cmp = a.compare(b, asm)
        if cmp == -1:
            assert a.evaluate(env) < b.evaluate(env)
        elif cmp == 1:
            assert a.evaluate(env) > b.evaluate(env)
        elif cmp == 0:
            assert a.evaluate(env) == b.evaluate(env)

    @given(affine_exprs())
    def test_str_parse_roundtrip(self, a):
        assert affine_of(str(a)) == a

    @given(affine_exprs(), affine_exprs())
    def test_hash_consistent_with_eq(self, a, b):
        if a == b:
            assert hash(a) == hash(b)


class TestHashEqContract:
    """A constant expression equals its number, so it must hash like it."""

    def test_numbers_found_in_affine_sets(self):
        members = {Affine(3), Affine(Fraction(1, 2)), n / 2 - n / 2}
        assert 3 in members
        assert Fraction(3) in members
        assert Fraction(1, 2) in members
        assert 0 in members
        assert 4 not in members

    def test_affines_found_under_number_keys(self):
        table = {3: "int", Fraction(5, 2): "fraction"}
        assert table[Affine(3)] == "int"
        assert table[(n + 5) / 2 - n / 2] == "fraction"
        assert Affine(4) not in table

    def test_hash_matches_number(self):
        for value in (0, 1, -7, 2**70, Fraction(-9, 4), Fraction(6, 3)):
            assert Affine(value) == value
            assert hash(Affine(value)) == hash(value)

    def test_symbolic_expressions_do_not_equal_numbers(self):
        assert n != 0 and n + 1 != 1
        assert n not in {0, 1}


class TestIntegerForm:
    """The stored common-denominator form and the helpers built on it."""

    def test_as_integers_is_canonical(self):
        expr = (n * 2 - i) / 6 + Fraction(1, 4)
        n0, terms, den = expr.as_integers()
        assert (n0, terms, den) == (3, (("i", -2), ("n", 4)), 12)
        assert expr.denominator_lcm() == den
        assert ((n * 2 + 4) / 2).as_integers() == (2, (("n", 1),), 1)

    def test_stepped_is_the_integer_successor(self):
        for expr in (n, n / 2, (n + 1) / 3 - i, Affine(Fraction(5, 2))):
            unit = Fraction(1, expr.denominator_lcm())
            assert expr.stepped(1) == expr + unit
            assert expr.stepped(-1) == expr - unit
        # ceil(q + 1/L) == floor(q) + 1 at every integer assignment
        q = (n - 1) / 2
        for size in range(12):
            env = {"n": size}
            assert q.stepped(1).eval_ceil(env) == q.eval_floor(env) + 1

    def test_solved_for(self):
        expr = 3 * n - 2 * i + 5
        assert expr.solved_for("i") == (3 * n + 5) / 2
        assert expr.solved_for("n") == (2 * i - 5) / 3
        assert expr.coefficient_sign("i") == -1
        assert expr.coefficient_sign("n") == 1
        assert expr.coefficient_sign("j") == 0
        with pytest.raises(ValueError):
            expr.solved_for("j")

    def test_fraction_env_still_exact(self):
        expr = n / 3 + 2 * i
        env = {"n": Fraction(1, 2), "i": -4}
        assert expr.evaluate(env) == Fraction(1, 6) - 8
        assert expr.eval_floor(env) == -8
        assert expr.eval_ceil(env) == -7

    def test_non_number_env_rejected(self):
        for bad in ("3", 2.5, None):
            with pytest.raises(TypeError):
                (n + 1).eval_floor({"n": bad})


# -- model-based differential test ---------------------------------------------
#
# ``RefAffine`` is the representation ``Affine`` had before it became
# integer-backed: one exact Fraction per coefficient, re-normalised on every
# operation.  It is kept here as the executable specification — every
# observable of the new class must agree with it on random expression trees.


class RefAffine:
    def __init__(self, const=0, coeffs=None):
        self.const = Fraction(const)
        self.coeffs = tuple(
            sorted(
                (var, Fraction(c))
                for var, c in (coeffs or {}).items()
                if c != 0
            )
        )

    @staticmethod
    def coerce(value):
        return value if isinstance(value, RefAffine) else RefAffine(value)

    def variables(self):
        return tuple(var for var, _ in self.coeffs)

    def coefficient(self, var):
        return dict(self.coeffs).get(var, Fraction(0))

    def denominator_lcm(self):
        return math.lcm(
            self.const.denominator, *(c.denominator for _, c in self.coeffs)
        )

    def __add__(self, other):
        other = RefAffine.coerce(other)
        coeffs = dict(self.coeffs)
        for var, c in other.coeffs:
            coeffs[var] = coeffs.get(var, Fraction(0)) + c
        return RefAffine(self.const + other.const, coeffs)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-RefAffine.coerce(other))

    def __rsub__(self, other):
        return RefAffine.coerce(other) - self

    def __mul__(self, scale):
        return RefAffine(
            self.const * scale, {var: c * scale for var, c in self.coeffs}
        )

    __rmul__ = __mul__

    def __truediv__(self, scale):
        return self * (1 / Fraction(scale))

    def subs(self, env):
        result = RefAffine(self.const)
        for var, c in self.coeffs:
            if var in env:
                result = result + RefAffine.coerce(env[var]) * c
            else:
                result = result + RefAffine(0, {var: c})
        return result

    def evaluate(self, env):
        return self.const + sum(c * Fraction(env[var]) for var, c in self.coeffs)

    def bounds(self, ranges):
        lo = hi = self.const
        for var, c in self.coeffs:
            var_lo, var_hi = ranges.get(var, (0, None))
            if c < 0:
                var_lo, var_hi = var_hi, var_lo
            lo = None if lo is None or var_lo is None else lo + c * var_lo
            hi = None if hi is None or var_hi is None else hi + c * var_hi
        return lo, hi

    def compare(self, other, ranges):
        lo, hi = (self - other).bounds(ranges)
        if lo is not None and lo > 0:
            return 1
        if hi is not None and hi < 0:
            return -1
        if lo is not None and hi is not None and lo == hi == 0:
            return 0
        return None

    def always_le(self, other, ranges):
        _, hi = (self - other).bounds(ranges)
        return hi is not None and hi <= 0

    def always_lt(self, other, ranges):
        _, hi = (self - other).bounds(ranges)
        return hi is not None and hi < 0

    def __eq__(self, other):
        other = RefAffine.coerce(other)
        return self.const == other.const and self.coeffs == other.coeffs

    __hash__ = None  # equality classes are compared pairwise

    def __str__(self):
        def ratio(value, suffix=""):
            text = f"{value.numerator}{suffix}"
            return text if value.denominator == 1 else f"{text}/{value.denominator}"

        parts = []
        if self.const != 0 or not self.coeffs:
            parts.append(ratio(self.const))
        for var, c in self.coeffs:
            term = var if c == 1 else f"-{var}" if c == -1 else ratio(c, f"*{var}")
            parts.append(term if not parts or term.startswith("-") else f"+{term}")
        return "".join(parts) if len(parts) == 1 else " ".join(parts)


MODEL_VARS = ("a", "b", "n", "x")
RATIONALS = st.fractions(
    min_value=-6, max_value=6, max_denominator=6
) | st.integers(-8, 8).map(Fraction)
NONZERO = RATIONALS.filter(lambda q: q != 0)
LEAVES = st.tuples(st.just("const"), RATIONALS) | st.tuples(
    st.just("var"), st.sampled_from(MODEL_VARS)
)


def _arith(children):
    return (
        st.tuples(st.sampled_from(["add", "sub"]), children, children)
        | st.tuples(st.just("neg"), children)
        | st.tuples(st.sampled_from(["mul", "rmul"]), children, RATIONALS)
        | st.tuples(st.just("div"), children, NONZERO)
        | st.tuples(
            st.sampled_from(["addint", "subint", "rsubint"]),
            children,
            st.integers(-9, 9),
        )
    )


#: pure-arithmetic trees: also rendered to text and fed to ``affine_of``
ARITH_TREES = st.recursive(LEAVES, _arith, max_leaves=8)
TREES = st.recursive(
    LEAVES | st.tuples(st.just("parse"), ARITH_TREES),
    lambda children: _arith(children)
    | st.tuples(
        st.just("subs"),
        children,
        st.dictionaries(st.sampled_from(MODEL_VARS), children, max_size=2),
    ),
    max_leaves=10,
)


def render(tree):
    """A pure-arithmetic tree as fully parenthesised ``affine_of`` text
    (rationals as ``(p/q)``: the grammar has integer literals only)."""

    def number(q):
        q = Fraction(q)
        if q < 0:
            return f"((0 - {-q.numerator})/{q.denominator})"
        return f"({q.numerator}/{q.denominator})"

    kind, *args = tree
    if kind == "const":
        return number(args[0])
    if kind == "var":
        return args[0]
    if kind == "neg":
        return f"(-{render(args[0])})"
    left = render(args[0])
    right = number(args[1]) if kind not in ("add", "sub") else render(args[1])
    if kind == "rsubint":
        left, right = right, left
    op = {
        "add": "+", "addint": "+", "sub": "-", "subint": "-", "rsubint": "-",
        "mul": "*", "rmul": "*", "div": "/",
    }[kind]
    if kind == "rmul":
        left, right = right, left
    return f"({left} {op} {right})"


def build(tree, cls, parse):
    """Evaluate an expression tree with one of the two classes."""
    kind, *args = tree
    if kind == "const":
        return cls(args[0])
    if kind == "var":
        return cls(0, {args[0]: 1})
    if kind == "parse":
        return parse(args[0])
    node = build(args[0], cls, parse)
    if kind == "neg":
        return -node
    if kind == "subs":
        return node.subs(
            {var: build(sub, cls, parse) for var, sub in args[1].items()}
        )
    if kind in ("add", "sub"):
        other = build(args[1], cls, parse)
        return node + other if kind == "add" else node - other
    value = args[1]
    return {
        "mul": lambda: node * value,
        "rmul": lambda: value * node,
        "div": lambda: node / value,
        "addint": lambda: node + value,
        "subint": lambda: node - value,
        "rsubint": lambda: value - node,
    }[kind]()


def build_both(tree):
    new = build(tree, Affine, lambda sub: affine_of(render(sub)))
    ref = build(tree, RefAffine, lambda sub: build(sub, RefAffine, None))
    return new, ref


MODEL_ENVS = st.fixed_dictionaries(
    {
        var: st.integers(-30, 30) | st.fractions(-9, 9, max_denominator=5)
        for var in MODEL_VARS
    }
)
MODEL_RANGES = st.dictionaries(
    st.sampled_from(MODEL_VARS),
    st.tuples(
        st.none() | st.integers(-6, 6), st.none() | st.integers(0, 9)
    ).map(lambda r: r if None in r else (r[0], r[0] + r[1])),
)


def assert_same(new, ref):
    """``new`` is ``ref``'s value, held in the canonical stored form."""
    assert str(new) == str(ref)
    n0, terms, den = new.as_integers()
    assert den > 0 and math.gcd(n0, den, *(k for _, k in terms)) == 1
    assert list(terms) == sorted(terms) and all(k for _, k in terms)
    assert ref == RefAffine(
        Fraction(n0, den), {var: Fraction(k, den) for var, k in terms}
    )
    rebuilt = Affine(ref.const, dict(ref.coeffs))
    assert new == rebuilt and hash(new) == hash(rebuilt)
    assert new.as_integers() == rebuilt.as_integers()


class TestAgainstFractionModel:
    @given(TREES)
    def test_structure_agrees(self, tree):
        new, ref = build_both(tree)
        assert_same(new, ref)
        assert repr(new) == f"Affine({ref})"
        assert new.variables() == ref.variables()
        assert new.is_constant() == (not ref.variables())
        assert new.denominator_lcm() == ref.denominator_lcm()
        assert new.constant == ref.const
        assert new.coefficients == dict(ref.coeffs)
        for var in MODEL_VARS:
            coeff = new.coefficient(var)
            assert coeff == ref.coefficient(var)
            assert new.coefficient_sign(var) == (coeff > 0) - (coeff < 0)
        assert affine_of(str(new)) == new
        for steps in (1, -1):
            assert_same(
                new.stepped(steps),
                ref + Fraction(steps, ref.denominator_lcm()),
            )
        for var in new.variables():
            rest = ref - RefAffine(0, {var: ref.coefficient(var)})
            assert_same(new.solved_for(var), -rest / ref.coefficient(var))

    @given(st.lists(TREES, min_size=2, max_size=5))
    def test_equality_classes_and_hashes_agree(self, trees):
        pairs = [build_both(tree) for tree in trees]
        pairs.append(build_both(trees[0]))  # at least one equal pair
        for new_a, ref_a in pairs:
            for new_b, ref_b in pairs:
                assert (new_a == new_b) == (ref_a == ref_b)
                if ref_a == ref_b:
                    assert hash(new_a) == hash(new_b)
            if new_a.is_constant():
                assert new_a == ref_a.const
                assert hash(new_a) == hash(ref_a.const)

    @given(TREES, MODEL_ENVS)
    def test_evaluation_agrees(self, tree, env):
        new, ref = build_both(tree)
        value = ref.evaluate(env)
        result = new.evaluate(env)
        assert result == value and isinstance(result, Fraction)
        assert new.eval_floor(env) == math.floor(value)
        assert new.eval_ceil(env) == math.ceil(value)
        ints = {var: math.floor(q) for var, q in env.items()}
        assert new.eval_floor(ints) == math.floor(ref.evaluate(ints))
        assert new.eval_ceil(ints) == math.ceil(ref.evaluate(ints))

    @given(TREES, TREES, MODEL_RANGES)
    def test_inequality_reasoning_agrees(self, left, right, ranges):
        new_a, ref_a = build_both(left)
        new_b, ref_b = build_both(right)
        asm = Assumptions(ranges)
        assert new_a.bounds(asm) == ref_a.bounds(ranges)
        assert new_a.bounds(ranges) == ref_a.bounds(ranges)
        assert new_a.compare(new_b, asm) == ref_a.compare(ref_b, ranges)
        assert new_a.always_le(new_b, asm) == ref_a.always_le(ref_b, ranges)
        assert new_a.always_lt(new_b, asm) == ref_a.always_lt(ref_b, ranges)
        assert new_a.always_ge(new_b, asm) == ref_b.always_le(ref_a, ranges)

    @given(st.lists(TREES, min_size=1, max_size=5), MODEL_RANGES)
    def test_sort_bounds_order_agrees(self, trees, ranges):
        pairs = [build_both(tree) for tree in trees]
        try:
            expected = [
                str(ref) for ref in sort_bounds([r for _, r in pairs], ranges)
            ]
        except SymbolicCompareError:
            with pytest.raises(SymbolicCompareError):
                sort_bounds([new for new, _ in pairs], Assumptions(ranges))
            return
        ordered = sort_bounds([new for new, _ in pairs], Assumptions(ranges))
        assert [str(new) for new in ordered] == expected
