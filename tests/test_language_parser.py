"""Tests for the DSL parser, including the paper's example programs."""

import pytest

from repro.language import (
    Assign,
    BinOp,
    Call,
    CellAccess,
    Num,
    ParseError,
    UnaryOp,
    Var,
    parse_program,
    parse_transform,
)
from repro.language.parser import parse_expression
from repro.symbolic import Affine

ROLLING_SUM = """
transform RollingSum
from A[n]
to B[n]
{
  // rule 0: sum all elements to the left
  to (B.cell(i) b) from (A.region(0, i) in) {
    b = sum(in);
  }
  // rule 1: use the previously computed value
  to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) leftSum) {
    b = a + leftSum;
  }
}
"""

MATRIX_MULTIPLY = """
transform MatrixMultiply
from A[c, h], B[w, c]
to AB[w, h]
{
  // Base case, compute a single element
  to (AB.cell(x, y) out) from (A.row(y) a, B.column(x) b) {
    out = dot(a, b);
  }
  // Recursively decompose in c
  to (AB ab)
  from (A.region(0, 0, c/2, h) a1,
        A.region(c/2, 0, c, h) a2,
        B.region(0, 0, w, c/2) b1,
        B.region(0, c/2, w, c) b2) {
    ab = MatrixAdd(MatrixMultiply(a1, b1), MatrixMultiply(a2, b2));
  }
  // Recursively decompose in w
  to (AB.region(0, 0, w/2, h) ab1,
      AB.region(w/2, 0, w, h) ab2)
  from (A a, B.region(0, 0, w/2, c) b1, B.region(w/2, 0, w, c) b2) {
    ab1 = MatrixMultiply(a, b1);
    ab2 = MatrixMultiply(a, b2);
  }
  // Recursively decompose in h
  to (AB.region(0, 0, w, h/2) ab1,
      AB.region(0, h/2, w, h) ab2)
  from (A.region(0, 0, c, h/2) a1, A.region(0, h/2, c, h) a2, B b) {
    ab1 = MatrixMultiply(a1, b);
    ab2 = MatrixMultiply(a2, b);
  }
}
"""


class TestRollingSum:
    def test_header(self):
        t = parse_transform(ROLLING_SUM)
        assert t.name == "RollingSum"
        assert [m.name for m in t.from_matrices] == ["A"]
        assert [m.name for m in t.to_matrices] == ["B"]
        assert t.size_variables == ("n",)

    def test_rule_count(self):
        t = parse_transform(ROLLING_SUM)
        assert len(t.rules) == 2

    def test_rule0_bindings(self):
        rule0 = parse_transform(ROLLING_SUM).rules[0]
        (to_bind,) = rule0.to_bindings
        assert to_bind.matrix == "B"
        assert to_bind.accessor == "cell"
        assert to_bind.name == "b"
        assert to_bind.args[0].to_affine() == Affine.var("i")
        (from_bind,) = rule0.from_bindings
        assert from_bind.accessor == "region"
        assert from_bind.name == "in"

    def test_rule1_offset_dependency(self):
        rule1 = parse_transform(ROLLING_SUM).rules[1]
        left_sum = rule1.from_bindings[1]
        assert left_sum.args[0].to_affine() == Affine.var("i") - 1

    def test_rule_bodies(self):
        rules = parse_transform(ROLLING_SUM).rules
        (stmt0,) = rules[0].body
        assert isinstance(stmt0.value, Call) and stmt0.value.name == "sum"
        (stmt1,) = rules[1].body
        assert isinstance(stmt1.value, BinOp) and stmt1.value.op == "+"


class TestMatrixMultiply:
    def test_parses(self):
        t = parse_transform(MATRIX_MULTIPLY)
        assert t.name == "MatrixMultiply"
        assert len(t.rules) == 4

    def test_two_dimensional_matrices(self):
        t = parse_transform(MATRIX_MULTIPLY)
        a = t.matrix("A")
        assert a.ndim == 2
        assert a.dims[0].to_affine() == Affine.var("c")

    def test_base_case_uses_row_and_column(self):
        rule0 = parse_transform(MATRIX_MULTIPLY).rules[0]
        accessors = [b.accessor for b in rule0.from_bindings]
        assert accessors == ["row", "column"]

    def test_recursive_rule_region_args(self):
        rule1 = parse_transform(MATRIX_MULTIPLY).rules[1]
        a1 = rule1.from_bindings[0]
        c = Affine.var("c")
        h = Affine.var("h")
        assert [arg.to_affine() for arg in a1.args] == [
            Affine.const(0), Affine.const(0), c / 2, h,
        ]

    def test_multi_output_rule(self):
        rule2 = parse_transform(MATRIX_MULTIPLY).rules[2]
        assert len(rule2.to_bindings) == 2
        assert [b.name for b in rule2.to_bindings] == ["ab1", "ab2"]

    def test_nested_transform_calls(self):
        rule1 = parse_transform(MATRIX_MULTIPLY).rules[1]
        (stmt,) = rule1.body
        assert isinstance(stmt.value, Call) and stmt.value.name == "MatrixAdd"
        inner = stmt.value.args[0]
        assert isinstance(inner, Call) and inner.name == "MatrixMultiply"

    def test_bare_matrix_binding(self):
        rule2 = parse_transform(MATRIX_MULTIPLY).rules[2]
        a_bind = rule2.from_bindings[0]
        assert a_bind.accessor == "all"
        assert a_bind.matrix == "A" and a_bind.name == "a"


class TestHeaders:
    def test_through_matrices(self):
        t = parse_transform(
            """
            transform T
            from A[n] to B[n] through Tmp[n]
            { to (B b) from (A a, Tmp t) { b = a; } }
            """
        )
        assert [m.name for m in t.through_matrices] == ["Tmp"]

    def test_generator(self):
        t = parse_transform(
            """
            transform T from A[n] to B[n] generator RandomInput
            { to (B b) from (A a) { b = a; } }
            """
        )
        assert t.generator == "RandomInput"

    def test_tunable(self):
        t = parse_transform(
            """
            transform T from A[n] to B[n]
            tunable blockSize(1, 1024, 64);
            { to (B b) from (A a) { b = a; } }
            """
        )
        (tun,) = t.tunables
        assert (tun.name, tun.lo, tun.hi, tun.default) == ("blockSize", 1, 1024, 64)

    def test_matrix_version(self):
        t = parse_transform(
            """
            transform Iterate from X<0..k>[n] to Y[n]
            { to (Y y) from (X x) { y = sum(x); } }
            """
        )
        x = t.matrix("X")
        assert x.version is not None
        assert x.ndim == 2

    def test_template_param(self):
        t = parse_transform(
            """
            transform T template <CUTOFF, 1, 512> from A[n] to B[n]
            { to (B b) from (A a) { b = a; } }
            """
        )
        assert t.template_params == (("CUTOFF", 1, 512),)

    def test_scalar_matrix(self):
        t = parse_transform(
            """
            transform Norm from A[n] to S
            { to (S s) from (A a) { s = sum(a); } }
            """
        )
        assert t.matrix("S").ndim == 0


class TestRules:
    def test_priorities(self):
        t = parse_transform(
            """
            transform T from A[n] to B[n]
            {
              primary to (B.cell(i) b) from (A.cell(i) a) { b = a; }
              secondary to (B.cell(i) b) from () { b = 0; }
              priority(3) to (B.cell(i) b) from () { b = 1; }
            }
            """
        )
        assert [r.priority for r in t.rules] == [0, 2, 3]

    def test_where_clause(self):
        t = parse_transform(
            """
            transform T from A[n] to B[n]
            {
              to (B.cell(i) b) from (A.cell(i) a) where i > 0, i < n - 1 {
                b = a;
              }
            }
            """
        )
        rule = t.rules[0]
        assert len(rule.where) == 2
        assert isinstance(rule.where[0].condition, BinOp)

    def test_escape_block_captured(self):
        t = parse_transform(
            """
            transform T from A[n] to B[n]
            { to (B b) from (A a) { %{ external_call(); }% b = a; } }
            """
        )
        assert "external_call" in t.rules[0].escapes[0]

    def test_compound_assignment(self):
        t = parse_transform(
            """
            transform T from A[n] to B
            { to (B b) from (A a) { b = 0; b += sum(a); } }
            """
        )
        assert t.rules[0].body[1].op == "+="

    def test_ternary_and_comparisons(self):
        t = parse_transform(
            """
            transform T from A[n] to B[n]
            { to (B.cell(i) b) from (A.cell(i) a) { b = a > 0 ? a : -a; } }
            """
        )
        stmt = t.rules[0].body[0]
        assert stmt.value.__class__.__name__ == "Ternary"


class TestErrors:
    def test_missing_outputs(self):
        with pytest.raises(ParseError):
            parse_transform("transform T from A[n] { to (A a) from () { a = 0; } }")

    def test_no_rules(self):
        with pytest.raises(ParseError):
            parse_transform("transform T from A[n] to B[n] { }")

    def test_missing_to_clause(self):
        with pytest.raises(ParseError):
            parse_transform(
                "transform T from A[n] to B[n] { from (A a) { a = 0; } }"
            )

    def test_bad_accessor(self):
        with pytest.raises(ParseError):
            parse_transform(
                "transform T from A[n] to B[n]"
                "{ to (B.diag(i) b) from () { b = 0; } }"
            )

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_transform(
                "transform T from A[n] to B[n]"
                "{ to (B b) from (A a) { b = a } }"
            )

    def test_multiple_transforms_via_parse_transform(self):
        two = "transform T1 to B[n] {to (B b) from () {b=0;}}" \
              "transform T2 to C[n] {to (C c) from () {c=0;}}"
        with pytest.raises(ParseError):
            parse_transform(two)
        assert len(parse_program(two).transforms) == 2

    def test_non_affine_region_coordinate(self):
        t = parse_transform(
            "transform T from A[n] to B[n]"
            "{ to (B.cell(i) b) from (A.cell(i*i) a) { b = a; } }"
        )
        with pytest.raises(ValueError):
            t.rules[0].from_bindings[0].args[0].to_affine()


class TestTraversal:
    """``walk``/``map_vars``/``free_names``: the one traversal of the tree.
    ``free_names`` order fixes ``TransformDecl.size_variables``."""

    @pytest.mark.parametrize(
        "text,names",
        [
            ("A.cell(j, i) + k * i", ("A", "j", "i", "k")),
            ("c ? f(b, a) : -a", ("c", "b", "a")),
            ("n / 2 + m - n", ("n", "m")),
            ("max(B.cell(x), 1.5)", ("B", "x")),
            ("3", ()),
        ],
    )
    def test_free_names_in_first_seen_order(self, text, names):
        assert parse_expression(text).free_names() == names

    def test_walk_is_pre_order(self):
        kinds = [type(node) for node in parse_expression("a + f(-b)").walk()]
        assert kinds == [BinOp, Var, Call, UnaryOp, Var]

    def test_map_vars_replaces_vars_only(self):
        expr = parse_expression("A.cell(i, j) + i")
        mapped = expr.map_vars(
            lambda var: Num(1) if var.name in ("i", "A") else var
        )
        assert mapped == parse_expression("A.cell(1, j) + 1")
