"""Tests for the rule-body interpreter."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.language.ast_nodes import (
    Assign,
    BinOp,
    Call,
    CellAccess,
    Num,
    Ternary,
    UnaryOp,
    Var,
)
from repro.compiler import ChoiceConfig, compile_program
from repro.engine_fast import LEAF_CLOSURE, LEAF_INTERP
from repro.language.interp import BUILTINS, EvalError, Scope, evaluate, execute
from repro.language.parser import parse_expression, parse_rule_body
from repro.runtime import Matrix
from repro.runtime.matrix import MatrixView


def scope_with(**bindings):
    return Scope(dict(bindings))


def ev(text, **bindings):
    return evaluate(parse_expression(text), scope_with(**bindings))


class TestArithmetic:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1 + 2 * 3", 7),
            ("(1 + 2) * 3", 9),
            ("7 / 2", 3.5),
            ("7 % 2", 1.0),
            ("-3 + 1", -2),
            ("2 < 3", 1.0),
            ("2 >= 3", 0.0),
            ("1 == 1", 1.0),
            ("1 != 1", 0.0),
            ("1 && 0", 0.0),
            ("1 || 0", 1.0),
            ("!0", 1.0),
            ("0 ? 10 : 20", 20),
            ("5 > 4 ? 10 : 20", 10),
        ],
    )
    def test_expressions(self, text, expected):
        assert ev(text) == expected

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1 / 0")

    def test_short_circuit_and(self):
        # The right side would divide by zero; && must not evaluate it.
        assert ev("0 && (1 / 0)") == 0.0

    def test_short_circuit_or(self):
        assert ev("1 || (1 / 0)") == 1.0

    def test_unbound_name(self):
        with pytest.raises(EvalError):
            ev("mystery")

    def test_variables(self):
        assert ev("n * 2 + i", n=5, i=1) == 11


class TestViews:
    def test_scalar_view_autoderef(self):
        cell = Matrix.from_array([4.0]).cell(0)
        assert ev("a + 1", a=cell) == 5.0

    def test_cell_access(self):
        view = Matrix.from_array([1.0, 2.0, 3.0]).whole()
        assert ev("a.cell(1)", a=view).value == 2.0

    def test_cell_access_computed_index(self):
        view = Matrix.from_array([1.0, 2.0, 3.0]).whole()
        assert ev("a.cell(i - 1)", a=view, i=2).value == 2.0

    def test_cell_on_scalar_errors(self):
        with pytest.raises(EvalError):
            ev("x.cell(0)", x=1.0)

    def test_builtin_sum_dot(self):
        view = Matrix.from_array([1.0, 2.0, 3.0]).whole()
        assert ev("sum(a)", a=view) == 6.0
        assert ev("dot(a, a)", a=view) == 14.0

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("min(3, 1, 2)", 1.0),
            ("max(3, 1, 2)", 3.0),
            ("abs(0 - 4)", 4.0),
            ("sqrt(9)", 3.0),
            ("floor(3 / 2)", 1.0),
            ("ceil(3 / 2)", 2.0),
            ("pow(2, 10)", 1024.0),
        ],
    )
    def test_builtins(self, text, expected):
        assert ev(text) == expected

    def test_transform_call_requires_resolver(self):
        view = Matrix.from_array([1.0]).whole()
        with pytest.raises(EvalError):
            ev("Mystery(a)", a=view)

    def test_transform_call_resolver(self):
        view = Matrix.from_array([1.0, 2.0]).whole()

        def resolver(name, args):
            assert name == "Double"
            doubled = Matrix.from_array(args[0].to_numpy() * 2)
            return doubled.whole()

        scope = Scope({"a": view}, call_transform=resolver)
        result = evaluate(parse_expression("Double(a)"), scope)
        assert result.to_numpy().tolist() == [2.0, 4.0]


class TestExecute:
    def test_scalar_assignment(self):
        out = Matrix.scalar(0.0).whole()
        execute(parse_rule_body("b = 41 + 1;"), scope_with(b=out))
        assert out.value == 42.0

    def test_bulk_assignment(self):
        src = Matrix.from_array([1.0, 2.0]).whole()
        dst = Matrix.zeros((2,)).whole()
        execute(parse_rule_body("b = a;"), scope_with(a=src, b=dst))
        assert dst.to_numpy().tolist() == [1.0, 2.0]

    def test_cell_lvalue(self):
        dst = Matrix.zeros((3,)).whole()
        execute(parse_rule_body("b.cell(1) = 9;"), scope_with(b=dst))
        assert dst.to_numpy().tolist() == [0.0, 9.0, 0.0]

    @pytest.mark.parametrize(
        "op,expected", [("+=", 7.0), ("-=", 3.0), ("*=", 10.0), ("/=", 2.5)]
    )
    def test_compound_assignment(self, op, expected):
        out = Matrix.scalar(5.0).whole()
        execute(parse_rule_body(f"b {op} 2;"), scope_with(b=out))
        assert out.value == expected

    def test_compound_on_array(self):
        dst = Matrix.from_array([1.0, 2.0]).whole()
        execute(parse_rule_body("b += b;"), scope_with(b=dst))
        assert dst.to_numpy().tolist() == [2.0, 4.0]

    def test_assign_to_number_rejected(self):
        with pytest.raises(EvalError):
            execute(parse_rule_body("b = 1;"), scope_with(b=3.0))

    def test_sequence_of_statements(self):
        out = Matrix.scalar(0.0).whole()
        execute(
            parse_rule_body("b = 1; b += 2; b *= 4;"), scope_with(b=out)
        )
        assert out.value == 12.0

    def test_ops_counted(self):
        scope = scope_with(b=Matrix.scalar(0.0).whole())
        execute(parse_rule_body("b = 1 + 2 + 3;"), scope)
        assert scope.ops >= 2


@given(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.sampled_from(["+", "-", "*"]),
)
def test_property_binop_matches_python(a, b, op):
    result = ev(f"({a}) {op} ({b})")
    assert result == eval(f"({a}) {op} ({b})")


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
def test_property_sum_matches_numpy(values):
    view = Matrix.from_array(values).whole()
    assert ev("sum(a)", a=view) == pytest.approx(float(np.sum(values)))


# -- sum/prod: the ufunc reduction np.sum/np.prod make, bit for bit -------

SPECIAL = np.array(
    [-0.0, 0.0, np.inf, -np.inf, np.nan, 1.5, -2.25, 1e308, 1e308, 3.0,
     -0.0, -0.0]
)


def bits(value):
    return struct.pack("<d", value)


def reduction_operands():
    line = Matrix.from_array(SPECIAL).whole()
    grid = Matrix.from_array(SPECIAL.reshape(3, 4)).whole()
    return [
        line,
        line.region(3, 3),  # empty
        line.region(10, 12),  # -0.0 + -0.0
        line.region(5, 9),  # overflows to inf
        line.region(0, 5),  # NaN
        grid.row(2),  # 1-D, strided
        grid.region(0, 1, 3, 3),  # 2-D, strided
        grid.region(1, 1, 1, 3),  # 2-D, empty
        line.cell(4),  # 0-D views
        line.cell(0),
        Matrix.scalar(-0.0).whole(),
        -0.0, 3, math.nan, -math.inf, 1e308,  # Python scalars
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf, NaN
@pytest.mark.parametrize("name,reference", [("sum", np.sum), ("prod", np.prod)])
def test_builtin_reductions_match_numpy_bit_for_bit(name, reference):
    for operand in reduction_operands():
        array = operand.to_numpy() if isinstance(operand, MatrixView) else operand
        assert bits(BUILTINS[name](operand)) == bits(float(reference(array)))


REDUCTIONS = """
transform Reductions
from A[n, m]
to S[n], P[n], T[m], U[n]
{
  to (S.cell(i) s) from (A.region(0, 0, i, m) a) { s = sum(a); }
  to (P.cell(i) p) from (A.region(i, 1, n, m) a) { p = prod(a); }
  to (T.cell(j) t) from (A.row(j) a) { t = sum(a) + prod(a); }
  to (U.cell(i) u) from (A.cell(i, 0) a) { u = prod(a) + sum(a); }
}
"""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("leaf", [LEAF_CLOSURE, LEAF_INTERP])
def test_lowered_reductions_match_numpy_bit_for_bit(leaf):
    """The closure leaf calls the same ``BUILTINS`` entries: over empty,
    strided 1-D and 2-D regions and cells of ``SPECIAL`` both leaves
    write what ``np.sum``/``np.prod`` return."""
    data = SPECIAL.reshape(3, 4)
    transform = compile_program(REDUCTIONS).transform("Reductions")
    if leaf == LEAF_CLOSURE:
        assert all(site.kernel for site in transform.sites.values())
    config = ChoiceConfig()
    config.set_tunable("Reductions.__leaf_path__", leaf)
    result = transform.run([data], config)
    expected = {
        "S": [np.sum(data[:i]) for i in range(3)],
        "P": [np.prod(data[i:, 1:]) for i in range(3)],
        "T": [float(np.sum(data[:, j])) + float(np.prod(data[:, j]))
              for j in range(4)],
        "U": [float(np.prod(data[i, 0])) + float(np.sum(data[i, 0]))
              for i in range(3)],
    }
    for name, values in expected.items():
        got = result.outputs[name].data
        assert [bits(v) for v in got] == [bits(float(v)) for v in values], name
