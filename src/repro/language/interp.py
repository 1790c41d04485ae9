"""Interpreter for rule bodies.

Rule bodies in this reproduction are written in a small C-like statement
language (the original embedded raw C++; see DESIGN.md for why the body
language is orthogonal to every compiler pass).  The interpreter evaluates
a rule body against a :class:`Scope` holding:

* the region views bound by the rule header (``out``, ``a``, ``b1``...),
* the rule's free variables (``i``, ``x``...) and the transform's size
  variables, as numbers,
* tunable values, and
* a ``call_transform`` callback supplied by the execution engine so that
  bodies can invoke other transforms (``ab1 = MatrixMultiply(a, b1);``).

Value model: expressions evaluate to Python floats or
:class:`~repro.runtime.matrix.MatrixView` objects; 0-D views auto-deref to
their scalar value in arithmetic, mirroring how PetaBricks cell references
behave like C++ references.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.language.ast_nodes import (
    Assign,
    BinOp,
    Call,
    CellAccess,
    ExprNode,
    Num,
    Statement,
    Ternary,
    UnaryOp,
    Var,
)
from repro.language.errors import PetaBricksError
from repro.runtime.matrix import MatrixView

Value = Union[float, int, MatrixView]
TransformCall = Callable[[str, Sequence[MatrixView]], MatrixView]


class EvalError(PetaBricksError):
    """Runtime error while interpreting a rule body."""


# ``sum``/``prod`` make the C call ``np.sum``/``np.prod`` make after their
# Python wrapper (``_wrapreduction``): the same bits, once per cell cheaper.
def _builtin_sum(view: Value) -> float:
    return float(np.add.reduce(_as_array(view), axis=None))


def _builtin_dot(a: Value, b: Value) -> float:
    return float(np.dot(_as_array(a).ravel(), _as_array(b).ravel()))


def _builtin_prod(view: Value) -> float:
    return float(np.multiply.reduce(_as_array(view), axis=None))


#: deterministic RNG behind the ``rand()`` builtin (generator transforms
#: use it to synthesize training inputs; reseed via ``seed_rand``).
_RAND = np.random.default_rng(0x5EED)


def seed_rand(seed: int) -> None:
    """Reseed the ``rand()`` builtin (used per training round)."""
    global _RAND
    _RAND = np.random.default_rng(seed)


BUILTINS: Dict[str, Callable[..., float]] = {
    "rand": lambda: float(_RAND.random()),
    "sum": _builtin_sum,
    "dot": _builtin_dot,
    "prod": _builtin_prod,
    "min": lambda *a: float(min(_as_scalar(v) for v in a)),
    "max": lambda *a: float(max(_as_scalar(v) for v in a)),
    "abs": lambda v: abs(_as_scalar(v)),
    "sqrt": lambda v: math.sqrt(_as_scalar(v)),
    "floor": lambda v: float(math.floor(_as_scalar(v))),
    "ceil": lambda v: float(math.ceil(_as_scalar(v))),
    "pow": lambda a, b: float(_as_scalar(a) ** _as_scalar(b)),
    "exp": lambda v: math.exp(_as_scalar(v)),
    "log": lambda v: math.log(_as_scalar(v)),
}


def _as_scalar(value: Value) -> float:
    if isinstance(value, MatrixView):
        return value.value  # raises for non-0-D views
    return float(value)


def _as_array(value: Value) -> np.ndarray:
    if isinstance(value, MatrixView):
        return value.to_numpy()
    return np.asarray(value)


def _as_index(value: Value) -> int:
    scalar = _as_scalar(value)
    rounded = int(math.floor(scalar))
    return rounded


# Public aliases: the lowered execution paths (repro.engine_fast) reuse
# these coercions so scalar/index/array semantics stay defined in exactly
# one place.
as_scalar = _as_scalar
as_array = _as_array
as_index = _as_index


class Scope:
    """Evaluation environment for one rule application."""

    def __init__(
        self,
        bindings: Dict[str, Value],
        call_transform: Optional[TransformCall] = None,
    ) -> None:
        self.bindings = bindings
        self.call_transform = call_transform
        self.ops = 0  # arithmetic operation counter for work accounting

    def lookup(self, name: str) -> Value:
        if name in self.bindings:
            return self.bindings[name]
        raise EvalError(f"unbound name {name!r} in rule body")


def evaluate(expr: ExprNode, scope: Scope) -> Value:
    """Evaluate an expression to a float or a MatrixView."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return scope.lookup(expr.name)
    if isinstance(expr, UnaryOp):
        operand = evaluate(expr.operand, scope)
        scope.ops += 1
        if expr.op == "-":
            return -_as_scalar(operand)
        if expr.op == "!":
            return 0.0 if _as_scalar(operand) != 0 else 1.0
        raise EvalError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, BinOp):
        return _eval_binop(expr, scope)
    if isinstance(expr, Ternary):
        cond = _as_scalar(evaluate(expr.cond, scope))
        branch = expr.if_true if cond != 0 else expr.if_false
        return evaluate(branch, scope)
    if isinstance(expr, CellAccess):
        base = scope.lookup(expr.base)
        if not isinstance(base, MatrixView):
            raise EvalError(f"{expr.base!r} is not a region; cannot .cell()")
        coords = [_as_index(evaluate(arg, scope)) for arg in expr.args]
        return base.cell(*coords)
    if isinstance(expr, Call):
        return _eval_call(expr, scope)
    raise EvalError(f"cannot evaluate {type(expr).__name__}")


def _eval_binop(expr: BinOp, scope: Scope) -> Value:
    # Short-circuit logical operators.
    if expr.op == "&&":
        left = _as_scalar(evaluate(expr.left, scope))
        if left == 0:
            return 0.0
        return 1.0 if _as_scalar(evaluate(expr.right, scope)) != 0 else 0.0
    if expr.op == "||":
        left = _as_scalar(evaluate(expr.left, scope))
        if left != 0:
            return 1.0
        return 1.0 if _as_scalar(evaluate(expr.right, scope)) != 0 else 0.0

    left = _as_scalar(evaluate(expr.left, scope))
    right = _as_scalar(evaluate(expr.right, scope))
    scope.ops += 1
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if expr.op == "/":
        if right == 0:
            raise EvalError("division by zero in rule body")
        return left / right
    if expr.op == "%":
        return math.fmod(left, right)
    if expr.op == "==":
        return 1.0 if left == right else 0.0
    if expr.op == "!=":
        return 1.0 if left != right else 0.0
    if expr.op == "<":
        return 1.0 if left < right else 0.0
    if expr.op == "<=":
        return 1.0 if left <= right else 0.0
    if expr.op == ">":
        return 1.0 if left > right else 0.0
    if expr.op == ">=":
        return 1.0 if left >= right else 0.0
    raise EvalError(f"unknown operator {expr.op!r}")


def _eval_call(expr: Call, scope: Scope) -> Value:
    args = [evaluate(arg, scope) for arg in expr.args]
    builtin = BUILTINS.get(expr.name)
    if builtin is not None:
        size = sum(
            a.size if isinstance(a, MatrixView) else 1 for a in args
        )
        scope.ops += size
        return builtin(*args)
    if scope.call_transform is None:
        raise EvalError(
            f"call to {expr.name!r} but no transform resolver in scope"
        )
    views = [a for a in args if isinstance(a, MatrixView)]
    if len(views) != len(args):
        raise EvalError(
            f"transform call {expr.name!r} takes region arguments only"
        )
    return scope.call_transform(expr.name, views)


def _write(target: Value, value: Value) -> None:
    if not isinstance(target, MatrixView):
        raise EvalError("assignment target is not a region")
    if target.ndim == 0:
        target.set(_as_scalar(value))
    else:
        target.assign(_as_array(value))


def execute(statements: Sequence[Statement], scope: Scope) -> None:
    """Execute a rule body."""
    for stmt in statements:
        if not isinstance(stmt, Assign):
            raise EvalError(f"unsupported statement {type(stmt).__name__}")
        value = evaluate(stmt.value, scope)
        if isinstance(stmt.target, Var):
            target = scope.lookup(stmt.target.name)
        elif isinstance(stmt.target, CellAccess):
            target = evaluate(stmt.target, scope)
        else:
            raise EvalError("invalid assignment target")
        if stmt.op == "=":
            _write(target, value)
            continue
        # Compound assignment: read-modify-write on scalars/arrays.
        if not isinstance(target, MatrixView):
            raise EvalError("assignment target is not a region")
        current = target.value if target.ndim == 0 else target.to_numpy()
        operand = _as_scalar(value) if target.ndim == 0 else _as_array(value)
        if stmt.op == "+=":
            result = current + operand
        elif stmt.op == "-=":
            result = current - operand
        elif stmt.op == "*=":
            result = current * operand
        elif stmt.op == "/=":
            result = current / operand
        else:
            raise EvalError(f"unknown assignment operator {stmt.op!r}")
        scope.ops += target.size
        _write(target, result)
