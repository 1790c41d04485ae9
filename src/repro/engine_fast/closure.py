"""Closure lowering: compile a rule to its loop nest once per site.

The interpreter walks the body AST for every cell instance, rebuilding an
environment dict and eager region views each time — the dominant cost of
every benchmark.  This module walks the AST *once*, on the site's first
use, and emits through the shared source builder
(:mod:`repro.engine_fast.builder`) one kernel of the shape::

    def _maker(_env, _tunables, _arrays, _call, _reject, _box):
        ...                           # hoisted sizes, arrays, extents
        _first_i, _last_i = ...       # the free variables' range ends
        def _block(_s_t, _instances): # one parameter per chain variable
            if not (0 <= (-1 + _s_t) < (1 + _e_k) and 0 <= (-1 + _first_i)
                    and (-1 + _last_i) < _d_U_1):
                raise IndexError(...) # a binding's check, once per call
            _q1 = (-1 + _s_t) % 2     # a folded plane's slot, once too
            _work = 0.0
            for (_s_i, ) in _instances:
                ...                   # body statements, indices inline
                _work += 5.0          # base work + the body's op count
            return _work, len(_instances)
        return _block

which ``exec`` runs into a *maker*; the engine calls the maker once per
segment application and the returned ``_block`` once per block task, with
the step's chain values and the block's tuples of free-variable values.

Every index is the ``ceil`` of an affine form of the rule variables, so
monotone in each.  A rule without a residual where-clause runs every
point of the step's box (``_box`` is ``Geometry.var_ranges``), so "every
cell binds inside the view" is decided at the box's extremes
(:meth:`KernelBuilder._affine`), ahead of the loop — on every call, and
never for an empty box, which has no block to call.  No check is
dropped: a region whose ``lo <= hi`` is not one affine form (a rounded
bound), and every binding of a where-restricted rule — whose rejected
cells bind nothing, so may lie outside any view — keep their check in
the loop.  There the where-clause comes first, where the interpreter
evaluates it (bare scope, op counting off), and a rejected instance goes
to the engine's ``_reject`` at once — ``_reject(_s_i); continue`` — so
the fallback's writes and ``rand()`` draws interleave with the accepted
cells' as on the interpreter; accepted cells are counted in ``_n``.

Semantics contract — the closure path must be **bit-for-bit identical** to
the interpreter, including the ``ops`` work accounting the simulated
scheduler charges:

* every scalar read is a true Python float (``ndarray.item`` on the
  float64 arrays the engine allocates, matching ``_as_scalar``), division
  by a zero operand raises the interpreter's exact ``EvalError``, ``%`` is
  ``math.fmod``, comparisons yield ``1.0``/``0.0``, and
  ``&&``/``||``/ternaries lower to real ``if`` statements so
  short-circuiting (and any side effects guarded by it, e.g. ``rand()``)
  is preserved;
* builtins dispatch to the *same* functions as the interpreter
  (:data:`repro.language.interp.BUILTINS`), so stateful builtins like
  ``rand()`` consume the shared RNG stream in the same per-instance order;
* ops accounting mirrors the interpreter exactly: +1 per non-logical
  binary/unary op, +Σ(argument sizes) per builtin call, +target size per
  compound assignment, with branch-local counts flushed inside their
  branch (a body whose count is one constant adds it as a literal); the
  block's work is the interpreter's per-cell charges added in cell order.

Any construct the lowerer cannot prove equivalent (unknown names, region
arguments to builtins it cannot type, mismatched ternary kinds, ...) makes
:func:`lower_rule` return ``None`` and the engine keeps interpreting that
rule — lowering is an optimization, never a semantics change.

The only tolerated divergence is on *failure paths*: a run that raises
aborts with an error the interpreter can raise on the same input, but
which of two possible errors fires first may differ, and so may what was
written before it — a hoisted check covers the step's whole box, so an
out-of-view step aborts in its first block, before its first cell is
written (what the vector leaf does per step), where the interpreter stops
at the first offending cell.  Successful runs are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine_fast.builder import KernelBuilder
from repro.language import ast_nodes as ast
from repro.language.interp import BUILTINS, EvalError

if TYPE_CHECKING:  # typing only — keeps engine_fast free of compiler deps
    from repro.compiler.ir import RegionIR, RuleIR, TransformIR

__all__ = ["RuleKernel", "lower_rule"]


class _NotLowerable(Exception):
    """Internal: the rule uses a construct the lowerer does not support."""


# -- runtime helpers injected into every generated namespace ---------------


def _scal(value) -> float:
    """Array-aware scalar coercion matching ``MatrixView.value``."""
    if isinstance(value, np.ndarray):
        if value.ndim != 0:
            raise ValueError(
                f"value on {value.ndim}-D view; use to_numpy()"
            )
        return float(value)
    return float(value)


def _idx(value) -> int:
    """Index coercion matching the interpreter's ``_as_index``."""
    return int(math.floor(_scal(value)))


def _div(left: float, right: float) -> float:
    if right == 0:
        raise EvalError("division by zero in rule body")
    return left / right


def _base_namespace(used_builtins: Set[str]) -> Dict[str, object]:
    namespace: Dict[str, object] = {
        "_scal": _scal,
        "_idx": _idx,
        "_div": _div,
        "_fmod": math.fmod,
        "np": np,
    }
    for name in used_builtins:
        namespace[f"_bi_{name}"] = BUILTINS[name]
    return namespace


@dataclass
class RuleKernel:
    """A lowered rule: generated source plus the exec'd maker.

    ``maker(env, tunables, arrays, call, reject, box)`` returns the block
    kernel of one segment application; ``arrays`` maps matrix names to
    the numpy windows of the engine's views (so coordinates stay
    view-relative), ``box`` is the ``[lo, hi)`` range of every rule
    variable (``Geometry.var_ranges``), ``reject`` is called with the
    values of ``params`` for each instance the where-clause rejects.
    ``params`` is the rule's variables in the order :func:`lower_rule`
    was asked for, chain variables first: ``block(*chain_values,
    instances)`` runs the rule on every tuple of free-variable values in
    ``instances`` and returns ``(work to charge, instances accepted)``.
    """

    params: Tuple[str, ...]
    matrices: Tuple[str, ...]
    maker: Callable
    uses_call: bool
    source: str


class _Val:
    """A compiled expression: scalar ('s') or array ('a') plus its code.

    Codes returned from ``_compile`` are side-effect free (reads only);
    anything that can fail or mutate state is emitted as a statement, so
    textual nesting never reorders observable effects.
    """

    __slots__ = ("kind", "code", "is_float")

    def __init__(self, kind: str, code: str, is_float: bool = False) -> None:
        self.kind = kind
        self.code = code
        self.is_float = is_float


#: One matrix element, ``(array, subscript)``.
_Ref = Tuple[str, str]


def _load(ref: _Ref) -> str:
    """The element as a Python float: on the float64 arrays the engine
    allocates (``Matrix.zeros`` / ``from_array``), ``item`` returns the
    bits of ``float(array[subscript])`` at a third of the cost."""
    return f"{ref[0]}.item({ref[1]})"


_ARITH = {"+": "+", "-": "-", "*": "*"}
_COMPARE = {"==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


#: The matrix dimension a row/column binding pins to an index (the
#: other one is kept whole).
_FIXED_DIM = {"row": 1, "column": 0}


class _Lowerer(KernelBuilder):
    """Compiles one rule — where-clause, bindings, body — to source."""

    tag = "kernel"
    maker_args = "_env, _tunables, _arrays, _call, _reject, _box"
    kernel_name = "_block"

    def __init__(
        self,
        rule: RuleIR,
        transform: TransformIR,
        chain_vars: Sequence[str],
        free_vars: Sequence[str],
        folds: Dict[str, Tuple[int, int]],
    ) -> None:
        self.params = (*chain_vars, *free_vars)
        super().__init__(transform, rule, self.params, folds)
        self.chain_vars = tuple(chain_vars)
        self.box_vars = tuple(free_vars)  # the kernel's own loop
        self.step_lines = []  # the hoisted checks, ahead of the loop
        #: ``ref % window`` of a folded plane -> its ``_q<n>``, computed
        #: ahead of the loop
        self.slots: Dict[str, str] = {}
        self.depth = 3  # of the loop body
        #: subscripts per cell binding, filled by :meth:`emit_bindings`
        self.cell_index: Dict[str, Sequence[str]] = {}
        self.pending = 0
        #: an ``_ops +=`` was emitted: the cell's op count is not the
        #: one constant still ``pending`` when its body ends
        self.counts_ops = False
        self.counter = 0
        self.used_builtins: Set[str] = set()
        self.uses_call = False
        # The where-clause is lowered first, in the interpreter's bare
        # ``Scope(env)``: region bindings and tunables come into scope,
        # and op counting and transform calls start, with the body.
        self.in_body = False

    # -- emission ----------------------------------------------------------

    def tmp(self) -> str:
        self.counter += 1
        return f"_t{self.counter}"

    def add_ops(self, count: int) -> None:
        if self.in_body:
            self.pending += count

    def add_ops_code(self, code: str) -> None:
        if self.in_body:
            self.flush_ops()
            self.counts_ops = True
            self.line(f"_ops += {code}")

    def flush_ops(self) -> None:
        if self.pending:
            self.counts_ops = True
            self.line(f"_ops += {self.pending}")
            self.pending = 0

    # -- name resolution ---------------------------------------------------

    def _resolve_var(self, name: str) -> _Val:
        # Resolution order mirrors the interpreter's scope merge:
        # bindings shadow tunables shadow rule/size variables.
        if self.in_body and name in self.bindings:
            return self._binding_value(self.bindings[name])
        if self.in_body and name in self.tunable_names:
            self.used_tunables.add(name)
            return _Val("s", f"_u_{name}")
        if name in self.scalar_vars:
            return _Val("s", f"_s_{name}")
        if name in self.transform.size_vars:
            self.used_env.add(name)
            return _Val("s", f"_e_{name}")
        raise _NotLowerable(f"unknown name {name!r} in rule body")

    def _cell_ref(self, region: RegionIR) -> _Ref:
        indices = ", ".join(self.cell_index[region.bind_name])
        return self._matrix_ref(region.matrix), indices

    def _binding_value(self, region: RegionIR) -> _Val:
        if region.view_kind == "cell":
            return _Val("s", _load(self._cell_ref(region)), True)
        return _Val("a", f"_b_{region.bind_name}")

    # -- scalar / array contexts ------------------------------------------

    def scal(self, val: _Val) -> str:
        if val.kind == "a":
            return f"_scal({val.code})"
        if val.is_float:
            return val.code
        return f"float({val.code})"

    # -- region binding prologue ------------------------------------------

    def emit_bindings(self) -> None:
        """Lower every region binding eagerly, in declaration order
        (to-regions then from-regions, matching the interpreter), with
        the bounds checks ``MatrixView`` performs — ahead of the loop,
        at the extremes of the step's box, for a rule no where-clause
        restricts."""
        label = f"{self.transform.name}.{self.rule.label}"
        for region in self.rule.all_regions:
            kind = region.view_kind
            name = region.bind_name
            mat = self._matrix_ref(region.matrix)
            intervals = region.box.intervals
            if kind == "all":
                self.maker_lines.append(f"    _b_{name} = {mat}")
                continue
            if kind not in ("cell", "region", "row", "column"):
                raise _NotLowerable(f"unknown view kind {kind!r}")
            if kind in _FIXED_DIM and len(intervals) != 2:
                raise _NotLowerable(f"{kind} binding on non-2-D region")
            # The box's extremes speak for every cell only if every
            # point of it runs; ``lo <= hi`` of a region is monotone only
            # as the affine ``hi - lo``: when neither bound is rounded.
            hoist = not self.rule.residual_where and (
                kind != "region"
                or all(
                    bound.denominator_lcm() == 1
                    for interval in intervals
                    for bound in (interval.lo, interval.hi)
                )
            )
            end = 1 if hoist else 0  # of the box; 0: the cell's own value
            checks = []
            slices = []
            for dim, interval in enumerate(intervals):
                lo = self._affine(interval.lo)
                if kind == "region":
                    hi = self._affine(interval.hi)
                    extent = self._dim_ref(region.matrix, dim)
                    span = (
                        f"0 <= {self._affine(interval.hi - interval.lo, -1)}"
                        if hoist
                        else f"{lo} <= {hi}"
                    )
                    checks.append(
                        f"0 <= {self._affine(interval.lo, -end)} and {span}"
                        f" and {self._affine(interval.hi, end)} <= {extent}"
                    )
                    slices.append(f"{lo}:{hi}")
                elif kind == "cell" or dim == _FIXED_DIM[kind]:
                    extent, subscript = self.point_index(
                        region.matrix, dim, lo
                    )
                    if subscript != lo and not any(
                        var in self.box_vars for var in interval.lo.variables()
                    ):  # a folded plane the loop does not move: once per block
                        subscript = self.slots.setdefault(
                            subscript, f"_q{len(self.slots)}"
                        )
                    least = self._affine(interval.lo, -end)
                    greatest = self._affine(interval.lo, end)
                    checks.append(
                        f"0 <= {least} < {extent}"
                        if least == greatest
                        else f"0 <= {least} and {greatest} < {extent}"
                    )
                    slices.append(subscript)
                else:
                    slices.append(":")
            emit = self.step_lines.append if hoist else self.line
            emit(f"if not ({' and '.join(checks)}):")
            emit(
                f"    raise IndexError('{label}: {kind} binding "
                f"{name} outside view')"
            )
            if kind == "cell":  # read/written through _cell_ref
                self.cell_index[name] = slices
            else:
                self.line(f"_b_{name} = {mat}[{', '.join(slices)}]")

    # -- expressions -------------------------------------------------------

    def _compile(self, node: ast.ExprNode) -> _Val:
        if isinstance(node, ast.Num):
            return _Val("s", repr(float(node.value)), True)
        if isinstance(node, ast.Var):
            return self._resolve_var(node.name)
        if isinstance(node, ast.UnaryOp):
            operand = self._compile(node.operand)
            self.add_ops(1)
            if node.op == "-":
                return _Val("s", f"(-{self.scal(operand)})", True)
            if node.op == "!":
                return _Val(
                    "s", f"(0.0 if {self.scal(operand)} != 0 else 1.0)", True
                )
            raise _NotLowerable(f"unary operator {node.op!r}")
        if isinstance(node, ast.BinOp):
            return self._compile_binop(node)
        if isinstance(node, ast.Ternary):
            return self._compile_ternary(node)
        if isinstance(node, ast.CellAccess):
            return self._compile_cell_access(node)
        if isinstance(node, ast.Call):
            return self._compile_call(node)
        raise _NotLowerable(f"expression {type(node).__name__}")

    def _compile_binop(self, node: ast.BinOp) -> _Val:
        if node.op in ("&&", "||"):
            # Short-circuit: the right operand's statements (builtin
            # calls, nested divisions...) must only run when the left
            # side does not decide the result — lower to a real `if`.
            left = self._compile(node.left)
            self.flush_ops()
            result = self.tmp()
            if node.op == "&&":
                self.line(f"{result} = 0.0")
                self.line(f"if {self.scal(left)} != 0:")
            else:
                self.line(f"{result} = 1.0")
                self.line(f"if {self.scal(left)} == 0:")
            self.depth += 1
            right = self._compile(node.right)
            self.flush_ops()
            self.line(
                f"{result} = 1.0 if {self.scal(right)} != 0 else 0.0"
            )
            self.depth -= 1
            return _Val("s", result, True)
        left = self._compile(node.left)
        right = self._compile(node.right)
        lc, rc = self.scal(left), self.scal(right)
        self.add_ops(1)
        if node.op in _ARITH:
            return _Val("s", f"({lc} {node.op} {rc})", True)
        if node.op in _COMPARE:
            return _Val("s", f"(1.0 if {lc} {node.op} {rc} else 0.0)", True)
        if node.op == "/":
            result = self.tmp()
            self.line(f"{result} = _div({lc}, {rc})")
            return _Val("s", result, True)
        if node.op == "%":
            return _Val("s", f"_fmod({lc}, {rc})", True)
        raise _NotLowerable(f"operator {node.op!r}")

    def _compile_ternary(self, node: ast.Ternary) -> _Val:
        cond = self._compile(node.cond)
        self.flush_ops()
        result = self.tmp()
        self.line(f"if {self.scal(cond)} != 0:")
        self.depth += 1
        if_true = self._compile(node.if_true)
        self.flush_ops()
        self.line(f"{result} = {if_true.code}")
        self.depth -= 1
        self.line("else:")
        self.depth += 1
        if_false = self._compile(node.if_false)
        self.flush_ops()
        self.line(f"{result} = {if_false.code}")
        self.depth -= 1
        if if_true.kind != if_false.kind:
            raise _NotLowerable("ternary branches of different kinds")
        return _Val(
            if_true.kind, result, if_true.is_float and if_false.is_float
        )

    def _cell_access_ref(self, node: ast.CellAccess) -> _Ref:
        """Lower the coordinates of ``base.cell(...)`` (with the view's
        bounds check) and return the element reference — a read loads
        through it, ``x.cell(i) = ...`` stores through it."""
        if not self.in_body or node.base not in self.bindings:
            raise _NotLowerable(f"cell access on unknown base {node.base!r}")
        region = self.bindings[node.base]
        base = self._binding_value(region)
        if base.kind != "a":
            raise _NotLowerable("cell access on a scalar binding")
        if region.view_kind == "region":
            ndim = len(region.box.intervals)
        elif region.view_kind in ("row", "column"):
            ndim = 1
        else:  # "all"
            ndim = len(self.transform.matrices[region.matrix].dims)
        if len(node.args) != ndim:
            raise _NotLowerable("cell access arity mismatch")
        coords = []
        for arg in node.args:
            value = self._compile(arg)
            coord = self.tmp()
            self.line(f"{coord} = _idx({value.code})")
            coords.append(coord)
        checks = " and ".join(
            f"0 <= {coord} < {base.code}.shape[{dim}]"
            for dim, coord in enumerate(coords)
        )
        self.line(f"if not ({checks}):")
        self.line(
            f"    raise IndexError('cell({', '.join(coords)}) outside "
            f"view of {node.base}')"
        )
        return base.code, ", ".join(coords)

    def _compile_cell_access(self, node: ast.CellAccess) -> _Val:
        ref = self._cell_access_ref(node)
        result = self.tmp()
        self.line(f"{result} = {_load(ref)}")
        return _Val("s", result, True)

    def _compile_call(self, node: ast.Call) -> _Val:
        args = [self._compile(arg) for arg in node.args]
        if node.name in BUILTINS:
            self.used_builtins.add(node.name)
            static = sum(1 for a in args if a.kind == "s")
            self.add_ops(static)
            for a in args:
                if a.kind == "a":
                    self.add_ops_code(f"{a.code}.size")
            self.flush_ops()
            result = self.tmp()
            call_args = ", ".join(a.code for a in args)
            self.line(f"{result} = _bi_{node.name}({call_args})")
            return _Val("s", result, True)
        if not self.in_body:
            raise _NotLowerable("transform call in where-clause")
        if any(a.kind != "a" for a in args):
            raise _NotLowerable("transform call with scalar arguments")
        self.uses_call = True
        result = self.tmp()
        call_args = ", ".join(a.code for a in args)
        self.line(
            f"{result} = _call({node.name!r}, [{call_args}]).to_numpy()"
        )
        return _Val("a", result)

    # -- statements --------------------------------------------------------

    def _compile_statement(self, stmt: ast.Statement) -> None:
        if not isinstance(stmt, ast.Assign):
            raise _NotLowerable(f"statement {type(stmt).__name__}")
        value = self._compile(stmt.value)
        if isinstance(stmt.target, ast.Var):
            name = stmt.target.name
            if name not in self.bindings:
                raise _NotLowerable(f"assignment to non-region {name!r}")
            region = self.bindings[name]
            if region.view_kind == "cell":
                self._store_scalar(self._cell_ref(region), stmt.op, value)
            else:
                self._store_array(f"_b_{name}", stmt.op, value)
            return
        if isinstance(stmt.target, ast.CellAccess):
            # The interpreter resolves the target *after* the value.
            ref = self._cell_access_ref(stmt.target)
            self._store_scalar(ref, stmt.op, value)
            return
        raise _NotLowerable("invalid assignment target")

    def _store_scalar(self, ref: _Ref, op: str, value: _Val) -> None:
        target = f"{ref[0]}[{ref[1]}]"
        if op == "=":
            self.line(f"{target} = {self.scal(value)}")
            return
        current = self.tmp()
        self.line(f"{current} = {_load(ref)}")
        if op == "/=":
            # Plain Python division: a zero operand raises
            # ZeroDivisionError exactly like the interpreter's 0-D path.
            self.line(f"{target} = {current} / {self.scal(value)}")
        elif op in ("+=", "-=", "*="):
            self.line(f"{target} = {current} {op[0]} {self.scal(value)}")
        else:
            raise _NotLowerable(f"assignment operator {op!r}")
        self.add_ops(1)

    def _store_array(self, ref: str, op: str, value: _Val) -> None:
        code = value.code
        if op == "=":
            self.line(f"{ref}[...] = {code}")
            return
        if op not in ("+=", "-=", "*=", "/="):
            raise _NotLowerable(f"assignment operator {op!r}")
        result = self.tmp()
        self.line(f"{result} = {ref} {op[0]} ({code})")
        self.add_ops_code(f"{ref}.size")
        self.line(f"{ref}[...] = {result}")

    # -- driver ------------------------------------------------------------

    def lower(self) -> Tuple[Callable, str]:
        params = ", ".join(f"_s_{var}" for var in self.params)
        for cond in self.rule.residual_where:
            value = self._compile(cond)
            self.line(f"if {self.scal(value)} == 0:")
            self.line(f"    _reject({params})")
            self.line("    continue")
        self.in_body = True
        self.emit_bindings()
        for stmt in self.rule.body:
            self._compile_statement(stmt)
        # Summed cell by cell like the interpreter's charges: the same
        # additions in the same order, so the same float.
        base = float(self.rule.base_work)
        head = ["_work = 0.0"]
        if self.counts_ops:
            self.flush_ops()
            self.lines.insert(0, "            _ops = 0")
            self.line(f"_work += {base!r} + _ops")
        else:
            self.line(f"_work += {base + self.pending!r}")
        accepted = "len(_instances)"
        if self.rule.residual_where:
            head.append("_n = 0")
            self.line("_n += 1")
            accepted = "_n"
        free = "".join(f"_s_{var}, " for var in self.box_vars)
        head.append(f"for ({free}) in _instances:")
        slots = [f"{name} = {subscript}" for subscript, name in self.slots.items()]
        self.lines = (
            ["        " + text for text in self.step_lines + slots + head]
            + self.lines
            + [f"        return _work, {accepted}"]
        )
        for var in sorted(self.used_box):
            self.maker_lines.append(
                f"    _first_{var}, _last_{var} = "
                f"_box[{var!r}][0], _box[{var!r}][1] - 1"
            )
        return self.build(
            [f"_s_{var}" for var in self.chain_vars] + ["_instances"],
            _base_namespace(self.used_builtins),
        )


def lower_rule(
    rule: RuleIR,
    transform: TransformIR,
    chain_vars: Sequence[str] = (),
    free_vars: Optional[Sequence[str]] = None,
    folds: Dict[str, Tuple[int, int]] = {},  # never mutated
) -> Optional[RuleKernel]:
    """Lower one instance rule to a :class:`RuleKernel`.

    ``chain_vars`` / ``free_vars`` are a site's split of the rule's
    variables, in its iteration order (``Site.split``); by default every
    variable is free, in declaration order.  The kernel takes the chain
    values as arguments and loops over tuples of free values itself.
    ``folds`` is the transform's folded storage (``{matrix: (axis,
    window)}``, see :meth:`KernelBuilder.point_index`).

    Returns ``None`` when the rule has a native body, no DSL body, no rule
    variables, or uses a construct — in its body or its where-clause — the
    lowerer cannot prove equivalent to the interpreter; the engine then
    interprets that rule as before.
    """
    if rule.native_body is not None or not rule.body:
        return None
    if not rule.is_instance_rule:
        return None
    if free_vars is None:
        free_vars = rule.rule_vars
    lowerer = _Lowerer(rule, transform, chain_vars, free_vars, folds)
    try:
        maker, source = lowerer.lower()
    except _NotLowerable:
        return None
    return RuleKernel(
        params=lowerer.params,
        matrices=tuple(sorted(lowerer.used_matrices)),
        maker=maker,
        uses_call=lowerer.uses_call,
        source=source,
    )
