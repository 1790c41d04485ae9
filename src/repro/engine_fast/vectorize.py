"""Vectorized leaf execution: one in-place ufunc chain per data-parallel
step, run over cache-sized strips.

When a rule body is straight-line elementwise arithmetic over affine
*cell* accesses and the dependency analysis has proved the free-variable
instances of a step independent (direction 0 in the depgraph — exactly the
instances the engine already runs as parallel block tasks), the entire
step can be executed as slice arithmetic over the backing arrays instead
of one closure/interpreter call per cell.

:func:`plan_vector_leaf` decides eligibility and compiles a
:class:`VectorPlan`; it returns ``(None, reason)`` otherwise, and the
reason string is what ``repro check`` surfaces as the PB502 diagnostic.

Legality argument (see DESIGN.md "Execution paths"):

* free variables have depgraph direction 0, i.e. the race/dependency
  analysis found no dependence between two instances of the same step —
  the same guarantee that lets the engine record them as sibling parallel
  tasks.  Executing them as one bulk array operation is just another
  serialization of an independent set;
* every write coordinate's access map (``RuleIR.access``) must cover
  every free variable with an integral stride and no coupling, so each
  (write-)slice is a bijection of the instance set — the bulk write hits
  exactly the cells the scalar loop would;
* reads may omit free variables (broadcast) or use negative strides
  (reversed slices); non-free dimensions lower to the same exact
  ceil-of-affine indices the interpreter computes.

Kernel form: every assignment lowers to a three-address chain of ufunc
calls with ``out=`` (``np.multiply(c, 0.5, out=t0); np.multiply(nw,
0.25, out=t1); np.add(t0, t1, out=t0); ... np.add(t0, t1, out=dst)``) in
the interpreter's operation order.  Intermediates live in a few scratch
buffers reused Sethi–Ullman style; sub-expressions without an array
operand stay Python scalars; only a statement's *last* operation writes
the destination view, so every read of the statement happens before (or
elementwise with) its one write, and NumPy's overlap handling keeps
``+=`` targets and rules that read the matrix they write exact.  The
chain runs over *strips* of the outermost free variable, each covering
about :data:`STRIP_BYTES` of one operand (batch axis included): operand
views and bounds checks are built once per step, the strip loop only
re-slices axis 1 and reshapes a flat scratch prefix, so a scratch buffer
written by one ufunc is still cache-resident when the next reads it.
Strips need no legality verdict of their own: the instances of one step
are independent by the proof that made the site vectorizable, and a
strip is just a sub-range of one free variable — the ``(lo, count)``
contract of :class:`VectorPlan` already says any partition of the free
space writes the same cells.  Scratch belongs to one ``maker`` call (one
segment application), so threads sharing a plan share nothing mutable.

IEEE-754 note: elementwise ``+ - * / %`` and the whitelisted builtins
(``abs``/``sqrt``/``floor``/``ceil``/``min``/``max``) are computed by
NumPy with the same double rounding as the scalar path, so results are
bit-identical for non-NaN data.  Builtins with library-dependent rounding
(``exp``/``log``/``pow``), stateful ``rand()``, short-circuit operators,
ternaries, region reductions, and ``/=`` (whose scalar path raises
``ZeroDivisionError``) are rejected rather than risk divergence.  A
``/`` by zero still raises the interpreter's ``EvalError`` (a non-zero
literal divisor needs no check and lowers to a bare ``np.divide``), but
a failing step — now a failing strip — leaves different partial state
than the cell-by-cell loop; error paths abort the run either way.

Batch axis: there is one vector step per site, and every matrix operand
it takes carries a leading *batch* dimension.  The serial engine runs it
at batch 1 (``array[None]``, a view); :mod:`repro.batch` hands it B
same-shaped requests stacked, so one ufunc chain serves the whole
bucket.  The batch axis is a pure broadcast axis: index expressions,
strides, and bounds checks are functions of the (shared) size
environment only, so each batch lane computes exactly the bytes a
batch-1 step computes — elementwise IEEE ops have no cross-lane
interaction.  ``_vdiv``'s zero check spans every lane of a strip; a
division by zero anywhere demotes the *bucket* to per-request execution (see
:mod:`repro.batch.engine`), which reproduces the failing request's exact
serial error without poisoning its neighbours.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.engine_fast.builder import KernelBuilder
from repro.engine_fast.geometry import Geometry
from repro.language import ast_nodes as ast
from repro.language.interp import EvalError
from repro.symbolic import Affine

if TYPE_CHECKING:  # typing only — keeps engine_fast free of compiler deps
    from repro.compiler.ir import RuleIR, TransformIR

__all__ = ["VECTOR_STABLE_CALLS", "VectorPlan", "plan_vector_leaf"]

#: calls whose vector lowering is bit-identical to the scalar path, with
#: the function that lowers them (``_vmin``/``_vmax`` are defined below).
_VECTOR_CALLS = {
    "abs": "np.abs",
    "sqrt": "np.sqrt",
    "floor": "np.floor",
    "ceil": "np.ceil",
    "min": "_vmin",
    "max": "_vmax",
}

#: The fusion legality gate (repro.analysis.depend) only inlines producer
#: bodies built from these, so a fused body stays on the same numeric ops.
VECTOR_STABLE_CALLS = frozenset(_VECTOR_CALLS)


# -- runtime helpers -------------------------------------------------------


def _sl(first: int, step: int, count: int) -> slice:
    """The slice selecting ``first, first+step, ...`` (``count`` items)."""
    stop = first + step * count
    if step > 0:
        return slice(first, stop, step)
    return slice(first, stop if stop >= 0 else None, step)


def _vdiv(left, right, out=None):
    """``left / right`` for a divisor that is not a non-zero literal."""
    if (np.asarray(right) == 0).any():
        raise EvalError("division by zero in rule body")
    return np.divide(left, right, out=out)


def _select(better, args, out):
    # Not np.minimum/np.maximum: on signed-zero ties they keep their
    # SECOND operand, while Python's min/max (the interpreter semantics)
    # keep the first.  np.where(better(arg, result), ...) keeps the
    # earliest extreme, matching the builtins bit-for-bit (including
    # -0.0/+0.0 and NaN ordering).  The result is complete before
    # ``out`` is written, so ``out`` may be one of the arguments.
    result = np.asarray(args[0])
    for arg in args[1:]:
        result = np.where(better(arg, result), arg, result)
    if out is None:
        return result
    out[...] = result
    return out


def _vmin(*args, out=None):
    return _select(np.less, args, out)


def _vmax(*args, out=None):
    return _select(np.greater, args, out)


#: Bytes of ONE operand (batch axis included) a strip of the outermost
#: free variable covers.  A body's scratch buffers and the operand rows
#: it streams then stay cache-resident from the first ufunc of the chain
#: to the last.  Measured optimum 128-512 KiB on Blur/Pipeline/Heat with
#: a 4 MiB L2 (DESIGN.md "Execution paths").
STRIP_BYTES = 256 * 1024


def _strip_rows(count: int, row_cells: int) -> int:
    """Indices of the strip axis per strip, for rows of ``row_cells``
    float64 cells each."""
    return max(1, min(count, STRIP_BYTES // (8 * max(1, row_cells))))


_ALL = slice(None)

#: DSL operator -> the ufunc that computes it (comparisons store 0.0 /
#: 1.0 through a float64 ``out``).
_UFUNCS = {
    "+": "np.add",
    "-": "np.subtract",
    "*": "np.multiply",
    "==": "np.equal",
    "!=": "np.not_equal",
    "<": "np.less",
    "<=": "np.less_equal",
    ">": "np.greater",
    ">=": "np.greater_equal",
}

_NAMESPACE = {
    "np": np,
    "_sl": _sl,
    "_vdiv": _vdiv,
    "_vmin": _vmin,
    "_vmax": _vmax,
    "_strip_rows": _strip_rows,
    "_ALL": _ALL,
}


@dataclass
class VectorPlan:
    """A compiled vector leaf for one (segment, rule) pair.

    ``maker(env, tunables, arrays)`` returns a step function; every
    array carries a leading batch axis of one common extent.  The step
    takes the chain-variable values followed by ``(lo, count)`` per free
    variable, and one call executes the whole data-parallel step in
    every batch lane (internally in strips, see the module docstring).
    ``static_ops`` is the interpreter's exact per-instance op count (the
    body is branch-free, so it is a constant), used by the engine's work
    model.

    The ``(lo, count)`` calling convention is also the tiling contract:
    cache-blocked execution (``__tile_i__``/``__tile_j__`` on a
    PB604-legal site) calls the *same* step function once per tile with
    a sub-range of each free variable — the generated slices are affine
    in ``lo``/``count``, so any partition of the free space computes
    exactly the cells the full-step call would, in tile-sized pieces.
    No separate tiled kernel exists: :meth:`sweep` enumerates the calls
    of one segment application, and the untiled sweep is simply the
    single full-extent tile (see ``PlanStep.sweep`` in
    :mod:`repro.compiler.plan`, which the serial replay and ``run_stacked`` both walk).
    """

    chain_vars: Tuple[str, ...]
    free_vars: Tuple[str, ...]
    static_ops: int
    matrices: Tuple[str, ...]
    maker: Callable
    source: str

    def sweep(
        self,
        geometry: Geometry,
        tile_sizes: Sequence[int] = (),
        interchange: bool = False,
    ) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
        """Every step-function call of one segment application, in
        execution order: ``(chain values, flattened (lo, count) free
        arguments, cells covered)``.

        ``tile_sizes`` aligns with ``free_vars``; a missing or
        non-positive size leaves that variable as one full-extent chunk,
        so the default is one call per chain step.  Tiles run in
        ascending lexicographic order, the order the PB604 proof
        assumes.  Plain tiling keeps the chain outermost (every tile per
        step); ``interchange`` runs tiles outermost — the whole chain
        sweeps one tile while it is cache-hot before moving to the
        next, which is the locality win on chain-heavy stacks like
        matmul."""
        chunk_lists: List[List[Tuple[int, int]]] = []
        for var, size in itertools.zip_longest(
            self.free_vars, tile_sizes, fillvalue=0
        ):
            lo, hi = geometry.var_ranges[var]
            if size <= 0:
                chunk_lists.append([(lo, hi - lo)])
            else:
                chunk_lists.append(
                    [(s, min(size, hi - s)) for s in range(lo, hi, size)]
                )
        tiles = [
            (
                tuple(bound for chunk in tile for bound in chunk),
                math.prod(count for _lo, count in tile),
            )
            for tile in itertools.product(*chunk_lists)
        ]
        # product() of no chain variables is the one empty step.
        chain_steps = list(itertools.product(*geometry.chain_value_lists))
        if interchange:
            return ((chain, *tile) for tile in tiles for chain in chain_steps)
        return ((chain, *tile) for chain in chain_steps for tile in tiles)


class _NotVectorizable(Exception):
    """Internal: carries the human-readable rejection reason."""


@dataclass(frozen=True)
class _Node:
    """An array-valued sub-expression: a leaf operand (``ref`` names its
    view) or a call ``func(*args, out=...)`` awaiting its destination.
    Scalar-only sub-expressions never become nodes — they stay Python
    source strings.  ``need`` is the Sethi–Ullman label: scratch buffers
    held while the node is evaluated."""

    ref: str = ""
    func: str = ""
    args: Tuple[Union[str, "_Node"], ...] = ()
    need: int = 0


class _VectorLowerer(KernelBuilder):
    """Compiles one rule to a step over arrays with a leading batch axis
    (axis 0 of every operand; matrix dimension ``d`` is array axis
    ``d + 1``; free variable ``free_vars[k]`` is operand axis ``k + 1``,
    the strip axis being axis 1)."""

    tag = "vector"
    maker_args = "_env, _tunables, _arrays"
    kernel_name = "_step"
    axis_shift = 1

    def __init__(
        self,
        transform: TransformIR,
        rule: RuleIR,
        chain_vars: Sequence[str],
        free_vars: Sequence[str],
        folds: Dict[str, Tuple[int, int]],
    ) -> None:
        super().__init__(transform, rule, chain_vars, folds)
        self.chain_vars = tuple(chain_vars)
        self.free_vars = tuple(free_vars)
        self.free_set = set(free_vars)
        self.writable = {r.bind_name for r in rule.to_regions}
        self.static_ops = 0
        #: bindings whose operand keeps the strip axis (``free_vars[0]``)
        self.stripped: Set[str] = set()
        self.used_axis_vars: Set[str] = set()
        #: per-strip view -> the step-level operand it re-slices
        self.strip_views: Dict[str, str] = {}
        #: scratch buffers holding a live value / most ever held at once
        self.held: Set[str] = set()
        self.n_slots = 0

    # -- region operands ---------------------------------------------------

    def emit_regions(self) -> None:
        """Lower every binding to an aligned array operand.

        Kept axes are transposed into canonical free-variable order and
        missing free variables become broadcast (``None``) axes; writes
        must keep every axis, so the write slice is a bijection of the
        instance set.
        """
        for region in self.rule.all_regions:
            name = region.bind_name
            if region.view_kind != "cell":
                raise _NotVectorizable(
                    f"binding {name!r} is a {region.view_kind} view "
                    f"(only cell reads/writes vectorize)"
                )
            mat = region.matrix
            present: List[str] = []  # free var per kept axis, in dim order
            index_parts: List[str] = []
            checks: List[str] = []
            for dim, coord in enumerate(self.rule.access(region)):
                expr = coord.expr
                frees = [term for term in coord.terms if term[0] in self.free_set]
                if len(frees) > 1:
                    raise _NotVectorizable(
                        f"coordinate {expr} couples parallel variables"
                    )
                if not frees:
                    ref = f"_x_{name}_{dim}"
                    self.line(f"{ref} = {self._affine(expr)}")
                    extent, subscript = self.point_index(mat, dim, ref)
                    checks.append(f"0 <= {ref} < {extent}")
                    index_parts.append(subscript)
                    continue
                extent = self._dim_ref(mat, dim)
                var, coeff = frees[0]
                if var in present:
                    raise _NotVectorizable(
                        f"variable {var!r} appears in multiple "
                        f"dimensions of {name!r}"
                    )
                if coeff.denominator != 1:
                    raise _NotVectorizable(
                        f"non-integer stride for {var!r} in {expr}"
                    )
                step = int(coeff)
                rest = expr - Affine(0, {var: coeff})
                first = f"_f_{name}_{dim}"
                last = f"_l_{name}_{dim}"
                self.line(
                    f"{first} = {self._affine(rest)} "
                    f"+ {step} * _lo_{var}"
                )
                self.line(f"{last} = {first} + {step} * (_cnt_{var} - 1)")
                checks.append(f"0 <= {first} < {extent}")
                checks.append(f"0 <= {last} < {extent}")
                if step == 1:  # the common case, without a helper call
                    index_parts.append(f"{first}:{last} + 1")
                else:
                    index_parts.append(f"_sl({first}, {step}, _cnt_{var})")
                present.append(var)
            if checks:
                self.line(f"if not ({' and '.join(checks)}):")
                self.line(
                    f"    raise IndexError('{self.transform.name}."
                    f"{self.rule.label}: binding {name} outside view')"
                )
            if name in self.writable and set(present) != self.free_set:
                missing = sorted(self.free_set - set(present))
                raise _NotVectorizable(
                    f"write coordinates of {name!r} do not cover "
                    f"parallel variable(s) {', '.join(missing)}"
                )
            index = ", ".join(["_ALL"] + index_parts)
            self.line(f"_b_{name} = {self._matrix_ref(mat)}[{index}]")
            wanted = [v for v in self.free_vars if v in present]
            perm = tuple(present.index(v) for v in wanted)
            if perm != tuple(range(len(perm))):
                # Axis 0 is the batch axis; kept axes shift by 1.
                shifted = (0,) + tuple(p + 1 for p in perm)
                self.line(f"_b_{name} = _b_{name}.transpose({shifted})")
            if len(present) != len(self.free_vars):
                expander = ", ".join(
                    "_ALL" if v in present else "None"
                    for v in self.free_vars
                )
                # Without free axes an operand is shape (B,): right-
                # aligned broadcasting would bind B to the innermost
                # free axis, so the expander is mandatory (the batch
                # axis stays leftmost, missing free axes become explicit
                # broadcast axes).
                self.line(f"_b_{name} = _b_{name}[_ALL, {expander}, ]")
            if self.free_vars[0] in present:
                self.stripped.add(name)

    def _operand(self, name: str) -> _Node:
        """The per-strip view of a binding (the operand itself when it
        broadcasts along the strip axis)."""
        if name not in self.stripped:
            return _Node(ref=f"_b_{name}")
        self.strip_views[f"_v_{name}"] = f"_b_{name}"
        return _Node(ref=f"_v_{name}")

    def _axis_ref(self, var: str) -> _Node:
        """A broadcastable float64 coordinate array for a free variable
        referenced by value in the body (e.g. ``b = i * 2``)."""
        self.used_axis_vars.add(var)
        if var != self.free_vars[0]:
            return _Node(ref=f"_ax_{var}")
        self.strip_views[f"_w_{var}"] = f"_ax_{var}"
        return _Node(ref=f"_w_{var}")

    def axis_lines(self) -> List[str]:
        """Axis arrays depend only on the step parameters, so they lead
        the step body (region operands never reference them)."""
        lines: List[str] = []
        for var in self.free_vars:
            if var not in self.used_axis_vars:
                continue
            shape = ", ".join(
                "-1" if v == var else "1" for v in self.free_vars
            )
            lines.append(
                "        "
                + f"_ax_{var} = np.arange(_lo_{var}, _lo_{var} "
                + f"+ _cnt_{var}, dtype=np.float64).reshape((1, {shape}))"
            )
        return lines

    # -- expressions -------------------------------------------------------

    def _op(
        self, func: str, scalar: str, *args: Union[str, _Node]
    ) -> Union[str, _Node]:
        """``func`` over ``args``: the ``scalar`` template filled in when
        no argument is an array, else a node."""
        if all(isinstance(arg, str) for arg in args):
            return scalar.format(*args)
        needs = sorted(
            (arg.need for arg in args if not isinstance(arg, str)),
            reverse=True,
        )
        need = max([1] + [n + kept for kept, n in enumerate(needs)])
        return _Node(func=func, args=args, need=need)

    def _expr(self, node: ast.ExprNode) -> Union[str, _Node]:
        if isinstance(node, ast.Num):
            return repr(float(node.value))
        if isinstance(node, ast.Var):
            name = node.name
            if name in self.bindings:
                return self._operand(name)
            if name in self.tunable_names:
                self.used_tunables.add(name)
                return f"_u_{name}"
            if name in self.free_set:
                return self._axis_ref(name)
            if name in self.scalar_vars:
                return f"_s_{name}"
            if name in self.transform.size_vars:
                self.used_env.add(name)
                return f"_e_{name}"
            raise _NotVectorizable(f"unknown name {name!r} in rule body")
        if isinstance(node, ast.UnaryOp):
            operand = self._expr(node.operand)
            self.static_ops += 1
            if node.op == "-":
                return self._op("np.negative", "(-({0}))", operand)
            if node.op == "!":
                return self._op(
                    "np.equal", "(0.0 if ({0}) != 0 else 1.0)", operand, "0.0"
                )
            raise _NotVectorizable(f"unary operator {node.op!r}")
        if isinstance(node, ast.BinOp):
            if node.op in ("&&", "||"):
                raise _NotVectorizable(
                    "short-circuit logical operator in body"
                )
            left = self._expr(node.left)
            right = self._expr(node.right)
            self.static_ops += 1
            if node.op in ("+", "-", "*"):
                return self._op(
                    _UFUNCS[node.op], f"(({{0}}) {node.op} ({{1}}))",
                    left, right,
                )
            if node.op == "/":
                if isinstance(node.right, ast.Num) and float(node.right.value):
                    # a non-zero literal divisor needs no zero check
                    return self._op(
                        "np.divide", "(({0}) / ({1}))", left, right
                    )
                return self._op("_vdiv", "_vdiv({0}, {1})", left, right)
            if node.op == "%":
                return self._op("np.fmod", "np.fmod({0}, {1})", left, right)
            if node.op in ("==", "!=", "<", "<=", ">", ">="):
                # a comparison ufunc writing a float64 ``out`` stores
                # exactly the 0.0 / 1.0 the interpreter computes
                return self._op(
                    _UFUNCS[node.op], f"((({{0}}) {node.op} ({{1}})) * 1.0)",
                    left, right,
                )
            raise _NotVectorizable(f"operator {node.op!r}")
        if isinstance(node, ast.Ternary):
            raise _NotVectorizable("ternary in body")
        if isinstance(node, ast.CellAccess):
            raise _NotVectorizable("computed cell access in body")
        if isinstance(node, ast.Call):
            if node.name in _VECTOR_CALLS:
                args = [self._expr(a) for a in node.args]
                self.static_ops += len(args)
                func = _VECTOR_CALLS[node.name]
                holes = ", ".join(f"{{{i}}}" for i in range(len(args)))
                return self._op(func, f"{func}({holes})", *args)
            raise _NotVectorizable(
                f"builtin {node.name!r} is not bit-stable under "
                f"vectorization"
            )
        raise _NotVectorizable(f"expression {type(node).__name__}")

    def _emit(self, value: Union[str, _Node], dest: str = "") -> str:
        """Emit ``value`` as a three-address chain and return the name
        holding the result: ``dest`` when given, else a scratch buffer.

        Arguments needing more scratch are evaluated first
        (Sethi–Ullman), an operation writes over one of its own scratch
        arguments when it has one (every ``func`` reads all inputs
        before, or elementwise with, writing ``out``), and buffers are
        released the moment their value is consumed — so a body holds
        at most ``n_slots`` strip-sized temporaries at once."""
        if isinstance(value, str):
            return value
        if not value.func:
            return value.ref
        order = sorted(
            range(len(value.args)),
            key=lambda i: -getattr(value.args[i], "need", 0),
        )
        names = {index: self._emit(value.args[index]) for index in order}
        args = [names[index] for index in range(len(value.args))]
        scratch = [name for name in args if name in self.held]
        if not dest and scratch:
            dest = scratch.pop(0)
        elif not dest:
            dest = next(
                name
                for name in map("_t{}".format, itertools.count())
                if name not in self.held
            )
            self.held.add(dest)
            # lowest free index first: slot k is taken only while
            # 0..k-1 are held
            self.n_slots = max(self.n_slots, len(self.held))
        self.held.difference_update(scratch)
        self.line(f"{value.func}({', '.join(args)}, out={dest})")
        return dest

    # -- statements --------------------------------------------------------

    def emit_body(self) -> None:
        for stmt in self.rule.body:
            if not isinstance(stmt, ast.Assign):
                raise _NotVectorizable(
                    f"statement {type(stmt).__name__}"
                )
            if not isinstance(stmt.target, ast.Var):
                raise _NotVectorizable("computed assignment target")
            name = stmt.target.name
            if name not in self.writable:
                raise _NotVectorizable(
                    f"assignment to non-output binding {name!r}"
                )
            value = self._expr(stmt.value)
            target = self._operand(name)
            if stmt.op in ("+=", "-=", "*="):
                self.static_ops += 1  # target is a cell: size 1
                value = self._op(_UFUNCS[stmt.op[0]], "", target, value)
            elif stmt.op != "=":
                raise _NotVectorizable(
                    f"assignment operator {stmt.op!r}"
                )
            # Only this last operation of the statement writes the
            # destination; every earlier one lands in scratch.
            if isinstance(value, _Node) and value.func:
                self._emit(value, dest=target.ref)
            else:
                self.line(f"{target.ref}[...] = {self._emit(value)}")

    # -- driver ------------------------------------------------------------

    def strip_lines(self) -> List[str]:
        """The strip loop header: strip height, the scratch pool (grown
        on demand, owned by this maker call) and the per-strip views."""
        count, *inner = (f"_cnt_{var}" for var in self.free_vars)
        self.maker_lines.append(
            f"    _batch = _m_{min(self.used_matrices)}.shape[0]"
        )
        head = [
            f"_row = {' * '.join(['_batch'] + inner)}",
            f"_rows = _strip_rows({count}, _row)",
        ]
        loop = [
            f"for _s in range(0, {count}, _rows):",
            f"    _e = min(_s + _rows, {count})",
        ]
        if self.n_slots:
            pool = f"np.empty(({self.n_slots}, {{}}))"
            self.maker_lines.append(f"    _pool = {pool.format(0)}")
            head += [
                "nonlocal _pool",
                "if _pool.shape[1] < _rows * _row:",
                f"    _pool = {pool.format('_rows * _row')}",
            ]
            loop += [
                "    _n = _e - _s",
                f"    _shape = ({', '.join(['_batch', '_n'] + inner)})",
            ]
            loop += [
                f"    _t{slot} = _pool[{slot}, :_n * _row].reshape(_shape)"
                for slot in range(self.n_slots)
            ]
        loop += [
            f"    {view} = {operand}[_ALL, _s:_e]"
            for view, operand in self.strip_views.items()
        ]
        return ["        " + text for text in head + loop]

    def lower(self) -> Tuple[Callable, str]:
        self.emit_regions()
        operands, self.lines, self.depth = self.lines, [], 3
        self.emit_body()
        self.lines = (
            self.axis_lines() + operands + self.strip_lines() + self.lines
        )
        params = [f"_s_{v}" for v in self.chain_vars]
        for var in self.free_vars:
            params.extend((f"_lo_{var}", f"_cnt_{var}"))
        return self.build(params, dict(_NAMESPACE))


def plan_vector_leaf(
    transform: TransformIR,
    rule: RuleIR,
    chain_vars: Tuple[str, ...],
    free_vars: Tuple[str, ...],
    folds: Dict[str, Tuple[int, int]] = {},  # never mutated
) -> Tuple[Optional[VectorPlan], str]:
    """Compile a vector leaf for ``rule``, or explain why it cannot be.

    ``chain_vars``/``free_vars`` are the (segment, rule) site's split of
    the rule's variables; the canonical query — the one everything
    reads — is ``Site.vector`` (:mod:`repro.compiler.codegen`).
    ``folds`` is the transform's folded storage (``{matrix: (axis,
    window)}``, see :meth:`KernelBuilder.point_index`).
    Returns ``(plan, "")`` on success, else ``(None, reason)``.  A site
    is batch-stackable exactly when it is vectorizable: the batch axis
    is pure broadcast and adds no dependence, and everything that takes
    a per-instance decision which could differ between batch lanes — a
    native body, a whole-region rule, a where-clause that needs a
    fallback — is refused here for the serial leaf already.  An option
    with a fallback therefore never has a plan: the choice grid attaches
    fallbacks only to rules with a residual where-clause.
    """
    if rule.native_body is not None or not rule.body:
        return None, "native (Python) rule body"
    if not rule.is_instance_rule:
        return None, "whole-region rule (no instance space)"
    if rule.residual_where:
        return None, "meta-rule with a where-clause fallback"
    if not free_vars:
        return (
            None,
            "no data-parallel variables; instances form a sequential chain",
        )
    lowerer = _VectorLowerer(transform, rule, chain_vars, free_vars, folds)
    try:
        maker, source = lowerer.lower()
    except _NotVectorizable as reason:
        return None, str(reason)
    plan = VectorPlan(
        chain_vars=chain_vars,
        free_vars=free_vars,
        static_ops=lowerer.static_ops,
        matrices=tuple(sorted(lowerer.used_matrices)),
        maker=maker,
        source=source,
    )
    return plan, ""
