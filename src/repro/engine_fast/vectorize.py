"""Vectorized leaf execution: one NumPy expression per data-parallel step.

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
* every write coordinate must cover every free variable with an integral
  stride and no variable coupling, so each (write-)slice is a bijection
  of the instance set — the bulk write hits exactly the cells the scalar
  loop would;
* reads may omit free variables (broadcast) or use negative strides
  (reversed slices); non-free dimensions lower to the same exact
  ceil-of-affine indices the interpreter computes.

IEEE-754 note: elementwise ``+ - * / %`` and the whitelisted builtins
(``abs``/``sqrt``/``floor``/``ceil``/``min``/``max``) are computed by
NumPy with the same double rounding as the scalar path, so results are
bit-identical for non-NaN data.  Builtins with library-dependent rounding
(``exp``/``log``/``pow``), stateful ``rand()``, short-circuit operators,
ternaries, region reductions, and ``/=`` (whose scalar path raises
``ZeroDivisionError``) are rejected rather than risk divergence.  A
``/`` by zero still raises the interpreter's ``EvalError``, but a failing
step leaves different partial state than the cell-by-cell loop — error
paths abort the run either way.

Batch axis: there is one vector step per site, and every matrix operand
it takes carries a leading *batch* dimension.  The serial engine runs it
at batch 1 (``array[None]``, a view); :mod:`repro.batch` hands it B
same-shaped requests stacked, so one slice expression serves the whole
bucket.  The batch axis is a pure broadcast axis: index expressions,
strides, and bounds checks are functions of the (shared) size
environment only, so each batch lane computes exactly the bytes a
batch-1 step computes — elementwise IEEE ops have no cross-lane
interaction.  ``_vdiv``'s zero check spans the whole stack; a division
by zero anywhere demotes the *bucket* to per-request execution (see
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
)

import numpy as np

from repro.engine_fast.builder import KernelBuilder
from repro.engine_fast.geometry import Geometry, split_chain_free
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


def _vdiv(left, right):
    right = np.asarray(right)
    if (right == 0).any():
        raise EvalError("division by zero in rule body")
    return left / right


def _vmin(*args):
    # Not np.minimum: on signed-zero ties it keeps its SECOND operand,
    # while Python's min (the interpreter semantics) keeps the first.
    # np.where(arg < result, ...) keeps the earliest minimum, matching
    # the builtin bit-for-bit (including -0.0/+0.0 and NaN ordering).
    result = np.asarray(args[0])
    for arg in args[1:]:
        result = np.where(np.less(arg, result), arg, result)
    return result


def _vmax(*args):
    result = np.asarray(args[0])
    for arg in args[1:]:
        result = np.where(np.greater(arg, result), arg, result)
    return result


_ALL = slice(None)


_NAMESPACE = {
    "np": np,
    "_sl": _sl,
    "_vdiv": _vdiv,
    "_vmin": _vmin,
    "_vmax": _vmax,
    "_ALL": _ALL,
}


@dataclass
class VectorPlan:
    """A compiled vector leaf for one (segment, rule) pair.

    ``maker(env, tunables, arrays)`` — every array carrying a leading
    batch axis of one common extent — returns a step function taking the
    chain-variable values followed by ``(lo, count)`` per free variable;
    one call executes the whole data-parallel step in every batch lane.  ``static_ops`` is the
    interpreter's exact per-instance op count (the body is branch-free, so
    it is a constant), used by the engine's work model.

    The ``(lo, count)`` calling convention is also the tiling contract:
    cache-blocked execution (``__tile_i__``/``__tile_j__`` on a
    PB604-legal site) calls the *same* step function once per tile with
    a sub-range of each free variable — the generated slices are affine
    in ``lo``/``count``, so any partition of the free space computes
    exactly the cells the full-step call would, in tile-sized pieces.
    No separate tiled kernel exists: :meth:`sweep` enumerates the calls
    of one segment application, and the untiled sweep is simply the
    single full-extent tile (see ``_run_vector_steps`` in the codegen
    module and ``run_stacked`` in :mod:`repro.batch.stacked`).
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


class _VectorLowerer(KernelBuilder):
    """Compiles one rule to a step over arrays with a leading batch axis
    (axis 0 of every operand; matrix dimension ``d`` is array axis
    ``d + 1``)."""

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
    ) -> None:
        super().__init__(transform, rule, chain_vars)
        self.chain_vars = tuple(chain_vars)
        self.free_vars = tuple(free_vars)
        self.free_set = set(free_vars)
        self.used_axis_vars: Set[str] = set()
        self.writable = {r.bind_name for r in rule.to_regions}
        self.static_ops = 0

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
            for dim, interval in enumerate(region.box.intervals):
                expr = interval.lo
                frees = [
                    v for v in expr.variables() if v in self.free_set
                ]
                if len(frees) > 1:
                    raise _NotVectorizable(
                        f"coordinate {expr} couples parallel variables"
                    )
                extent = self._dim_ref(mat, dim)
                if not frees:
                    ref = f"_x_{name}_{dim}"
                    self.line(f"{ref} = {self._affine(expr)}")
                    checks.append(f"0 <= {ref} < {extent}")
                    index_parts.append(ref)
                    continue
                var = frees[0]
                if var in present:
                    raise _NotVectorizable(
                        f"variable {var!r} appears in multiple "
                        f"dimensions of {name!r}"
                    )
                coeff = expr.coefficient(var)
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

    def _axis_ref(self, var: str) -> str:
        """A broadcastable float64 coordinate array for a free variable
        referenced by value in the body (e.g. ``b = i * 2``)."""
        self.used_axis_vars.add(var)
        return f"_ax_{var}"

    def emit_axis_arrays(self) -> None:
        axis_lines: List[str] = []
        for var in self.free_vars:
            if var not in self.used_axis_vars:
                continue
            shape = ", ".join(
                "-1" if v == var else "1" for v in self.free_vars
            )
            axis_lines.append(
                "        "
                + f"_ax_{var} = np.arange(_lo_{var}, _lo_{var} "
                + f"+ _cnt_{var}, dtype=np.float64).reshape(({shape},))"
            )
        # Axis arrays depend only on the step parameters, so they can
        # lead the step body (region operands never reference them).
        self.lines[0:0] = axis_lines

    # -- expressions -------------------------------------------------------

    def _expr(self, node: ast.ExprNode) -> str:
        if isinstance(node, ast.Num):
            return repr(float(node.value))
        if isinstance(node, ast.Var):
            name = node.name
            if name in self.bindings:
                return f"_b_{name}"
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
                return f"(-({operand}))"
            if node.op == "!":
                return f"np.where(np.asarray({operand}) != 0, 0.0, 1.0)"
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
                return f"(({left}) {node.op} ({right}))"
            if node.op == "/":
                return f"_vdiv({left}, {right})"
            if node.op == "%":
                return f"np.fmod({left}, {right})"
            if node.op in ("==", "!=", "<", "<=", ">", ">="):
                return f"((({left}) {node.op} ({right})) * 1.0)"
            raise _NotVectorizable(f"operator {node.op!r}")
        if isinstance(node, ast.Ternary):
            raise _NotVectorizable("ternary in body")
        if isinstance(node, ast.CellAccess):
            raise _NotVectorizable("computed cell access in body")
        if isinstance(node, ast.Call):
            if node.name in _VECTOR_CALLS:
                args = [self._expr(a) for a in node.args]
                self.static_ops += len(args)
                return f"{_VECTOR_CALLS[node.name]}({', '.join(args)})"
            raise _NotVectorizable(
                f"builtin {node.name!r} is not bit-stable under "
                f"vectorization"
            )
        raise _NotVectorizable(f"expression {type(node).__name__}")

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
            target = f"_b_{name}"
            if stmt.op == "=":
                self.line(f"{target}[...] = {value}")
            elif stmt.op in ("+=", "-=", "*="):
                self.static_ops += 1  # target is a cell: size 1
                self.line(f"{target}[...] = {target} {stmt.op[0]} ({value})")
            else:
                raise _NotVectorizable(
                    f"assignment operator {stmt.op!r}"
                )

    # -- driver ------------------------------------------------------------

    def lower(self) -> Tuple[Callable, str]:
        self.emit_regions()
        self.emit_body()
        self.emit_axis_arrays()
        params = [f"_s_{v}" for v in self.chain_vars]
        for var in self.free_vars:
            params.extend((f"_lo_{var}", f"_cnt_{var}"))
        return self.build(params, dict(_NAMESPACE))


def plan_vector_leaf(
    transform: TransformIR,
    rule: RuleIR,
    directions: Dict[str, int],
    var_order: Sequence[str],
    has_fallback: bool = False,
) -> Tuple[Optional[VectorPlan], str]:
    """Compile a vector leaf for ``rule``, or explain why it cannot be.

    ``directions``/``var_order`` come from the engine's dependency
    analysis for the (segment, rule) pair (``_var_directions``); the
    canonical query is :func:`repro.analysis.races.vector_leaf_status`.
    Returns ``(plan, "")`` on success, else ``(None, reason)``.  The
    batch axis adds no dependence, so a site is batch-stackable exactly
    when it is vectorizable.
    """
    if rule.native_body is not None or not rule.body:
        return None, "native (Python) rule body"
    if not rule.is_instance_rule:
        return None, "whole-region rule (no instance space)"
    if has_fallback or rule.residual_where:
        return None, "meta-rule with a where-clause fallback"
    chain_vars, free_vars = split_chain_free(directions, var_order)
    if not free_vars:
        return (
            None,
            "no data-parallel variables; instances form a sequential chain",
        )
    lowerer = _VectorLowerer(transform, rule, chain_vars, free_vars)
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
