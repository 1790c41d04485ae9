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

Batch axis (``repro.batch``): with ``batch=True`` the same lowering is
planned one axis wider — every matrix operand carries a leading *batch*
dimension stacking B same-shaped requests, so one slice expression
serves the whole bucket.  The batch axis is a pure broadcast axis: index
expressions, strides, and bounds checks are functions of the (shared)
size environment only, so the batched step computes, per batch lane,
exactly the bytes the unbatched step computes — elementwise IEEE ops
have no cross-lane interaction.  ``_vdiv``'s zero check spans the whole
stack; a division by zero anywhere demotes the *bucket* to per-request
execution (see :mod:`repro.batch.engine`), which reproduces the failing
request's exact serial error without poisoning its neighbours.
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

from repro.engine_fast.geometry import Geometry, split_chain_free
from repro.language import ast_nodes as ast
from repro.language.interp import EvalError
from repro.symbolic import Affine

if TYPE_CHECKING:  # typing only — keeps engine_fast free of compiler deps
    from repro.compiler.ir import RegionIR, RuleIR, TransformIR

__all__ = ["VECTOR_STABLE_CALLS", "VectorPlan", "plan_vector_leaf"]

#: builtins whose NumPy lowering is bit-identical to the scalar path.
_VECTOR_BUILTINS = {
    "abs": "np.abs",
    "sqrt": "np.sqrt",
    "floor": "np.floor",
    "ceil": "np.ceil",
}

#: every call name whose vector lowering matches the scalar path exactly
#: (the builtins above plus the variadic min/max reductions).  The fusion
#: legality gate (repro.analysis.depend) only inlines producer bodies
#: built from these, so a fused body stays on the same numeric ops.
VECTOR_STABLE_CALLS = frozenset(_VECTOR_BUILTINS) | {"min", "max"}


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


def _base_namespace() -> Dict[str, object]:
    return {
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

    ``maker(env, tunables, arrays)`` returns a step function taking the
    chain-variable values followed by ``(lo, count)`` per free variable;
    one call executes the whole data-parallel step.  ``static_ops`` is the
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
    #: planned for arrays with a leading batch axis (``repro.batch``)
    batch: bool = False

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


class _VectorLowerer:
    def __init__(
        self,
        transform: TransformIR,
        rule: RuleIR,
        chain_vars: Sequence[str],
        free_vars: Sequence[str],
        batch: bool = False,
    ) -> None:
        self.transform = transform
        self.rule = rule
        self.batch = batch
        self.chain_vars = tuple(chain_vars)
        self.free_vars = tuple(free_vars)
        self.free_set = set(free_vars)
        self.chain_set = set(chain_vars)
        self.lines: List[str] = []
        self.used_env: Set[str] = set()
        self.used_tunables: Set[str] = set()
        self.used_matrices: Set[str] = set()
        self.used_dims: Dict[str, Set[int]] = {}
        self.used_axis_vars: Set[str] = set()
        self.tunable_names = {t.name for t in transform.tunables}
        self.bindings: Dict[str, RegionIR] = {}
        for region in rule.all_regions:
            self.bindings[region.bind_name] = region
        self.writable = {r.bind_name for r in rule.to_regions}
        self.static_ops = 0

    # -- helpers -----------------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("        " + text)

    def _dim_ref(self, matrix: str, dim: int) -> str:
        self.used_matrices.add(matrix)
        self.used_dims.setdefault(matrix, set()).add(dim)
        return f"_d_{matrix}_{dim}"

    def _scalar_affine(self, expr: Affine) -> str:
        """Integer ceil-lowering of an affine over chain/size vars only."""
        lcm = expr.denominator_lcm()
        parts: List[str] = []
        constant = expr.constant * lcm
        if constant or not expr.coefficients:
            parts.append(str(int(constant)))
        for var, coeff in sorted(expr.coefficients.items()):
            scaled = coeff * lcm
            if scaled.denominator != 1:
                raise _NotVectorizable(
                    f"non-integral coefficient in coordinate {expr}"
                )
            if var in self.chain_set:
                name = f"_s_{var}"
            else:
                self.used_env.add(var)
                name = f"_e_{var}"
            parts.append(f"{int(scaled)} * {name}")
        code = " + ".join(parts)
        if lcm == 1:
            return f"({code})"
        return f"(-((-({code})) // {lcm}))"

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
            self.used_matrices.add(mat)
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
                    self.line(f"{ref} = {self._scalar_affine(expr)}")
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
                    f"{first} = {self._scalar_affine(rest)} "
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
            if self.batch:
                index_parts.insert(0, "_ALL")
            self.line(f"_b_{name} = _m_{mat}[{', '.join(index_parts)}]")
            if present:
                wanted = [v for v in self.free_vars if v in present]
                perm = tuple(present.index(v) for v in wanted)
                if perm != tuple(range(len(perm))):
                    if self.batch:
                        # Axis 0 is the batch axis; kept axes shift by 1.
                        shifted = (0,) + tuple(p + 1 for p in perm)
                        self.line(
                            f"_b_{name} = _b_{name}.transpose({shifted})"
                        )
                    else:
                        self.line(
                            f"_b_{name} = _b_{name}.transpose({perm})"
                        )
            if len(present) != len(self.free_vars):
                expander = ", ".join(
                    "_ALL" if v in present else "None"
                    for v in self.free_vars
                )
                if self.batch:
                    # Without free axes a batched operand is shape (B,):
                    # right-aligned broadcasting would bind B to the
                    # innermost free axis, so the expander is mandatory
                    # (the batch axis stays leftmost, missing free axes
                    # become explicit broadcast axes).
                    self.line(f"_b_{name} = _b_{name}[_ALL, {expander}, ]")
                elif present:
                    # Unbatched scalar reads (present empty) broadcast
                    # as 0-d arrays without help, matching the original
                    # generated source byte-for-byte.
                    self.line(f"_b_{name} = _b_{name}[{expander}, ]")

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
            position = self.free_vars.index(var)
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
            if name in self.chain_set:
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
            if node.name in ("min", "max"):
                args = [self._expr(a) for a in node.args]
                self.static_ops += len(args)
                fn = "_vmin" if node.name == "min" else "_vmax"
                return f"{fn}({', '.join(args)})"
            if node.name in _VECTOR_BUILTINS:
                args = [self._expr(a) for a in node.args]
                self.static_ops += len(args)
                return f"{_VECTOR_BUILTINS[node.name]}({', '.join(args)})"
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

    # -- assembly ----------------------------------------------------------

    def assemble(self) -> str:
        out: List[str] = ["def _maker(_env, _tunables, _arrays):"]
        for name in sorted(self.used_env):
            out.append(f"    _e_{name} = _env[{name!r}]")
        for name in sorted(self.used_tunables):
            out.append(f"    _u_{name} = _tunables[{name!r}]")
        for name in sorted(self.used_matrices):
            out.append(f"    _m_{name} = _arrays[{name!r}]")
        axis_shift = 1 if self.batch else 0
        for matrix in sorted(self.used_dims):
            for dim in sorted(self.used_dims[matrix]):
                out.append(
                    f"    _d_{matrix}_{dim} = "
                    f"_m_{matrix}.shape[{dim + axis_shift}]"
                )
        params = [f"_s_{v}" for v in self.chain_vars]
        for var in self.free_vars:
            params.extend((f"_lo_{var}", f"_cnt_{var}"))
        out.append(f"    def _step({', '.join(params)}):")
        out.extend(self.lines)
        out.append("    return _step")
        return "\n".join(out) + "\n"


def plan_vector_leaf(
    transform: TransformIR,
    rule: RuleIR,
    directions: Dict[str, int],
    var_order: Sequence[str],
    has_fallback: bool = False,
    batch: bool = False,
) -> Tuple[Optional[VectorPlan], str]:
    """Compile a vector leaf for ``rule``, or explain why it cannot be.

    ``directions``/``var_order`` come from the engine's dependency
    analysis for the (segment, rule) pair (``_var_directions``); the
    canonical query is :func:`repro.analysis.races.vector_leaf_status`.
    Returns ``(plan, "")`` on success, else ``(None, reason)``.

    With ``batch=True`` the maker expects every matrix in ``arrays`` to
    carry a leading batch axis of one common extent; eligibility is
    unchanged (the batch axis adds no dependence), so a rule is
    batch-stackable exactly when it is vectorizable.
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
    lowerer = _VectorLowerer(transform, rule, chain_vars, free_vars, batch)
    try:
        lowerer.emit_regions()
        lowerer.emit_body()
        lowerer.emit_axis_arrays()
        source = lowerer.assemble()
    except _NotVectorizable as reason:
        return None, str(reason)
    namespace = _base_namespace()
    tag = "vector-batch" if batch else "vector"
    exec(  # noqa: S102 - compiling our own generated source
        compile(
            source, f"<{tag} {transform.name}.{rule.label}>", "exec"
        ),
        namespace,
    )
    plan = VectorPlan(
        chain_vars=chain_vars,
        free_vars=free_vars,
        static_ops=lowerer.static_ops,
        matrices=tuple(sorted(lowerer.used_matrices)),
        maker=namespace["_maker"],
        source=source,
        batch=batch,
    )
    return plan, ""
