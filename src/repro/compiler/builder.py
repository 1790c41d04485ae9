"""Programmatic frontend: build transforms from Python.

The :class:`TransformBuilder` mirrors the DSL one-to-one — the same IR
and every compiler pass downstream are shared — but rule bodies may be
*native* Python callables operating on numpy-backed region views.  This
is the production path for the benchmark applications (per-cell DSL
interpretation is orders of magnitude too slow for realistic sizes; the
original had the same split between PetaBricks code and embedded C++).

Region specifications are ``(matrix, accessor, *coordinates)`` tuples
with coordinates given as affine strings, e.g.::

    b = TransformBuilder("RollingSum")
    b.input("A", "n")
    b.output("B", "n")
    b.rule(to=[("B", "cell", "i", "b")],
           from_=[("A", "region", "0", "i", "in")],
           body="b = sum(in);")
    b.rule(to=[("B", "cell", "i", "b")],
           from_=[("A", "cell", "i", "a"), ("B", "cell", "i-1", "leftSum")],
           body="b = a + leftSum;")
    program = b.build()

The last element of a spec tuple is the binding name when it parses as a
bare identifier distinct from the coordinate count; otherwise the matrix
name is used.

Native bodies receive a :class:`NativeContext`::

    def quick_sort(ctx):
        data = ctx["in"].to_numpy()
        ...
        ctx.charge(work)
        ctx.call("Sort", left_view, out=left_out)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.language import ast_nodes as ast
from repro.language.errors import CompileError
from repro.language.parser import parse_expression, parse_rule_body

from repro.compiler.ir import (
    NativeBody,
    TransformIR,
    build_transform,
)
from repro.compiler.leaves import NativeContext  # body signatures name it

RegionSpec = Sequence[str]


class TransformBuilder:
    """Declarative construction of one transform (see module docstring)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._from: List[ast.MatrixDecl] = []
        self._to: List[ast.MatrixDecl] = []
        self._through: List[ast.MatrixDecl] = []
        self._tunables: List[ast.TunableDecl] = []
        self._generator: Optional[str] = None
        self._rules: List[ast.RuleDecl] = []
        self._native_bodies: Dict[int, NativeBody] = {}
        self._base_work: Dict[int, float] = {}
        self._recursive_flags: Dict[int, bool] = {}

    # -- header ------------------------------------------------------------

    def input(self, name: str, *dims: str) -> "TransformBuilder":
        self._from.append(_matrix_decl(name, dims))
        return self

    def output(self, name: str, *dims: str) -> "TransformBuilder":
        self._to.append(_matrix_decl(name, dims))
        return self

    def through(self, name: str, *dims: str) -> "TransformBuilder":
        self._through.append(_matrix_decl(name, dims))
        return self

    def tunable(
        self, name: str, lo: int = 1, hi: int = 2**20, default: Optional[int] = None
    ) -> "TransformBuilder":
        self._tunables.append(ast.TunableDecl(name, lo, hi, default))
        return self

    def generator(self, name: str) -> "TransformBuilder":
        self._generator = name
        return self

    # -- rules ---------------------------------------------------------------

    def rule(
        self,
        to: Sequence[RegionSpec],
        from_: Sequence[RegionSpec] = (),
        body: Union[str, NativeBody, None] = None,
        where: Sequence[str] = (),
        priority: int = 1,
        label: str = "",
        work: float = 1.0,
        recursive: Optional[bool] = None,
    ) -> "TransformBuilder":
        """Add a rule.

        ``body`` is either DSL statement text or a Python callable taking
        a :class:`NativeContext`.  ``work`` is the base work charged per
        application before body accounting (native bodies usually charge
        explicitly instead).
        """
        index = len(self._rules)
        statements: Tuple[ast.Assign, ...] = ()
        native: Optional[NativeBody] = None
        if isinstance(body, str):
            statements = parse_rule_body(body)
        elif callable(body):
            native = body
        elif body is not None:
            raise TypeError("body must be DSL text or a callable")
        decl = ast.RuleDecl(
            to_bindings=tuple(_region_bind(spec) for spec in to),
            from_bindings=tuple(_region_bind(spec) for spec in from_),
            body=statements,
            where=tuple(ast.WhereClause(parse_expression(w)) for w in where),
            priority=priority,
            label=label or f"rule{index}",
        )
        self._rules.append(decl)
        if native is not None:
            self._native_bodies[index] = native
        self._base_work[index] = work
        if recursive is not None:
            self._recursive_flags[index] = recursive
        return self

    # -- output ----------------------------------------------------------------

    def build(self) -> TransformIR:
        """Lower to IR (semantic analysis included)."""
        if not self._to:
            raise CompileError(f"transform {self.name} declares no outputs")
        if not self._rules:
            raise CompileError(f"transform {self.name} has no rules")
        decl = ast.TransformDecl(
            name=self.name,
            to_matrices=tuple(self._to),
            from_matrices=tuple(self._from),
            through_matrices=tuple(self._through),
            rules=tuple(self._rules),
            tunables=tuple(self._tunables),
            generator=self._generator,
        )
        transform = build_transform(decl)
        for index, native in self._native_bodies.items():
            transform.rules[index].native_body = native
        for index, work in self._base_work.items():
            transform.rules[index].base_work = work
        for index, flag in self._recursive_flags.items():
            transform.rules[index].is_recursive = flag
        return transform


def _matrix_decl(name: str, dims: Sequence[str]) -> ast.MatrixDecl:
    return ast.MatrixDecl(
        name=name,
        dims=tuple(_coord_expr(d) for d in dims),
    )


def _coord_expr(text: str) -> ast.ExprNode:
    return parse_expression(str(text))


_ARITY = {"cell": None, "region": None, "row": 1, "column": 1, "all": 0}


def _region_bind(spec: RegionSpec) -> ast.RegionBind:
    """Convert ``(matrix, accessor, *coords[, name])`` to a RegionBind.

    The final element is treated as the binding name when it is a bare
    identifier and the accessor's coordinate arity allows it; otherwise
    the matrix name doubles as the binding name.
    """
    spec = [str(part) for part in spec]
    if len(spec) < 2:
        raise CompileError(f"region spec too short: {spec}")
    matrix, accessor, *rest = spec
    if accessor not in ("cell", "region", "row", "column", "all"):
        raise CompileError(f"unknown accessor {accessor!r} in region spec")
    name = matrix
    coords = rest
    if accessor == "all":
        if rest:
            name = rest[-1]
            coords = rest[:-1]
        if coords:
            raise CompileError("'all' accessor takes no coordinates")
    elif accessor in ("row", "column"):
        if len(rest) == 2:
            name = rest[-1]
            coords = rest[:-1]
        elif len(rest) != 1:
            raise CompileError(f"{accessor} takes one coordinate: {spec}")
    else:
        # cell/region: an explicit binding name is required (last element)
        if len(rest) < 2:
            raise CompileError(
                f"{accessor} spec needs coordinates plus a binding name: {spec}"
            )
        name = rest[-1]
        coords = rest[:-1]
    return ast.RegionBind(
        matrix=matrix,
        accessor=accessor,
        args=tuple(parse_expression(c) for c in coords),
        name=name,
    )


__all__ = ["TransformBuilder", "NativeContext"]
