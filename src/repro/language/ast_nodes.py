"""Abstract syntax tree for the PetaBricks DSL.

Two expression contexts share one node family (:class:`ExprNode`):

* *region coordinates* (``A.region(0, c/2, w, c)``) must be affine in the
  transform's free variables — :meth:`ExprNode.to_affine` converts them to
  :class:`repro.symbolic.Affine`, rejecting anything non-affine, exactly
  where the original compiler invoked Maxima;
* *rule bodies* are evaluated by the interpreter in
  :mod:`repro.language.interp` against bound region views.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.symbolic import Affine

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class ExprNode:
    """Base class for expression nodes.

    :meth:`walk` and :meth:`map_vars` are the one traversal of the tree:
    both read a node's children off its dataclass fields (an
    ``ExprNode`` or a tuple of them), so a new node type needs no
    traversal code of its own.
    """

    def to_affine(self) -> Affine:
        """Convert to an affine symbolic expression; raises ValueError for
        non-affine constructs (calls, comparisons, cell access...)."""
        raise ValueError(f"{type(self).__name__} is not an affine expression")

    def _children(self) -> Iterator[Tuple[str, object]]:
        """``(field name, value)`` of every field holding subexpressions."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (ExprNode, tuple)):
                yield f.name, value

    def walk(self) -> Iterator[ExprNode]:
        """This node, then its descendants in source order (pre-order)."""
        yield self
        for _, value in self._children():
            for child in value if isinstance(value, tuple) else (value,):
                yield from child.walk()

    def map_vars(self, fn: Callable[[Var], ExprNode]) -> ExprNode:
        """A copy with every :class:`Var` replaced by ``fn(var)``."""
        changes = {
            name: tuple(arg.map_vars(fn) for arg in value)
            if isinstance(value, tuple)
            else value.map_vars(fn)
            for name, value in self._children()
        }
        return replace(self, **changes) if changes else self

    def free_names(self) -> Tuple[str, ...]:
        """All identifier names referenced, in first-seen order (a cell
        access's base before its arguments)."""
        seen: Dict[str, None] = {}
        for node in self.walk():
            if isinstance(node, Var):
                seen.setdefault(node.name)
            elif isinstance(node, CellAccess):
                seen.setdefault(node.base)
        return tuple(seen)


@dataclass(frozen=True)
class Num(ExprNode):
    """Integer or floating literal (ints stay exact)."""

    value: object  # int or float

    def to_affine(self) -> Affine:
        if isinstance(self.value, int):
            return Affine.const(self.value)
        raise ValueError("floating literal in region coordinate")


@dataclass(frozen=True)
class Var(ExprNode):
    """An identifier: a free variable, a bound region, or a tunable."""

    name: str

    def to_affine(self) -> Affine:
        return Affine.var(self.name)

    def map_vars(self, fn: Callable[[Var], ExprNode]) -> ExprNode:
        return fn(self)


@dataclass(frozen=True)
class BinOp(ExprNode):
    """Binary operation; op is one of + - * / % == != < <= > >= && ||."""

    op: str
    left: ExprNode
    right: ExprNode

    def to_affine(self) -> Affine:
        lhs = self.left.to_affine()
        rhs = self.right.to_affine()
        if self.op == "+":
            return lhs + rhs
        if self.op == "-":
            return lhs - rhs
        if self.op == "*":
            return lhs * rhs
        if self.op == "/":
            return lhs / rhs
        raise ValueError(f"operator {self.op!r} in region coordinate")


@dataclass(frozen=True)
class UnaryOp(ExprNode):
    """Unary minus or logical not."""

    op: str
    operand: ExprNode

    def to_affine(self) -> Affine:
        if self.op == "-":
            return -self.operand.to_affine()
        raise ValueError(f"unary {self.op!r} in region coordinate")


@dataclass(frozen=True)
class Call(ExprNode):
    """Function or transform call ``name(arg, ...)``."""

    name: str
    args: Tuple[ExprNode, ...]


@dataclass(frozen=True)
class CellAccess(ExprNode):
    """Element access ``region.cell(i, j)`` inside a rule body."""

    base: str
    args: Tuple[ExprNode, ...]


@dataclass(frozen=True)
class Ternary(ExprNode):
    """C-style conditional ``cond ? a : b``."""

    cond: ExprNode
    if_true: ExprNode
    if_false: ExprNode


# ---------------------------------------------------------------------------
# Statements (rule bodies)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    """Assignment ``lvalue op expr;`` where op is = += -= *= /= and the
    lvalue is a bound region name or a ``name.cell(...)`` access."""

    target: ExprNode  # Var or CellAccess
    op: str
    value: ExprNode


Statement = Assign  # rule bodies are sequences of assignments


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixDecl:
    """A matrix in a transform header: ``A[c, h]`` or versioned
    ``A<0..n>[m]`` (the version range becomes a leading dimension).

    ``line``/``column`` locate the declaration in the source text (0 when
    built programmatically); they are excluded from equality so decls
    still compare structurally.
    """

    name: str
    dims: Tuple[ExprNode, ...]
    version: Optional[Tuple[ExprNode, ExprNode]] = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    @property
    def ndim(self) -> int:
        return len(self.dims) + (1 if self.version is not None else 0)


@dataclass(frozen=True)
class RegionBind:
    """One binding in a rule header: ``A.region(0, 0, w, c/2) b1`` binds
    the view to local name ``b1``.  ``accessor`` is one of ``cell``,
    ``region``, ``row``, ``column``, or ``all`` (bare matrix name)."""

    matrix: str
    accessor: str
    args: Tuple[ExprNode, ...]
    name: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class WhereClause:
    """A ``where`` restriction on a rule's applicable region."""

    condition: ExprNode
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class RuleDecl:
    """One rule: ``priority(p) to (...) from (...) where ... { body }``.

    ``priority`` follows the paper: lower value = higher priority; in each
    choice-grid region only rules of minimal priority survive.  The
    default priority is 1; ``primary`` is 0 and ``secondary`` is 2.
    """

    to_bindings: Tuple[RegionBind, ...]
    from_bindings: Tuple[RegionBind, ...]
    body: Tuple[Statement, ...]
    where: Tuple[WhereClause, ...] = ()
    priority: int = 1
    label: str = ""
    escapes: Tuple[str, ...] = ()
    #: Schedule annotation clauses: ``tile(i: 32, j: 32)`` declares
    #: default tile sizes per instance variable; ``interchange`` asks
    #: for tiles-outermost execution.  Both are legality-gated hints.
    tile: Tuple[Tuple[str, int], ...] = ()
    interchange: bool = False
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class TunableDecl:
    """A user-exported tunable parameter: ``tunable name(lo, hi);``."""

    name: str
    lo: int = 1
    hi: int = 2**20
    default: Optional[int] = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class TransformDecl:
    """A full transform declaration."""

    name: str
    to_matrices: Tuple[MatrixDecl, ...]
    from_matrices: Tuple[MatrixDecl, ...]
    through_matrices: Tuple[MatrixDecl, ...]
    rules: Tuple[RuleDecl, ...]
    tunables: Tuple[TunableDecl, ...] = ()
    generator: Optional[str] = None
    template_params: Tuple[Tuple[str, int, int], ...] = ()
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    def matrix(self, name: str) -> MatrixDecl:
        for decl in self.to_matrices + self.from_matrices + self.through_matrices:
            if decl.name == name:
                return decl
        raise KeyError(f"transform {self.name} has no matrix {name!r}")

    @property
    def size_variables(self) -> Tuple[str, ...]:
        """Free variables appearing in matrix dimension expressions."""
        seen: Dict[str, None] = {}
        for decl in self.to_matrices + self.from_matrices + self.through_matrices:
            for expr in decl.dims + (decl.version or ()):
                seen.update(dict.fromkeys(expr.free_names()))
        return tuple(seen)


@dataclass(frozen=True)
class Program:
    """A parsed source file: an ordered collection of transforms."""

    transforms: Tuple[TransformDecl, ...]

    def transform(self, name: str) -> TransformDecl:
        for decl in self.transforms:
            if decl.name == name:
                return decl
        raise KeyError(f"no transform named {name!r}")
