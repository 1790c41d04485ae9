"""Intermediate representation of transforms after semantic analysis.

The IR is frontend-agnostic: the DSL parser and the Python builder API
both lower into :class:`TransformIR`.  All geometry is symbolic
(:class:`~repro.symbolic.Affine` / :class:`~repro.symbolic.Box`) over two
variable families:

* *size variables* — free variables of matrix dimension expressions
  (``n``, ``w``, ``h``, ``c``), bound at call time from input shapes;
* *rule variables* — free variables of a rule's region coordinates
  (``i``, ``x``, ``y``), bound per rule application.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.language import ast_nodes as ast
from repro.language.errors import CompileError
from repro.language.interp import Scope, evaluate
from repro.symbolic import Affine, Assumptions, Box, Interval
from repro.symbolic.expr import Number

ROLE_INPUT = "from"
ROLE_OUTPUT = "to"
ROLE_THROUGH = "through"

#: A native rule body: called with a NativeContext (see builder module).
NativeBody = Callable[["object"], None]


@dataclass(frozen=True)
class MatrixIR:
    """A matrix declared in a transform header.

    ``dims`` are symbolic extents; a version range ``A<lo..hi>`` has been
    desugared into an extra leading dimension of extent ``hi - lo + 1``.
    """

    name: str
    role: str
    dims: Tuple[Affine, ...]
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def whole_box(self) -> Box:
        return Box.whole(self.dims)


@dataclass(frozen=True)
class RegionIR:
    """One region binding of a rule (either side).

    ``box`` is the covered region of ``matrix`` in matrix coordinates,
    symbolic over rule + size variables.  ``view_kind`` dictates the shape
    of the bound view (``cell`` -> 0-D, ``row``/``column`` -> 1-D, else
    the full box).
    """

    matrix: str
    view_kind: str  # cell | region | row | column | all
    box: Box
    bind_name: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    def ndim(self) -> int:
        return self.box.ndim


def _constant(expr: Affine) -> Optional[Fraction]:
    return expr.as_constant() if expr.is_constant() else None


class Coordinate(NamedTuple):
    """One entry of an access map (:meth:`RuleIR.access`): a coordinate
    split into its rule-variable ``terms`` — ``(var, coeff)`` in the
    coordinate's variable order — and the ``rest``, which depends on
    sizes only."""

    terms: Tuple[Tuple[str, Number], ...]
    rest: Affine
    #: the whole coordinate, ``rest`` plus ``terms``
    expr: Affine

    @staticmethod
    def split(expr: Affine, rule_vars: Sequence[str]) -> "Coordinate":
        # integral coefficients stay ints: a compile builds next to no Fraction
        _, numerators, den = expr.as_integers()
        terms = tuple(
            (var, n if den == 1 else Fraction(n, den))
            for var, n in numerators
            if var in rule_vars
        )
        return Coordinate(terms, expr.without(rule_vars), expr)

    @property
    def vars(self) -> Tuple[str, ...]:
        """The rule variables the coordinate moves with."""
        return tuple(var for var, _ in self.terms)

    def gap(self, other: "Coordinate") -> Optional[Fraction]:
        """``self - other`` at one instance of the rule, when that is the
        same number at every instance; else None."""
        if self.terms != other.terms:
            return None
        return _constant(self.rest - other.rest)

    def unit_stride_offset(self, dst: "Coordinate") -> Optional[Fraction]:
        """Constant dependence offset from this access to ``dst``, the
        same dimension indexed by another rule (or another instance).

        Well defined when each side sweeps the dimension unit-stride in
        at most one of its rule variables: instances then pair up
        positionally and the per-pair gap ``dst.rest - self.rest`` is
        one number.  None when either side is multi-variable or
        non-unit-stride, when only one side sweeps (a broadcast: the gap
        varies per instance), or when the gap is symbolic."""
        sweeps = (self.terms, dst.terms)
        if sweeps != ((), ()) and not all(
            len(terms) == 1 and terms[0][1] == 1 for terms in sweeps
        ):
            return None
        return _constant(dst.rest - self.rest)


@dataclass(frozen=True)
class ScheduleIR:
    """A rule's declared schedule annotation: default tile sizes for
    its data-parallel instance variables and whether to interchange
    (run the whole sequential chain per tile instead of every tile per
    chain step).  Annotations are *requests* — the engine re-checks
    PB604 legality at execution and ignores the annotation on sites the
    analyzer cannot prove safe; tunables override the declared sizes."""

    tile: Tuple[Tuple[str, int], ...] = ()
    interchange: bool = False


@dataclass
class RuleIR:
    """One rule after semantic analysis.

    Exactly one of ``body`` (DSL statements) or ``native_body`` (Python
    callable) is set.  ``applicable`` (per output matrix, in matrix
    coordinates) is filled in by the applicable-regions pass.
    """

    rule_id: int
    label: str
    priority: int
    to_regions: Tuple[RegionIR, ...]
    from_regions: Tuple[RegionIR, ...]
    rule_vars: Tuple[str, ...]
    body: Tuple[ast.Statement, ...] = ()
    native_body: Optional[NativeBody] = None
    where: Tuple[ast.ExprNode, ...] = ()
    #: work-units charged per application before body accounting; native
    #: bodies normally charge explicitly through the context instead.
    base_work: float = 1.0
    #: True when the rule (directly) calls its own transform — used by
    #: default-configuration synthesis to guarantee termination.  Native
    #: rules set this through the builder's ``recursive=`` flag.
    is_recursive: bool = False
    #: Source position of the rule header (0 for builder-made rules), and
    #: per-where-clause positions parallel to ``where``.
    line: int = 0
    column: int = 0
    where_positions: Tuple[Tuple[int, int], ...] = ()
    #: Declared schedule annotation (``tile(...)`` / ``interchange``
    #: clauses), if any; legality-gated at execution, never trusted.
    schedule: Optional[ScheduleIR] = None
    # Filled by analysis passes:
    applicable: Dict[str, Box] = field(default_factory=dict)
    var_bounds: Dict[str, Interval] = field(default_factory=dict)
    residual_where: Tuple[ast.ExprNode, ...] = ()
    size_guards: Tuple[Affine, ...] = ()
    #: :meth:`access` maps built so far, by ``id`` of the region.
    _access: Dict[int, Tuple[RegionIR, Tuple[Coordinate, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def access(self, region: RegionIR) -> Tuple[Coordinate, ...]:
        """The access map of one of this rule's bindings: per dimension,
        where the binding sits — a cell view's coordinate, the lower
        corner of any other view — split into this rule's variable
        terms and a size-only rest.  Derived from ``region.box`` on
        first use and kept per region object, so a rewrite that replaces
        a region (a new box) gets a new map."""
        hit = self._access.get(id(region))
        if hit is None or hit[0] is not region:
            hit = region, tuple(
                Coordinate.split(interval.lo, self.rule_vars)
                for interval in region.box.intervals
            )
            self._access[id(region)] = hit
        return hit[1]

    @property
    def is_instance_rule(self) -> bool:
        """True when the rule is applied per point of an instance space
        (it has rule variables); False for whole-region rules."""
        return bool(self.rule_vars)

    @property
    def all_regions(self) -> Tuple[RegionIR, ...]:
        """Every region binding in engine order: to-regions first, then
        from-regions — the order bodies see their bindings built in (and
        the order the lowered kernels must replicate for error parity)."""
        return self.to_regions + self.from_regions

    def region(self, bind_name: str) -> Optional[RegionIR]:
        """The region bound to ``bind_name``, or None."""
        for reg in self.all_regions:
            if reg.bind_name == bind_name:
                return reg
        return None

    def where_position(self, index: int) -> Optional[Tuple[int, int]]:
        """(line, column) of the index-th where clause, if known."""
        if index < len(self.where_positions):
            line, column = self.where_positions[index]
            if line:
                return (line, column)
        return None

    def failed_size_guard(self, env: Mapping[str, int]) -> Optional[Affine]:
        """The first size guard violated at sizes ``env`` (the rule may
        not run there), or None."""
        return next(
            (g for g in self.size_guards if g.eval_floor(env) < 0), None
        )

    def residual_ok(self, env: Dict[str, int]) -> bool:
        """Do the residual where-clauses accept the instance ``env``
        (sizes plus rule variables)?"""
        scope = Scope(env)  # only reads its bindings: no defensive copy
        return all(
            float(evaluate(cond, scope)) != 0 for cond in self.residual_where
        )

    def writes_matrices(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(r.matrix for r in self.to_regions))

    def reads_matrices(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(r.matrix for r in self.from_regions))


@dataclass
class TransformIR:
    """A transform after semantic analysis."""

    name: str
    matrices: Dict[str, MatrixIR]
    rules: List[RuleIR]
    size_vars: Tuple[str, ...]
    tunables: Tuple[ast.TunableDecl, ...] = ()
    generator: Optional[str] = None
    assumptions: Assumptions = field(default_factory=Assumptions)
    line: int = 0
    column: int = 0

    def matrices_with_role(self, role: str) -> List[MatrixIR]:
        return [m for m in self.matrices.values() if m.role == role]

    @property
    def inputs(self) -> List[MatrixIR]:
        return self.matrices_with_role(ROLE_INPUT)

    @property
    def outputs(self) -> List[MatrixIR]:
        return self.matrices_with_role(ROLE_OUTPUT)

    @property
    def throughs(self) -> List[MatrixIR]:
        return self.matrices_with_role(ROLE_THROUGH)


@dataclass
class ProgramIR:
    """A set of transforms compiled together (call graph unit)."""

    transforms: Dict[str, TransformIR]

    def transform(self, name: str) -> TransformIR:
        if name not in self.transforms:
            raise CompileError(f"unknown transform {name!r}")
        return self.transforms[name]


# ---------------------------------------------------------------------------
# AST -> IR lowering
# ---------------------------------------------------------------------------


def build_ir(
    program: ast.Program,
    template_values: Optional[Dict[str, Sequence[int]]] = None,
) -> ProgramIR:
    """Semantic analysis: lower a parsed program to IR.

    Template transforms (paper §2: "each template instance is autotuned
    separately") are instantiated for every value listed in
    ``template_values[name]``; each instance becomes an independent
    transform named ``Name_<value>`` with its own choice sites.  A
    template transform with no requested values is skipped (it cannot
    execute unbound).
    """
    transforms: Dict[str, TransformIR] = {}
    for decl in program.transforms:
        if decl.template_params:
            for value in (template_values or {}).get(decl.name, ()):
                instance = instantiate_template(decl, value)
                if instance.name in transforms:
                    raise CompileError(
                        f"duplicate transform {instance.name!r}"
                    )
                transforms[instance.name] = build_transform(instance)
            continue
        if decl.name in transforms:
            raise CompileError(f"duplicate transform {decl.name!r}")
        transforms[decl.name] = build_transform(decl)
    return ProgramIR(transforms)


def instantiate_template(
    decl: ast.TransformDecl, value: int
) -> ast.TransformDecl:
    """One concrete instance of a template transform: the template
    parameter becomes the literal ``value`` everywhere, and the instance
    is renamed ``Name_<value>`` so it is tuned independently."""
    if len(decl.template_params) != 1:
        raise CompileError(
            f"{decl.name}: exactly one template parameter is supported"
        )
    param, lo, hi = decl.template_params[0]
    if not (lo <= value <= hi):
        raise CompileError(
            f"{decl.name}: template value {value} outside [{lo}, {hi}]"
        )
    literal = ast.Num(value)

    def subst(node: ast.ExprNode) -> ast.ExprNode:
        return node.map_vars(lambda var: literal if var.name == param else var)

    def subst_all(nodes):
        return tuple(subst(node) for node in nodes)

    def subst_matrix(mat: ast.MatrixDecl) -> ast.MatrixDecl:
        return replace(
            mat,
            dims=subst_all(mat.dims),
            version=None if mat.version is None else subst_all(mat.version),
        )

    def subst_rule(rule: ast.RuleDecl) -> ast.RuleDecl:
        return replace(
            rule,
            to_bindings=tuple(
                replace(b, args=subst_all(b.args)) for b in rule.to_bindings
            ),
            from_bindings=tuple(
                replace(b, args=subst_all(b.args)) for b in rule.from_bindings
            ),
            body=tuple(
                replace(s, target=subst(s.target), value=subst(s.value))
                for s in rule.body
            ),
            where=tuple(
                replace(w, condition=subst(w.condition)) for w in rule.where
            ),
        )

    return replace(
        decl,
        name=f"{decl.name}_{value}",
        to_matrices=tuple(subst_matrix(m) for m in decl.to_matrices),
        from_matrices=tuple(subst_matrix(m) for m in decl.from_matrices),
        through_matrices=tuple(subst_matrix(m) for m in decl.through_matrices),
        rules=tuple(subst_rule(r) for r in decl.rules),
        template_params=(),
    )


def build_transform(decl: ast.TransformDecl) -> TransformIR:
    """Semantic analysis of one (template-free) transform declaration."""
    matrices: Dict[str, MatrixIR] = {}
    for role, decls in (
        (ROLE_INPUT, decl.from_matrices),
        (ROLE_OUTPUT, decl.to_matrices),
        (ROLE_THROUGH, decl.through_matrices),
    ):
        for mat in decls:
            if mat.name in matrices:
                raise CompileError(
                    f"matrix {mat.name!r} declared twice in {decl.name}"
                )
            matrices[mat.name] = MatrixIR(
                name=mat.name,
                role=role,
                dims=_matrix_dims(mat),
                line=mat.line,
                column=mat.column,
            )

    size_vars = decl.size_variables
    assumptions = Assumptions()
    for var in size_vars:
        assumptions = assumptions.with_at_least(var, 1)

    tunable_names = {t.name for t in decl.tunables}
    rules: List[RuleIR] = []
    for index, rule in enumerate(decl.rules):
        built = _build_rule(
            decl.name, index, rule, matrices, size_vars, tunable_names
        )
        built.is_recursive = _calls_transform(rule.body, decl.name)
        rules.append(built)

    return TransformIR(
        name=decl.name,
        matrices=matrices,
        rules=rules,
        size_vars=size_vars,
        tunables=decl.tunables,
        generator=decl.generator,
        assumptions=assumptions,
        line=decl.line,
        column=decl.column,
    )


def _calls_transform(statements, name: str) -> bool:
    """Does any statement call ``name`` (direct recursion detection)?"""
    return any(
        isinstance(node, ast.Call) and node.name == name
        for stmt in statements
        for expr in (stmt.value, stmt.target)
        for node in expr.walk()
    )


def _matrix_dims(mat: ast.MatrixDecl) -> Tuple[Affine, ...]:
    dims: List[Affine] = []
    if mat.version is not None:
        lo, hi = (expr.to_affine() for expr in mat.version)
        dims.append(hi - lo + 1)  # versions become a leading dimension
    for dim in mat.dims:
        try:
            dims.append(dim.to_affine())
        except ValueError as err:
            raise CompileError(
                f"matrix {mat.name!r}: non-affine dimension ({err})"
            ) from err
    return tuple(dims)


def _build_rule(
    transform_name: str,
    index: int,
    rule: ast.RuleDecl,
    matrices: Mapping[str, MatrixIR],
    size_vars: Tuple[str, ...],
    tunable_names: set,
) -> RuleIR:
    reserved = set(size_vars) | tunable_names
    rule_vars: List[str] = []

    def coord_exprs(bind: ast.RegionBind) -> List[Affine]:
        exprs = []
        for arg in bind.args:
            try:
                exprs.append(arg.to_affine())
            except ValueError as err:
                raise CompileError(
                    f"{transform_name} rule {index}: non-affine region "
                    f"coordinate for {bind.matrix!r} ({err})"
                ) from err
        return exprs

    def collect_vars(exprs: Sequence[Affine]) -> None:
        for expr in exprs:
            for var in expr.variables():
                if var not in reserved and var not in rule_vars:
                    rule_vars.append(var)

    def region_ir(bind: ast.RegionBind) -> RegionIR:
        if bind.matrix not in matrices:
            raise CompileError(
                f"{transform_name} rule {index}: unknown matrix "
                f"{bind.matrix!r}",
                line=bind.line,
                column=bind.column,
            )
        mat = matrices[bind.matrix]
        exprs = coord_exprs(bind)
        collect_vars(exprs)
        box = _binding_box(mat, bind.accessor, exprs, transform_name, index)
        return RegionIR(
            matrix=bind.matrix,
            view_kind=bind.accessor,
            box=box,
            bind_name=bind.name,
            line=bind.line,
            column=bind.column,
        )

    to_regions = tuple(region_ir(b) for b in rule.to_bindings)
    from_regions = tuple(region_ir(b) for b in rule.from_bindings)

    target_matrices = {r.matrix for r in to_regions}
    if len(target_matrices) > 1:
        raise CompileError(
            f"{transform_name} rule {index}: rules writing multiple "
            f"matrices are not supported (targets {sorted(target_matrices)})",
            line=rule.line,
            column=rule.column,
        )

    seen_names = set()
    for region in to_regions + from_regions:
        if region.bind_name in seen_names:
            raise CompileError(
                f"{transform_name} rule {index}: duplicate binding name "
                f"{region.bind_name!r}",
                line=region.line or rule.line,
                column=region.column or rule.column,
            )
        seen_names.add(region.bind_name)

    for region in to_regions:
        if matrices[region.matrix].role == ROLE_INPUT:
            raise CompileError(
                f"{transform_name} rule {index}: writes to input matrix "
                f"{region.matrix!r}",
                line=region.line or rule.line,
                column=region.column or rule.column,
            )

    schedule = None
    if rule.tile or rule.interchange:
        for var, size in rule.tile:
            if var not in rule_vars:
                raise CompileError(
                    f"{transform_name} rule {index}: tile() names "
                    f"{var!r}, which is not an instance variable",
                    line=rule.line,
                    column=rule.column,
                )
            if size < 1:
                raise CompileError(
                    f"{transform_name} rule {index}: tile size for "
                    f"{var!r} must be positive",
                    line=rule.line,
                    column=rule.column,
                )
        schedule = ScheduleIR(
            tile=tuple(rule.tile), interchange=rule.interchange
        )

    return RuleIR(
        rule_id=index,
        label=rule.label or f"rule{index}",
        priority=rule.priority,
        to_regions=to_regions,
        from_regions=from_regions,
        rule_vars=tuple(rule_vars),
        body=rule.body,
        where=tuple(w.condition for w in rule.where),
        line=rule.line,
        column=rule.column,
        where_positions=tuple((w.line, w.column) for w in rule.where),
        schedule=schedule,
    )


def _binding_box(
    mat: MatrixIR,
    accessor: str,
    exprs: Sequence[Affine],
    transform_name: str,
    rule_index: int,
) -> Box:
    """The matrix-coordinate box a binding covers."""
    k = mat.ndim

    def arity_error(expected: int) -> CompileError:
        return CompileError(
            f"{transform_name} rule {rule_index}: {mat.name}.{accessor} "
            f"takes {expected} coordinates, got {len(exprs)}"
        )

    if accessor == "all":
        if exprs:
            raise arity_error(0)
        return mat.whole_box()
    if accessor == "cell":
        if len(exprs) != k:
            raise arity_error(k)
        return Box.cell(exprs)
    if accessor == "region":
        if len(exprs) != 2 * k:
            raise arity_error(2 * k)
        los, his = exprs[:k], exprs[k:]
        return Box([Interval(lo, hi) for lo, hi in zip(los, his)])
    if accessor == "row":
        if k != 2:
            raise CompileError(
                f"{transform_name} rule {rule_index}: .row() on "
                f"{k}-D matrix {mat.name}"
            )
        if len(exprs) != 1:
            raise arity_error(1)
        (y,) = exprs
        return Box([Interval(0, mat.dims[0]), Interval.point(y)])
    if accessor == "column":
        if k != 2:
            raise CompileError(
                f"{transform_name} rule {rule_index}: .column() on "
                f"{k}-D matrix {mat.name}"
            )
        if len(exprs) != 1:
            raise arity_error(1)
        (x,) = exprs
        return Box([Interval.point(x), Interval(0, mat.dims[1])])
    raise CompileError(f"unknown accessor {accessor!r}")
