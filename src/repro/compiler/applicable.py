"""Normalization and applicable-region inference (paper §3.1, phases 1-2).

For every rule we compute:

* **rule-variable bounds** — for each rule variable, the half-open
  interval of values for which *every* region the rule touches stays
  inside its matrix (the intersection of the per-dependency applicable
  regions the paper describes), further constrained by affine ``where``
  clauses;
* **size guards** — constraints that involve only size variables (e.g.
  that a recursive decomposition's sub-regions are well-formed); provably
  violated guards are compile errors, undecidable ones are checked at
  run time;
* **per-matrix applicable regions** — the image of the rule-variable box
  under each ``to`` binding, in matrix coordinates, which feeds the
  choice-grid pass.

``where`` clauses that cannot be folded into affine single-variable
bounds are kept as *residual* predicates; the choice-grid pass treats
such rules as restricted (bounding-box + meta-rule semantics, §3.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.language import ast_nodes as ast
from repro.language.errors import CompileError
from repro.symbolic import Affine, Assumptions, Box, Interval
from repro.symbolic.expr import SymbolicCompareError
from repro.symbolic.interval import symbolic_max, symbolic_min

from repro.compiler.ir import RuleIR, TransformIR


def analyze_applicable_regions(transform: TransformIR) -> None:
    """Fill ``rule.var_bounds``, ``rule.size_guards``, ``rule.applicable``
    and ``rule.residual_where`` for every rule of ``transform``."""
    for rule in transform.rules:
        _analyze_rule(transform, rule)


class _Bounds:
    """Accumulates lower/upper bounds for one rule variable."""

    def __init__(self) -> None:
        self.lo: Optional[Affine] = None
        self.hi: Optional[Affine] = None

    def add_lower(self, bound: Affine, assumptions: Assumptions) -> None:
        self.lo = bound if self.lo is None else symbolic_max(self.lo, bound, assumptions)

    def add_upper(self, bound: Affine, assumptions: Assumptions) -> None:
        self.hi = bound if self.hi is None else symbolic_min(self.hi, bound, assumptions)

    def interval(self, var: str, line: int = 0, column: int = 0) -> Interval:
        if self.lo is None or self.hi is None:
            raise CompileError(
                f"rule variable {var!r} has an unbounded instance space",
                line=line,
                column=column,
                code="PB102",
                hint=(
                    f"add a region read/write or an affine where-clause "
                    f"that bounds {var!r} on both sides"
                ),
            )
        return Interval(self.lo, self.hi)


def _analyze_rule(transform: TransformIR, rule: RuleIR) -> None:
    assumptions = transform.assumptions
    bounds: Dict[str, _Bounds] = {var: _Bounds() for var in rule.rule_vars}
    guards: List[Affine] = []
    # Source position of the constraint currently being folded, so errors
    # raised inside add_ge_zero point at the offending binding/clause.
    pos = (rule.line, rule.column)

    def add_ge_zero(expr: Affine, strict: bool = False) -> None:
        """Record constraint expr >= 0 (or > 0), splitting by rule vars."""
        if strict:
            # Integer-valued variables make expr a multiple of 1/L, so
            # e > 0  <=>  e >= 1/L  <=>  e - 1/L >= 0 (exact; an "e - 1"
            # form would over-tighten fractional expressions).
            expr = expr.stepped(-1)
        rule_var_list = [v for v in expr.variables() if v in bounds]
        if not rule_var_list:
            if expr.always_ge(0, assumptions):
                return  # trivially satisfied
            if expr.always_lt(0, assumptions):
                raise CompileError(
                    f"{transform.name} {rule.label}: constraint "
                    f"{expr} >= 0 is never satisfiable",
                    line=pos[0],
                    column=pos[1],
                    code="PB401",
                    hint=(
                        "the rule can never apply; fix the region bounds "
                        "or where-clause, or delete the rule"
                    ),
                )
            guards.append(expr)
            return
        if len(rule_var_list) > 1:
            # Couple multiple rule variables: keep as residual predicate.
            residual.append(_ge_zero_node(expr))
            return
        var = rule_var_list[0]
        bound = expr.solved_for(var)
        if expr.coefficient_sign(var) > 0:
            bounds[var].add_lower(_ceil_for_integers(bound), assumptions)
        else:
            # var <= bound over integers is var < bound + 1/L: concrete
            # evaluation rounds the half-open hi with ceil, and
            # ceil(bound + 1/L) is exactly floor(bound) + 1.  (A flat +1
            # shift admits one extra instance whenever bound evaluates to
            # a non-integer — an out-of-bounds read at even sizes for
            # strides like 2*i.)
            bounds[var].add_upper(bound.stepped(1), assumptions)

    residual: List[ast.ExprNode] = []

    # 1. Every region must fit inside its matrix: 0 <= lo, hi <= size,
    #    and lo <= hi for region bindings.
    for region in rule.to_regions + rule.from_regions:
        mat = transform.matrices[region.matrix]
        pos = (region.line or rule.line, region.column or rule.column)
        for dim, interval in enumerate(region.box.intervals):
            size = mat.dims[dim]
            add_ge_zero(interval.lo)
            add_ge_zero(size - interval.hi)
            if region.view_kind == "region":
                add_ge_zero(interval.hi - interval.lo)

    # 2. where clauses: affine single-variable conditions tighten bounds,
    #    everything else is residual.
    for index, condition in enumerate(rule.where):
        pos = rule.where_position(index) or (rule.line, rule.column)
        folded = _fold_where(condition, add_ge_zero)
        if not folded:
            residual.append(condition)
    pos = (rule.line, rule.column)

    # 3. Materialize per-variable intervals.
    for var in rule.rule_vars:
        rule.var_bounds[var] = bounds[var].interval(var, rule.line, rule.column)
    rule.size_guards = tuple(guards)
    rule.residual_where = tuple(residual)

    # 4. Applicable matrix regions: image of the variable box under each
    #    to-binding, per output matrix (bounding box across bindings).
    applicable: Dict[str, Box] = {}
    for region in rule.to_regions:
        image = _image_box(region.box, rule.var_bounds, transform, rule)
        if region.matrix in applicable:
            applicable[region.matrix] = _bounding_box(
                applicable[region.matrix], image, assumptions
            )
        else:
            applicable[region.matrix] = image
    rule.applicable = applicable


def _ceil_for_integers(bound: Affine) -> Affine:
    """Lower bounds from division keep exact rational form; concrete
    evaluation rounds with ceil (Interval.concrete), so no rewrite is
    needed — kept as a named hook for clarity."""
    return bound


def _ge_zero_node(expr: Affine) -> ast.ExprNode:
    """Rebuild ``expr >= 0`` as an AST predicate for runtime filtering."""
    node: ast.ExprNode = ast.Num(int(expr.constant)) if expr.constant.denominator == 1 else ast.Num(float(expr.constant))
    for var, coeff in expr.coefficients.items():
        if coeff.denominator == 1:
            term: ast.ExprNode = ast.BinOp("*", ast.Num(int(coeff)), ast.Var(var))
        else:
            term = ast.BinOp(
                "/",
                ast.BinOp("*", ast.Num(coeff.numerator), ast.Var(var)),
                ast.Num(coeff.denominator),
            )
        node = ast.BinOp("+", node, term)
    return ast.BinOp(">=", node, ast.Num(0))


def _fold_where(condition: ast.ExprNode, add_ge_zero) -> bool:
    """Try to fold an affine comparison into variable bounds.

    Returns True when fully folded; False leaves it residual.
    """
    if not isinstance(condition, ast.BinOp):
        return False
    if condition.op not in ("<", "<=", ">", ">=", "=="):
        return False
    try:
        lhs = condition.left.to_affine()
        rhs = condition.right.to_affine()
    except ValueError:
        return False
    try:
        if condition.op == "<":
            add_ge_zero(rhs - lhs, strict=True)
        elif condition.op == "<=":
            add_ge_zero(rhs - lhs)
        elif condition.op == ">":
            add_ge_zero(lhs - rhs, strict=True)
        elif condition.op == ">=":
            add_ge_zero(lhs - rhs)
        else:  # ==
            add_ge_zero(lhs - rhs)
            add_ge_zero(rhs - lhs)
    except SymbolicCompareError:
        return False
    return True


def _image_box(
    box: Box,
    var_bounds: Dict[str, Interval],
    transform: TransformIR,
    rule: RuleIR,
) -> Box:
    """Image of a to-binding box as rule variables sweep their bounds.

    Each bound expression may reference at most one rule variable and its
    coefficient must be ±1 (unit stride) so that the swept union stays a
    contiguous interval; the paper's programs satisfy this, anything else
    is rejected.
    """
    for interval in box.intervals:
        for expr in (interval.lo, interval.hi):
            for var, coeff in expr.coefficients.items():
                if var in var_bounds and abs(coeff) != 1:
                    raise CompileError(
                        f"{transform.name} {rule.label}: output coordinate "
                        f"{expr} has non-unit stride in {var!r}"
                    )
    return box.swept(var_bounds)


def _bounding_box(a: Box, b: Box, assumptions: Assumptions) -> Box:
    intervals = []
    for iv_a, iv_b in zip(a.intervals, b.intervals):
        intervals.append(
            Interval(
                symbolic_min(iv_a.lo, iv_b.lo, assumptions),
                symbolic_max(iv_a.hi, iv_b.hi, assumptions),
            )
        )
    return Box(intervals)
