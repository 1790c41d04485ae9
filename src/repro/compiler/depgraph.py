"""Choice dependency graph analysis (paper §3.1, phase 4; §3.6 deadlocks).

Builds the graph whose nodes are input matrices and choice-grid segments
and whose edges are data dependencies annotated with (rule, direction,
offset) — the structure shown for RollingSum in the paper's Figure 4.

The graph serves three masters:

* the **scheduler** uses the topological order of nodes and, within a
  segment, the per-rule iteration directions derived from self-edges
  (an exact ``-1`` offset forces ascending iteration and permits
  pipelining; no self-edge means the segment is data parallel);
* the **autotuner** reads the per-segment choice sites off the grid;
* **deadlock/race freedom** (§3.6): a dependency cycle spanning several
  nodes, or a self-dependency with inconsistent directions, is reported
  as a compile error instead of hanging at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.language.errors import CompileError
from repro.symbolic import Box, Interval
from repro.symbolic.expr import SymbolicCompareError

from repro.compiler.choicegrid import ChoiceGrid, Segment
from repro.compiler.ir import ROLE_INPUT, Coordinate, RegionIR, RuleIR, TransformIR

#: Node identifiers: an input matrix name, or "Matrix.segmentIndex".
NodeKey = str


@dataclass(frozen=True)
class DepEdge:
    """A data dependency: ``dst`` reads data produced at ``src``.

    ``directions`` has one entry per dimension of the consumer's matrix:
    ``'<'`` (reads strictly earlier cells along that axis), ``'>'``,
    ``'='`` (same index, only meaningful with a non-zero other axis),
    or ``'*'`` (unknown/whole-region).  ``offsets`` carries the exact
    constant offset per dimension for cell-to-cell dependencies.
    """

    src: NodeKey
    dst: NodeKey
    rule_id: int
    directions: Tuple[str, ...] = ()
    offsets: Optional[Tuple[Fraction, ...]] = None


@dataclass(frozen=True)
class IterationOrder:
    """How a rule must sweep a segment it self-depends on.

    ``signs`` gives +1 (ascending), -1 (descending), or 0 (parallel) per
    matrix dimension; ``priority`` is the dimension nesting order
    (outermost first) that makes the lexicographic argument work.
    """

    signs: Tuple[int, ...]
    priority: Tuple[int, ...]

    @property
    def is_parallel(self) -> bool:
        return all(sign == 0 for sign in self.signs)


@dataclass
class ChoiceDepGraph:
    """The analyzed dependency structure of one transform."""

    nodes: List[NodeKey]
    edges: List[DepEdge]
    schedule_order: List[NodeKey]
    #: per (segment key, rule id): the required sweep of the segment.
    rule_directions: Dict[Tuple[str, int], IterationOrder]

    def edges_into(self, node: NodeKey) -> List[DepEdge]:
        return [e for e in self.edges if e.dst == node]


def build_dep_graph(transform: TransformIR, grid: ChoiceGrid) -> ChoiceDepGraph:
    assumptions = transform.assumptions
    nodes: List[NodeKey] = [
        m.name for m in transform.matrices.values() if m.role == ROLE_INPUT
    ]
    segment_lookup: Dict[str, List[Segment]] = grid.segments
    for segments in segment_lookup.values():
        nodes.extend(seg.key for seg in segments)

    edges: List[DepEdge] = []
    rule_directions: Dict[Tuple[str, int], IterationOrder] = {}

    for segments in segment_lookup.values():
        for segment in segments:
            rule_ids = sorted(
                {opt.primary for opt in segment.options}
                | {
                    opt.fallback
                    for opt in segment.options
                    if opt.fallback is not None
                }
            )
            for rule_id in rule_ids:
                rule = transform.rules[rule_id]
                self_directions = _add_rule_edges(
                    transform, segment, rule, segment_lookup, edges, assumptions
                )
                rule_directions[(segment.key, rule_id)] = self_directions

    schedule_order = _topological_order(transform, nodes, edges)
    return ChoiceDepGraph(
        nodes=nodes,
        edges=edges,
        schedule_order=schedule_order,
        rule_directions=rule_directions,
    )


# ---------------------------------------------------------------------------
# edge construction
# ---------------------------------------------------------------------------


def _add_rule_edges(
    transform: TransformIR,
    segment: Segment,
    rule: RuleIR,
    segment_lookup: Dict[str, List[Segment]],
    edges: List[DepEdge],
    assumptions,
) -> Tuple[int, ...]:
    """Add edges for one rule computing one segment; returns the iteration
    direction per dimension required by its self-dependencies."""
    center = _rule_center(rule, segment.matrix)
    ndim = transform.matrices[segment.matrix].ndim
    self_edges: List[Tuple[str, ...]] = []
    var_bounds = _segment_var_bounds(rule, segment, assumptions)

    for region in rule.from_regions:
        read_box = region.box.swept(var_bounds)
        directions, offsets = _edge_annotation(
            rule, region, center, assumptions
        )
        producers = _producer_nodes(
            transform, region.matrix, read_box, segment_lookup, assumptions
        )
        for producer in producers:
            edges.append(
                DepEdge(
                    src=producer,
                    dst=segment.key,
                    rule_id=rule.rule_id,
                    directions=directions,
                    offsets=offsets,
                )
            )
            if producer == segment.key:
                self_edges.append(directions)
    return _solve_iteration_order(transform, segment, rule, ndim, self_edges)


def _rule_center(rule: RuleIR, matrix: str) -> Optional[Tuple[Coordinate, ...]]:
    """The symbolic center: the access map of the cell the rule writes
    in ``matrix`` (None for whole-region rules)."""
    for region in rule.to_regions:
        if region.matrix == matrix and region.view_kind == "cell":
            return rule.access(region)
    return None


def _segment_var_bounds(
    rule: RuleIR, segment: Segment, assumptions
) -> Dict[str, Interval]:
    """Rule-variable bounds restricted to instances writing inside the
    segment (the preimage of the segment box under the to-bindings).

    Falls back to the full applicable bounds for any constraint that
    cannot be solved or intersected symbolically (conservative)."""
    from repro.symbolic import solve_bounds_for
    from repro.symbolic.solve import UnsatisfiableConstraint

    bounds = dict(rule.var_bounds)
    for region in rule.to_regions:
        if region.matrix != segment.matrix:
            continue
        for dim, coord in enumerate(rule.access(region)):
            if len(coord.terms) != 1:
                continue
            (var,) = coord.vars
            seg_interval = segment.box.intervals[dim]
            try:
                solved = solve_bounds_for(
                    var, coord.expr, seg_interval.lo, seg_interval.hi, assumptions
                )
                if solved is not None:
                    bounds[var] = bounds[var].intersect(solved, assumptions)
            except (SymbolicCompareError, UnsatisfiableConstraint):
                pass
    return bounds


def _edge_annotation(
    rule: RuleIR,
    region: RegionIR,
    center: Optional[Tuple[Coordinate, ...]],
    assumptions,
) -> Tuple[Tuple[str, ...], Optional[Tuple[Fraction, ...]]]:
    """Per-dimension direction chars and, for exact cell reads, offsets."""
    if center is None or region.box.ndim != len(center):
        return ("*",) * region.box.ndim, None
    directions: List[str] = []
    offsets: List[Fraction] = []
    exact = region.view_kind == "cell"
    for interval, read, wrote in zip(
        region.box.intervals, rule.access(region), center
    ):
        offset = read.gap(wrote) if exact else None
        if offset is not None:
            offsets.append(offset)
            if offset < 0:
                directions.append("<")
            elif offset > 0:
                directions.append(">")
            else:
                directions.append("=")
            continue
        exact = False
        if interval.hi.always_le(wrote.expr, assumptions):
            directions.append("<")
        elif (wrote.expr + 1).always_le(interval.lo, assumptions):
            directions.append(">")
        else:
            directions.append("*")
    return tuple(directions), tuple(offsets) if exact else None


def _producer_nodes(
    transform: TransformIR,
    matrix: str,
    read_box: Box,
    segment_lookup: Dict[str, List[Segment]],
    assumptions,
) -> List[NodeKey]:
    if transform.matrices[matrix].role == ROLE_INPUT:
        return [matrix]
    producers = []
    for candidate in segment_lookup[matrix]:
        try:
            overlap = candidate.box.intersect(read_box, assumptions)
            empty = overlap.is_empty(assumptions)
        except SymbolicCompareError:
            empty = None  # cannot decide: keep the edge (conservative)
        if empty is not True:
            producers.append(candidate.key)
    return producers


def _solve_iteration_order(
    transform: TransformIR,
    segment: Segment,
    rule: RuleIR,
    ndim: int,
    self_edges: List[Tuple[str, ...]],
) -> IterationOrder:
    """Find an iteration order satisfying every self-dependency.

    A self-edge is satisfied by a lexicographic iteration order when the
    first dimension (in iteration priority) where the read is not at the
    center reads *earlier* cells: ``'<'`` under ascending or ``'>'``
    under descending iteration.  We search dimension permutations and
    sign assignments (ndim is tiny); each edge's resolving dimension
    contributes its sign, unconstrained dimensions stay 0 (parallel).

    An edge that reads exactly the written cell (all ``'='``) or whose
    potential resolving dimension spans the center (``'*'``) under every
    order has no valid schedule: that cycle is the §3.6 deadlock/race
    and is reported as a compile error.
    """
    import itertools as _it

    if not self_edges:
        return IterationOrder(
            signs=(0,) * ndim, priority=tuple(range(ndim))
        )

    def edge_resolution(dirs: Tuple[str, ...], perm, signs) -> Optional[int]:
        """The dim that resolves this edge under (perm, signs), or None."""
        for dim in perm:
            ch = dirs[dim]
            if ch == "=":
                continue
            if ch == "*":
                return None
            needed_sign = 1 if ch == "<" else -1
            return dim if signs[dim] == needed_sign else None
        return None  # all '=': reads its own cell

    for perm in _it.permutations(range(ndim)):
        for signs in _it.product((1, -1), repeat=ndim):
            used: List[Optional[int]] = []
            for dirs in self_edges:
                used.append(edge_resolution(dirs, perm, signs))
            if any(dim is None for dim in used):
                continue
            result = [0] * ndim
            for dim in used:
                result[dim] = signs[dim]
            return IterationOrder(signs=tuple(result), priority=perm)
    raise CompileError(
        f"{transform.name} {rule.label}: self-dependency on "
        f"{segment.matrix!r} has no schedulable iteration order "
        f"(cycle would deadlock)",
        line=getattr(rule, "line", 0),
        column=getattr(rule, "column", 0),
        code="PB205",
        hint=(
            "make the rule read strictly earlier cells along some axis "
            "(e.g. an offset like i-1), or split it into staged rules"
        ),
    )


# ---------------------------------------------------------------------------
# scheduling order / deadlock detection
# ---------------------------------------------------------------------------


def _topological_order(
    transform: TransformIR,
    nodes: Sequence[NodeKey],
    edges: Sequence[DepEdge],
) -> List[NodeKey]:
    """Topologically sort nodes (self-edges excluded); multi-node cycles
    are deadlocks (§3.6)."""
    successors: Dict[NodeKey, List[NodeKey]] = {node: [] for node in nodes}
    indegree: Dict[NodeKey, int] = {node: 0 for node in nodes}
    seen: Set[Tuple[NodeKey, NodeKey]] = set()
    for edge in edges:
        if edge.src == edge.dst:
            continue
        pair = (edge.src, edge.dst)
        if pair in seen:
            continue
        seen.add(pair)
        successors[edge.src].append(edge.dst)
        indegree[edge.dst] += 1

    order: List[NodeKey] = []
    ready = sorted(node for node, deg in indegree.items() if deg == 0)
    while ready:
        node = ready.pop(0)
        order.append(node)
        for succ in successors[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
        ready.sort()
    if len(order) != len(nodes):
        stuck = sorted(set(nodes) - set(order))
        raise CompileError(
            f"{transform.name}: dependency cycle between regions "
            f"{stuck} — program would deadlock",
            line=getattr(transform, "line", 0),
            column=getattr(transform, "column", 0),
            code="PB204",
            hint=(
                "break the cycle with a through-matrix staging the "
                "intermediate values, or reorder the reads"
            ),
        )
    return order
