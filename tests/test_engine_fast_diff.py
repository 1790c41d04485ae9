"""Differential property test: the three leaf paths are interchangeable.

Hypothesis generates random straight-line elementwise programs (and
drives the RollingSum choice space); every program runs under the
interpreter, closure, and vector leaf paths and must produce

* bit-identical outputs (exact ``tobytes`` equality, no tolerance), and
* identical observable write sets — output/through matrices are
  sentinel-filled at allocation, so "written" is detectable per cell.

The interpreter and the closure must also record the same task graph —
every task's label, deps, parent, spawns and work, bit for bit — and the
same ``rule_applications``.  Programs with a residual where-clause
(meta-rules) run the closure with the predicate lowered *inside* its
loop; for those every path must agree on all of that and — when an
instance is rejected with no fallback rule — on the error text and the
cells written up to the abort.
"""

import dataclasses
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import ChoiceConfig, Selector, compile_program
from repro.language.errors import PetaBricksError
from repro.language.interp import BUILTINS, seed_rand
from tests.conftest import SENTINEL, sentinel_alloc

LEAF_PATHS = (0, 1, 2)

#: reserved tunables under which a tiny program still records one task
#: per three cells (the defaults inline it whole into its root task)
BLOCKED = {"__seq_cutoff__": 0, "__block_size__": 3}

_OPS = ("+", "-", "*")
_CALLS = ("min", "max", "abs")


def _run_paths(
    source,
    transform_name,
    inputs,
    choices=None,
    prepare=None,
    allow_errors=False,
    tunables=None,
):
    """(output bytes, write-set bytes, (rule applications, recorded
    graph, error)) per leaf path; the graph is ``(label, deps, parent,
    spawns, work)`` per task.  ``prepare`` may edit the compiled
    transform before the first run, ``tunables`` sets reserved
    ``__knob__`` tunables.  A run that raises fails the test, unless
    ``allow_errors``: then it reports every matrix it had allocated, as
    of the abort, and the caller must compare the summaries."""
    program = compile_program(source)
    transform = program.transform(transform_name)
    if prepare is not None:
        prepare(transform)
    observed = {}
    for leaf in LEAF_PATHS:
        config = ChoiceConfig()
        config.set_tunable(f"{transform_name}.__leaf_path__", leaf)
        for knob, value in (tunables or {}).items():
            config.set_tunable(f"{transform_name}.{knob}", value)
        for site, option in (choices or {}).items():
            config.set_choice(site, Selector.static(option))
        seed_rand(0x5EED)  # every path draws the same ``rand()`` stream
        with sentinel_alloc() as allocated:
            try:
                result = transform.run(
                    {k: v.copy() for k, v in inputs.items()}, config
                )
            except (PetaBricksError, IndexError) as error:
                if not allow_errors:
                    raise
                matrices = {matrix.name: matrix for matrix in allocated}
                summary = (None, None, f"{type(error).__name__}: {error}")
            else:
                matrices = result.outputs
                summary = (
                    result.rule_applications,
                    [
                        (t.label, t.deps, t.parent, t.spawns, t.work)
                        for t in result.graph.tasks
                    ],
                    None,
                )
        outputs = {}
        writes = {}
        for name, matrix in matrices.items():
            outputs[name] = matrix.data.tobytes()
            writes[name] = (matrix.data != SENTINEL).tobytes()
        observed[leaf] = (outputs, writes, summary)
    return observed


def _assert_paths_agree(observed):
    reference = observed[0]
    for leaf in LEAF_PATHS[1:]:
        assert observed[leaf][0] == reference[0], (
            f"leaf path {leaf}: outputs differ from interpreter"
        )
        assert observed[leaf][1] == reference[1], (
            f"leaf path {leaf}: write sets differ from interpreter"
        )
    assert observed[1][2] == reference[2], (
        "closure: applications, recorded graph or error differ from "
        "interpreter"
    )


# -- random elementwise programs ------------------------------------------


#: Non-affine predicates over the instance variables: each stays a
#: *residual* where-clause the engine must evaluate per instance.
_PREDICATES = (
    "(x + y) % 2 == 0",
    "x % 3 != 1",
    "x * y < 4",
    "x % 2 == 0 && y % 2 == 1",
    "x * x > 100",  # rejects everything
    "x * y >= 0",  # accepts everything
)


@st.composite
def elementwise_programs(draw, where=False):
    """A random straight-line elementwise 2-D stencil program.

    With ``where`` the rule becomes a meta-rule: it carries a residual
    where-clause and a second, unrestricted rule catches the instances
    the predicate rejects.  It may also read ``A.cell(x + y, y)`` — a
    coordinate coupling both variables, which the compiler guards with
    an implicit residual clause (``x + y < n + 2``); lowering that
    binding before the clause would read out of bounds."""
    n_reads = draw(st.integers(1, 3))
    reads = []
    for idx in range(n_reads):
        dx = draw(st.integers(0, 2))
        dy = draw(st.integers(0, 2))
        reads.append((f"r{idx}", dx, dy))
    froms = ", ".join(
        f"A.cell(x+{dx}, y+{dy}) {name}" if dx or dy else f"A.cell(x, y) {name}"
        for name, dx, dy in reads
    )
    clause = ""
    if where:
        predicate = draw(st.sampled_from(_PREDICATES))
        if draw(st.booleans()):
            reads.append(("g", None, None))
            froms += ", A.cell(x + y, y) g"
            if draw(st.booleans()):
                predicate = ""  # the implicit guard is the only clause
        if predicate:
            clause = f" where {predicate}"

    def expr(depth):
        if depth == 0 or draw(st.booleans()):
            leaf = draw(
                st.one_of(
                    st.sampled_from([name for name, _, _ in reads]),
                    st.floats(-2, 2, allow_nan=False).map(
                        lambda f: repr(round(f, 3))
                    ),
                )
            )
            return leaf
        kind = draw(st.sampled_from(("binop", "call", "neg")))
        if kind == "binop":
            op = draw(st.sampled_from(_OPS))
            return f"({expr(depth - 1)} {op} {expr(depth - 1)})"
        if kind == "neg":
            return f"(-{expr(depth - 1)})"
        call = draw(st.sampled_from(_CALLS))
        if call == "abs":
            return f"abs({expr(depth - 1)})"
        return f"{call}({expr(depth - 1)}, {expr(depth - 1)})"

    statements = [f"b = {expr(2)};"]
    if draw(st.booleans()):
        op = draw(st.sampled_from(("+=", "-=", "*=")))
        statements.append(f"b {op} {expr(1)};")
    body = " ".join(statements)
    rules = f"  to (B.cell(x, y) b) from ({froms}){clause} {{ {body} }}\n"
    if where:
        del reads[1:]  # the fallback rule binds r0 only
        rules += (
            "  to (B.cell(x, y) b) from (A.cell(x, y) r0) "
            f"{{ b = {expr(1)} - 0.5; }}\n"
        )
    source = (
        "transform Stencil\n"
        "from A[n+2, m+2]\n"
        "to B[n, m]\n"
        "{\n"
        f"{rules}"
        "}\n"
    )
    return source


@settings(max_examples=30, deadline=None)
@given(
    source=elementwise_programs(),
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    blocked=st.booleans(),
)
def test_random_elementwise_programs_agree(source, n, m, seed, blocked):
    rng = np.random.default_rng(seed)
    inputs = {"A": rng.uniform(-4.0, 4.0, (n + 2, m + 2))}
    observed = _run_paths(
        source, "Stencil", inputs, tunables=BLOCKED if blocked else None
    )
    _assert_paths_agree(observed)


# -- residual where-clauses (meta-rules) -----------------------------------


def _drop_fallbacks(transform):
    """Strip the fallback rule off every meta-rule option.  No DSL source
    compiles to this (PB301 demands coverage), but the engine defines
    the outcome: the first rejected instance aborts the run."""
    for segment in transform.grid.all_segments():
        segment.options = tuple(
            dataclasses.replace(option, fallback=None)
            for option in segment.options
        )


@settings(max_examples=40, deadline=None)
@given(
    source=elementwise_programs(where=True),
    fallback=st.booleans(),
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    blocked=st.booleans(),
)
def test_where_clause_programs_agree(source, fallback, n, m, seed, blocked):
    """Meta-rules: the closure evaluates the where-clause itself (before
    its bindings, like the interpreter) and hands rejected instances to
    the fallback — or, with none, aborts where the interpreter does."""
    rng = np.random.default_rng(seed)
    inputs = {"A": rng.uniform(-4.0, 4.0, (n + 2, m + 2))}
    observed = _run_paths(
        source,
        "Stencil",
        inputs,
        choices={"Stencil.B.0": 1},  # option 0 is the fallback on its own
        prepare=None if fallback else _drop_fallbacks,
        allow_errors=not fallback,
        tunables=BLOCKED if blocked else None,
    )
    _assert_paths_agree(observed)
    error = observed[0][2][2]
    # The only legitimate abort is the engine's own rejection report.
    assert error is None or (
        error.startswith("ExecutionError: ") and "where-clause fails" in error
    )
    for leaf in LEAF_PATHS[1:]:  # vector demotes to the closure here
        assert observed[leaf][2] == observed[0][2]


# -- the RollingSum choice space ------------------------------------------

ROLLINGSUM = """
transform RollingSum
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, i+1) in) { b = sum(in); }
  to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) leftSum) { b = a + leftSum; }
}
"""


@settings(max_examples=20, deadline=None)
@given(
    option=st.integers(0, 1),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**16),
    blocked=st.booleans(),
)
def test_rollingsum_choices_agree(option, n, seed, blocked):
    """Both algorithmic choices (region reduction and sequential chain)
    agree across all leaf paths at every size."""
    rng = np.random.default_rng(seed)
    inputs = {"A": rng.uniform(-1.0, 1.0, n)}
    observed = _run_paths(
        ROLLINGSUM,
        "RollingSum",
        inputs,
        choices={"RollingSum.B.0": 0, "RollingSum.B.1": option},
        tunables=BLOCKED if blocked else None,
    )
    _assert_paths_agree(observed)


# -- windowed reads (region bindings at varying offsets) -------------------


@settings(max_examples=20, deadline=None)
@given(
    lo=st.integers(0, 2),
    width=st.integers(1, 3),
    n=st.integers(4, 10),
    seed=st.integers(0, 2**16),
)
def test_window_programs_agree(lo, width, n, seed):
    """Region-reduction windows (closure path; vector demotes) stay
    bit-identical under every leaf path."""
    hi = lo + width
    source = (
        "transform Window\n"
        f"from A[n + {hi}]\n"
        "to B[n]\n"
        "{\n"
        f"  to (B.cell(i) b) from (A.region(i + {lo}, i + {hi}) a)"
        " { b = sum(a); }\n"
        "}\n"
    )
    rng = np.random.default_rng(seed)
    inputs = {"A": rng.uniform(-2.0, 2.0, n + hi)}
    observed = _run_paths(source, "Window", inputs)
    _assert_paths_agree(observed)


# -- strip boundaries -------------------------------------------------------
#
# The vector step runs each rule body over strips of the outermost free
# variable (``vectorize.STRIP_BYTES``).  At the real constant a generated
# program is one strip; shrunk to a handful of cells, tiny programs
# cross strip boundaries with ragged last strips, and every path must
# still match the interpreter exactly.


@contextmanager
def tiny_strips(cells=8):
    """Strip-mine every vector step into ``cells``-cell strips."""
    from repro.engine_fast import vectorize

    original = vectorize.STRIP_BYTES
    vectorize.STRIP_BYTES = 8 * cells
    try:
        yield
    finally:
        vectorize.STRIP_BYTES = original


@settings(max_examples=40, deadline=None)
@given(
    source=elementwise_programs(),
    cells=st.sampled_from((1, 3, 8)),
    n=st.integers(1, 7),
    m=st.integers(1, 7),
    seed=st.integers(0, 2**16),
)
def test_random_elementwise_programs_agree_across_strips(
    source, cells, n, m, seed
):
    rng = np.random.default_rng(seed)
    inputs = {"A": rng.uniform(-4.0, 4.0, (n + 2, m + 2))}
    with tiny_strips(cells):
        observed = _run_paths(source, "Stencil", inputs)
    _assert_paths_agree(observed)


#: name -> (source, transform, input shapes given (n, m)).  One operand
#: form each: the strip loop re-slices axis 1 of whatever view
#: ``emit_regions`` built, so each form must survive the re-slice.
STRIP_PROGRAMS = {
    "reversed": (
        """
transform Reversed
from A[n, m]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(n - 1 - x, y) a, A.cell(x, m - 1 - y) c) {
    b = a * 2 + c * 0.5 - 1;
  }
}
""",
        "Reversed",
        lambda n, m: {"A": (n, m)},
    ),
    "transposed": (
        """
transform Transposed
from A[m, n]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(y, x) a) { b = a * 0.5 + a * a; }
}
""",
        "Transposed",
        lambda n, m: {"A": (m, n)},
    ),
    "outer": (
        """
transform Outer
from U[n], V[m]
to B[n, m]
{
  to (B.cell(x, y) b) from (U.cell(x) u, V.cell(y) v) {
    b = u * v + u * 2 - min(v, u);
  }
}
""",
        "Outer",
        lambda n, m: {"U": (n,), "V": (m,)},
    ),
    "compound": (
        """
transform Compound
from A[n, m]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a) {
    b = a + 1; b *= a - 0.5; b += b * 2; b -= a;
  }
}
""",
        "Compound",
        lambda n, m: {"A": (n, m)},
    ),
    "chain": (
        """
transform Chain
from A[n, m]
to B[n, m]
{
  to (B.cell(0, y) b) from (A.cell(0, y) a) { b = a; }
  to (B.cell(x, y) b) from (B.cell(x - 1, y) up, A.cell(x, y) a) {
    b = up * 0.625 + a * 0.375;
  }
}
""",
        "Chain",
        lambda n, m: {"A": (n, m)},
    ),
    "by-value": (
        """
transform ByValue
from A[n, m]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a) {
    b = (a + x * 2 - y) * (x < y) + !(a > 0) + (a % 3) / (y + 1);
  }
}
""",
        "ByValue",
        lambda n, m: {"A": (n, m)},
    ),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(STRIP_PROGRAMS)),
    cells=st.sampled_from((1, 3, 8)),
    n=st.integers(1, 9),
    m=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
def test_operand_forms_agree_across_strips(name, cells, n, m, seed):
    """Reversed (negative-stride) and transposed reads, broadcast
    operands, compound targets, a chain rule reading the matrix it
    writes, and free variables used by value — each across ragged
    strip boundaries."""
    source, transform, shapes = STRIP_PROGRAMS[name]
    rng = np.random.default_rng(seed)
    inputs = {
        matrix: rng.uniform(-4.0, 4.0, shape)
        for matrix, shape in shapes(n, m).items()
    }
    with tiny_strips(cells):
        observed = _run_paths(source, transform, inputs)
    _assert_paths_agree(observed)


# -- division by zero -------------------------------------------------------

DIVIDE_PROGRAMS = {
    "literal": "b = a / 0;",
    "folded-literal": "b = a / 4 + a / 0.0;",
    "array": "b = a / d;",
    "scalar": "b = a / (n - n);",
}


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(DIVIDE_PROGRAMS)),
    cells=st.sampled_from((3, 1 << 15)),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
def test_division_by_zero_raises_the_interpreter_error(kind, cells, n, seed):
    """A non-zero literal divisor lowers to a bare ``np.divide``; every
    other divisor is checked, and a zero — literal, scalar, or one cell
    of an array divisor, in any strip — raises the interpreter's exact
    error on every leaf path."""
    source = (
        "transform Divide\nfrom A[n], D[n]\nto B[n]\n{\n"
        "  to (B.cell(i) b) from (A.cell(i) a, D.cell(i) d) "
        f"{{ {DIVIDE_PROGRAMS[kind]} }}\n}}\n"
    )
    rng = np.random.default_rng(seed)
    divisor = rng.uniform(1.0, 2.0, n)
    divisor[rng.integers(0, n)] = 0.0
    inputs = {"A": rng.uniform(-2.0, 2.0, n), "D": divisor}
    with tiny_strips(cells):
        observed = _run_paths(source, "Divide", inputs, allow_errors=True)
    errors = {leaf: observed[leaf][2][2] for leaf in LEAF_PATHS}
    assert errors[0] is not None
    assert "division by zero in rule body" in errors[0]
    assert errors[1] == errors[2] == errors[0]
    assert observed[1][2] == observed[0][2]


# -- rejection order inside a block ----------------------------------------

NOISE = """
transform Noise
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) where i % 3 != 1 { b = a + rand(); }
  to (B.cell(i) b) from (A.cell(i) a) { b = a - rand() * 2; }
}
"""


def test_rejected_cells_run_their_fallback_in_place():
    """Both bodies draw from the one ``rand()`` stream, so the outputs
    agree only if the closure's loop hands every rejected cell to the
    fallback where the interpreter would — between its neighbours, not
    after its block — and the graphs only if the fallback's charge
    lands in the block task that was open at that cell."""
    inputs = {"A": np.arange(10.0)}
    observed = _run_paths(
        NOISE, "Noise", inputs, choices={"Noise.B.0": 1}, tunables=BLOCKED
    )
    _assert_paths_agree(observed)
    applications, graph, error = observed[1][2]
    assert (applications, error) == (10, None)
    blocks = [task for task in graph if task[0].startswith("rule0[")]
    assert [task[0] for task in blocks] == [
        "rule0[0]", "rule0[3]", "rule0[6]", "rule0[9]"
    ]
    seed_rand(0x5EED)
    draws = [BUILTINS["rand"]() for _ in range(10)]
    expected = [
        i - draws[i] * 2 if i % 3 == 1 else i + draws[i] for i in range(10)
    ]
    assert observed[1][0]["B"] == np.array(expected).tobytes()
