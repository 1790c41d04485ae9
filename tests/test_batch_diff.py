"""Differential property test: batched execution ≡ serial execution.

Hypothesis generates random straight-line elementwise programs and
random request mixes (sizes, configurations, leaf paths); every mix
runs once through :class:`repro.batch.BatchEngine` and once as
per-request serial ``CompiledTransform.run`` calls, and the two must
produce **bit-identical** outputs (exact ``tobytes`` equality) and
identical write sets — the same contract the leaf paths satisfy among
themselves (``test_engine_fast_diff``), lifted over the batch axis.

Error propagation is part of the contract: a request the serial engine
rejects (division by zero, malformed inputs) must come back from the
batch engine with the *same* exception type and message, without
poisoning the other requests in its bucket.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchEngine
from repro.compiler import ChoiceConfig, Selector, compile_program
from tests.conftest import SENTINEL, sentinel_alloc
from tests.test_engine_fast_diff import tiny_strips

_OPS = ("+", "-", "*")
_CALLS = ("min", "max", "abs")


def _leaf_config(transform_name, leaf):
    config = ChoiceConfig()
    config.set_tunable(f"{transform_name}.__leaf_path__", leaf)
    return config


def _signature(outputs):
    return {
        name: (matrix.data.tobytes(), (matrix.data != SENTINEL).tobytes())
        for name, matrix in outputs.items()
    }


def _assert_batch_matches_serial(transform, requests):
    """``requests``: (inputs dict, config) pairs.  Runs the mix batched
    and serially; asserts identical outputs/write sets/errors per
    request.  Returns the batched results."""
    engine = BatchEngine()
    for inputs, config in requests:
        engine.submit(
            transform, {k: v.copy() for k, v in inputs.items()}, config
        )
    with sentinel_alloc():
        batched = engine.gather()

    assert len(batched) == len(requests)
    for position, ((inputs, config), result) in enumerate(
        zip(requests, batched)
    ):
        assert result.request_id == position
        serial_error = None
        serial_outputs = None
        with sentinel_alloc():
            try:
                serial_outputs = transform.run(
                    {k: v.copy() for k, v in inputs.items()}, config
                ).outputs
            except Exception as error:
                serial_error = error
        if serial_error is not None:
            assert not result.ok, (
                f"request {position}: serial raised "
                f"{serial_error!r}, batch succeeded"
            )
            assert type(result.error) is type(serial_error)
            assert str(result.error) == str(serial_error)
        else:
            assert result.ok, (
                f"request {position}: batch raised {result.error!r}, "
                f"serial succeeded"
            )
            assert _signature(result.outputs) == _signature(serial_outputs)
    return batched


# -- random elementwise programs × random request mixes ---------------------


@st.composite
def elementwise_programs(draw):
    """A random straight-line elementwise 2-D stencil program."""
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

    def expr(depth):
        if depth == 0 or draw(st.booleans()):
            return draw(
                st.one_of(
                    st.sampled_from([name for name, _, _ in reads]),
                    st.floats(-2, 2, allow_nan=False).map(
                        lambda f: repr(round(f, 3))
                    ),
                )
            )
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
    return (
        "transform Stencil\n"
        "from A[n+2, m+2]\n"
        "to B[n, m]\n"
        "{\n"
        f"  to (B.cell(x, y) b) from ({froms}) {{ {body} }}\n"
        "}\n"
    )


@st.composite
def request_mixes(draw):
    """Random heterogeneous request mixes: a handful of (n, m) shapes,
    each repeated a few times, each request under a random leaf path —
    so one mix spans several buckets and several configurations."""
    shapes = draw(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    mix = []
    for shape in shapes:
        repeats = draw(st.integers(1, 3))
        for _ in range(repeats):
            leaf = draw(st.integers(0, 2))
            mix.append((shape, leaf))
    draw(st.randoms(use_true_random=False)).shuffle(mix)
    return mix


@settings(max_examples=25, deadline=None)
@given(
    source=elementwise_programs(),
    mix=request_mixes(),
    seed=st.integers(0, 2**16),
)
def test_random_mixes_batch_equals_serial(source, mix, seed):
    program = compile_program(source)
    transform = program.transform("Stencil")
    rng = np.random.default_rng(seed)
    requests = []
    for (n, m), leaf in mix:
        inputs = {"A": rng.uniform(-4.0, 4.0, (n + 2, m + 2))}
        requests.append((inputs, _leaf_config("Stencil", leaf)))
    _assert_batch_matches_serial(transform, requests)


# -- the RollingSum choice space (per-request fallback path) ----------------

ROLLINGSUM = """
transform RollingSum
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, i+1) in) { b = sum(in); }
  to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) leftSum) { b = a + leftSum; }
}
"""


@settings(max_examples=15, deadline=None)
@given(
    options=st.lists(st.integers(0, 1), min_size=1, max_size=6),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_rollingsum_mix_batch_equals_serial(options, n, seed):
    """RollingSum is not stackable (region reduction); every request
    takes the serial fallback inside the engine and must still match a
    direct serial run exactly, across both algorithmic choices."""
    program = compile_program(ROLLINGSUM)
    transform = program.transform("RollingSum")
    rng = np.random.default_rng(seed)
    requests = []
    for option in options:
        config = ChoiceConfig()
        config.set_choice("RollingSum.B.0", Selector.static(0))
        config.set_choice("RollingSum.B.1", Selector.static(option))
        requests.append(({"A": rng.uniform(-1.0, 1.0, n)}, config))
    _assert_batch_matches_serial(transform, requests)


# -- error propagation: one bad request must not poison its bucket ----------

DIVIDE = """
transform Divide
from A[n], D[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a, D.cell(i) d) { b = a / d; }
}
"""


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 8),
    bad_positions=st.sets(st.integers(0, 5), max_size=3),
    total=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_division_by_zero_isolated_to_failing_requests(
    n, bad_positions, total, seed
):
    """Requests whose divisor contains a zero raise exactly the serial
    engine's error; same-bucket neighbours still get bit-identical
    results (the stacked sweep demotes to per-request execution)."""
    program = compile_program(DIVIDE)
    transform = program.transform("Divide")
    rng = np.random.default_rng(seed)
    requests = []
    for position in range(total):
        divisor = rng.uniform(1.0, 2.0, n)
        if position in bad_positions:
            divisor[rng.integers(0, n)] = 0.0
        requests.append(
            (
                {"A": rng.uniform(-2.0, 2.0, n), "D": divisor},
                ChoiceConfig(),
            )
        )
    _assert_batch_matches_serial(transform, requests)


def test_malformed_request_is_isolated():
    """A request with a missing input buckets alone, reports the serial
    engine's exact error, and leaves its well-formed neighbours stacked."""
    program = compile_program(DIVIDE)
    transform = program.transform("Divide")
    rng = np.random.default_rng(3)
    good = {"A": rng.uniform(-1, 1, 4), "D": rng.uniform(1, 2, 4)}

    engine = BatchEngine()
    engine.submit(transform, good)
    engine.submit(transform, {"A": good["A"]})  # missing D
    engine.submit(transform, good)
    first, bad, last = engine.gather()

    assert first.ok and last.ok and first.stacked and last.stacked
    assert not bad.ok
    try:
        transform.run({"A": good["A"].copy()})
    except Exception as serial_error:
        assert type(bad.error) is type(serial_error)
        assert str(bad.error) == str(serial_error)
    reference = transform.run({k: v.copy() for k, v in good.items()})
    assert first.output().tobytes() == reference.output().tobytes()
    assert last.output().tobytes() == reference.output().tobytes()


# -- strip boundaries at batch > 1 ------------------------------------------
#
# Strips count the batch axis, so under ``tiny_strips`` even small
# stacked buckets cross strip boundaries.


@settings(max_examples=25, deadline=None)
@given(
    source=elementwise_programs(),
    mix=request_mixes(),
    cells=st.sampled_from((1, 5, 8)),
    seed=st.integers(0, 2**16),
)
def test_random_mixes_batch_equals_serial_across_strips(
    source, mix, cells, seed
):
    """Requests configured for the interpreter (leaf 0) still stack, so
    this compares strip-mined stacked steps with the reference
    interpreter directly, lane by lane."""
    program = compile_program(source)
    transform = program.transform("Stencil")
    rng = np.random.default_rng(seed)
    requests = []
    for (n, m), leaf in mix:
        inputs = {"A": rng.uniform(-4.0, 4.0, (n + 2, m + 2))}
        requests.append((inputs, _leaf_config("Stencil", leaf)))
    with tiny_strips(cells):
        _assert_batch_matches_serial(transform, requests)


MOMENTUM = """
transform Momentum
from A[n, p], B[p, m]
through S[p + 2, n, m]
to C[n, m]
{
  to (S.cell(0, i, j) s) from () { s = 0.0; }
  to (S.cell(1, i, j) s) from () { s = 0.0; }
  to (S.cell(k, i, j) s)
  from (S.cell(k - 1, i, j) r1, S.cell(k - 2, i, j) r2,
        A.cell(i, k - 2) a, B.cell(k - 2, j) b)
  {
    s = r1 * 0.625 + r2 * 0.375 + a * b;
  }
  to (C.cell(n - 1 - i, j) c) from (S.cell(p + 1, i, j) s) { c = s; c += c; }
}
"""


@settings(max_examples=20, deadline=None)
@given(
    lanes=st.integers(2, 5),
    cells=st.sampled_from((1, 5, 8)),
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    p=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_chain_and_broadcast_stack_across_strips(lanes, cells, n, m, p, seed):
    """A chain rule reading the matrix it writes, broadcast (outer
    product) operands, a reversed write and a compound target, stacked
    at batch > 1 with strips that split lanes' rows unevenly."""
    transform = compile_program(MOMENTUM).transform("Momentum")
    rng = np.random.default_rng(seed)
    requests = [
        (
            {
                "A": rng.uniform(-1.0, 1.0, (n, p)),
                "B": rng.uniform(-1.0, 1.0, (p, m)),
            },
            _leaf_config("Momentum", 0),
        )
        for _ in range(lanes)
    ]
    with tiny_strips(cells):
        results = _assert_batch_matches_serial(transform, requests)
    assert all(result.stacked for result in results)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(2, 8),
    total=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)
def test_one_zero_lane_demotes_the_bucket_across_strips(n, total, seed):
    """One lane with a zero divisor in some strip: the stacked sweep's
    check fires, the bucket demotes to per-request execution, the bad
    request reports the interpreter's error text and its neighbours
    their exact serial results."""
    transform = compile_program(DIVIDE).transform("Divide")
    rng = np.random.default_rng(seed)
    requests = []
    for position in range(total):
        divisor = rng.uniform(1.0, 2.0, n)
        if position == total - 1:
            divisor[rng.integers(0, n)] = 0.0
        requests.append(
            ({"A": rng.uniform(-2.0, 2.0, n), "D": divisor},
             _leaf_config("Divide", 0))
        )
    with tiny_strips(3):
        results = _assert_batch_matches_serial(transform, requests)
    assert [result.ok for result in results] == [True] * (total - 1) + [False]
    assert "division by zero in rule body" in str(results[-1].error)
    assert not any(result.stacked for result in results)
