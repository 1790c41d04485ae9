"""Storage folding is invisible, and only happens where it is proven so.

A ``through`` matrix whose PB606 verdict is legal is allocated as its
dependence window (plane ``q`` in slot ``q % window``).  The baseline of
every differential check here is *the same program* compiled while the
verdict is patched to "blocked" — in the test, there is no product
switch — so both sides run the same engine and differ only in storage.
Folded and unfolded must agree on all ``observe`` sees — output bytes,
sentinel write sets, rule applications and the recorded graph — over
every leaf path, tile shape, ``__interchange__`` and the batch engine —
except that a lockstep group (segments sharing a band, run one plane at
a time when folded) records one task where the baseline records one per
segment, and runs untiled; programs on the negative table must *not*
fold and must still match a hand-written NumPy reference.
"""

import dataclasses
import functools
import hashlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import depend
from repro.analysis.check import check_source
from repro.analysis.depend import (
    StorageVerdict,
    check_depend,
    storage_verdict,
    storage_witness,
    validate_witness,
)
from repro.analysis.witness import Replay
from repro.autotuner.consistency import observe, observe_batch
from repro.compiler import ChoiceConfig, compile_program, leaves
from repro.compiler.config import TILE_I
from repro.compiler.builder import TransformBuilder
from repro.observe import TraceSink
from repro.runtime.matrix import Matrix
from repro.runtime.task import TaskRecorder
from tests.strategies import BLUR, HEAT, ROLLINGSUM
from tests.strategies import chain_source as shifted_source

MATMUL_MOMENTUM = """
transform MatMulMomentum
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
  to (C.cell(i, j) c) from (S.cell(p + 1, i, j) s) { c = s; }
}
"""

PIPELINE = """
transform Pipeline
from A[n, m]
through T[n, m]
to B[n, m]
{
  to (T.cell(x, y) t) from (A.cell(x, y) a) { t = a * 2.0 + 1.0; }
  to (B.cell(x, y) b) from (T.cell(x, y) t) { b = t * 1.5 - 0.5; }
}
"""


def chain_source(consumer="S.cell(p, i, j)", extra_from="", extra_term=""):
    """``MatMulChain`` of ``examples/matmul_chain.py`` (window 2), with
    hooks the negative table bends: the consumer's plane, one more read
    of ``S`` by the chain rule."""
    return f"""
transform MatMulChain
from A[n, p], B[p, m]
through S[p + 1, n, m]
to C[n, m]
{{
  to (S.cell(0, i, j) s) from () {{ s = 1.5; }}
  to (S.cell(k, i, j) s)
  from (S.cell(k - 1, i, j) prev, A.cell(i, k - 1) a, B.cell(k - 1, j) b
        {extra_from})
  {{
    s = prev + a * b{extra_term};
  }}
  to (C.cell(i, j) c) from ({consumer} s) {{ c = s; }}
}}
"""


def chain_planes(a, b):
    """Every plane of ``MatMulChain``'s ``S``, hand-written."""
    planes = [np.full((a.shape[0], b.shape[1]), 1.5)]
    for k in range(a.shape[1]):
        planes.append(planes[-1] + np.multiply.outer(a[:, k], b[k, :]))
    return planes


def momentum_ref(a, b):
    prev = np.zeros((a.shape[0], b.shape[1]))
    prev2 = np.zeros_like(prev)
    for k in range(a.shape[1]):
        cur = prev * 0.625 + prev2 * 0.375 + np.multiply.outer(a[:, k], b[k, :])
        prev2, prev = prev, cur
    return prev


def unfolded(source, name):
    """``source`` compiled with the storage verdict patched to blocked:
    today's engine with every plane kept."""
    refuse = mock.patch.object(
        depend,
        "storage_verdict",
        lambda compiled, matrix: StorageVerdict(matrix, 0, 0, "baseline"),
    )
    with refuse:
        transform = compile_program(source).transform(name)
        assert transform._storage_folds == {}
    return transform


@functools.lru_cache(maxsize=None)
def compiled_pair(source, name):
    return compile_program(source).transform(name), unfolded(source, name)


#: tiles {none, 16 x 16, a row band} x __interchange__ {0, 1}
KNOB_SETS = [
    {"__tile_i__": ti, "__tile_j__": tj, "__interchange__": swap}
    for ti, tj in ((0, 0), (16, 16), (16, 0))
    for swap in (0, 1)
]


def total_work(observation):
    return sum(work for *_, work in observation.graph)


def config_for(name, leaf, knobs):
    config = ChoiceConfig()
    config.set_tunable(f"{name}.__leaf_path__", leaf)
    config.set_tunable(f"{name}.__seq_cutoff__", 0)  # record every task
    for knob, value in knobs.items():
        config.set_tunable(f"{name}.{knob}", value)
    return config


def assert_fold_invisible(
    source, name, inputs, knob_sets=KNOB_SETS, stacks=True, sizes=None,
    lockstep=False,
):
    """Folded ≡ unfolded at every leaf x knob set, serially and through
    the batch engine (stacked, unless the program cannot stack), whose
    lanes ≡ serial runs; returns the folded transform's output.  A
    ``lockstep`` program records its own graph (one task per group) and
    runs its members untiled: the knobs are a verified no-op on it, the
    baseline's outputs, write sets and applications agree — and its
    work, where no tile is asked for."""
    folded, baseline = compiled_pair(source, name)
    assert folded._storage_folds, "the program was expected to fold"
    shapes = [a.shape for a in inputs]
    for leaf in (0, 1, 2):
        untiled = None
        for knobs in knob_sets:
            config = config_for(name, leaf, knobs)
            assert (
                folded.plan(config, shapes, sizes).problem_size
                == baseline.plan(config, shapes, sizes).problem_size
            )
            seen = observe(folded, inputs, config, sizes)
            base = observe(baseline, inputs, config, sizes)
            where = f"leaf {leaf} knobs {knobs}: {seen.error}"
            assert seen.error is None, where
            if not lockstep:
                assert seen == base, where
                continue
            untiled = untiled or seen
            assert seen == untiled, where
            assert (seen.outputs, seen.writes, seen.rule_applications) == (
                base.outputs, base.writes, base.rule_applications
            ), where
            assert total_work(seen) == total_work(base) or any(knobs.values()), where
    batched = {}
    lanes = [[a * (lane + 1) for a in inputs] for lane in range(5)]
    config = config_for(name, 2, {})
    for transform in (folded, baseline):
        results = observe_batch(transform, [(lane, config, sizes) for lane in lanes])
        assert all(r.error is None for r in results)
        assert all(r.counters["batch.stacked"] == stacks for r in results)
        batched[transform] = [(r.outputs, r.writes) for r in results]
    assert batched[folded] == batched[baseline] == [
        (seen.outputs, seen.writes)
        for seen in (observe(folded, lane, config, sizes) for lane in lanes)
    ]
    return folded.run(inputs, config, sizes).output()


def matmul_inputs(n, p, m, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1.0, 1.0, (n, p)), rng.uniform(-1.0, 1.0, (p, m))]


# -- programs that fold ----------------------------------------------------


@pytest.mark.parametrize("p", [0, 1, 2, 5])
def test_matmul_momentum_folds_to_three_planes(p):
    inputs = matmul_inputs(40, p, 36)
    output = assert_fold_invisible(MATMUL_MOMENTUM, "MatMulMomentum", inputs)
    np.testing.assert_allclose(output, momentum_ref(*inputs), rtol=1e-12)
    folded, baseline = compiled_pair(MATMUL_MOMENTUM, "MatMulMomentum")
    assert folded._storage_folds == {"S": (0, 3)}
    shapes = [a.shape for a in inputs]
    allocated = dict(
        (name, shape) for name, shape, *_ in folded.plan(None, shapes).allocations
    )
    assert allocated == {"C": (40, 36), "S": (min(p + 2, 3), 40, 36)}
    declared = dict(
        (name, shape)
        for name, shape, *_ in baseline.plan(None, shapes).allocations
    )
    assert declared["S"] == (p + 2, 40, 36)


@pytest.mark.parametrize("p", [0, 1, 6])
def test_matmul_chain_folds_to_two_planes(p):
    inputs = matmul_inputs(36, p, 40)
    output = assert_fold_invisible(chain_source(), "MatMulChain", inputs)
    np.testing.assert_array_equal(output, chain_planes(*inputs)[p])
    folded, _ = compiled_pair(chain_source(), "MatMulChain")
    plan = folded.plan(None, [a.shape for a in inputs])
    assert plan.allocations[1][:2] == ("S", (min(p + 1, 2), 36, 40))


def test_the_consumer_may_read_any_plane_of_the_last_window():
    """``p - 1 == extent - window``: still live at the end."""
    source = chain_source(consumer="S.cell(p - 1, i, j)")
    inputs = matmul_inputs(20, 4, 18)
    output = assert_fold_invisible(source, "MatMulChain", inputs)
    np.testing.assert_array_equal(output, chain_planes(*inputs)[3])


FIXED_PLANES = """
transform Staged
from A[n]
through T[3, n]
to B[n]
{
  to (T.cell(0, i) t) from (A.cell(i) a) { t = a * 2.0; }
  to (T.cell(1, i) t) from (T.cell(0, i) u) { t = u + 1.0; }
  to (T.cell(2, i) t) from (T.cell(1, i) u) { t = u * u; }
  to (B.cell(i) b) from (T.cell(2, i) t) { b = t - 0.5; }
}
"""


def test_fixed_planes_fold_without_a_chain():
    a = np.random.default_rng(5).uniform(-2.0, 2.0, 50)
    output = assert_fold_invisible(FIXED_PLANES, "Staged", [a], [{}])
    np.testing.assert_array_equal(output, (a * 2.0 + 1.0) ** 2 - 0.5)
    assert compiled_pair(FIXED_PLANES, "Staged")[0]._storage_folds == {
        "T": (0, 2)
    }


LAST_AXIS = """
transform Trailing
from A[n, p], B[p, m]
through S[n, m, p + 1]
to C[n, m]
{
  to (S.cell(i, j, 0) s) from () { s = 1.5; }
  to (S.cell(i, j, k) s)
  from (S.cell(i, j, k - 1) prev, A.cell(i, k - 1) a, B.cell(k - 1, j) b)
  { s = prev + a * b; }
  to (C.cell(i, j) c) from (S.cell(i, j, p) s) { c = s; }
}
"""


def test_the_fold_axis_need_not_be_the_first():
    """Axes 0 and 1 are refused (one band, written in parallel), axis 2
    folds — past rules whose other matrices have fewer axes than that."""
    inputs = matmul_inputs(20, 5, 18)
    output = assert_fold_invisible(LAST_AXIS, "Trailing", inputs)
    np.testing.assert_array_equal(output, chain_planes(*inputs)[5])
    folded, _ = compiled_pair(LAST_AXIS, "Trailing")
    assert folded._storage_folds == {"S": (2, 2)}
    plan = folded.plan(None, [a.shape for a in inputs])
    assert plan.allocations[1][:2] == ("S", (20, 18, 2))


WHERE_CHAIN = """
transform Gated
from A[n, p]
through S[p + 1, n]
to C[n]
{
  to (S.cell(0, i) s) from () { s = 0.25; }
  to (S.cell(k, i) s) from (S.cell(k - 1, i) prev, A.cell(i, k - 1) a)
  where (i + k) % 3 != 0
  { s = prev * 0.5 + a; }
  secondary to (S.cell(k, i) s) from (S.cell(k - 1, i) prev) { s = prev; }
  to (C.cell(i) c) from (S.cell(p, i) s) { c = s; }
}
"""


def test_a_where_clause_fallback_writes_the_folded_matrix():
    """The rejected instances go through ``_apply_once`` — the one
    place the tree-walking path maps a plane to its slot."""
    a = np.random.default_rng(9).uniform(-1.0, 1.0, (12, 7))
    output = assert_fold_invisible(
        WHERE_CHAIN, "Gated", [a], [{}], stacks=False
    )
    expected = np.full(12, 0.25)
    for k in range(1, 8):
        gate = (np.arange(12) + k) % 3 != 0
        expected = np.where(gate, expected * 0.5 + a[:, k - 1], expected)
    np.testing.assert_array_equal(output, expected)
    folded, _ = compiled_pair(WHERE_CHAIN, "Gated")
    assert folded._storage_folds == {"S": (0, 2)}
    sink = TraceSink(capture_events=False)
    folded.run([a], config_for("Gated", 1, {}), sink=sink)
    assert 0 < sink.counter("exec.closure_calls") < 12 * 7  # some fell back


def windowed_source(deltas, coefficients):
    """A per-cell recurrence reading ``deltas`` planes back: window
    ``1 + max(deltas)``, ``max(deltas)`` constant planes to start from,
    the consumer at the last plane."""
    depth = max(deltas)
    init = "\n".join(
        f"  to (S.cell({q}, i, j) s) from () {{ s = {0.5 * q + 0.25!r}; }}"
        for q in range(depth)
    )
    reads = ", ".join(f"S.cell(k - {d}, i, j) r{d}" for d in deltas)
    terms = " + ".join(
        f"r{d} * {c!r}" for d, c in zip(deltas, coefficients)
    )
    return f"""
transform Windowed
from A[n, p], B[p, m]
through S[p + {depth}, n, m]
to C[n, m]
{{
{init}
  to (S.cell(k, i, j) s)
  from ({reads}, A.cell(i, k - {depth}) a, B.cell(k - {depth}, j) b)
  {{ s = {terms} + a * b; }}
  to (C.cell(i, j) c) from (S.cell(p + {depth - 1}, i, j) s) {{ c = s; }}
}}
"""


def windowed_ref(deltas, coefficients, a, b):
    depth = max(deltas)
    planes = [
        np.full((a.shape[0], b.shape[1]), 0.5 * q + 0.25) for q in range(depth)
    ]
    for k in range(a.shape[1]):
        total = None
        for d, c in zip(deltas, coefficients):
            term = planes[len(planes) - d] * c
            total = term if total is None else total + term
        planes.append(total + np.multiply.outer(a[:, k], b[k, :]))
    return planes[-1]


@settings(max_examples=25, deadline=None)
@given(
    deltas=st.sets(st.integers(1, 3), min_size=1).map(sorted).map(tuple),
    scale=st.sampled_from((0.5, -0.25, 0.75)),
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    p=st.integers(0, 4),
    seed=st.integers(0, 2**16),
)
def test_windowed_chains_fold_invisibly(deltas, scale, n, m, p, seed):
    """Windows 2-4 (the fixed-plane program above is window 1), sizes
    down to ``extent <= window``."""
    coefficients = tuple(scale / (d + 1) for d in deltas)
    source = windowed_source(deltas, coefficients)
    inputs = matmul_inputs(n, p, m, seed)
    knob_sets = [
        {},
        {"__tile_i__": 2, "__tile_j__": 2, "__interchange__": 1},
        {"__tile_i__": 2, "__interchange__": 1},
        {"__tile_i__": 1, "__tile_j__": 2},
    ]
    output = assert_fold_invisible(source, "Windowed", inputs, knob_sets)
    np.testing.assert_array_equal(
        output, windowed_ref(deltas, coefficients, *inputs)
    )
    folded, _ = compiled_pair(source, "Windowed")
    assert folded._storage_folds == {"S": (0, 1 + max(deltas))}


# -- lockstep groups: segments that share a band fold together --------------


def heat_ref(a, k):
    u = a.copy()
    for _ in range(k):
        u[1:-1] = (u[:-2] + 2 * u[1:-1] + u[2:]) / 4
    return u


HEAT_INPUT = np.random.default_rng(13).uniform(-1.0, 1.0, 41)


@pytest.mark.parametrize("k", [0, 1, 2, 6])
@pytest.mark.parametrize("n", [2, 41])
def test_heat_folds_to_two_planes_in_lockstep(n, k):
    """``U.3``/``U.5``/``U.4`` (left edge, right edge, interior) share
    the band ``[1, 1 + k)``: one task, one plane at a time, 2 planes of
    ``U`` kept — and at ``n = 2`` the interior member is empty."""
    a = HEAT_INPUT[:n]
    output = assert_fold_invisible(
        HEAT, "Heat", [a], sizes={"k": k}, lockstep=True
    )
    np.testing.assert_array_equal(output, heat_ref(a, k))
    folded, _ = compiled_pair(HEAT, "Heat")
    assert folded._storage_folds == {"U": (0, 2)}
    assert folded.storage_verdicts["U"].groups == (("U.3", "U.5", "U.4"),)
    plan = folded.plan(None, [(n,)], {"k": k})
    assert dict(
        (name, shape) for name, shape, *_ in plan.allocations
    )["U"] == (min(k + 1, 2), n)
    group = "Heat.U.3+U.5" if n == 2 else "Heat.U.3+U.5+U.4"
    assert [g.label for g in plan.groups if "+" in g.label] == (
        [group] if k else []
    )


OFF_AXIS = """
transform Skewed
from A[n, p], B[p, m]
through S[p + 1, n, m]
to C[n, m]
{
  to (S.cell(0, i, j) s) from () { s = 1.5; }
  to (S.cell(k, i, j) s)
  from (S.cell(k - 1, i - 1, j) up, A.cell(i, k - 1) a, B.cell(k - 1, j) b)
  { s = up + a * b; }
  secondary to (S.cell(k, i, j) s) from (S.cell(k - 1, i, j) prev)
  { s = prev; }
  to (C.cell(i, j) c) from (S.cell(p, i, j) s) { c = s; }
}
"""


def skewed_ref(a, b):
    plane = np.full((a.shape[0], b.shape[1]), 1.5)
    for k in range(a.shape[1]):
        nxt = plane.copy()
        nxt[1:] = plane[:-1] + np.multiply.outer(a[1:, k], b[k, :])
        plane = nxt
    return plane


A2 = np.random.default_rng(11).uniform(-1.0, 1.0, (9, 5))
AB = matmul_inputs(20, 5, 18, seed=11)


def test_a_writer_reading_another_cell_folds_in_lockstep():
    """``Skewed``'s step reads ``(k - 1, i - 1, j)``, the plane before at
    another cell — row 0's carry rule ``S.2`` shares its band.  Run one
    plane at a time, every such read finds its plane still in its slot;
    the PB604-legal ``S.3`` runs untiled, so the tile knobs — which the
    baseline obeys, at another simulated work — are a verified no-op."""
    output = assert_fold_invisible(OFF_AXIS, "Skewed", AB, lockstep=True)
    np.testing.assert_array_equal(output, skewed_ref(*AB))
    folded, baseline = compiled_pair(OFF_AXIS, "Skewed")
    assert folded.storage_verdicts["S"].groups == (("S.2", "S.3"),)
    tiled = config_for("Skewed", 2, KNOB_SETS[-1])
    assert observe(baseline, AB, tiled).counters["exec.tiled_blocks"] > 0
    assert not TILE_I.live(folded) and TILE_I.live(baseline)


@settings(max_examples=20, deadline=None)
@given(
    dx=st.integers(-1, 1),
    dy=st.integers(-1, 1),
    n=st.integers(2, 5),
    m=st.integers(2, 5),
    steps=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_shifted_chains_fold_in_lockstep(dx, dy, n, m, steps, seed):
    """The schedule suite's ``RChain`` with ``S`` declared ``through``:
    at ``(0, 0)`` a per-cell recurrence, at every other offset — against
    the blocked order too — a lockstep group; the same ``B`` as with
    every plane returned."""
    source = shifted_source(dx, dy, 0.75, through=True)
    inputs = [np.random.default_rng(seed).uniform(-2.0, 2.0, (n + 2, m + 2))]
    sizes = {"t_end": steps}
    output = assert_fold_invisible(
        source, "RChain", inputs, sizes=sizes, lockstep=(dx, dy) != (0, 0)
    )
    whole = compile_program(shifted_source(dx, dy, 0.75)).transform("RChain")
    assert output.tobytes() == whole.run(
        inputs, config_for("RChain", 2, {}), sizes
    ).outputs["B"].data.tobytes()
    folded, _ = compiled_pair(source, "RChain")
    assert folded._storage_folds == {"S": (0, 2)}
    assert bool(folded.storage_verdicts["S"].groups) == ((dx, dy) != (0, 0))


def test_heat_folds_with_no_overwrite_only_in_lockstep():
    """PB606 names the group; replayed one segment after the other (the
    order the engine ran before groups) the same fold is PB607's lapped
    slot, replayed one plane at a time it overwrites nothing."""
    heat, _ = compiled_pair(HEAT, "Heat")
    verdict = heat.storage_verdicts["U"]
    diags = {d.code: d for d in check_depend(Replay(heat))}
    assert "PB607" not in diags
    assert diags["PB606"].message == (
        "storage of U folds to 2 planes along axis 0 (reads reach 1 "
        "plane(s) back; the last reader is rule3 at plane k; U.3, U.5, "
        "U.4 run in lockstep)"
    )
    refused = dataclasses.replace(verdict, reason="refused")
    assert storage_witness(heat, refused) is None
    witness = storage_witness(heat, dataclasses.replace(refused, groups=()))
    # the edge chain (U.3) laps cell 0 before the interior (U.4) reads it
    assert (witness.writer.segment, witness.reader.segment) == ("U.3", "U.4")
    assert not validate_witness(heat, witness)  # not what runs


# -- the negative table: must not fold, must still be right -----------------

DESCENDING = """
transform Falling
from A[n, p]
through S[p + 1, n]
to C[n]
{
  to (S.cell(p, i) s) from () { s = 1.5; }
  to (S.cell(k, i) s) from (S.cell(k + 1, i) above, A.cell(i, k) a)
  { s = above * 0.5 + a; }
  to (C.cell(i) c) from (S.cell(0, i) s) { c = s; }
}
"""


def falling_ref(a):
    plane = np.full(a.shape[0], 1.5)
    for k in reversed(range(a.shape[1])):
        plane = plane * 0.5 + a[:, k]
    return plane


STRIDED_READ = """
transform Strided
from A[n]
through S[2 * q + 1, n]
to C[q + 1, n]
{
  to (S.cell(0, i) s) from (A.cell(i) a) { s = a; }
  to (S.cell(k, i) s) from (S.cell(k - 1, i) prev) { s = prev + 1.0; }
  to (C.cell(k, i) c) from (S.cell(2 * k, i) s) { c = s; }
}
"""

REGION_READ = """
transform Summed
from A[n, p]
through S[p + 1, n]
to C[n]
{
  to (S.cell(0, i) s) from () { s = 1.5; }
  to (S.cell(k, i) s) from (S.cell(k - 1, i) prev, A.cell(i, k - 1) a)
  { s = prev + a; }
  to (C.cell(i) c) from (S.region(0, i, p + 1, i + 1) col) { c = sum(col); }
}
"""

SIBLING_CALL = """
transform Total
from X[w]
to T
{
  to (T t) from (X x) { t = sum(x); }
}

transform Called
from A[n, p]
through S[p + 1, n]
to C
{
  to (S.cell(0, i) s) from () { s = 1.5; }
  to (S.cell(k, i) s) from (S.cell(k - 1, i) prev, A.cell(i, k - 1) a)
  { s = prev + a; }
  to (C c) from (S.column(p) last) { c = Total(last); }
}
"""

OUTPUT_STACK = """
transform Stack
from A[n, p], B[p, m]
to S[p + 1, n, m]
{
  to (S.cell(0, i, j) s) from () { s = 1.5; }
  to (S.cell(k, i, j) s)
  from (S.cell(k - 1, i, j) prev, A.cell(i, k - 1) a, B.cell(k - 1, j) b)
  { s = prev + a * b; }
}
"""

MIRRORED = """
transform Mirrored
from A[n, p], B[p, m]
through S[p + 1, n, m]
to C[n, m]
{
  to (S.cell(0, i, j) s) from () { s = 1.5; }
  to (S.cell(k, i, j) s)
  from (S.cell(k - 1, n - 1 - i, j) flip, A.cell(i, k - 1) a,
        B.cell(k - 1, j) b)
  { s = flip + a * b; }
  to (C.cell(i, j) c) from (S.cell(p, i, j) s) { c = s; }
}
"""


def mirrored_ref(a, b):
    plane = np.full((a.shape[0], b.shape[1]), 1.5)
    for k in range(a.shape[1]):
        plane = plane[::-1] + np.multiply.outer(a[:, k], b[k, :])
    return plane


def edge_fed_ref(a, b):
    """``MatMulChain`` whose step also adds row 0 of the previous plane."""
    plane = np.full((a.shape[0], b.shape[1]), 1.5)
    for k in range(a.shape[1]):
        plane = plane + np.multiply.outer(a[:, k], b[k, :]) + plane[0]
    return plane


def strided_ref(a, q=3):
    return np.stack([a + 2.0 * k for k in range(q + 1)])


NEGATIVES = {
    "consumer reads plane 0 after the chain": (
        chain_source(consumer="S.cell(0, i, j)"), "MatMulChain", AB, None,
        "reads plane 0",
        lambda a, b: chain_planes(a, b)[0],
    ),
    "consumer reads p - window": (
        chain_source(consumer="S.cell(p - 2, i, j)"), "MatMulChain", AB, None,
        "reads plane -2 +p",
        lambda a, b: chain_planes(a, b)[3],
    ),
    "writer reads another cell's plane": (
        MIRRORED, "Mirrored", AB, None, "outside a lockstep group",
        mirrored_ref,
    ),
    "writer reads one fixed column": (
        chain_source(
            extra_from=", S.cell(k - 1, 0, j) edge", extra_term=" + edge"
        ),
        "MatMulChain", AB, None,
        "only a per-cell recurrence folds", edge_fed_ref,
    ),
    "writer also reads the fixed plane 0": (
        chain_source(
            extra_from=", S.cell(0, i, j) first", extra_term=" + first"
        ),
        "MatMulChain", AB, None,
        "no constant distance",
        lambda a, b: chain_planes(a, b)[-1] + 1.5 * a.shape[1],
    ),
    "consumer strides over the planes": (
        STRIDED_READ, "Strided", [A2[:, 0]], {"q": 3},
        "reads plane 2*k", strided_ref,
    ),
    "consumer reads a region": (
        REGION_READ, "Summed", [A2], None,
        "region view",
        lambda a: 1.5 * (a.shape[1] + 1)
        + np.cumsum(a, axis=1).sum(axis=1),
    ),
    "a plane goes to a sibling call": (
        SIBLING_CALL, "Called", [A2], None,
        "column view",
        lambda a: np.float64((1.5 + a.sum(axis=1)).sum()),
    ),
    "descending chain": (
        DESCENDING, "Falling", [A2], None, "ascending", falling_ref,
    ),
}


@pytest.mark.parametrize("case", sorted(NEGATIVES))
def test_negative_table_does_not_fold_and_stays_right(case):
    source, name, inputs, sizes, why, reference = NEGATIVES[case]
    # analyze=False: a consumer at plane p - 2 is uncovered at p < 2,
    # which is the program's business, not this test's
    transform = compile_program(source, analyze=False).transform(name)
    (through,) = transform.ir.throughs
    verdict = transform.storage_verdicts[through.name]
    assert not verdict.folds and why in verdict.reason, verdict
    assert transform._storage_folds == {}
    expected = reference(*inputs)
    for leaf in (0, 1, 2):
        # tiled + interchanged is the order a too-generous verdict gets
        # silently wrong (where the site is not PB604-legal it is a
        # verified no-op)
        for knobs in ({}, {"__tile_i__": 4, "__tile_j__": 4, "__interchange__": 1}):
            result = transform.run(
                [a.copy() for a in inputs], config_for(name, leaf, knobs),
                sizes=sizes,
            )
            np.testing.assert_allclose(
                result.output(), expected, rtol=1e-13, atol=1e-13,
                err_msg=f"{case}: leaf {leaf} knobs {knobs}",
            )


def test_a_too_generous_verdict_is_caught_by_the_tiled_interchanged_run():
    """Why (d) wants distance 0 in every other axis outside a lockstep
    group: force ``Skewed`` (whose step reads ``(k - 1, i - 1, j)``) to
    fold with no group and every run is still right — row 0 carries
    1.5, whatever plane its slot holds — except tile-major order, where
    a finished tile has recycled the slot its neighbour's step ``k``
    reads.  PB604 calls that site legal, and for full storage it is."""
    generous = mock.patch.object(
        depend, "storage_verdict", lambda c, matrix: StorageVerdict(matrix, 0, 2)
    )
    with generous:
        transform = compile_program(OFF_AXIS).transform("Skewed")
        assert transform._storage_folds == {"S": (0, 2)}
    tiled = {"__tile_i__": 4, "__tile_j__": 4, "__interchange__": 1}
    right = {
        (leaf, bool(knobs)): np.array_equal(
            transform.run(AB, config_for("Skewed", leaf, knobs)).output(),
            skewed_ref(*AB),
        )
        for leaf in (0, 1, 2)
        for knobs in ({}, tiled)
    }
    assert right == {key: key != (2, True) for key in right}


def test_an_output_matrix_is_returned_whole():
    transform = compile_program(OUTPUT_STACK).transform("Stack")
    assert not storage_verdict(transform, "S").folds
    assert transform._storage_folds == {}
    for leaf in (0, 1, 2):
        stack = transform.run(AB, config_for("Stack", leaf, {})).output()
        np.testing.assert_array_equal(stack, np.stack(chain_planes(*AB)))


def test_a_native_body_blocks_the_fold():
    """What a native rule does with its views is not visible, cell
    bindings or not."""

    def copy_last(ctx):
        ctx["c"].set(ctx["s"].value)

    def build(native):
        b = TransformBuilder("NativeTail")
        b.input("A", "n", "p").through("S", "p + 1", "n").output("C", "n")
        b.rule(to=[("S", "cell", "0", "i", "s")], body="s = 1.5;")
        b.rule(
            to=[("S", "cell", "k", "i", "s")],
            from_=[("S", "cell", "k - 1", "i", "prev"),
                   ("A", "cell", "i", "k - 1", "a")],
            body="s = prev + a;",
        )
        b.rule(
            to=[("C", "cell", "i", "c")],
            from_=[("S", "cell", "p", "i", "s")],
            body=copy_last if native else "c = s;",
        )
        return compile_program(b.build()).transform("NativeTail")

    assert build(native=False)._storage_folds == {"S": (0, 2)}
    transform = build(native=True)
    assert "native body" in transform.storage_verdicts["S"].reason
    np.testing.assert_allclose(
        transform.run([A2]).output(), 1.5 + A2.sum(axis=1), rtol=1e-13
    )


@pytest.mark.parametrize(
    "body", ["s += prev + a * b;", "s = s + prev + a * b;"]
)
def test_a_cell_read_before_it_is_assigned_blocks_the_fold(body):
    """A fresh plane reads 0.0; a recycled slot would not."""
    source = chain_source().replace("s = prev + a * b;", body)
    transform = compile_program(source).transform("MatMulChain")
    assert "before assigning it" in transform.storage_verdicts["S"].reason
    inputs = matmul_inputs(6, 4, 5)
    np.testing.assert_array_equal(
        transform.run(inputs).output(), chain_planes(*inputs)[-1]
    )


# -- what `repro check` says about it ----------------------------------------


def test_pb606_explains_the_fold():
    folded, _ = compiled_pair(MATMUL_MOMENTUM, "MatMulMomentum")
    diags = {d.code: d for d in check_depend(Replay(folded))}
    assert "PB607" not in diags
    pb606 = diags["PB606"]
    assert pb606.severity == "info" and pb606.region == "S"
    assert (
        "storage of S folds to 3 planes along axis 0 (reads reach 2 "
        "plane(s) back; the last reader is rule3 at plane 1 +p)"
    ) == pb606.message
    assert diags["PB603"].message.endswith("; S folds ×3")
    assert storage_witness(folded, folded.storage_verdicts["S"]) is None


#: Heat whose interior step also reads ``E``, the left edge's column:
#: ``E.0`` must run after the edge member ``U.3`` and before the
#: interior ``U.4``, so the band's segments cannot run in lockstep
EDGED = """
transform Edged
from A[n]
through U<0..k>[n], E[k + 1]
to B[n]
{
  to (U.cell(0, i) u) from (A.cell(i) a) { u = a; }
  to (E.cell(t) e) from (U.cell(t, 0) u) { e = u * 0.5; }
  to (U.cell(t, i) u)
  from (U.cell(t-1, i-1) l, U.cell(t-1, i) m, U.cell(t-1, i+1) r, E.cell(t-1) e)
  {
    u = (l + 2 * m + r) / 4 + e;
  }
  secondary to (U.cell(t, i) u) from (U.cell(t-1, i) m) { u = m; }
  to (B.cell(i) b) from (U.cell(k, i) u) { b = u; }
}
"""


def test_pb607_carries_a_witness_that_replays():
    edged = compile_program(EDGED).transform("Edged")
    pb607 = next(
        d for d in check_depend(Replay(edged))
        if d.code == "PB607" and d.region == "U"
    )
    assert pb607.message == (
        "storage of U is not folded: segments U.3, U.4, U.5 share planes "
        "[1, 1 +k) and E.0 runs between them"
    )
    witness = storage_witness(edged, edged.storage_verdicts["U"])
    assert pb607.witness == witness.describe()
    # the edge chain (U.3) laps cell 0 before E.0 reads it
    writer, reader = witness.writer, witness.reader
    assert (writer.segment, reader.segment) == ("U.3", "E.0")
    assert (writer.cell, reader.cell) == ((2, 0), (0, 0))
    assert "with 2 planes kept along axis 0" in witness.note
    assert validate_witness(edged, witness)
    replace = functools.partial(dataclasses.replace, witness)
    wrote = functools.partial(dataclasses.replace, writer)
    read = functools.partial(dataclasses.replace, reader)
    for tampered in (
        replace(writer=wrote(cell=(3, 0))),  # another slot
        replace(writer=wrote(cell=reader.cell)),  # the plane itself
        replace(note=witness.note.replace("2 planes", "3 planes")),
        replace(note=witness.note.replace("axis 0", "axis 1")),
        replace(reader=read(cell=(0, 1))),  # a column E.0 does not read
        replace(writer=wrote(segment="E.0"), reader=read(segment="U.3")),  # later
        replace(reader=read(instance=tuple((v, x + 5) for v, x in reader.instance))),
        replace(writer=wrote(rule="rule2")),
        replace(matrix="B"),
        replace(code="PB602"),
        # sizes the engine refuses: a size left unbound, or negative
        replace(sizes=witness.sizes[1:]),
        replace(sizes=tuple((v, -1) for v, _ in witness.sizes)),
    ):
        assert not validate_witness(edged, tampered), tampered


def test_a_refusal_without_an_overwrite_has_no_witness():
    """PB607 states what the engine does, so it is true without one;
    Pipeline's ``T`` is written in one parallel sweep — nothing is ever
    overwritten, there is just no plane to recycle."""
    report = check_source(PIPELINE)
    pb607 = next(d for d in report if d.code == "PB607")
    assert "not folded" in pb607.message and not pb607.witness
    assert report.exit_code(strict=True) == 0
    assert {d.code for d in check_source(BLUR)}.isdisjoint({"PB606", "PB607"})


# -- errors and generated source --------------------------------------------


def out_of_range_errors(transform):
    """The IndexError each path raises one plane before 0 (a read) and
    one past the declared extent (the write), driven below the schedule
    walk, which never produces such an instance."""
    rule = transform.ir.rules[1]  # the chain rule of MatMulChain
    site = transform.site(transform.grid.segments["S"][1], rule)
    env = {"n": 4, "m": 3, "p": 5}
    planes = transform.plan(None, [(4, 5), (5, 3)]).allocations[1][1][0]
    arrays = {
        "S": np.zeros((planes, 4, 3)), "A": np.zeros((4, 5)),
        "B": np.zeros((5, 3)),
    }
    assert site.kernel.params == ("k", "i", "j")
    box = {"k": (1, 6), "i": (1, 2), "j": (1, 2)}
    block = site.kernel.maker(env, {}, arrays, None, None, box)
    vector = site.vector[0]
    step = vector.maker(env, {}, {k: v[None] for k, v in arrays.items()})
    views = {k: Matrix.from_array(v).whole() for k, v in arrays.items()}
    state = leaves.EngineState(ChoiceConfig(), (), TaskRecorder())
    errors = []
    for k in (0, 6):
        for call in (
            lambda: block(k, [(1, 1)]),
            lambda: step(k, 0, 4, 0, 3),
            lambda: leaves._apply_once(
                state, transform, rule, {**env, "k": k, "i": 1, "j": 1}, views, {}
            ),
        ):
            with pytest.raises(IndexError) as excinfo:
                call()
            errors.append(str(excinfo.value))
    return errors


def test_out_of_range_errors_read_the_same_folded_and_unfolded():
    folded, baseline = compiled_pair(chain_source(), "MatMulChain")
    errors = out_of_range_errors(folded)
    assert errors == out_of_range_errors(baseline)
    assert errors == [
        "MatMulChain.rule1: cell binding prev outside view",
        "MatMulChain.rule1: binding prev outside view",
        "cell(-1, 1, 1) outside view of shape (6, 4, 3)",
        "MatMulChain.rule1: cell binding s outside view",
        "MatMulChain.rule1: binding s outside view",
        "cell(6, 1, 1) outside view of shape (6, 4, 3)",
    ]


#: sha256 over every site's vector and closure kernel source.  First
#: captured on the commit before storage folding — nothing that does not
#: fold pays a ``%`` (or anything else) — and re-captured, ``%``-free,
#: when the closure kernel became a block loop (which also stopped
#: emitting ``1 *`` in affine indices, the vector step's included).
PINNED_KERNELS = {
    "Blur": "bfbf6ba66338a0d84ce3e434cfa4662022e2b6d34529d5254febac171cbf1f45",
    "RollingSum": "b9475dbd6176b0c0eb98ac9ebd54d20a0a8ff57e47ab53f283d049773456c4c0",
    "Pipeline": "c228b6f2741b9da2ecc1ab23fe19c30ecf3e9a100039dd7aa3a6e401921f35b3",
}


def kernel_digest(transform):
    digest = hashlib.sha256()
    for site in transform.sites.values():
        plan, kernel = site.vector[0], site.kernel
        digest.update((plan.source if plan else "-").encode())
        digest.update((kernel.source if kernel else "-").encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "source, name",
    [(BLUR, "Blur"), (ROLLINGSUM, "RollingSum"), (PIPELINE, "Pipeline")],
)
def test_unfolded_programs_generate_the_parents_source(source, name):
    transform = compile_program(source).transform(name)
    assert transform._storage_folds == {}
    assert kernel_digest(transform) == PINNED_KERNELS[name]
    for site in transform.sites.values():
        assert "%" not in site.kernel.source


def cell_loop(kernel):
    """The closure's per-cell loop: everything after its ``for``."""
    return kernel.source.split(" in _instances:", 1)[1]


def test_a_folded_index_is_emitted_only_on_the_folded_axis():
    folded, baseline = compiled_pair(MATMUL_MOMENTUM, "MatMulMomentum")
    site = folded.site(folded.grid.segments["S"][2], folded.ir.rules[2])
    assert site.kernel.params == ("k", "i", "j")
    for source in (site.vector[0].source, site.kernel.source):
        assert source.count("% 3") == 3  # s, r1, r2 — axis 0 only
    assert "%" not in cell_loop(site.kernel)  # once per block, not per cell
    site = baseline.sites[site.segment.key, site.rule.rule_id]
    assert site.kernel.params == ("k", "i", "j")
    for source in (site.vector[0].source, site.kernel.source):
        assert "%" not in source


def test_heat_takes_the_slot_on_axis_0_only():
    """Every ``%`` of folded Heat's kernels is a plane's slot: the vector
    step's first ``U`` subscript, the closure block's ``_q`` names —
    computed ahead of the cell loop, one per distinct plane (``heat41``
    would otherwise pay four per cell) and read as the first ``U``
    subscript only."""
    heat, _ = compiled_pair(HEAT, "Heat")
    for site in heat.sites.values():
        vector, kernel = site.vector[0].source, site.kernel.source
        assert vector.count("%") == len(
            re.findall(r"_m_U\[_ALL, _x_\w+_0 % 2, ", vector)
        )
        slots = re.findall(r"^ +(_q\d+) = .+ % 2$", kernel, re.M)
        assert slots and kernel.count("%") == len(slots)
        assert "%" not in cell_loop(site.kernel)
        for name in slots:
            uses = re.findall(rf"[\w.]+[\[(]{name}\b", kernel)
            assert uses and set(uses) <= {f"_m_U[{name}", f"_m_U.item({name}"}
    interior = heat.sites["U.4", 1].kernel.source
    assert re.findall(r"(_q\d+) = (.+) % 2", interior) == [
        ("_q0", "(_s_t)"), ("_q1", "(-1 + _s_t)"),
    ]


def test_the_planning_path_never_enumerates_dependences(monkeypatch):
    """``rule_dependences`` costs 0.8-0.9 ms on these programs; the
    storage verdict decides from the segment boxes and the regions."""
    monkeypatch.setattr(
        depend, "rule_dependences",
        lambda ir: pytest.fail("rule_dependences on the planning path"),
    )
    for source, name, shapes in (
        (MATMUL_MOMENTUM, "MatMulMomentum", [(4, 2), (2, 3)]),
        (PIPELINE, "Pipeline", [(4, 3)]),
    ):
        compile_program(source).transform(name).plan(None, shapes)
    heat = compile_program(HEAT).transform("Heat")
    heat.plan(None, [(9,)], {"k": 2})
    assert set(heat.storage_verdicts) == {"U"}
    blur = compile_program(BLUR).transform("Blur")
    blur.plan(None, [(6, 6)])
    assert blur.storage_verdicts == {}  # no through matrix, no verdict
