"""Every execution of a program observes the same as the interpreter.

The oracle is :func:`repro.autotuner.consistency.observe`: output bytes,
sentinel write sets, rule applications, the recorded task graph, the
error and the ``exec.`` counters.  Each case of the one generator
(``tests/strategies.py``, checked by its ``check_case``; the
``test_*_diff.py`` modules check named slices of the same kinds) runs
under every leaf path × its knob axis
(fusion, tiles and interchange, task blocking) × a built and a replayed
plan, serially and through the batch engine, against leaf 0 — the
interpreter — at the same knobs and at none:

* outputs and write sets bit-identical, and errors identical — only the
  ones the case expects, so never an ``IndexError`` from a program
  ``compile_program`` accepted;
* the closure (and a vector leaf that demotes to it) records the
  interpreter's graph, rule applications and abort point;
* a replayed plan observes everything the built one did, counters too;
* a batch lane observes what its serial run does, one failing lane
  never poisoning its bucket.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotuner.consistency import RAND_SEED, observe, observe_batch
from repro.compiler import compile_program
from repro.language.interp import BUILTINS, seed_rand
from tests.strategies import (
    BLOCKED,
    KINDS,
    LEAVES,
    check_case,
    config_for,
    divide_source,
    masked,
    programs,
)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_configuration_agrees_with_the_interpreter(kind, data):
    check_case(data.draw(programs(kind), label="case"))


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
    transform = compile_program(NOISE).transform("Noise")
    seen = [
        observe(
            transform, {"A": np.arange(10.0)},
            config_for("Noise", leaf, BLOCKED, {"Noise.B.0": 1}),
        )
        for leaf in LEAVES
    ]
    assert masked(seen[1], "counters") == masked(seen[0], "counters")
    assert (seen[2].outputs, seen[2].writes) == (seen[0].outputs, seen[0].writes)
    assert (seen[1].rule_applications, seen[1].error) == (10, None)
    assert [label for label, *_ in seen[1].graph if label.startswith("rule0[")] == [
        "rule0[0]", "rule0[3]", "rule0[6]", "rule0[9]"
    ]
    seed_rand(RAND_SEED)
    draws = [BUILTINS["rand"]() for _ in range(10)]
    expected = [i - draws[i] * 2 if i % 3 == 1 else i + draws[i] for i in range(10)]
    assert seen[1].outputs["B"] == np.array(expected).tobytes()


def test_malformed_request_is_isolated():
    """A request with a missing input buckets alone, reports the serial
    engine's exact error, and leaves its well-formed neighbours stacked."""
    transform = compile_program(divide_source("b = a / d;")).transform("Divide")
    rng = np.random.default_rng(3)
    good = {"A": rng.uniform(-1, 1, 4), "D": rng.uniform(1, 2, 4)}
    bad = {"A": good["A"]}  # missing D
    first, failed, last = observe_batch(
        transform, [(good, None), (bad, None), (good, None)]
    )
    assert first.counters == last.counters == {"batch.stacked": 1}
    serial = masked(observe(transform, good, None), "rule_applications", "graph")
    assert masked(first, "counters") == masked(last, "counters") == masked(serial, "counters")
    assert failed.error is not None
    assert failed.error == observe(transform, bad, None).error
