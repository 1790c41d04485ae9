"""The reserved-tunable table, :data:`repro.compiler.config.KNOBS`.

Declared against read, like the diagnostics' ``CODE_TABLE`` check: every
row is read by the engine or the tuner, every reserved name the engine
reads is a row, the ``live`` column answers per program which knobs can
change a run, and the tuner's search space is pinned — a changed range
changes every tuned config.  Then the accessor's clamps and the
loader's refusal of size levels on knobs the engine reads flat.
"""

import json

import numpy as np
import pytest

from repro.autotuner.tuner import search_space
from repro.compiler import ChoiceConfig, Selector, compile_program
from repro.compiler.config import (
    FUSE,
    INTERCHANGE,
    KNOBS,
    LEAF_PATH,
    TILE_I,
    TILE_J,
    VECTORIZE_CUTOFF,
)
from tests.strategies import MATMUL_CHAIN, PIPE, ROLLING

TUNABLE = """
transform Tun
from A[n]
to B[n]
tunable reps(1, 64)
{
  to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
"""

#: name -> (source, inputs, fuse live?, tile knobs live?)
PROGRAMS = {
    "Pipe": (PIPE, lambda rng: [rng.uniform(-1, 1, (6, 4))], True, False),
    "MatMulChain": (
        MATMUL_CHAIN,
        lambda rng: [rng.uniform(-1, 1, (6, 3)), rng.uniform(-1, 1, (3, 5))],
        False,
        True,
    ),
    "Rolling": (ROLLING, lambda rng: [rng.uniform(-1, 1, 8)], False, False),
}

ENGINE_KNOBS = (
    {},
    {"__leaf_path__": 2},
    {"__leaf_path__": 2, "__fuse__": 1, "__tile_i__": 2, "__tile_j__": 2},
)


def compiled(name):
    return compile_program(PROGRAMS[name][0]).transform(name)


class Recording(dict):
    """A tunables dict that remembers every key looked up in it."""

    def __init__(self, reads):
        super().__init__()
        self.reads = reads

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)


def engine_reads(name, knobs):
    """The reserved names one run of ``name`` under ``knobs`` reads."""
    reads = set()
    config = ChoiceConfig(tunables=Recording(reads), leveled_tunables=Recording(reads))
    for knob, value in knobs.items():
        config.set_tunable(f"{name}.{knob}", value)
    transform = compiled(name)
    transform.run(PROGRAMS[name][1](np.random.default_rng(3)), config)
    return {
        key.rpartition(".")[2]
        for key in reads
        if key.rpartition(".")[2].startswith("__")
    }


def test_every_row_is_read_and_every_read_reserved_name_is_a_row():
    read = set()
    for name in PROGRAMS:
        for knobs in ENGINE_KNOBS:
            read |= engine_reads(name, knobs)
    assert read <= set(KNOBS), read - set(KNOBS)
    assert read == set(KNOBS)
    searched = {
        key.rpartition(".")[2]
        for name in PROGRAMS
        for key, _, _ in search_space(compiled(name), 64)
    }
    assert searched == set(KNOBS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_live_column(name):
    _, _, fusion, tiling = PROGRAMS[name]
    transform = compiled(name)
    expected = dict.fromkeys(KNOBS, True)
    expected[FUSE.name] = fusion
    for row in (TILE_I, TILE_J, INTERCHANGE):
        expected[row.name] = tiling
    assert {k: row.live(transform) for k, row in KNOBS.items()} == expected


def pinned_space(name, size, fusion, tiling, user=()):
    """The tuner's search space, spelled out row by row."""
    span = max(16, size)
    rows = [
        ("__seq_cutoff__", 8, max(16, size * 4)),
        ("__block_size__", 8, span),
        ("__leaf_path__", 1, 2),
        ("__vectorize_cutoff__", 1, span),
    ]
    if fusion:
        rows.append(("__fuse__", 0, 1))
    if tiling:
        rows += [("__tile_i__", 0, span), ("__tile_j__", 0, span), ("__interchange__", 0, 1)]
    return [(f"{name}.{knob}", lo, hi) for knob, lo, hi in [*rows, *user]]


@pytest.mark.parametrize("size", [1, 4, 8, 16, 32, 100, 4096])
def test_search_space_is_pinned(size):
    for name, (_, _, fusion, tiling) in PROGRAMS.items():
        assert search_space(compiled(name), size) == pinned_space(
            name, size, fusion, tiling
        )
    tun = compile_program(TUNABLE).transform("Tun")
    assert search_space(tun, size) == pinned_space(
        "Tun", size, False, False, [("reps", 1, min(64, size * 4))]
    )


def test_knob_reads_clamp_and_round_trip():
    config = ChoiceConfig()
    config.set_tunable("T.__tile_i__", 32)
    config.set_tunable("T.__tile_j__", -5)
    config.set_tunable("T.__interchange__", 3)
    config.set_tunable("T.__fuse__", 1)
    config.set_tunable("T.__leaf_path__", 7)
    assert config.knob("T", TILE_I) == 32
    assert config.knob("T", TILE_J) == 0  # negatives clamp to off
    assert config.knob("T", TILE_I, default=8) == 32
    assert config.knob("U", TILE_I, default=8) == 8
    assert config.knob("T", INTERCHANGE) == 1
    assert config.knob("U", INTERCHANGE) == 0
    assert config.knob("T", FUSE) == 1 and config.knob("U", FUSE) == 0
    assert config.knob("T", LEAF_PATH) == 2 and config.knob("U", LEAF_PATH) == 1
    reloaded = ChoiceConfig.from_json(config.to_json())
    assert [reloaded.knob("T", k) for k in KNOBS.values()] == [
        config.knob("T", k) for k in KNOBS.values()
    ]


FLAT = [k for k, row in KNOBS.items() if not row.leveled]


def test_only_leaf_path_and_vectorize_cutoff_take_levels():
    assert [k for k, row in KNOBS.items() if row.leveled] == [
        LEAF_PATH.name,
        VECTORIZE_CUTOFF.name,
    ]


@pytest.mark.parametrize("knob", FLAT)
def test_a_leveled_entry_for_a_flat_knob_is_refused(knob):
    """The engine reads these once per run: a leveled entry used to load
    and then be ignored."""
    message = (
        f"reserved tunable 'T.{knob}' cannot be size-leveled (only "
        f"__leaf_path__ and __vectorize_cutoff__ can; set it under \"tunables\")"
    )
    with pytest.raises(ValueError) as excinfo:
        ChoiceConfig.from_dict({"leveled_tunables": {f"T.{knob}": [[None, 4]]}})
    assert str(excinfo.value) == message
    with pytest.raises(ValueError) as excinfo:
        ChoiceConfig().set_leveled_tunable(f"T.{knob}", Selector.static(4))
    assert str(excinfo.value) == message
    # the flat entry, and user tunables of any shape, stay accepted
    ChoiceConfig.from_dict({"tunables": {f"T.{knob}": 4}})
    ChoiceConfig().set_leveled_tunable("T.iters", Selector.static(4))


def test_leveled_leaf_path_and_vectorize_cutoff_load_and_apply():
    config = ChoiceConfig.from_json(
        json.dumps(
            {
                "leveled_tunables": {
                    "T.__leaf_path__": [[64, 0], [None, 2]],
                    "T.__vectorize_cutoff__": [[64, 5], [None, -3]],
                }
            }
        )
    )
    assert config.knob("T", LEAF_PATH, 10) == 0
    assert config.knob("T", LEAF_PATH, 100) == 2
    assert config.knob("T", VECTORIZE_CUTOFF, 10) == 5
    assert config.knob("T", VECTORIZE_CUTOFF, 100) == 1  # clamps to 1


def test_a_misspelt_name_in_a_leveled_entry_names_the_nearest_row():
    with pytest.raises(ValueError, match="nearest valid name: 'T.__leaf_path__'"):
        ChoiceConfig().set_leveled_tunable("T.__leafpath__", Selector.static(1))
