"""Unit tests for the legality-gated schedule rewrites (tiling and
interchange).

Covers the PB604/PB605 analyzer verdicts with their replay-validated
witnesses, the `repro.rewrite.tile` tiling and interchange
annotation rewrites (including fuse-then-tile composition), the
engine's cache-blocked vector execution behind the `__tile_i__` /
`__tile_j__` / `__interchange__` tunables, the genetic tuner gating on
the tile knobs' `live` column, the LRU-bounded geometry caches, and the
CLI surface.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.depend import (
    check_depend,
    schedule_candidates,
    validate_witness,
)
from repro.analysis.witness import Replay
from repro.cli import main
from repro.compiler import ChoiceConfig, compile_program
from repro.compiler.config import INTERCHANGE, TILE_I, TILE_J
from repro.engine_fast import LRUCache
from repro.observe import TraceSink
from repro.rewrite import (
    RewriteError,
    apply_schedule,
    fuse_transform,
    schedule_transform,
    transform_src,
)
from tests.strategies import HEAT, MATMUL_CHAIN

# A fusible elementwise producer feeding a chain consumer: fusion
# eliminates T, and the fused rule still has chain q over free (i, j) —
# the fuse-then-tile composition case.
FUSE_TILE = """
transform FuseTile
from A[n, m]
through T[n, m], S[q_end + 1, n, m]
to B[n, m]
{
  to (T.cell(i, j) t) from (A.cell(i, j) a) { t = a * 2.0 + 1.0; }
  to (S.cell(0, i, j) s) from () { s = 0.0; }
  to (S.cell(q, i, j) s)
  from (S.cell(q - 1, i, j) prev, T.cell(i, j) t)
  {
    s = prev * 0.5 + t;
  }
  to (B.cell(i, j) b) from (S.cell(q_end, i, j) s) { b = s; }
}
"""

PIPE = """
transform Pipe
from A[n, m]
through T[n, m]
to B[n, m]
{
  to (T.cell(x, y) t) from (A.cell(x, y) a) { t = a * 2.0 + 1.0; }
  to (B.cell(x, y) b) from (T.cell(x, y) t) { b = t * 1.5 - 0.5; }
}
"""


def compiled(source, name):
    return compile_program(source).transform(name)


def run_bytes(transform, inputs, config=None, sizes=None, sink=None):
    result = transform.run(
        {k: v.copy() for k, v in inputs.items()}, config, sizes=sizes,
        sink=sink,
    )
    return {
        name: matrix.data.tobytes() for name, matrix in result.outputs.items()
    }


def config_with(transform, **tunables):
    config = ChoiceConfig()
    for name, value in tunables.items():
        config.set_tunable(f"{transform}.{name}", value)
    return config


def mm_inputs(seed=0, n=6, p=5, m=7):
    rng = np.random.default_rng(seed)
    return {
        "A": rng.uniform(-2.0, 2.0, (n, p)),
        "B": rng.uniform(-2.0, 2.0, (p, m)),
    }


# -- analyzer verdicts (PB604 golden / PB605 blocked) ----------------------


class TestScheduleCandidates:
    def test_matmul_chain_is_legal(self):
        mm = compiled(MATMUL_CHAIN, "MatMulChain")
        cands = schedule_candidates(mm)
        assert [c.status for c in cands] == ["legal"]
        cand = cands[0]
        assert cand.segment == "S.1"
        assert cand.chain_vars == ("k",)
        assert cand.free_vars == ("i", "j")
        assert cand.witness is None

    def test_heat_interior_is_blocked_with_witness(self):
        heat = compiled(HEAT, "Heat")
        blocked = [
            c for c in schedule_candidates(heat) if c.status == "blocked"
        ]
        assert len(blocked) == 1
        cand = blocked[0]
        assert "crosses tiles against the blocked order" in cand.reason
        assert cand.witness is not None
        assert validate_witness(heat, cand.witness)
        # The boundary carry-forward rules only read their own column
        # (zero free offset): legal despite sharing the segment matrix.
        assert any(c.status == "legal" for c in schedule_candidates(heat))

    def test_witness_replay_rejects_tampering(self):
        heat = compiled(HEAT, "Heat")
        witness = next(
            c.witness
            for c in schedule_candidates(heat)
            if c.status == "blocked"
        )
        replace = dataclasses.replace
        writer, reader = witness.writer, witness.reader
        far = tuple(coord + 50 for coord in reader.cell)
        for tampered in (
            # A cell outside the writer's region fails containment.
            replace(
                witness,
                writer=replace(writer, cell=far),
                reader=replace(reader, cell=far),
            ),
            # Writer and reader must be distinct instances.
            replace(witness, reader=writer),
            # The rule id must exist.
            replace(witness, writer=replace(writer, rule_id=99)),
            # A real flow of the rule (i=1 feeds i=2's left read one step
            # later) that the blocked order runs in its own order.
            replace(
                witness,
                sizes=(("k", 2), ("n", 4)),
                writer=replace(writer, instance=(("i", 1), ("t", 1)), cell=(1, 1)),
                reader=replace(reader, instance=(("i", 2), ("t", 2)), cell=(1, 1)),
            ),
            # Sizes the engine refuses: a size left unbound, or one below
            # the minimum the assumptions and the grid's guards admit.
            replace(witness, sizes=witness.sizes[1:]),
            replace(witness, sizes=tuple((v, 0) for v, _ in witness.sizes)),
        ):
            assert not validate_witness(heat, tampered), tampered

    def test_check_depend_emits_pb604_and_pb605(self):
        mm_codes = [d.code for d in check_depend(Replay(compiled(MATMUL_CHAIN, "MatMulChain")))]
        assert "PB604" in mm_codes and "PB605" not in mm_codes
        heat_diags = check_depend(Replay(compiled(HEAT, "Heat")))
        heat_codes = [d.code for d in heat_diags]
        assert "PB604" in heat_codes and "PB605" in heat_codes
        pb605 = next(d for d in heat_diags if d.code == "PB605")
        assert pb605.witness  # witness rule: never emitted unproven

    def test_elementwise_pipeline_has_no_candidates(self):
        # No sequential chain anywhere: nothing to tile against.
        assert schedule_candidates(compiled(PIPE, "Pipe")) == []


def _dsl_sources():
    """Every DSL program in the repo: module-level string constants of
    ``examples/`` and ``src/repro/apps/`` that hold transform source
    (read with ``ast``, so nothing is imported), plus this file's own
    fixtures."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    sources = {
        "MATMUL_CHAIN": MATMUL_CHAIN,
        "HEAT": HEAT,
        "FUSE_TILE": FUSE_TILE,
        "PIPE": PIPE,
    }
    for folder in ("examples", "src/repro/apps"):
        for path in sorted((root / folder).glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                    and "transform " in node.value.value
                    and "{" in node.value.value
                ):
                    name = f"{path.name}:{node.targets[0].id}"
                    sources[name] = node.value.value
    return sources


class TestOneVerdict:
    """The engine's cached PB604 verdict and the analyzer's candidate
    list are two views of one decision."""

    APPS = ["eigen", "matmul", "poisson", "rollingsum", "sort"]

    @pytest.mark.parametrize(
        "name", sorted(_dsl_sources()) + [f"apps.{app}" for app in APPS]
    )
    def test_engine_verdict_matches_candidates(self, name):
        if name.startswith("apps."):  # builder-made (native-body) programs
            import importlib

            program = importlib.import_module(f"repro.{name}").build_program()
        else:
            program = compile_program(_dsl_sources()[name])
        for transform in program.transforms.values():
            legal = {
                (cand.segment, cand.rule_id)
                for cand in schedule_candidates(transform)
                if cand.status == "legal"
            }
            for segment in transform.grid.all_segments():
                for option in segment.options:
                    rule = transform.ir.rules[option.primary]
                    verdict = transform.site(segment, rule).schedule
                    assert verdict.legal == (
                        (segment.key, rule.rule_id) in legal
                    ), (transform.name, segment.key, rule.label)

    def test_sources_were_found(self):
        names = set(_dsl_sources())
        assert any(n.startswith("heat_diffusion.py:") for n in names)
        assert any(n.startswith("rollingsum.py:") for n in names)


# -- the tile / interchange rewrites ---------------------------------------


class TestScheduleRewrites:
    def test_schedule_transform_tiles_and_round_trips(self):
        mm = compiled(MATMUL_CHAIN, "MatMulChain")
        tiled, applied = schedule_transform(mm, tile=4)
        assert [c.segment for c in applied] == ["S.1"]
        source = transform_src(tiled.ir)
        assert "tile(i: 4, j: 4)" in source
        reparsed = compile_program(source).transform("MatMulChain")
        inputs = mm_inputs(1)
        assert run_bytes(reparsed, inputs) == run_bytes(mm, inputs)

    def test_interchange_merges_with_tiling(self):
        mm = compiled(MATMUL_CHAIN, "MatMulChain")
        tiled, _ = schedule_transform(mm, tile={"j": 3})
        both, applied = schedule_transform(tiled, interchange=True)
        assert applied
        rule = next(r for r in both.ir.rules if r.schedule is not None)
        assert rule.schedule.tile == (("j", 3),)  # tile survived the merge
        assert rule.schedule.interchange
        source = transform_src(both.ir)
        assert "tile(j: 3) interchange" in source
        inputs = mm_inputs(2)
        assert run_bytes(
            compile_program(source).transform("MatMulChain"), inputs
        ) == run_bytes(mm, inputs)

    def test_blocked_candidate_is_refused(self):
        heat = compiled(HEAT, "Heat")
        blocked = next(
            c for c in schedule_candidates(heat) if c.status == "blocked"
        )
        with pytest.raises(RewriteError, match="blocked, not legal"):
            apply_schedule(heat.ir, blocked, tile=32)
        with pytest.raises(RewriteError, match="blocked, not legal"):
            apply_schedule(heat.ir, blocked, interchange=True)

    def test_bad_tile_sizes_are_refused(self):
        mm = compiled(MATMUL_CHAIN, "MatMulChain")
        legal = schedule_candidates(mm)[0]
        with pytest.raises(RewriteError, match=">= 1"):
            apply_schedule(mm.ir, legal, tile=0)
        with pytest.raises(RewriteError, match="no tile sizes"):
            apply_schedule(mm.ir, legal, tile={"zz": 4})

    def test_fuse_then_tile_composes(self):
        ft = compiled(FUSE_TILE, "FuseTile")
        fused, fusions = fuse_transform(ft)
        assert fusions  # T was eliminated
        tiled, schedules = schedule_transform(fused, tile=2)
        assert schedules and schedules[0].chain_vars == ("q",)
        fused_rule = next(
            r for r in tiled.ir.rules if r.schedule is not None
        )
        assert "+" in fused_rule.label  # tiling landed on the *fused* rule
        rng = np.random.default_rng(3)
        inputs = {"A": rng.uniform(-1.0, 1.0, (5, 6))}
        config = config_with("FuseTile", __leaf_path__=2)
        assert run_bytes(
            tiled, inputs, config, sizes={"q_end": 4}
        ) == run_bytes(ft, inputs, sizes={"q_end": 4})


# -- engine execution behind the tunables ----------------------------------


class TestEngineTiling:
    @pytest.mark.parametrize("leaf", [0, 1, 2])
    @pytest.mark.parametrize(
        "knobs",
        [
            {},
            {"__tile_i__": 3},
            {"__tile_i__": 3, "__tile_j__": 4},
            {"__tile_i__": 2, "__tile_j__": 2, "__interchange__": 1},
        ],
    )
    def test_bit_identity_across_paths_and_tiles(self, leaf, knobs):
        mm = compiled(MATMUL_CHAIN, "MatMulChain")
        inputs = mm_inputs(4)
        reference = run_bytes(mm, inputs)
        config = config_with("MatMulChain", __leaf_path__=leaf, **knobs)
        assert run_bytes(mm, inputs, config) == reference

    # Captured at the parent commit of the one-driver refactor (same
    # inputs as test_tiled_blocks_counter): the merged vector driver
    # must record the same graph — labels, dependency edges, spawn tree
    # and per-task work to the float bit (every value below is exactly
    # representable) — and the same counters.  6x7 cells in 3x4 tiles
    # are two 12-cell and two 9-cell tiles per chain step.
    _SEGMENTS = ["MatMulChain", "MatMulChain.S.0", "rule0[vec]", "MatMulChain.S.1"]
    _TAIL = ["MatMulChain.C.0", "rule2[vec]"]
    GOLDEN = {
        "untiled": dict(
            knobs={},
            labels=_SEGMENTS + ["rule1[vec]"] * 4 + _TAIL,
            deps=[(), (), (), (1,), (), (4,), (5,), (6,), (3,), ()],
            parents=[None, 0, 1, 0, 3, 3, 3, 3, 0, 8],
            work=[0.0, 0.0, 34.625, 0.0] + [39.875] * 4 + [0.0, 34.625],
            counters=(6, 252, 0),
        ),
        "tiled": dict(
            knobs={"__tile_i__": 3, "__tile_j__": 4},
            labels=_SEGMENTS + ["rule1[vec:tiled]"] * 16 + _TAIL,
            deps=[(), (), (), (1,), ()]
            + [(tid,) for tid in range(4, 19)]
            + [(3,), ()],
            parents=[None, 0, 1, 0] + [3] * 16 + [0, 20],
            # chain outermost: the four tiles alternate within each step
            work=[0.0, 0.0, 34.625, 0.0] + [34.25, 33.6875] * 8 + [0.0, 34.625],
            counters=(18, 252, 16),
        ),
        "tiled+interchange": dict(
            knobs={"__tile_i__": 3, "__tile_j__": 4, "__interchange__": 1},
            labels=_SEGMENTS + ["rule1[vec:tiled]"] * 16 + _TAIL,
            deps=[(), (), (), (1,), ()]
            + [(tid,) for tid in range(4, 19)]
            + [(3,), ()],
            parents=[None, 0, 1, 0] + [3] * 16 + [0, 20],
            # tiles outermost: each tile runs its whole 4-step chain
            work=[0.0, 0.0, 34.625, 0.0]
            + ([34.25] * 4 + [33.6875] * 4) * 2
            + [0.0, 34.625],
            counters=(18, 252, 16),
        ),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_vector_driver_golden_task_graph(self, case):
        golden = self.GOLDEN[case]
        mm = compiled(MATMUL_CHAIN, "MatMulChain")
        config = config_with("MatMulChain", __leaf_path__=2, **golden["knobs"])
        sink = TraceSink()
        result = mm.run(mm_inputs(5, n=6, p=4, m=7), config, sink=sink)
        tasks = result.graph.tasks
        assert [t.label for t in tasks] == golden["labels"]
        assert [t.deps for t in tasks] == golden["deps"]
        assert [t.parent for t in tasks] == golden["parents"]
        assert [t.work for t in tasks] == golden["work"]
        assert result.rule_applications == 252
        assert (
            sink.counter("exec.vectorized_blocks"),
            sink.counter("exec.vectorized_cells"),
            sink.counter("exec.tiled_blocks"),
        ) == golden["counters"]

    def test_tiled_blocks_counter(self):
        mm = compiled(MATMUL_CHAIN, "MatMulChain")
        inputs = mm_inputs(5, n=6, p=4, m=7)
        config = config_with(
            "MatMulChain", __leaf_path__=2, __tile_i__=3, __tile_j__=4
        )
        sink = TraceSink()
        run_bytes(mm, inputs, config, sink=sink)
        # ceil(6/3) * ceil(7/4) = 4 tiles per step, 4 chain steps.
        assert sink.counter("exec.tiled_blocks") == 16

    def test_tile_knob_is_noop_on_blocked_site(self):
        heat = compiled(HEAT, "Heat")
        rng = np.random.default_rng(6)
        inputs = {"A": rng.uniform(-1.0, 1.0, 12)}
        reference = run_bytes(heat, inputs, sizes={"k": 3})
        config = config_with(
            "Heat", __leaf_path__=2, __tile_i__=4, __interchange__=1
        )
        sink = TraceSink()
        assert run_bytes(heat, inputs, config, sizes={"k": 3}, sink=sink) == (
            reference
        )
        # The interior wavefront rule is PB605-blocked and the boundary
        # rules are chain-only in this segment layout: nothing tiles.
        assert sink.counter("exec.tiled_blocks") == 0

    def test_oversized_tile_degrades_to_untiled(self):
        mm = compiled(MATMUL_CHAIN, "MatMulChain")
        inputs = mm_inputs(7)
        config = config_with(
            "MatMulChain", __leaf_path__=2, __tile_i__=1000, __tile_j__=1000
        )
        sink = TraceSink()
        reference = run_bytes(mm, inputs)
        assert run_bytes(mm, inputs, config, sink=sink) == reference
        assert sink.counter("exec.tiled_blocks") == 0


# -- config knobs ----------------------------------------------------------


class TestConfigKnobs:
    def test_tile_size_and_interchange_round_trip(self):
        config = ChoiceConfig()
        config.set_tunable("T.__tile_i__", 32)
        config.set_tunable("T.__tile_j__", -5)
        config.set_tunable("T.__interchange__", 3)
        assert config.knob("T", TILE_I) == 32
        assert config.knob("T", TILE_J) == 0  # negatives clamp to off
        assert config.knob("T", TILE_I, default=8) == 32
        assert config.knob("U", TILE_I, default=8) == 8
        assert config.knob("T", INTERCHANGE) == 1
        assert config.knob("U", INTERCHANGE) == 0
        reloaded = ChoiceConfig.from_json(config.to_json())
        assert reloaded.knob("T", TILE_I) == 32


# -- tuner gating ----------------------------------------------------------


class TestTunerIntegration:
    def _tune(self, source, name, make_inputs):
        from repro.autotuner import Evaluator, GeneticTuner
        from repro.runtime import MACHINES

        program = compile_program(source)
        evaluator = Evaluator(program, name, make_inputs, MACHINES["xeon8"])
        tuner = GeneticTuner(
            evaluator,
            min_size=4,
            max_size=8,
            population_size=4,
            tunable_rounds=1,
            refine_passes=0,
        )
        return tuner.tune()

    def test_tile_knobs_searched_when_tiling_exists(self):
        def make_inputs(size, rng):
            np_rng = np.random.default_rng(rng.getrandbits(32))
            return [
                np_rng.random((size, max(2, size // 2))),
                np_rng.random((max(2, size // 2), size)),
            ]

        result = self._tune(MATMUL_CHAIN, "MatMulChain", make_inputs)
        assert "MatMulChain.__tile_i__" in result.config.tunables
        assert "MatMulChain.__tile_j__" in result.config.tunables
        assert "MatMulChain.__interchange__" in result.config.tunables

    def test_tile_knobs_absent_without_legal_tiling(self):
        def make_inputs(size, rng):
            np_rng = np.random.default_rng(rng.getrandbits(32))
            return [np_rng.random((size, size))]

        result = self._tune(PIPE, "Pipe", make_inputs)
        assert "Pipe.__tile_i__" not in result.config.tunables
        assert "Pipe.__interchange__" not in result.config.tunables


# -- LRU-bounded geometry caches -------------------------------------------


class TestLRUCache:
    def test_eviction_order_and_counter(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.get("a") == 1  # refresh: 'b' is now stalest
        cache["c"] = 3
        assert cache.evictions == 1
        assert "b" not in cache and "a" in cache and "c" in cache
        assert len(cache) == 2

    def test_overwrite_refreshes_without_evicting(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        cache["a"] = 10
        cache["c"] = 3
        assert cache.evictions == 1
        assert "a" in cache and "b" not in cache

    def test_falsy_values_are_real_entries(self):
        cache = LRUCache(2)
        cache["empty"] = {}
        assert cache.get("empty", "missing") == {}
        assert cache.get("absent", "missing") == "missing"

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_concurrent_lookups_survive_concurrent_evictions(self):
        """The serve daemon's handler threads share these caches with no
        lock around ``get``: an eviction landing between its read and
        its recency refresh must not raise (it did: ``KeyError`` out of
        ``move_to_end``), and ``evictions`` must count exactly the
        entries that left."""
        import sys
        import threading

        cache = LRUCache(1)
        inserts, threads = 20000, 4
        latest = [None]  # the key most likely to be present right now
        errors = []
        start = threading.Barrier(threads)

        def hammer(worker):
            try:
                start.wait(timeout=30)
                for step in range(inserts):
                    key = (worker, step)
                    cache[key] = key
                    latest[0] = key
                    for _ in range(3):
                        probe = latest[0]
                        value = cache.get(probe)
                        assert value is None or value == probe
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=hammer, args=(worker,))
                for worker in range(threads)
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert errors == []
        assert len(cache) == 1
        assert cache.evictions == threads * inserts - 1

    def test_geom_cache_eviction_counter_flows_to_sink(self):
        mm = compiled(MATMUL_CHAIN, "MatMulChain")
        mm._geom_cache = LRUCache(1)  # force churn across segments
        sink = TraceSink()
        run_bytes(
            mm, mm_inputs(8), config_with("MatMulChain", __leaf_path__=1),
            sink=sink,
        )
        assert sink.counter("exec.geom_cache_misses") > 1
        assert sink.counter("exec.geom_cache_evictions") > 0


# -- CLI surface -----------------------------------------------------------


def _e2e_programs():
    """``benchmarks/e2e/programs.py``'s DSL programs (``name -> (source,
    transform)``), imported the way ``repro check`` imports a module."""
    import pathlib

    from repro.analysis.check import import_file

    root = pathlib.Path(__file__).resolve().parent.parent
    module, failure = import_file(str(root / "benchmarks/e2e/programs.py"))
    assert failure is None, failure
    return module.DSL


class TestCli:
    @pytest.fixture()
    def mm_source(self, tmp_path):
        path = tmp_path / "mmchain.pbcc"
        path.write_text(MATMUL_CHAIN)
        return str(path)

    def test_list_shows_schedule_verdicts(self, mm_source, capsys):
        assert main(["rewrite", mm_source]) == 0
        out = capsys.readouterr().out
        assert "schedule S.1/rule1 legal" in out

    def test_apply_tile_interchange_emits_annotated_source(
        self, mm_source, capsys
    ):
        assert main(
            ["rewrite", mm_source, "--apply", "--tile", "8", "--interchange"]
        ) == 0
        out = capsys.readouterr().out
        assert "tile(i: 8, j: 8) interchange" in out

    @pytest.mark.parametrize("name", sorted(_e2e_programs()))
    def test_apply_keeps_e2e_programs_byte_identical(
        self, name, tmp_path, capsys
    ):
        source, transform = _e2e_programs()[name]
        path = tmp_path / f"{name}.pbcc"
        path.write_text(source)
        out = tmp_path / "rewritten.pbcc"
        assert main(
            ["rewrite", str(path), "--apply", "--tile", "4", "--interchange",
             "-o", str(out)]
        ) == 0
        err = capsys.readouterr().err
        if name in ("heat", "matmul_momentum", "pipeline"):
            assert err == f"rewrite: rewrote {transform} (re-verified clean)\n"
        else:
            assert err == "rewrite: no legal rewrites to apply\n"
        original = compiled(source, transform)
        rewritten = compiled(out.read_text(), transform)  # analysis on
        sizes = {var: 6 for var in original.ir.size_vars}
        rng = np.random.default_rng(4)
        inputs = {
            mat.name: rng.uniform(
                -1.0, 1.0, tuple(dim.eval_floor(sizes) for dim in mat.dims)
            )
            for mat in original.ir.inputs
        }
        for leaf in (0, 1, 2):
            config = config_with(transform, __leaf_path__=leaf)
            assert run_bytes(rewritten, inputs, config, sizes) == run_bytes(
                original, inputs, config, sizes
            ), leaf

    def test_json_includes_schedule_candidates(self, mm_source, capsys):
        import json

        assert main(["rewrite", mm_source, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (pb604,) = [
            d for d in payload["diagnostics"] if d["code"] == "PB604"
        ]
        assert "over S.1 is legal" in pb604["message"]
        assert "chain (k)" in pb604["message"]
        assert payload["rewritten"] == []

    def test_apply_on_native_bodies_exits_2_with_diagnostic(self, capsys):
        # The bundled matmul app builds its rules natively (no DSL
        # source form), so --apply must refuse with a structured
        # diagnostic, not a traceback.
        import repro.apps.matmul as matmul_app

        code = main(["rewrite", matmul_app.__file__, "--apply"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error[PB001]" in err
        assert "native body" in err

    def test_unloadable_python_module_exits_2(self, tmp_path, capsys):
        module = tmp_path / "broken.py"
        module.write_text("raise RuntimeError('boom')\n")
        assert main(["rewrite", str(module)]) == 2
        assert "error[PB001]" in capsys.readouterr().err
