"""The six workloads.

Each workload fixes its programs, configs and per-round op counts here
(so the mix never drifts), draws its inputs from
``numpy.random.default_rng(seed)``, and checks every output against the
hand-written references of ``programs.py``.  One *round* runs the
workload's whole op list once, in an order shuffled by the seed.  A
round is the smallest list that holds the mix (a tenth of a second to
a second), so that the runner's many repeats sample every op at many
moments and on both CPUs.

Why these six — one per way the system is used, each dominated by
different layers so a change to one layer has a workload that exercises
it and one that bypasses it:

``compile_cold``    parse + compiler passes + analysis + lazy lowering do
                    all the work, kernels none.
``kernel_large``    the vector kernels do nearly all the work at sizes
                    beyond the last-level cache; dispatch is negligible.
``dispatch_small``  the same entry point used the opposite way: kernels
                    are microseconds, per-call dispatch dominates.
``serve_run``       HTTP transport, JSON and admission around a nearly
                    free engine call.
``serve_batch``     one large body instead of many small ones; the only
                    workload where the batch layer does real work.
``tune_search``     the paper's core loop: many short runs under many
                    configs plus the scheduler simulation.
"""

import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from statistics import geometric_mean as geomean

import numpy as np

import programs
from layers import trace_native_bodies

from repro.apps import eigen, matmul, poisson, sort
from repro.autotuner import Evaluator, GeneticTuner
from repro.batch import BatchEngine
from repro.batch.stacked import plan_stacked
from repro.compiler import ChoiceConfig, Selector, compile_program
from repro.observe import TraceSink
from repro.runtime import MACHINES
from repro.serve import ANY_BUCKET, ServeApp, ServeClient, ServeDaemon

LEAF_VECTOR = 2


def vector_config(transform, **knobs):
    """Vector-leaf config with reserved ``__knob__`` tunables set."""
    config = ChoiceConfig()
    config.set_tunable(f"{transform}.__leaf_path__", LEAF_VECTOR)
    for knob, value in knobs.items():
        config.set_tunable(f"{transform}.__{knob}__", value)
    return config


def rollingsum_config(rule):
    """RollingSum under one static choice (0 = region sum, 1 = chain)."""
    config = ChoiceConfig()
    config.set_choice("RollingSum.B.1", Selector.static(rule))
    return config


def median_ms(seconds):
    return statistics.median(seconds) * 1e3


class Round:
    """What one round measured.

    ``latencies`` holds each op's seconds per program, in execution
    order; ``slots`` holds the timed calls throughput is counted over as
    ``(seconds, work units)``.  For most workloads they are the same
    calls; ``tune_search`` times each candidate evaluation as an op but
    counts throughput over the whole ``tune()`` call around them (the
    tuner's work between two evaluations is a slot of no units), and a
    ``/batch`` call is one op of 256 units.
    """

    def __init__(self):
        self.latencies = defaultdict(list)
        self.slots = []
        self.attempted = 0
        self.failed = 0
        self.counts = defaultdict(float)  # exact counts taken per op

    def add(self, program, seconds, ok, units=1):
        """One op of ``units`` work items (request lines)."""
        self.latencies[program].append(seconds)
        self.slots.append((seconds, units))
        self.attempted += units
        if not ok:
            self.failed += units


def best_latencies(rounds, program):
    """Seconds of each of a program's ops, per position in the round:
    the fastest that op ran in any of the rounds."""
    return [
        min(rnd.latencies[program][k] for rnd in rounds)
        for k in range(len(rounds[0].latencies[program]))
    ]


def undisturbed(rounds):
    """``(op_p50_ms, ops_per_s)`` of a list of rounds.

    Every round runs the same ops in the same order, so op *k* of round
    1 and op *k* of round 9 are the same work.  On a shared machine the
    slow samples of an op are other tenants' interference, not the
    program (a fixed pure-Python loop here runs at 4.8 or 7.5 ms
    depending on whether the core's other hardware thread is busy), so
    each op's time is taken as its fastest over the rounds — the
    estimator ``timeit`` recommends.  ``op_p50_ms`` is then the
    median over a program's ops, geometric mean across programs;
    ``ops_per_s`` is work units over the summed slot times.
    """
    first = rounds[0]
    op_p50_ms = geomean(
        median_ms(best_latencies(rounds, program))
        for program in first.latencies
    )
    wall = sum(
        min(rnd.slots[j][0] for rnd in rounds)
        for j in range(len(first.slots))
    )
    return op_p50_ms, sum(units for _, units in first.slots) / wall


def undisturbed_parts(rounds, parts=4):
    """:func:`undisturbed` of every ``parts``-th round, ``parts`` times:
    how far the estimate moves when it has a quarter of the samples
    (each part still holds rounds from every CPU and from the whole
    window).  ``compare.py`` judges a run's own spread from these."""
    return [
        undisturbed(rounds[k::parts])
        for k in range(parts)
        if rounds[k::parts]
    ]


class Workload:
    name = ""

    def __init__(self, seed, tracer=None, tiny=False, workdir=None):
        self.seed = abs(seed)  # the generators refuse negative seeds
        self.tracer = tracer
        self.tiny = tiny
        self.workdir = workdir
        self.rng = np.random.default_rng(self.seed)
        #: per-instance so a test can corrupt one reference
        self.references = dict(programs.REFERENCES)
        self._next_op = 0
        #: ops run outside the rounds (see :meth:`after_warmup`)
        self.extra_attempted = 0
        self.extra_failed = 0

    def count(self, n):
        """Ops per round; ``--check`` runs every op kind once."""
        return 1 if self.tiny else n

    def shuffled(self, ops):
        """The round's op list in seeded order (same every round)."""
        ops = list(ops)
        random.Random(self.seed).shuffle(ops)
        return ops

    def timed(self, label, fn):
        """Run one op: ``(result, error, seconds)``.  In the traced pass
        the op is the root span every layer span hangs under."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            start = time.perf_counter()
            try:
                return fn(), None, time.perf_counter() - start
            except Exception as error:
                return None, error, time.perf_counter() - start
        tracer.op_id = self._next_op
        self._next_op += 1
        span = tracer.begin(f"op.{label}", "bench")
        try:
            result, error = fn(), None
        except Exception as exc:
            result, error = None, exc
        tracer.end()
        tracer.op_id = -1
        return result, error, span.duration

    def run_op(self, rnd, program, fn, check):
        """Time ``fn`` and verify its result outside the timed part."""
        result, error, seconds = self.timed(program, fn)
        ok = error is None and bool(check(result))
        rnd.add(program, seconds, ok)
        return result

    def expect(self, reference, *inputs):
        """``output -> bool`` against the hand-written reference, which
        is evaluated once, here."""
        expected = self.references[reference](*inputs)
        matches = programs.MATCHES[reference]
        return lambda output: matches(output, expected)

    # -- hooks --------------------------------------------------------------

    def setup(self):
        raise NotImplementedError

    def round(self, rnd):
        raise NotImplementedError

    def after_warmup(self, cpus):
        """Timed work done once per run, between warm-up and rounds
        (``cpus``: the CPUs the rounds will alternate between)."""

    def extras(self):
        """Workload-specific end-to-end metrics: name -> ``(value,
        the single samples behind it)``."""
        return {}

    def layer_metrics(self, view):
        """Workload-specific per-layer metrics from a :class:`TraceView`."""
        return {}

    def close(self):
        pass


class TraceView:
    """What ``layer_metrics`` reads: span summaries of the traced rounds
    (``ops``: inside ops only; ``everything``: set-up included), the
    tracer's exact counts, and the untraced baseline rounds."""

    def __init__(self, ops, everything, counts, n_ops, baseline, traced):
        self.ops = ops
        self.everything = everything
        self.counts = counts
        self.n_ops = n_ops
        self.baseline = baseline  # list of Round, tracing off
        self.traced = traced  # list of Round, tracing on

    def mean_ms(self, name, everything=False):
        """Mean duration of the spans called ``name``."""
        row = (self.everything if everything else self.ops).get(name)
        return row["total"] / row["count"] * 1e3 if row else 0.0

    def per_op_ms(self, name):
        """Total duration of ``name`` spans per traced op."""
        row = self.ops.get(name)
        return row["total"] / self.n_ops * 1e3 if row else 0.0

    def warm_ms(self, program):
        """Undisturbed median latency of one program, tracing off."""
        return median_ms(best_latencies(self.baseline, program))

    def per_round(self, counter):
        """An exact count per traced round."""
        return self.traced[-1].counts[counter]


def probe_us(fn, calls=2000):
    """Mean cost of a microsecond-scale public function, timed in a
    loop (a span would cost as much as the call)."""
    fn()
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls * 1e6


def probe_best_ms(fn, repeats=7):
    """Fastest of a few timings of a millisecond-scale call, after one
    warm call (the same estimator the op latencies use)."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


# ---------------------------------------------------------------------------


class CompileCold(Workload):
    """op = compile a program from source + its first run at a tiny
    size, over a 9-program corpus (5 DSL programs covering versioned
    matrices, priorities, a tilable chain, a fusable pipeline and a
    two-choice site; the 4 paper apps built through the builder API)."""

    name = "compile_cold"
    CLI_RUNS = 7

    def setup(self):
        rng = self.rng
        pyrng = random.Random(self.seed)
        a = rng.uniform(-1.0, 1.0, (16, 3))
        b = rng.uniform(-1.0, 1.0, (3, 16))
        dsl = {
            # default config: the closure leaf the daemon serves untuned
            "blur": (ChoiceConfig(), [rng.uniform(-4.0, 4.0, (10, 10))],
                     None),
            "heat": (vector_config("Heat"), [rng.uniform(-1.0, 1.0, 24)],
                     {"k": 4}),
            "matmul_momentum": (
                vector_config("MatMulMomentum", tile_i=8, tile_j=8,
                              interchange=1),
                [a, b], None),
            "pipeline": (vector_config("Pipeline", fuse=1),
                         [rng.uniform(-4.0, 4.0, (12, 12))], None),
            "rollingsum": (rollingsum_config(1),
                           [rng.uniform(-1.0, 1.0, 24)], None),
        }
        self.corpus = []  # (name, build, transform, config, inputs, sizes, check)
        for name, (config, inputs, sizes) in dsl.items():
            source, transform = programs.DSL[name]
            self.corpus.append((
                name,
                lambda source=source: compile_program(source, analyze=True),
                transform, config, inputs, sizes,
                self.expect(name, *inputs, *(sizes or {}).values()),
            ))
        apps = {
            "sort": (sort, "Sort", sort.input_generator(64, pyrng)),
            "matmul": (matmul, "MatrixMultiply",
                       matmul.input_generator(8, pyrng)),
            "eigen": (eigen, "Eig", eigen.input_generator(12, pyrng)),
            "poisson": (poisson, "Poisson_4",
                        poisson.input_generator(9, pyrng)),
        }
        for name, (module, transform, inputs) in apps.items():
            self.corpus.append((
                name, module.build_program, transform, ChoiceConfig(),
                inputs, None, self.expect(name, *inputs),
            ))
        self.cli_dir = os.path.join(self.workdir, "cli")
        os.makedirs(self.cli_dir)
        with open(os.path.join(self.cli_dir, "blur.pbcc"), "w") as handle:
            handle.write(programs.BLUR)
        cli_input = rng.uniform(-4.0, 4.0, (34, 34))
        np.save(os.path.join(self.cli_dir, "in.npy"), cli_input)
        self.cli_check = self.expect("blur", cli_input)
        self.cold_cli = []

    def _compile_and_run(self, build, transform, config, inputs, sizes):
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("compiler.compile_total", "compiler"):
                program = build()
        else:
            program = build()
        result = program.transform(transform).run(inputs, config, sizes=sizes)
        return next(iter(result.outputs.values())).data

    def round(self, rnd):
        for name, build, transform, config, inputs, sizes, check in (
            self.corpus
        ):
            self.run_op(
                rnd, name,
                lambda: self._compile_and_run(
                    build, transform, config, inputs, sizes),
                check,
            )

    def after_warmup(self, cpus):
        """What a CLI user pays per invocation: interpreter start,
        import, parse, compile, run — fresh processes, one at a time,
        each started on the next CPU (reported like ``setup_s``: the
        fastest)."""
        out_path = os.path.join(self.cli_dir, "out.npy")
        command = [
            sys.executable, "-m", "repro", "run",
            os.path.join(self.cli_dir, "blur.pbcc"), "-t", "Blur",
            "--input", os.path.join(self.cli_dir, "in.npy"),
            "--output", out_path,
        ]
        for turn in range(self.count(self.CLI_RUNS)):
            if os.path.exists(out_path):
                os.remove(out_path)
            cpu = cpus[turn % len(cpus)]
            start = time.perf_counter()
            done = subprocess.run(
                command, capture_output=True, timeout=60,
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
            self.cold_cli.append(time.perf_counter() - start)
            ok = (
                done.returncode == 0
                and os.path.exists(out_path)
                and self.cli_check(np.load(out_path))
            )
            self.extra_attempted += 1
            if not ok:
                self.extra_failed += 1

    def extras(self):
        samples = [seconds * 1e3 for seconds in self.cold_cli]
        return {"cold_cli_ms": (min(samples), samples)}

    def layer_metrics(self, view):
        from repro.analysis.check import analyze_program
        from repro.analysis.depend import fusion_candidates, schedule_candidates
        from repro.rewrite.fuse import fuse_transform

        compiled = [
            (name, build().transform(transform))
            for name, build, transform, *_ in self.corpus
        ]
        dsl = [t for name, t in compiled if name in programs.DSL]
        diagnostics = sum(
            len(list(analyze_program(t.program))) for t in dsl
        )
        start = time.perf_counter()
        schedules = [c for t in dsl for c in schedule_candidates(t)]
        schedule_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        for t in dsl:
            fusion_candidates(t)
        fusion_ms = (time.perf_counter() - start) * 1e3
        return {
            "language.parse_ms": view.mean_ms("language.parse"),
            "language.source_bytes": float(
                sum(len(source) for source, _ in programs.DSL.values())),
            "compiler.build_ir_ms": view.mean_ms("compiler.build_ir"),
            "compiler.transform_init_ms":
                view.mean_ms("compiler.transform_init"),
            "compiler.compile_total_ms":
                view.mean_ms("compiler.compile_total"),
            "compiler.first_run_ms": view.mean_ms("compiler.run"),
            "compiler.choice_sites": float(
                sum(len(t.choice_sites()) for _, t in compiled)),
            "compiler.segments": float(
                sum(len(list(t.grid.all_segments())) for _, t in compiled)),
            "analysis.analyze_program_ms":
                view.mean_ms("analysis.analyze_program"),
            "analysis.diagnostics": float(diagnostics),
            "analysis.schedule_candidates_ms": schedule_ms,
            "analysis.fusion_candidates_ms": fusion_ms,
            "rewrite.fused_variant_ms": view.mean_ms("rewrite.fused_variant"),
            "rewrite.fusions_applied": float(
                sum(len(fuse_transform(t)[1]) for t in dsl)),
            "rewrite.tile_sites": float(
                sum(1 for c in schedules if c.status == "legal")),
            "engine_fast.lower_rule_ms": view.mean_ms("engine_fast.lower_rule"),
            "engine_fast.plan_vector_leaf_ms":
                view.mean_ms("engine_fast.plan_vector_leaf"),
            "engine_fast.build_geometry_us":
                view.mean_ms("engine_fast.build_geometry") * 1e3,
            "repro.cold_cli_ms": min(self.cold_cli) * 1e3,
        }


# ---------------------------------------------------------------------------


class Case:
    """One (program, config, input) a warm-run workload repeats."""

    def __init__(self, workload, transform, config, inputs, sizes,
                 reference, per_round):
        self.transform = transform
        self.config = config
        self.inputs = inputs
        self.sizes = sizes
        self.per_round = per_round
        args = (*inputs, *(sizes or {}).values())
        self.check = workload.expect(reference, *args)
        #: the same computation hand-written in NumPy, for the yardstick
        self.numpy = lambda: programs.REFERENCES[reference](*args)

    def run(self, sink=None):
        return self.transform.run(
            self.inputs, self.config, sizes=self.sizes, sink=sink)


class _WarmRuns(Workload):
    """Shared by the two workloads whose op is a warm
    ``CompiledTransform.run`` (``self.cases``: name -> :class:`Case`)."""

    def compile_dsl(self):
        return {
            name: compile_program(source).transform(transform)
            for name, (source, transform) in programs.DSL.items()
        }

    def build_order(self):
        self.order = self.shuffled(
            name
            for name, case in self.cases.items()
            for _ in range(self.count(case.per_round))
        )

    def round(self, rnd):
        for name in self.order:
            case = self.cases[name]
            result = self.run_op(
                rnd, name, case.run, lambda res: case.check(res.output()))
            if result is not None:
                rnd.counts["rule_applications"] += result.rule_applications
                rnd.counts["tasks"] += len(result.graph)

    def numpy_ms(self, name):
        """Time of the case's hand-written NumPy equivalent."""
        return probe_best_ms(self.cases[name].numpy)

    def warm_run_ms(self, view):
        return {name: view.warm_ms(name) for name in self.cases}


class KernelLarge(_WarmRuns):
    """op = a warm run at sizes where the vector kernels do the work
    and the data exceeds the last-level cache."""

    name = "kernel_large"

    def setup(self):
        rng = self.rng
        dsl = self.compile_dsl()
        # --check keeps the programs and configs, at 1/16 of the cells
        side, length, steps, depth = (
            (256, 12_500, 32, 12) if self.tiny else (1024, 200_000, 32, 12))
        self.cases = {
            "blur": Case(
                self, dsl["blur"], vector_config("Blur"),
                [rng.uniform(-4.0, 4.0, (side + 2, side + 2))], None,
                "blur", 6),
            "heat": Case(
                self, dsl["heat"], vector_config("Heat"),
                [rng.uniform(-1.0, 1.0, length)], {"k": steps}, "heat", 2),
            "matmul": Case(
                self, dsl["matmul_momentum"],
                vector_config("MatMulMomentum", tile_i=side // 8,
                              tile_j=side // 8, interchange=1),
                [rng.uniform(-1.0, 1.0, (side, depth)),
                 rng.uniform(-1.0, 1.0, (depth, side))],
                None, "matmul_momentum", 1),
            "pipeline": Case(
                self, dsl["pipeline"], vector_config("Pipeline", fuse=1),
                [rng.uniform(-4.0, 4.0, (side, side))], None, "pipeline", 8),
        }
        cell = 8 / 2**20
        #: inputs + through + outputs each run touches, MiB
        self.working_set_mb = {
            "blur": ((side + 2) ** 2 + side**2) * cell,
            "heat": length * (1 + steps + 1 + 1) * cell,
            "matmul": (2 * side * depth + (depth + 3) * side**2) * cell,
            "pipeline": 2 * side**2 * cell,  # fused: no intermediate
        }
        self.build_order()

    def layer_metrics(self, view):
        out = {}
        counters = defaultdict(int)
        for name, warm in self.warm_run_ms(view).items():
            out[f"compiler.warm_run_ms.{name}"] = warm
            out[f"engine_fast.numpy_ratio.{name}"] = warm / self.numpy_ms(name)
            # same bytes, one read + one write: the memory-bound floor
            src = np.zeros(int(self.working_set_mb[name] * 2**20 / 16))
            dst = np.zeros_like(src)
            out[f"engine_fast.copy_ratio.{name}"] = warm / probe_best_ms(
                lambda: np.copyto(dst, src))
            out[f"engine_fast.working_set_mb.{name}"] = (
                self.working_set_mb[name])
            sink = TraceSink(capture_events=False)
            self.cases[name].run(sink=sink)
            for key, value in sink.counters.items():
                counters[key] += value
        lookups = (counters["exec.geom_cache_hits"]
                   + counters["exec.geom_cache_misses"])
        out.update({
            "engine_fast.vectorized_cells":
                float(counters["exec.vectorized_cells"]),
            "engine_fast.tiled_blocks": float(counters["exec.tiled_blocks"]),
            "engine_fast.vector_fallbacks":
                float(counters["exec.vector_fallbacks"]),
            "engine_fast.geom_cache_hit_share":
                counters["exec.geom_cache_hits"] / lookups if lookups else 0.0,
        })
        return out


class DispatchSmall(_WarmRuns):
    """op = a warm run at sizes where kernels take microseconds, so
    size binding, option selection, geometry lookup, task recording and
    sibling-call recursion are what is timed."""

    name = "dispatch_small"

    def setup(self):
        rng = self.rng
        dsl = self.compile_dsl()
        sort_program = sort.build_program()
        if self.tracer is not None:
            trace_native_bodies(self.tracer, sort_program)
        # insertion sort below 64 keys, 4-way merge below 1024, 2-way
        # above (thresholds in footprint units = 2n): 175 recursive
        # rule applications per sort
        ladder = ChoiceConfig()
        ladder.set_choice(
            sort.SORT_SITE, Selector(((128, 0), (2048, 3), (None, 2))))
        image = [rng.uniform(-4.0, 4.0, (34, 34))]
        series = [rng.uniform(-1.0, 1.0, 96)]
        self.cases = {
            # default config: the closure leaf the daemon serves untuned
            "blur32_closure": Case(
                self, dsl["blur"], ChoiceConfig(), image, None, "blur", 10),
            "blur32_vector": Case(
                self, dsl["blur"], vector_config("Blur"), image, None,
                "blur", 40),
            "rollingsum_r0": Case(
                self, dsl["rollingsum"], rollingsum_config(0), series, None,
                "rollingsum", 20),
            "rollingsum_r1": Case(
                self, dsl["rollingsum"], rollingsum_config(1), series, None,
                "rollingsum", 20),
            "heat41": Case(
                self, dsl["heat"], ChoiceConfig(),
                [rng.uniform(-1.0, 1.0, 41)], {"k": 10}, "heat", 10),
            "sort4096": Case(
                self, sort_program.transform("Sort"), ladder,
                [rng.uniform(0.0, 1.0, 4096)], None, "sort", 2),
        }
        self.build_order()

    def layer_metrics(self, view):
        warm = self.warm_run_ms(view)
        out = {f"compiler.warm_run_ms.{n}": ms for n, ms in warm.items()}
        blur = self.cases["blur32_vector"]
        shapes = [a.shape for a in blur.inputs]
        sink = TraceSink(capture_events=False)
        out.update({
            "compiler.bind_sizes_us": probe_us(
                lambda: blur.transform.bind_sizes_from_shapes(shapes)),
            "compiler.geometry_for_us":
                view.mean_ms("compiler.geometry_for") * 1e3,
            "compiler.tunables_at_us":
                view.mean_ms("compiler.tunables_at") * 1e3,
            "compiler.rule_applications": view.per_round("rule_applications"),
            "compiler.tasks": view.per_round("tasks"),
            "compiler.run_overhead_ms": statistics.mean(
                warm[name] - self.numpy_ms(name) for name in self.cases),
            "observe.sink_overhead_ratio": geomean(
                probe_best_ms(lambda: case.run(sink=sink))
                / probe_best_ms(case.run)
                for case in self.cases.values()),
        })
        return out


# ---------------------------------------------------------------------------


class _Served(Workload):
    """An in-process daemon on an ephemeral port with a warm registry
    and a published config, plus one closed-loop client."""

    def start_daemon(self):
        self.app = ServeApp(store_dir=os.path.join(self.workdir, "store"))
        self.daemon = ServeDaemon(self.app, port=0).start_background()
        self.client_sink = TraceSink(capture_events=False)
        self.client = ServeClient(
            port=self.daemon.port, timeout=60.0, sink=self.client_sink)
        self.phash = self.client.compile(programs.SERVED)["program"]
        self.config = vector_config("Blur")
        self.config.set_choice("RollingSum.B.1", Selector.static(1))
        self.app.publish_config(
            self.phash, self.app.machine, ANY_BUCKET, self.config)
        # the reference side: a second compile the daemon never sees
        self.direct = compile_program(programs.SERVED)

    def close(self):
        self.daemon.stop()

    def serve_metrics(self, view):
        counts = view.counts
        shed = sum(
            value for key, value in self.app.sink.counters.items()
            if key.startswith("serve.shed."))
        pooled = sorted(
            s for r in view.baseline for v in r.latencies.values() for s in v)
        json_ms = {
            (kind, where): view.per_op_ms(f"serve.json_{kind}.{where}")
            for kind in ("decode", "encode")
            for where in ("client", "daemon", "app")
        }
        # app-side JSON (the /batch lines) sits inside the app span
        transport = (
            view.per_op_ms("serve.client_request")
            - view.per_op_ms("serve.app_run")
            - view.per_op_ms("serve.app_batch")
            - sum(ms for (_, where), ms in json_ms.items() if where != "app")
        )
        return {
            "serve.json_decode_ms": sum(
                ms for (kind, _), ms in json_ms.items() if kind == "decode"),
            "serve.json_encode_ms": sum(
                ms for (kind, _), ms in json_ms.items() if kind == "encode"),
            "serve.http_overhead_ms": transport,
            "serve.request_bytes":
                counts["bytes.encoded.client"] / view.n_ops,
            "serve.response_bytes":
                counts["bytes.decoded.client"] / view.n_ops,
            "serve.client.p99_ms":
                pooled[min(len(pooled) - 1, int(len(pooled) * 0.99))] * 1e3,
            "serve.shed": float(shed),
            "serve.retry_attempts":
                float(self.client_sink.counter("serve.retry.attempts")),
            "serve.compile_ms": view.mean_ms("serve.compile", everything=True),
            "serve.store_save_ms":
                view.mean_ms("serve.store_save", everything=True),
        }


class ServeRun(_Served):
    """op = one ``/run`` round trip; 80 % Blur 34x34, 20 % Blur 130x130."""

    name = "serve_run"
    MIX = (("blur34", 34, 16, 8), ("blur130", 130, 4, 4))

    def setup(self):
        self.start_daemon()
        blur = self.direct.transform("Blur")
        self.pool = {}  # kind -> [(json-ready inputs, expected bytes)]
        self.setup_failed = 0
        for kind, side, _share, distinct in self.MIX:
            self.pool[kind] = []
            for _ in range(distinct):
                a = self.rng.uniform(-4.0, 4.0, (side, side))
                expected = blur.run([a], self.config).output()
                if not self.expect("blur", a)(expected):
                    self.setup_failed += 1
                self.pool[kind].append(({"A": a.tolist()}, expected.tobytes()))
        self.order = self.shuffled(
            (kind, index % distinct)
            for kind, _side, share, distinct in self.MIX
            for index in range(self.count(share))
        )

    def round(self, rnd):
        if self.setup_failed:  # direct run disagrees with NumPy
            rnd.failed += self.setup_failed
        for kind, index in self.order:
            inputs, expected = self.pool[kind][index]
            self.run_op(
                rnd, kind,
                lambda: self.client.run(self.phash, "Blur", inputs),
                lambda response: np.asarray(
                    response["outputs"]["B"], dtype=np.float64
                ).tobytes() == expected,
            )

    def layer_metrics(self, view):
        out = self.serve_metrics(view)
        admission = self.app.admission

        def admit():
            with admission.admit("run", cost=1):
                pass

        out.update({
            "serve.app_run_ms": view.mean_ms("serve.app_run"),
            "serve.registry_lookup_us":
                view.mean_ms("serve.registry_lookup") * 1e3,
            "serve.bucket_for_us": view.mean_ms("serve.bucket_for") * 1e3,
            "serve.admission_us": probe_us(admit),
        })
        return out


class ServeBatch(_Served):
    """op = one request line inside a ``/batch`` call of 256 lines:
    three stackable Blur shapes (three buckets) plus 10 % RollingSum
    chain lines that cannot stack and take the serial fallback.  A
    round is one call."""

    name = "serve_batch"
    LINES = 256
    SIDES = (18, 26, 34)

    def setup(self):
        self.start_daemon()
        requests, self.lines = [], []
        for index in range(32 if self.tiny else self.LINES):
            if index % 10 == 9:
                name, a = "RollingSum", self.rng.uniform(-1.0, 1.0, 48)
            else:
                side = self.SIDES[index % 3]
                name, a = "Blur", self.rng.uniform(-4.0, 4.0, (side, side))
            requests.append((name, a, self.expect(name.lower(), a)))
            self.lines.append(json.dumps(
                {"transform": name, "inputs": {"A": a.tolist()}}))
        # reference: the batch engine called directly, its outputs
        # checked against NumPy, records shaped by hand
        results = BatchEngine().run(
            [(self.direct.transform(name), {"A": a})
             for name, a, _ in requests],
            self.config,
        )
        self.setup_failed = 0
        self.expected = []  # records as canonical JSON
        for position, (result, (_, _, check)) in enumerate(
            zip(results, requests)
        ):
            if not (result.ok and check(result.output())):
                self.setup_failed += 1
            self.expected.append(json.dumps({
                "id": position, "ok": True, "stacked": result.stacked,
                "outputs": {
                    name: matrix.data.tolist()
                    for name, matrix in result.outputs.items()
                },
            }, sort_keys=True))

    def round(self, rnd):
        if self.setup_failed:
            rnd.failed += self.setup_failed
        response, error, seconds = self.timed(
            "batch", lambda: self.client.batch(self.phash, self.lines))
        bad = len(self.lines)
        if error is None:
            got = [json.dumps(r, sort_keys=True) for r in response["results"]]
            bad = sum(1 for g, e in zip(got, self.expected) if g != e)
            bad += abs(len(got) - len(self.expected))
        rnd.add("batch", seconds, True, units=len(self.lines))
        rnd.failed += bad

    def layer_metrics(self, view):
        out = self.serve_metrics(view)
        counters = self.app.sink.counters
        submitted = counters["batch.requests"]
        calls = counters["serve.batches"]
        config = self.config
        out.update({
            "serve.app_batch_ms": view.mean_ms("serve.app_batch"),
            "serve.result_record_ms": view.per_op_ms("serve.result_record"),
            "batch.submit_ms": view.per_op_ms("batch.submit"),
            "batch.gather_ms": view.per_op_ms("batch.gather"),
            # what a plan-cache miss costs in the warm daemon (the
            # daemon's own misses all happen in the warm-up round)
            "batch.plan_stacked_ms": probe_us(
                lambda: plan_stacked(
                    self.direct.transform("Blur"), [(34, 34)], config),
                calls=20) / 1e3,
            "batch.run_stacked_ms": view.per_op_ms("batch.run_stacked"),
            # per /batch call: exact for a given line mix
            "batch.buckets": counters["batch.buckets"] / calls,
            "batch.stacked_share":
                counters["batch.stacked_requests"] / submitted,
            "batch.fallbacks": counters["batch.fallbacks"] / calls,
            "compiler.config_json_us": probe_us(
                lambda: ChoiceConfig.from_json(config.to_json())),
        })
        return out


# ---------------------------------------------------------------------------


class TuneSearch(Workload):
    """op = one fresh candidate evaluation inside ``GeneticTuner.tune()``
    of the paper's Sort (on ``xeon8``) and RollingSum (on ``xeon1``)."""

    name = "tune_search"
    #: The evaluator's training inputs are the same for every --seed:
    #: which candidates a search visits depends on them, and with the
    #: benchmark seed ``ops_per_s`` sat 10 % apart between seeds for
    #: the work alone.  --seed draws the data the tuned configs are
    #: verified on.
    TRAINING_SEED = 1

    def setup(self):
        from repro.apps import rollingsum

        self.sort_program = sort.build_program()
        if self.tracer is not None:
            trace_native_bodies(self.tracer, self.sort_program)
        self.rolling_program = rollingsum.build_program()
        # ranges sized so that a round (both tunes) is ~0.7 s and a run
        # holds ~17; below 2048 the search also takes the same path for
        # every evaluator seed, so the work does not vary with --seed
        top = 256 if self.tiny else 512
        #: program -> (compiled, transform, generator, machine, tuner kwargs)
        self.targets = {
            "sort": (
                self.sort_program, "Sort", sort.input_generator, "xeon8",
                dict(min_size=64, max_size=top, population_size=6,
                     threshold_metric=sort.size_metric),
            ),
            "rollingsum": (
                self.rolling_program, "RollingSum",
                rollingsum.input_generator, "xeon1",
                dict(min_size=16, max_size=top // 2, population_size=6),
            ),
        }
        self.verify = {}  # program -> (inputs, check) for the tuned config
        for program, values in (
            ("sort", self.rng.uniform(0.0, 1.0, 2048)),
            ("rollingsum", self.rng.uniform(-1.0, 1.0, 512)),
        ):
            self.verify[program] = ([values], self.expect(program, values))
        self.best_times = {}
        self.sinks = {}

    def round(self, rnd):
        traced = self.tracer is not None and self.tracer.enabled
        for program, (compiled, transform, generator, machine, kwargs) in (
            self.targets.items()
        ):
            sink = TraceSink(capture_events=False) if traced else None
            evaluator = Evaluator(
                compiled, transform, generator, MACHINES[machine],
                seed=self.TRAINING_SEED, sink=sink,
            )
            measure = evaluator.measure
            latencies = rnd.latencies[program]
            mark = 0.0  # when the previous timed piece ended

            # The tune() wall is cut into its deterministic pieces — each
            # evaluation (one unit) and the tuner's own work between two
            # (no units) — because the fastest-of-rounds estimate of a
            # 0.4 s slot needs the whole 0.4 s undisturbed, which a
            # millisecond piece often is and a whole tune() rarely.
            def timed_measure(*args, **kw):
                nonlocal mark
                start = time.perf_counter()
                rnd.slots.append((start - mark, 0))
                measurement = measure(*args, **kw)
                mark = time.perf_counter()
                latencies.append(mark - start)
                rnd.slots.append((mark - start, 1))
                return measurement

            def tune():
                nonlocal mark
                mark = time.perf_counter()
                tuned = GeneticTuner(evaluator, **kwargs).tune()
                rnd.slots.append((time.perf_counter() - mark, 0))
                return tuned

            evaluator.measure = timed_measure
            result, error, _ = self.timed(program, tune)
            rnd.attempted += evaluator.evaluations + 1
            if error is not None:
                rnd.failed += evaluator.evaluations + 1
                continue
            # the tuned config must still compute the right answer
            inputs, check = self.verify[program]
            try:
                output = compiled.transform(transform).run(
                    inputs, result.config).output()
                ok = check(output)
            except Exception:
                ok = False
            if not ok:
                rnd.failed += 1
            self.best_times[program] = result.best_time
            rnd.counts["evaluations"] += evaluator.evaluations
            rnd.counts["generations"] += len(result.history)
            if sink is not None:
                rnd.counts["cache_hits"] += sink.counter("tuner.cache_hits")

    def extras(self):
        return {"tuned_cost": (geomean(self.best_times.values()), ())}

    def layer_metrics(self, view):
        rounds = len(view.traced)
        evaluations = view.per_round("evaluations")
        hits = view.per_round("cache_hits")
        sim = view.ops.get("runtime.schedule_sim", {"total": 0.0})["total"]
        out = {
            f"autotuner.tune_s.{program}":
                view.mean_ms(f"op.{program}") / 1e3
            for program in self.targets
        }
        out.update({
            "autotuner.evaluations": evaluations,
            "autotuner.generations": view.per_round("generations"),
            "autotuner.measure_ms": view.mean_ms("autotuner.measure"),
            "autotuner.cache_hit_share": hits / (hits + evaluations),
            "autotuner.tuned_cost": geomean(self.best_times.values()),
            "runtime.schedule_sim_ms": view.mean_ms("runtime.schedule_sim"),
            "runtime.tasks_per_s":
                view.counts["runtime.tasks"] / sim if sim else 0.0,
            "runtime.steals": view.counts["runtime.steals"] / rounds,
        })
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (CompileCold, KernelLarge, DispatchSmall, ServeRun,
                ServeBatch, TuneSearch)
}
