"""Command-line interface — the paper's Figure 2 workflow.

The original toolchain was: compile the source (step 1-2), autotune to
produce a configuration file (step 3), then either run with the
configuration (step 4a) or feed it back for a static build (step 4b).
The CLI mirrors those steps::

    python -m repro compile program.pbcc
    python -m repro tune program.pbcc -t Sort -o sort.cfg --machine xeon8
    python -m repro run program.pbcc -t Sort --random-input 1000 \\
        --config sort.cfg
    python -m repro report sort.cfg

plus one observability step beyond the paper's workflow::

    python -m repro trace program.pbcc -t Sort --random-input 1000 \\
        --machine xeon8 -o sort.trace.jsonl

``trace`` executes the transform, simulates the recorded task graph on
the chosen machine with a :class:`~repro.observe.trace.TraceSink`
attached, prints the metrics summary, and exports the event stream
(task start/finish, spawn, steal, idle transitions) as JSONL — to the
``-o`` file, or to stdout when ``-o`` is omitted.  ``tune --trace``
captures the autotuner's candidate timeline the same way.

Inputs for ``run`` come from ``--input file.npy`` / ``.txt`` (repeat per
input matrix, in declaration order) or ``--random-input N`` (uniform
random data for every declared input).  ``tune`` uses the transform's
``generator`` declaration when present, random data otherwise.

``batch`` serves a JSONL request stream through the batch execution
engine (:mod:`repro.batch`)::

    python -m repro batch program.pbcc requests.jsonl -o results.jsonl

Each request line is ``{"transform": NAME, "inputs": {...} | [...]}``
plus optional ``"config"`` (an inline configuration object) and
``"sizes"``; requests sharing a transform, exact input shapes, and
configuration run stacked along a batch axis, everything else falls
back to per-request execution with identical results.  One JSONL result
line comes back per request, in submission order.

``tune --jobs N`` evaluates candidate batches on ``N`` worker processes;
because every measurement is a pure function of ``(seed, configuration
signature, size, trial)`` the tuned configuration and history are
byte-identical for any ``N``.  ``tune --cache PATH`` persists every
measurement to a JSONL cache (keyed by machine profile, workers, trials,
seed, configuration signature, and size) so repeat invocations skip
already-simulated candidates entirely.

Tuning is fault tolerant: ``--measure-timeout`` bounds every
measurement with an adaptive deadline (hung candidates are culled like
any other nonviable candidate), ``--max-retries`` bounds recovery
retries for crashed workers and transient failures (the pool is rebuilt
automatically), and the cache is flushed after every batch so a killed
run loses at most one batch of measurements.  Recovery actions are
summarised on a ``fault recovery:`` line.  ``--inject SPEC`` (dev/test
only) turns on the deterministic fault injector of :mod:`repro.faults`
to exercise those paths.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro.autotuner import GeneticTuner
from repro.autotuner.evaluation import random_inputs
from repro.autotuner.parallel import EvaluatorSpec, ParallelEvaluator
from repro.compiler import ChoiceConfig, CompiledProgram, compile_program
from repro.engine_fast import LEAF_PATH_NAMES
from repro.faults import FaultInjector, FaultSpecError
from repro.language.errors import PetaBricksError
from repro.observe import TraceSink
from repro.runtime import MACHINES, WorkStealingScheduler


def _load_program(path: str) -> CompiledProgram:
    with open(path, "r", encoding="utf-8") as handle:
        return compile_program(handle.read())


def _load_config(path: Optional[str]) -> Optional[ChoiceConfig]:
    """The ``--config`` file, if one was given; a file that is not a
    configuration (bad JSON, a key :meth:`ChoiceConfig.from_dict`
    refuses) ends the command with exit status 2."""
    if not path:
        return None
    try:
        return ChoiceConfig.load(path)
    except ValueError as exc:
        print(f"error: bad config {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _load_input(path: str) -> np.ndarray:
    if path.endswith(".npy"):
        return np.load(path)
    return np.loadtxt(path)


def cmd_compile(args: argparse.Namespace) -> int:
    program = _load_program(args.source)
    for name, compiled in sorted(program.transforms.items()):
        ir = compiled.ir
        print(f"transform {name}")
        print(f"  inputs : {[m.name for m in ir.inputs]}")
        print(f"  outputs: {[m.name for m in ir.outputs]}")
        print(f"  rules  : {len(ir.rules)}")
        for key, segment in compiled.choice_sites():
            options = ", ".join(
                opt.describe(ir) for opt in segment.options
            )
            print(f"  site {key}: {segment.box}  choices: {options}")
        if compiled.grid.order_guards:
            guards = ", ".join(
                f"{g} >= 0" for g in compiled.grid.order_guards
            )
            print(f"  size requirements: {guards}")
    return 0


class _MissingInputs(Exception):
    """Raised when a transform needs inputs but none were provided."""


def _resolve_inputs(
    program: CompiledProgram, args: argparse.Namespace
) -> Optional[List[np.ndarray]]:
    """Inputs from --input files / --random-input N (shared by run/trace)."""
    transform = program.transform(args.transform)
    if args.input:
        return [_load_input(path) for path in args.input]
    if args.random_input is not None:
        rng = random.Random(args.seed)
        return random_inputs(program, args.transform)(args.random_input, rng)
    if not transform.ir.inputs:
        return None
    raise _MissingInputs


def _parse_sizes(args: argparse.Namespace) -> dict:
    return dict(
        (key, int(value))
        for key, _, value in (item.partition("=") for item in args.size or [])
    )


def cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import run_check

    return run_check(args.source, fmt=args.format, strict=args.strict)


class _RewriteLoadError(Exception):
    """``repro rewrite`` could not obtain a program from its source."""


def _load_rewrite_program(path: str) -> CompiledProgram:
    """Program for ``repro rewrite``: DSL text, or an imported ``.py``
    module's ``build_program()`` (same contract as ``repro check``)."""
    if not path.endswith(".py"):
        return _load_program(path)
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        f"_repro_rewrite_{abs(hash(path))}", path
    )
    if spec is None or spec.loader is None:
        raise _RewriteLoadError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        raise _RewriteLoadError(f"import failed: {exc}") from exc
    builder = getattr(module, "build_program", None)
    if not callable(builder):
        raise _RewriteLoadError(
            f"{path} does not export build_program()"
        )
    return builder()


def cmd_rewrite(args: argparse.Namespace) -> int:
    """List proven rewrite opportunities, or apply them and emit DSL."""
    from repro.analysis.check import diagnostic_from_error
    from repro.analysis.depend import rewrite_audit
    from repro.analysis.diagnostics import Diagnostic
    from repro.analysis.witness import Replay
    from repro.rewrite import (
        REWRITE_BUDGET,
        UnparseError,
        interchange_transform,
        program_src,
        tile_transform,
    )

    def fail(message: str, hint: str = "") -> int:
        diag = Diagnostic(
            code="PB001",
            severity="error",
            message=message,
            hint=hint,
            path=args.source,
        )
        print(diag.format(), file=sys.stderr)
        return 2

    try:
        program = _load_rewrite_program(args.source)
    except _RewriteLoadError as exc:
        return fail(str(exc))
    except PetaBricksError as exc:
        print(
            diagnostic_from_error(exc, args.source).format(), file=sys.stderr
        )
        return 2
    if args.transform and args.transform not in program.transforms:
        print(f"error: unknown transform {args.transform!r}", file=sys.stderr)
        return 2
    names = (
        [args.transform] if args.transform else sorted(program.transforms)
    )

    candidates = {}
    schedules = {}
    diagnostics = []
    for name in names:
        replay = Replay(program.transform(name), REWRITE_BUDGET)
        candidates[name], schedules[name], found = rewrite_audit(
            replay, args.source
        )
        diagnostics.extend(found)

    applied = {}
    rewritten = None
    if args.apply:
        out_transforms = []
        for name in sorted(program.transforms):
            compiled = program.transform(name)
            current = compiled
            did = False
            if name in names:
                variant = compiled.fused_variant()
                if variant is not None:
                    current = variant
                    did = True
                # Fuse-then-tile: schedule rewrites re-plan on the
                # (possibly fused) result, so a fused rule's iteration
                # space is what gets blocked.
                if args.tile:
                    current, tiled = tile_transform(
                        current, sizes=args.tile, budget=REWRITE_BUDGET
                    )
                    did = did or bool(tiled)
                if args.interchange:
                    current, swapped = interchange_transform(
                        current, budget=REWRITE_BUDGET
                    )
                    did = did or bool(swapped)
            applied[name] = did
            out_transforms.append(current.ir)
        try:
            rewritten = program_src(out_transforms)
        except UnparseError as exc:
            return fail(
                f"cannot emit rewritten source: {exc}",
                hint=(
                    "rules with native (Python) bodies have no DSL "
                    "source form; run --apply on the DSL original"
                ),
            )

    if args.json:
        payload = {
            "source": args.source,
            "transforms": {
                name: {
                    "candidates": [
                        {
                            "matrix": cand.matrix,
                            "producer": cand.producer,
                            "consumer": cand.consumer,
                            "status": cand.status,
                            "reason": cand.reason,
                            "distances": [
                                ["*" if d is None else str(d) for d in vec]
                                for vec in cand.distances
                            ],
                            "witness": (
                                cand.conflict.describe()
                                if cand.conflict
                                else ""
                            ),
                        }
                        for cand in candidates[name]
                    ],
                    "schedule_candidates": [
                        {
                            "segment": cand.segment,
                            "rule": cand.rule,
                            "status": cand.status,
                            "reason": cand.reason,
                            "chain_vars": list(cand.chain_vars),
                            "free_vars": list(cand.free_vars),
                            "witness": (
                                cand.witness.describe()
                                if cand.witness
                                else ""
                            ),
                        }
                        for cand in schedules[name]
                    ],
                    "applied": applied.get(name, False),
                }
                for name in names
            },
            "diagnostics": [d.to_dict() for d in diagnostics],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name in names:
            cands = candidates[name]
            if not cands:
                print(f"{name}: no fusion candidates")
            for cand in cands:
                line = f"{name}: {cand.matrix} {cand.status}"
                if cand.status == "legal":
                    line += (
                        f" — fuse {cand.producer} into {cand.consumer}, "
                        f"distance {cand.distance_text()}"
                    )
                elif cand.reason:
                    line += f" — {cand.reason}"
                print(line)
                if cand.conflict:
                    print(f"  witness: {cand.conflict.describe()}")
            for cand in schedules[name]:
                line = (
                    f"{name}: schedule {cand.segment}/{cand.rule} "
                    f"{cand.status}"
                )
                if cand.status == "legal":
                    line += (
                        f" — tile/interchange over "
                        f"({', '.join(cand.free_vars)}) with chain "
                        f"({', '.join(cand.chain_vars)})"
                    )
                elif cand.reason:
                    line += f" — {cand.reason}"
                print(line)
                if cand.witness:
                    print(f"  witness: {cand.witness.describe()}")

    if args.apply and rewritten is not None:
        done_names = sorted(n for n, did in applied.items() if did)
        if not done_names:
            print("rewrite: no legal rewrites to apply", file=sys.stderr)
        else:
            print(
                f"rewrite: rewrote {', '.join(done_names)} "
                f"(re-verified clean)",
                file=sys.stderr,
            )
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rewritten)
        elif not args.json:
            print(rewritten)
    return 0


def _apply_leaf_path(
    config: ChoiceConfig, args: argparse.Namespace
) -> ChoiceConfig:
    """Fold a ``--leaf-path`` override into the run's configuration."""
    leaf = getattr(args, "leaf_path", None)
    if leaf is None:
        return config
    config = config or ChoiceConfig()
    key = f"{args.transform}.__leaf_path__"
    config.set_tunable(
        key, next(v for v, name in LEAF_PATH_NAMES.items() if name == leaf)
    )
    # A size-leveled entry of the same name would shadow the flat one
    # (``ChoiceConfig.tunable_at``); the override replaces it too.
    config.leveled_tunables.pop(key, None)
    return config


def cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args.source)
    transform = program.transform(args.transform)
    config = _load_config(args.config)
    config = _apply_leaf_path(config, args)
    sizes = _parse_sizes(args)

    try:
        inputs = _resolve_inputs(program, args)
    except _MissingInputs:
        print("error: provide --input files or --random-input N", file=sys.stderr)
        return 2

    result = transform.run(inputs, config, sizes=sizes or None)
    for name, matrix in result.outputs.items():
        data = matrix.data
        if args.output:
            path = f"{args.output}.{name}.npy" if len(result.outputs) > 1 else args.output
            np.save(path, data)
            print(f"{name}: saved to {path} (shape {data.shape})")
        else:
            preview = np.array2string(data, threshold=20, precision=6)
            print(f"{name} (shape {data.shape}):\n{preview}")
    print(
        f"-- {result.rule_applications} rule applications, "
        f"{len(result.graph)} tasks, "
        f"{result.graph.total_work():.0f} work units"
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    program = _load_program(args.source)
    transform = program.transform(args.transform)
    config = _load_config(args.config)
    config = _apply_leaf_path(config, args)
    machine = MACHINES[args.machine]
    workers = args.workers if args.workers else machine.cores
    sizes = _parse_sizes(args)

    try:
        inputs = _resolve_inputs(program, args)
    except _MissingInputs:
        print("error: provide --input files or --random-input N", file=sys.stderr)
        return 2

    sink = TraceSink()
    result = transform.run(inputs, config, sizes=sizes or None, sink=sink)
    schedule = WorkStealingScheduler(machine, seed=args.seed, sink=sink).run(
        result.graph, workers=workers
    )

    if args.output:
        lines = sink.write_jsonl(args.output)
        print(f"trace: {lines} events written to {args.output}")
    else:
        sys.stdout.write(sink.to_jsonl())

    report = sys.stdout if args.output else sys.stderr
    print(
        f"-- {args.transform} on {machine.name} x{workers}: "
        f"{schedule.tasks} tasks, {schedule.steals} steals, "
        f"makespan {schedule.makespan:.0f}, "
        f"speedup {schedule.speedup:.2f}, "
        f"utilization {schedule.utilization:.2f}",
        file=report,
    )
    for name, value in sorted(sink.counters.items()):
        print(f"   {name} = {value}", file=report)
    for name, hist in sorted(sink.histograms.items()):
        print(
            f"   {name}: count {hist.count}, mean {hist.mean:.1f}, "
            f"max {hist.max:.0f}",
            file=report,
        )
    return 0


#: recovery counters `repro tune` surfaces (counter name, report label).
_RECOVERY_COUNTERS = (
    ("tuner.pool.timeouts", "timeouts"),
    ("tuner.pool.retries", "retries"),
    ("tuner.pool.rebuilds", "pool rebuilds"),
    ("tuner.pool.quarantines", "quarantined candidates"),
    ("tuner.degraded_serial", "degraded to serial"),
    ("tuner.cache.corrupt_lines", "corrupt cache lines skipped"),
)


def cmd_tune(args: argparse.Namespace) -> int:
    with open(args.source, "r", encoding="utf-8") as handle:
        source_text = handle.read()
    # Counters (recovery accounting) are always collected; the event
    # stream — the expensive part — only when --trace asks for it.
    sink = TraceSink(capture_events=bool(args.trace))
    try:
        injector = FaultInjector.parse(args.inject) if args.inject else None
    except FaultSpecError as exc:
        print(f"error: --inject {exc}", file=sys.stderr)
        return 2
    # Parent and pool workers build their evaluators from the same
    # picklable spec, so every process measures identically; the result
    # is byte-for-byte the same for any --jobs value.
    spec = EvaluatorSpec.make(
        "repro.autotuner.parallel:evaluator_from_source",
        source_text,
        args.transform,
        args.machine,
        max_size=args.max_size,
    )
    evaluator = ParallelEvaluator.from_spec(
        spec,
        jobs=args.jobs,
        cache=args.cache,
        sink=sink,
        measure_timeout=args.measure_timeout if args.measure_timeout > 0 else None,
        max_retries=args.max_retries,
        injector=injector,
    )
    # Everything from here runs under try/finally: close() shuts the
    # pool down and flushes the cache even when tuning (or reporting)
    # raises mid-generation, so an interrupted run keeps every batch it
    # completed.
    try:
        tuner = GeneticTuner(
            evaluator,
            min_size=args.min_size,
            max_size=args.max_size,
            population_size=args.population,
            refine_passes=0,
        )
        result = tuner.tune()
    finally:
        evaluator.close()
    print(result.describe())
    for log in result.history:
        print(
            f"  size {log.size:>8}: best {log.best_time:>12.0f}  "
            f"({log.evaluated} evaluations)  {log.best_lineage}"
        )
    if args.output:
        result.config.save(args.output)
        print(f"configuration written to {args.output}")
    if args.cache:
        print(
            f"measurement cache: {len(evaluator.cache)} entries in "
            f"{args.cache} ({evaluator.evaluations} fresh evaluations "
            f"this run)"
        )
    recovered = [
        f"{sink.counter(name)} {label}"
        for name, label in _RECOVERY_COUNTERS
        if sink.counter(name)
    ]
    if recovered:
        print(f"fault recovery: {', '.join(recovered)}")
    if args.trace:
        lines = sink.write_jsonl(args.trace)
        print(
            f"candidate timeline: {lines} events "
            f"({sink.counter('tuner.evaluations')} evaluations, "
            f"{sink.counter('tuner.cache_hits')} cache hits) "
            f"written to {args.trace}"
        )
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.batch import BatchEngine

    program = _load_program(args.source)
    default_config = _load_config(args.config)
    sink = TraceSink(capture_events=False)
    engine = BatchEngine(sink=sink, max_stack=args.max_stack)

    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.requests, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    # Under --strict an unparseable line (bad JSON, unknown transform,
    # a config ``from_dict`` refuses) fails the whole invocation
    # immediately, naming the offending line; without --strict it
    # degrades to a per-line error record so the rest of the stream
    # still runs.
    entries = []  # ("result", request_id) | ("malformed", lineno, message)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            payload = json.loads(line)
            transform = program.transform(payload["transform"])
            config = default_config
            if payload.get("config") is not None:
                config = ChoiceConfig.from_dict(payload["config"])
        except Exception as exc:
            if args.strict:
                print(
                    f"error: request line {lineno}: {exc}", file=sys.stderr
                )
                return 2
            entries.append(
                ("malformed", lineno, f"{type(exc).__name__}: {exc}")
            )
            continue
        entries.append(
            (
                "result",
                engine.submit(
                    transform,
                    payload.get("inputs"),
                    config,
                    payload.get("sizes"),
                ),
            )
        )

    from repro.serve.records import malformed_record, result_record

    results = {result.request_id: result for result in engine.gather()}
    failed = 0
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        for entry in entries:
            if entry[0] == "malformed":
                failed += 1
                record = malformed_record(entry[1], entry[2])
            else:
                record = result_record(results[entry[1]])
                failed += 0 if record["ok"] else 1
            out.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if args.output:
            out.close()

    report = sys.stderr if not args.output else sys.stdout
    rate = sink.histograms.get("batch.requests_per_sec")
    print(
        f"-- {sink.counter('batch.requests')} requests in "
        f"{sink.counter('batch.buckets')} buckets: "
        f"{sink.counter('batch.stacked_requests')} stacked, "
        f"{sink.counter('batch.fallbacks')} fallbacks, "
        f"{failed} errors"
        + (f", {rate.mean:.0f} requests/sec" if rate else ""),
        file=report,
    )
    return 1 if (failed and args.strict) else 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.serve import ResilienceConfig, ServeApp, ServeDaemon

    injector = None
    if getattr(args, "inject", None):
        from repro.faults import FaultInjector, FaultSpecError

        try:
            injector = FaultInjector.parse(args.inject)
        except FaultSpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    resilience = ResilienceConfig(
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        default_deadline_ms=args.default_deadline_ms,
        drain_timeout_s=args.drain_timeout,
    )
    app = ServeApp(
        store_dir=args.store,
        machine=args.machine,
        tune_workers=args.tune_workers,
        resilience=resilience,
        injector=injector,
    )
    for path in args.preload or []:
        with open(path, "r", encoding="utf-8") as handle:
            info = app.compile({"source": handle.read()})
        print(f"preloaded {path}: program {info['program']}")
    daemon = ServeDaemon(app, host=args.host, port=args.port)

    def _sigterm(_signum, _frame) -> None:
        # Graceful drain on SIGTERM: shed new work, let admitted
        # requests and the running tune job finish (bounded by the hard
        # drain timeout), then break the accept loop.  shutdown() must
        # not run on the signal-handler frame, hence the helper thread.
        app.begin_drain()

        def _drain_then_stop() -> None:
            app.drain()
            daemon.server.shutdown()

        threading.Thread(target=_drain_then_stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _sigterm)
    recovered = app.recovered
    store_note = f", store {args.store}" if args.store else ", no store"
    print(
        f"repro serve: http://{args.host}:{daemon.port}"
        f" (machine {args.machine}{store_note}, recovered "
        f"{recovered['programs']} programs / {recovered['configs']} configs)",
        flush=True,
    )
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.server.server_close()
        app.close()
    print("repro serve: stopped")
    return 0


def _client_source(client, path: str) -> str:
    """Register a source file with the daemon; returns the program hash."""
    with open(path, "r", encoding="utf-8") as handle:
        return client.ensure_program(handle.read())


def cmd_client(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeClientError
    from repro.serve.resilience import RetryPolicy

    client = ServeClient(
        args.host,
        args.port,
        timeout=args.timeout,
        retry=RetryPolicy(
            retries=args.retries, backoff_s=args.retry_backoff
        ),
    )
    try:
        if args.client_command == "health":
            print(json.dumps(client.health(), indent=2, sort_keys=True))
            return 0
        if args.client_command == "ready":
            verdict = client.ready()
            print(json.dumps(verdict, indent=2, sort_keys=True))
            return 0 if verdict.get("ready") else 1
        if args.client_command == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.client_command == "shutdown":
            client.shutdown()
            print("daemon stopping")
            return 0
        if args.client_command == "compile":
            with open(args.source, "r", encoding="utf-8") as handle:
                info = client.compile(handle.read())
            cached = " (cached)" if info["cached"] else ""
            print(f"program {info['program']}{cached}")
            for name in info["transforms"]:
                print(f"  transform {name}")
            return 0
        if args.client_command == "check":
            report = client.check(_client_source(client, args.source))
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0 if report["clean"] else 1
        if args.client_command == "run":
            return _client_run(client, args)
        if args.client_command == "batch":
            return _client_batch(client, args)
        if args.client_command == "tune":
            return _client_tune(client, args)
        raise AssertionError(f"unhandled {args.client_command!r}")
    except ServeClientError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return 2
    except (ConnectionError, TimeoutError) as exc:
        print(
            f"error: cannot reach daemon at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _client_run(client, args: argparse.Namespace) -> int:
    phash = _client_source(client, args.source)
    if args.input:
        inputs = [_load_input(path) for path in args.input]
    elif args.random_input is not None:
        # Random generation needs the transform's declared shapes, so the
        # convenience path compiles locally; served execution is unchanged.
        program = _load_program(args.source)
        rng = random.Random(args.seed)
        inputs = random_inputs(program, args.transform)(args.random_input, rng)
    else:
        inputs = None
    config = None
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.loads(handle.read())
    response = client.run(
        phash,
        args.transform,
        inputs,
        sizes=_parse_sizes(args) or None,
        machine=args.machine,
        config=config,
    )
    outputs = response["outputs"]
    for name, data in outputs.items():
        array = np.asarray(data, dtype=np.float64)
        if args.output:
            path = (
                f"{args.output}.{name}.npy"
                if len(outputs) > 1
                else args.output
            )
            np.save(path, array)
            print(f"{name}: saved to {path} (shape {array.shape})")
        else:
            preview = np.array2string(array, threshold=20, precision=6)
            print(f"{name} (shape {array.shape}):\n{preview}")
    meta = response["meta"]
    version = meta["version"] if meta["version"] is not None else "-"
    print(
        f"-- served: program {phash[:12]} bucket {meta['bucket']} "
        f"machine {meta['machine']} config v{version} "
        f"(registry {'hit' if meta['registry_hit'] else 'miss'})"
    )
    return 0


def _client_batch(client, args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClientError

    phash = _client_source(client, args.source)
    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.requests, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    config = None
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.loads(handle.read())
    try:
        response = client.batch(
            phash,
            lines,
            strict=args.strict,
            machine=args.machine,
            config=config,
        )
    except ServeClientError as exc:
        if exc.status == 400:
            print(f"error: {exc.message}", file=sys.stderr)
            return 2
        raise
    out = (
        open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    )
    try:
        for record in response["results"]:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if args.output:
            out.close()
    failed = response["failed"]
    report = sys.stderr if not args.output else sys.stdout
    print(
        f"-- served {len(response['results'])} requests, {failed} errors "
        f"(machine {response['machine']})",
        file=report,
    )
    return 1 if (failed and args.strict) else 0


def _client_tune(client, args: argparse.Namespace) -> int:
    phash = _client_source(client, args.source)
    submitted = client.tune(
        phash,
        args.transform,
        machine=args.machine,
        min_size=args.min_size,
        max_size=args.max_size,
        population=args.population,
        jobs=args.jobs,
        bucket=args.bucket,
    )
    print(f"tune job {submitted['job']} queued")
    if not args.wait:
        return 0
    job = client.wait_job(submitted["job"], timeout=args.timeout)
    if job["state"] == "failed":
        print(f"tune job failed:\n{job.get('error', '')}", file=sys.stderr)
        return 1
    result = job["result"]
    print(
        f"tune job done: version {result['version']} "
        f"(digest {result['digest']}, best simulated time "
        f"{result['best_time']:.1f}) registered for "
        f"({result['program'][:12]}, {result['machine']}, "
        f"{result['bucket']})"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    print("choice sites:")
    for site, selector in sorted(config.choices.items()):
        print(f"  {site}: {selector.describe()}")
    if config.tunables:
        print("tunables:")
        for name, value in sorted(config.tunables.items()):
            print(f"  {name} = {value}")
    if config.leveled_tunables:
        print("size-leveled tunables:")
        for name, selector in sorted(config.leveled_tunables.items()):
            print(f"  {name}: {selector.describe()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PetaBricks (PLDI 2009 reproduction) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile and show analyses")
    p_compile.add_argument("source")
    p_compile.set_defaults(func=cmd_compile)

    p_check = sub.add_parser(
        "check", help="run the static verifier suite (bounds/races/coverage/lints)"
    )
    p_check.add_argument(
        "source", nargs="+",
        help="DSL files, or .py modules defining build_program()/DSL constants",
    )
    p_check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="diagnostic output format (default: %(default)s)",
    )
    p_check.add_argument(
        "--strict", action="store_true",
        help="exit 1 on warnings too (default: only errors fail)",
    )
    p_check.set_defaults(func=cmd_check)

    p_rewrite = sub.add_parser(
        "rewrite",
        help="list or apply verified IR rewrites (fusion, tiling, interchange)",
    )
    p_rewrite.add_argument(
        "source", help="DSL file (or .py module) to analyze/rewrite"
    )
    p_rewrite.add_argument(
        "-t", "--transform", default=None,
        help="restrict to one transform (default: all)",
    )
    p_rewrite.add_argument(
        "--list", action="store_true",
        help="list rewrite candidates with legality verdicts (the default)",
    )
    p_rewrite.add_argument(
        "--apply", action="store_true",
        help="apply every legal fusion and emit the rewritten DSL",
    )
    p_rewrite.add_argument(
        "--tile", type=int, default=0, metavar="N",
        help="with --apply: annotate every PB604-legal site with NxN "
        "tiles (after fusion, so fused rules tile too)",
    )
    p_rewrite.add_argument(
        "--interchange", action="store_true",
        help="with --apply: annotate every PB604-legal site to run the "
        "sequential chain per tile (cache-blocked order)",
    )
    p_rewrite.add_argument(
        "--json", action="store_true",
        help="machine-readable report (candidates + PB6xx diagnostics)",
    )
    p_rewrite.add_argument(
        "-o", "--output", default=None,
        help="write rewritten DSL here instead of stdout (with --apply)",
    )
    p_rewrite.set_defaults(func=cmd_rewrite)

    p_run = sub.add_parser("run", help="run a transform")
    p_run.add_argument("source")
    p_run.add_argument("-t", "--transform", required=True)
    p_run.add_argument("--config", help="choice configuration JSON")
    p_run.add_argument(
        "--input", action="append", help=".npy/.txt file per input matrix"
    )
    p_run.add_argument("--random-input", type=int, metavar="N")
    p_run.add_argument(
        "--size", action="append", metavar="VAR=VALUE",
        help="bind a free size variable",
    )
    p_run.add_argument("--output", help="save outputs as .npy")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--leaf-path", choices=sorted(LEAF_PATH_NAMES.values()),
        help="leaf execution path override (default: closure)",
    )
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="run a transform and export a scheduler trace"
    )
    p_trace.add_argument("source")
    p_trace.add_argument("-t", "--transform", required=True)
    p_trace.add_argument("--config", help="choice configuration JSON")
    p_trace.add_argument(
        "--input", action="append", help=".npy/.txt file per input matrix"
    )
    p_trace.add_argument("--random-input", type=int, metavar="N")
    p_trace.add_argument(
        "--size", action="append", metavar="VAR=VALUE",
        help="bind a free size variable",
    )
    p_trace.add_argument(
        "--machine", choices=sorted(MACHINES), default="xeon8"
    )
    p_trace.add_argument(
        "--workers", type=int, help="worker count (default: all cores)"
    )
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument(
        "-o", "--output",
        help="JSONL trace file (omit to stream JSONL to stdout)",
    )
    p_trace.add_argument(
        "--leaf-path", choices=sorted(LEAF_PATH_NAMES.values()),
        help="leaf execution path override (default: closure)",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_tune = sub.add_parser("tune", help="autotune a transform")
    p_tune.add_argument("source")
    p_tune.add_argument("-t", "--transform", required=True)
    p_tune.add_argument(
        "--machine", choices=sorted(MACHINES), default="xeon8"
    )
    p_tune.add_argument("--min-size", type=int, default=16)
    p_tune.add_argument("--max-size", type=int, default=4096)
    p_tune.add_argument("--population", type=int, default=6)
    p_tune.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="evaluate candidate batches on N worker processes "
             "(results are byte-identical for any N)",
    )
    p_tune.add_argument(
        "--cache", metavar="PATH",
        help="persistent JSONL measurement cache, shared across "
             "invocations and keyed by machine profile",
    )
    p_tune.add_argument(
        "--measure-timeout", type=float, default=30.0, metavar="SECONDS",
        help="floor of the adaptive per-measurement deadline; hung or "
             "pathologically slow candidates are culled as failures "
             "after bounded retries (0 disables deadlines; default: "
             "%(default)s)",
    )
    p_tune.add_argument(
        "--max-retries", type=int, default=3, metavar="N",
        help="bounded retries for transient worker failures, corrupt "
             "results, crashes, and deadline misses (default: "
             "%(default)s)",
    )
    p_tune.add_argument(
        "--inject", metavar="SPEC",
        help="(dev/test only) deterministic fault injection, e.g. "
             "'worker-crash:0.2,worker-hang:0.05,seed=7,hang=2' — "
             "see repro.faults for the grammar",
    )
    p_tune.add_argument("-o", "--output", help="write configuration JSON")
    p_tune.add_argument(
        "--trace", metavar="PATH",
        help="write the candidate-timeline JSONL trace to PATH",
    )
    p_tune.set_defaults(func=cmd_tune)

    p_batch = sub.add_parser(
        "batch", help="serve a JSONL request stream through the batch engine"
    )
    p_batch.add_argument("source")
    p_batch.add_argument(
        "requests",
        help="JSONL request file, one request per line ('-' for stdin)",
    )
    p_batch.add_argument(
        "--config", help="default choice configuration JSON (per-request "
        "inline configs override it)",
    )
    p_batch.add_argument(
        "--max-stack", type=int, default=1024, metavar="N",
        help="max requests per stacked sweep (default: %(default)s)",
    )
    p_batch.add_argument(
        "-o", "--output",
        help="JSONL results file (omit to stream results to stdout)",
    )
    p_batch.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any request errored",
    )
    p_batch.set_defaults(func=cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="start the compile-and-serve daemon (HTTP/JSON, see "
             "repro client)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7209,
        help="listening port (0 = ephemeral; default: %(default)s)",
    )
    p_serve.add_argument(
        "--store", metavar="DIR",
        help="artifact store directory (programs + tuned configs survive "
             "restarts; omit for in-memory only)",
    )
    p_serve.add_argument(
        "--machine", choices=sorted(MACHINES), default="xeon8",
        help="default machine profile for registry keys and tuning",
    )
    p_serve.add_argument(
        "--tune-workers", type=int, default=1, metavar="N",
        help="background tuning worker threads (default: %(default)s)",
    )
    p_serve.add_argument(
        "--preload", action="append", metavar="FILE",
        help="compile a program at startup (repeatable)",
    )
    p_serve.add_argument(
        "--max-concurrency", type=int, default=8, metavar="N",
        help="weighted in-flight request limit (a batch weighs its line "
             "count; default: %(default)s)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=16, metavar="N",
        help="bounded accept queue (weighted units) before requests shed "
             "with 429 (default: %(default)s)",
    )
    p_serve.add_argument(
        "--default-deadline-ms", type=float, default=None, metavar="MS",
        help="server-side default request deadline for /run and /batch "
             "(requests may override with 'deadline_ms'; default: none)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="hard bound on graceful drain at /shutdown or SIGTERM "
             "(default: %(default)s)",
    )
    p_serve.add_argument(
        "--inject", metavar="SPEC",
        help="deterministic serve-side fault injection (dev/test), e.g. "
             "'conn-drop:0.3,slow-handler:0.2,seed=7' — see repro.faults",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_client = sub.add_parser(
        "client", help="thin client for a running repro serve daemon"
    )
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=7209)
    p_client.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="per-request (and --wait) timeout (default: %(default)s)",
    )
    p_client.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="retry budget for idempotent requests on connection errors "
             "and 429/503 sheds (default: %(default)s)",
    )
    p_client.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="SECONDS",
        help="base exponential-backoff delay between retries "
             "(default: %(default)s)",
    )
    client_sub = p_client.add_subparsers(dest="client_command", required=True)

    client_sub.add_parser("health", help="daemon liveness + registry sizes")
    client_sub.add_parser(
        "ready",
        help="readiness probe (exit 1 when draining or saturated)",
    )
    client_sub.add_parser("stats", help="counters, histograms, registry")
    client_sub.add_parser(
        "shutdown", help="gracefully drain and stop the daemon"
    )

    c_compile = client_sub.add_parser(
        "compile", help="register a program (compile-once)"
    )
    c_compile.add_argument("source")

    c_check = client_sub.add_parser(
        "check", help="static-verifier diagnostics for a registered program"
    )
    c_check.add_argument("source")

    c_run = client_sub.add_parser(
        "run", help="run a transform on the daemon (registry config)"
    )
    c_run.add_argument("source")
    c_run.add_argument("-t", "--transform", required=True)
    c_run.add_argument(
        "--input", action="append", help=".npy/.txt file per input matrix"
    )
    c_run.add_argument("--random-input", type=int, metavar="N")
    c_run.add_argument(
        "--size", action="append", metavar="VAR=VALUE",
        help="bind a free size variable",
    )
    c_run.add_argument(
        "--config", help="inline config JSON file (overrides the registry)"
    )
    c_run.add_argument(
        "--machine", help="machine profile for the registry lookup"
    )
    c_run.add_argument("--output", help="save outputs as .npy")
    c_run.add_argument("--seed", type=int, default=0)

    c_batch = client_sub.add_parser(
        "batch", help="serve a JSONL request stream through the daemon"
    )
    c_batch.add_argument("source")
    c_batch.add_argument(
        "requests", help="JSONL request file ('-' for stdin)"
    )
    c_batch.add_argument(
        "--config", help="default config JSON file for the whole stream"
    )
    c_batch.add_argument("--machine")
    c_batch.add_argument("-o", "--output", help="JSONL results file")
    c_batch.add_argument(
        "--strict", action="store_true",
        help="fail the whole request on an unparseable line / any error",
    )

    c_tune = client_sub.add_parser(
        "tune", help="enqueue a background tuning job on the daemon"
    )
    c_tune.add_argument("source")
    c_tune.add_argument("-t", "--transform", required=True)
    c_tune.add_argument("--machine")
    c_tune.add_argument("--min-size", type=int, default=16)
    c_tune.add_argument("--max-size", type=int, default=64)
    c_tune.add_argument("--population", type=int, default=6)
    c_tune.add_argument(
        "--jobs", type=int, default=1,
        help="measurement worker processes inside the tune job",
    )
    c_tune.add_argument(
        "--bucket", default="any",
        help="registry size bucket to publish under (default: %(default)s)",
    )
    c_tune.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print the published version",
    )

    p_client.set_defaults(func=cmd_client)

    p_report = sub.add_parser("report", help="pretty-print a configuration")
    p_report.add_argument("config")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PetaBricksError as exc:
        # A user error (unknown transform, refused sizes, a tile size the
        # rewrite's ScheduleError rejects): one line, like the daemon's
        # structured 4xx — never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
