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

``batch`` answers a JSONL request stream through the serve daemon's
``/batch`` (:meth:`repro.serve.ServeApp.batch`), run in process::

    python -m repro batch program.pbcc requests.jsonl -o results.jsonl

Each request line is ``{"transform": NAME, "inputs": {...} | [...]}``
plus optional ``"config"`` (an inline configuration object) and
``"sizes"``; requests sharing a transform, exact input shapes, and
configuration run stacked along a batch axis (:mod:`repro.batch`).  One
JSONL record comes back per request line, in line order — the bytes
``repro client batch`` gets from a running daemon, because it is the
same code.

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
from typing import Any, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.autotuner.evaluation import random_inputs
from repro.autotuner.parallel import source_spec, tune_from_spec
from repro.autotuner.tuner import tune_limits
from repro.compiler import ChoiceConfig, CompiledProgram, compile_program
from repro.compiler.config import LEAF_PATH
from repro.engine_fast import LEAF_PATH_NAMES
from repro.faults import FaultInjector, FaultSpecError, RetryPolicy
from repro.language.errors import PetaBricksError
from repro.observe import TraceSink
from repro.runtime import MACHINES, WorkStealingScheduler


class _UsageError(Exception):
    """The command cannot go on as invoked; :func:`main` prints the
    message as one ``error:`` line and exits 2."""


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_program(path: str) -> CompiledProgram:
    return compile_program(_read(path))


def _read_config(path: Optional[str], parse=None) -> Any:
    """The ``--config`` file, if one was given: its JSON as a daemon
    payload carries it, or ``parse(json)``.  A file that is not JSON, or
    that ``parse`` refuses (a key :meth:`ChoiceConfig.from_dict`
    rejects), ends the command with exit status 2."""
    if not path:
        return None
    try:
        payload = json.loads(_read(path))
        return parse(payload) if parse else payload
    except ValueError as exc:
        print(f"error: bad config {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _fault_injector(spec: Optional[str]) -> Optional[FaultInjector]:
    """``--inject SPEC`` (dev/test only) as a fault injector."""
    try:
        return FaultInjector.parse(spec) if spec else None
    except FaultSpecError as exc:
        raise _UsageError(f"--inject {exc}")


def _load_input(path: str) -> np.ndarray:
    if path.endswith(".npy"):
        return np.load(path)
    return np.loadtxt(path)


def _size_binding(text: str) -> Tuple[str, int]:
    """A ``--size VAR=VALUE`` argument; anything else is a usage error."""
    var, _, value = text.partition("=")
    try:
        if var:
            return var, int(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected VAR=INTEGER, got {text!r}")


def _deadline_ms(text: str) -> float:
    """A ``--default-deadline-ms`` argument, refused as a request's
    ``deadline_ms`` would be."""
    from repro.serve.resilience import deadline_ms

    try:
        return deadline_ms(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}")


def _resolve_inputs(
    args: argparse.Namespace, program: Optional[CompiledProgram] = None
) -> Optional[List[np.ndarray]]:
    """Inputs from ``--input`` files or ``--random-input N``.  The
    program (compiled from ``args.source`` unless given) is needed only
    for random data or to tell that the transform takes no inputs."""
    if args.input:
        return [_load_input(path) for path in args.input]
    program = program or _load_program(args.source)
    if args.random_input is not None:
        rng = random.Random(args.seed)
        return random_inputs(program, args.transform)(args.random_input, rng)
    if program.transform(args.transform).ir.inputs:
        raise _UsageError("provide --input files or --random-input N")
    return None


def _write_outputs(outputs: Mapping[str, np.ndarray], path: Optional[str]):
    """A run's output arrays: saved as ``.npy`` (``path``, or
    ``path.NAME.npy`` for several outputs), else previewed on stdout."""
    for name, data in outputs.items():
        if path:
            target = f"{path}.{name}.npy" if len(outputs) > 1 else path
            np.save(target, data)
            print(f"{name}: saved to {target} (shape {data.shape})")
        else:
            preview = np.array2string(data, threshold=20, precision=6)
            print(f"{name} (shape {data.shape}):\n{preview}")


def _request_lines(path: str) -> List[str]:
    """A JSONL request stream's lines (``-`` reads stdin)."""
    return (sys.stdin.read() if path == "-" else _read(path)).splitlines()


def _write_records(records: Sequence[Mapping[str, Any]], path: Optional[str]):
    """One JSON line per record, to ``path`` or stdout; returns the
    stream the command's summary goes to (the one records did not)."""
    out = open(path, "w", encoding="utf-8") if path else sys.stdout
    try:
        for record in records:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if path:
            out.close()
    return sys.stdout if path else sys.stderr


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


def cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import run_check

    return run_check(args.source, fmt=args.format, strict=args.strict)


def cmd_rewrite(args: argparse.Namespace) -> int:
    """Report the PB6xx rewrite verdicts, or apply them and emit DSL."""
    from repro.analysis.check import diagnostic_from_error, import_file
    from repro.analysis.depend import rewrite_audit
    from repro.analysis.diagnostics import Diagnostic
    from repro.analysis.witness import Replay
    from repro.rewrite import (
        REWRITE_BUDGET,
        UnparseError,
        program_src,
        schedule_transform,
    )

    if (args.tile is not None or args.interchange) and not args.apply:
        raise _UsageError("--tile and --interchange need --apply")

    def fail(message: str, hint: str = "") -> int:
        diag = Diagnostic(code="PB001", message=message, hint=hint, path=args.source)
        print(diag.format(), file=sys.stderr)
        return 2

    # DSL text, or an imported ``.py`` module's ``build_program()`` (the
    # module contract ``repro check`` reads)
    builder = None
    if args.source.endswith(".py"):
        module, failure = import_file(args.source)
        if failure is not None:
            print(failure.format(), file=sys.stderr)
            return 2
        builder = getattr(module, "build_program", None)
        if not callable(builder):
            return fail(f"{args.source} does not export build_program()")
    try:
        program = builder() if builder else _load_program(args.source)
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

    diagnostics = []
    for name in names:
        replay = Replay(program.transform(name), REWRITE_BUDGET)
        diagnostics.extend(rewrite_audit(replay, args.source)[0])

    rewritten_names: List[str] = []
    rewritten = None
    if args.apply:
        out_transforms = []
        for name in sorted(program.transforms):
            current = program.transform(name)
            if name in names:
                fused = current.fused_variant()
                # Fuse-then-tile: schedule rewrites re-plan on the
                # (possibly fused) result, so a fused rule's iteration
                # space is what gets blocked.
                current, scheduled = schedule_transform(
                    fused or current, args.tile, args.interchange
                )
                if fused is not None or scheduled:
                    rewritten_names.append(name)
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
        # The emitted text itself re-passes the parser and the
        # error-severity verifier before anything is written.
        try:
            compile_program(rewritten)
        except PetaBricksError as exc:
            return fail(f"rewritten source does not verify: {exc}")

    if args.json:
        payload = {
            "diagnostics": [d.to_dict() for d in diagnostics],
            "rewritten": rewritten_names,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for diag in diagnostics:
            print(diag.format())

    if rewritten is not None:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rewritten)
        elif not args.json:
            print(rewritten)
        if rewritten_names:
            print(
                f"rewrite: rewrote {', '.join(rewritten_names)} "
                f"(re-verified clean)",
                file=sys.stderr,
            )
        else:
            print("rewrite: no legal rewrites to apply", file=sys.stderr)
    return 0


def _run_config(args: argparse.Namespace) -> Optional[ChoiceConfig]:
    """The ``--config`` file with a ``--leaf-path`` override folded in."""
    config = _read_config(args.config, ChoiceConfig.from_dict)
    if args.leaf_path is None:
        return config
    config = config or ChoiceConfig()
    key = LEAF_PATH.key(args.transform)
    config.set_tunable(
        key,
        next(v for v, name in LEAF_PATH_NAMES.items() if name == args.leaf_path),
    )
    # The knob is leveled, and a leveled entry shadows the flat one:
    # the override replaces it too.
    config.leveled_tunables.pop(key, None)
    return config


def cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args.source)
    transform = program.transform(args.transform)
    config = _run_config(args)
    result = transform.run(
        _resolve_inputs(args, program), config, sizes=dict(args.size or ()) or None
    )
    _write_outputs(
        {name: matrix.data for name, matrix in result.outputs.items()},
        args.output,
    )
    print(
        f"-- {result.rule_applications} rule applications, "
        f"{len(result.graph)} tasks, "
        f"{result.graph.total_work():.0f} work units"
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    program = _load_program(args.source)
    transform = program.transform(args.transform)
    config = _run_config(args)
    machine = MACHINES[args.machine]
    workers = args.workers if args.workers else machine.cores
    inputs = _resolve_inputs(args, program)
    sink = TraceSink()
    result = transform.run(
        inputs, config, sizes=dict(args.size or ()) or None, sink=sink
    )
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
    try:
        tune_limits(args.min_size, args.max_size, args.population, args.jobs)
    except ValueError as exc:
        raise _UsageError(str(exc))
    source_text = _read(args.source)
    # Counters (recovery accounting) are always collected; the event
    # stream — the expensive part — only when --trace asks for it.
    sink = TraceSink(capture_events=bool(args.trace))
    injector = _fault_injector(args.inject)
    # Parent and pool workers build their evaluators from the same
    # picklable spec, so every process measures identically; the result
    # is byte-for-byte the same for any --jobs value.
    result, evaluator = tune_from_spec(
        source_spec(source_text, args.transform, args.machine),
        {
            "min_size": args.min_size,
            "max_size": args.max_size,
            "population_size": args.population,
        },
        jobs=args.jobs,
        sink=sink,
        cache=args.cache,
        measure_timeout=args.measure_timeout if args.measure_timeout > 0 else None,
        max_retries=args.max_retries,
        injector=injector,
    )
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
    """``/batch`` on a daemon that lives for one call: the records a
    running daemon returns for the same lines, because it is that code."""
    from repro.serve import ServeApp, ServeError

    source = _read(args.source)
    app = ServeApp()
    try:
        entry, _ = app.registry.register_program(source)
        response = app.batch(
            {
                "program": entry.phash,
                "lines": _request_lines(args.requests),
                "strict": args.strict,
                "config": _read_config(args.config),
            }
        )
    except ServeError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return 2
    finally:
        app.close()
    report = _write_records(response["results"], args.output)
    sink = app.sink
    rate = sink.histograms.get("batch.requests_per_sec")
    print(
        f"-- {sink.counter('batch.requests')} requests in "
        f"{sink.counter('batch.buckets')} buckets: "
        f"{sink.counter('batch.stacked_requests')} stacked, "
        f"{sink.counter('batch.fallbacks')} fallbacks, "
        f"{response['failed']} errors"
        + (f", {rate.mean:.0f} requests/sec" if rate else ""),
        file=report,
    )
    return 1 if (response["failed"] and args.strict) else 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serve import ResilienceConfig, ServeApp, ServeDaemon

    injector = _fault_injector(args.inject)
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
        info = app.compile({"source": _read(path)})
        print(f"preloaded {path}: program {info['program']}")
    daemon = ServeDaemon(app, host=args.host, port=args.port)

    # SIGTERM drains gracefully, the same way POST /shutdown does.
    signal.signal(
        signal.SIGTERM, lambda _signum, _frame: daemon.drain_and_stop()
    )
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
    return client.ensure_program(_read(path))


def cmd_client(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeClientError

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
            info = client.compile(_read(args.source))
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


def _client_run(client, args: argparse.Namespace) -> int:
    # Random inputs need the transform's declared shapes, so that path
    # compiles locally; served execution is unchanged.
    inputs = _resolve_inputs(args)
    phash = _client_source(client, args.source)
    response = client.run(
        phash,
        args.transform,
        inputs,
        sizes=dict(args.size or ()) or None,
        machine=args.machine,
        config=_read_config(args.config),
    )
    _write_outputs(
        {
            name: np.asarray(data, dtype=np.float64)
            for name, data in response["outputs"].items()
        },
        args.output,
    )
    meta = response["meta"]
    version = meta["version"] if meta["version"] is not None else "-"
    print(
        f"-- served: program {phash[:12]} bucket {meta['bucket']} "
        f"machine {meta['machine']} config v{version} "
        f"(registry {'hit' if meta['registry_hit'] else 'miss'})"
    )
    return 0


def _client_batch(client, args: argparse.Namespace) -> int:
    lines = _request_lines(args.requests)
    response = client.batch(
        _client_source(client, args.source),
        lines,
        strict=args.strict,
        machine=args.machine,
        config=_read_config(args.config),
    )
    report = _write_records(response["results"], args.output)
    failed = response["failed"]
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
    config = _read_config(args.config, ChoiceConfig.from_dict)
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
        "--apply", action="store_true",
        help="apply every legal fusion and emit the rewritten DSL",
    )
    p_rewrite.add_argument(
        "--tile", type=int, default=None, metavar="N",
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
        help="machine-readable report (PB6xx diagnostics + rewritten "
        "transforms)",
    )
    p_rewrite.add_argument(
        "-o", "--output", default=None,
        help="write rewritten DSL here instead of stdout (with --apply)",
    )
    p_rewrite.set_defaults(func=cmd_rewrite)

    # Option groups several commands share, each defined once.
    def group() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    target = group()
    target.add_argument("source")
    target.add_argument("-t", "--transform", required=True)
    inputs = group()
    inputs.add_argument(
        "--input", action="append", help=".npy/.txt file per input matrix"
    )
    inputs.add_argument("--random-input", type=int, metavar="N")
    inputs.add_argument(
        "--size", action="append", type=_size_binding, metavar="VAR=VALUE",
        help="bind a free size variable",
    )
    inputs.add_argument("--seed", type=int, default=0)
    arrays_out = group()
    arrays_out.add_argument("--output", help="save outputs as .npy")
    config = group()
    config.add_argument(
        "--config",
        help="choice configuration JSON file (wins over a daemon's "
        "registered config; a batch line's own config wins over it)",
    )
    leaf = group()
    leaf.add_argument(
        "--leaf-path", choices=sorted(LEAF_PATH_NAMES.values()),
        help="leaf execution path override (default: closure)",
    )
    stream = group()
    stream.add_argument("source")
    stream.add_argument(
        "requests",
        help="JSONL request file, one request per line ('-' for stdin)",
    )
    stream.add_argument(
        "-o", "--output",
        help="JSONL results file (omit to stream results to stdout)",
    )
    stream.add_argument(
        "--strict", action="store_true",
        help="refuse the whole stream on a malformed line (exit 2); "
        "exit 1 when any request errored",
    )

    def machine(default: Optional[str]) -> argparse.ArgumentParser:
        parent = group()
        fallback = default or "the daemon's"
        parent.add_argument(
            "--machine", choices=sorted(MACHINES), default=default,
            help=f"machine profile (default: {fallback})",
        )
        return parent

    local_machine, daemon_machine = machine("xeon8"), machine(None)

    p_run = sub.add_parser(
        "run", help="run a transform",
        parents=[target, inputs, config, leaf, arrays_out],
    )
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="run a transform and export a scheduler trace",
        parents=[target, inputs, config, leaf, local_machine],
    )
    p_trace.add_argument(
        "--workers", type=int, help="worker count (default: all cores)"
    )
    p_trace.add_argument(
        "-o", "--output",
        help="JSONL trace file (omit to stream JSONL to stdout)",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_tune = sub.add_parser(
        "tune", help="autotune a transform", parents=[target, local_machine]
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
        "batch", help="answer a JSONL request stream with the daemon's "
        "/batch, in process",
        parents=[stream, config],
    )
    p_batch.set_defaults(func=cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="start the compile-and-serve daemon (HTTP/JSON, see "
             "repro client)",
        parents=[local_machine],
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
        "--default-deadline-ms", type=_deadline_ms, default=None,
        metavar="MS",
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

    client_sub.add_parser(
        "run", help="run a transform on the daemon (registry config)",
        parents=[target, inputs, config, daemon_machine, arrays_out],
    )
    client_sub.add_parser(
        "batch", help="answer a JSONL request stream with the daemon's /batch",
        parents=[stream, config, daemon_machine],
    )

    c_tune = client_sub.add_parser(
        "tune", help="enqueue a background tuning job on the daemon",
        parents=[target, daemon_machine],
    )
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
    except (PetaBricksError, OSError, _UsageError) as exc:
        # A user error (unknown transform, refused sizes, a tile size the
        # rewrite's RewriteError rejects, a file that cannot be read or
        # written): one line, like the daemon's structured 4xx — never a
        # traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
