#!/usr/bin/env python3
"""The end-to-end benchmark: six workloads, one result schema.

    python3 benchmarks/e2e/run.py --all --seed 1 [--trace] [--json OUT]
    python3 benchmarks/e2e/run.py --check [--trace]        # smoke, < 15 s
    python3 benchmarks/e2e/run.py --workload serve_run --seed 3 \\
        --seconds 15 --trace 0                             # one driver run

Every workload runs in its own fresh child process, one at a time: a
single load-generating process with one closed-loop client (plus the
in-process daemon thread for the serve workloads — never more runnable
threads than the two cores).  End-to-end metrics are measured with
tracing off; ``--trace`` adds a second child per workload whose public
layer entry points are wrapped in spans (``layers.py``) and yields the
per-layer metrics.  The last line of standard output of a
``--workload`` run is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Measurement hygiene: fixed op counts per round, seeded op order, one
discarded warm-up round, ``gc.collect()`` before every round and
``gc.freeze()`` after warm-up, each op timed as the fastest it ran in
any round, rounds and set-ups alternating between the machine's CPUs,
daemon on port 0 with request logging off, and a hard per-child timeout
that reports the workload as failed instead of hanging.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

import layers
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: set-ups timed per untraced run: setup-only children before and after
#: the measuring child, which is one more; ``setup_s`` is the fastest
SETUP_ONLY_BEFORE = 2
SETUP_ONLY_AFTER = 2
MIN_ROUNDS = 4
MAX_SPANS_IN_JSON = 20000

#: End-to-end metrics that exist on one workload only (or are zero when
#: all is well).  The driver contract wants every workload to emit every
#: bounded metric and none to read 0, so these stay out of
#: ``BENCHMARK.json``'s ``end_to_end``; ``--all`` prints them and
#: ``compare.py`` applies these directions and bounds.
#: name -> (unit, better, bound)
WORKLOAD_METRICS = {
    "failed_share": ("ratio", "lower", 0.0),
    "tuned_cost": ("sim_work_units", "lower", 0.0),
    "cold_cli_ms": ("ms", "lower", 0.25),
}


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def fingerprint():
    """The machine the numbers were taken on; embedded in every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# child: one workload, measured in a fresh process
# ---------------------------------------------------------------------------


def pin(cpu):
    """Move every thread of this process to one CPU (threads started
    later inherit it from the thread that starts them)."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except OSError:
            pass  # the thread ended meanwhile


def run_rounds(workload, until, min_rounds, cpus):
    """Repeat the fixed round until the clock passes ``until`` (and at
    least ``min_rounds`` times), each round on the next of ``cpus``.

    Each virtual CPU here shares a physical core with another tenant
    and runs a third slower while that neighbour is busy, for seconds to
    minutes at a time and independently of the other CPU.  Alternating
    gives every op samples from both, and the fastest-of-rounds
    estimator keeps the undisturbed one."""
    from workloads import Round

    rounds = []
    while len(rounds) < min_rounds or time.perf_counter() < until:
        pin(cpus[len(rounds) % len(cpus)])
        gc.collect()
        rnd = Round()
        workload.round(rnd)
        rounds.append(rnd)
    return rounds


def child(args):
    sys.path[:0] = [SRC, HERE]
    start = time.perf_counter()
    import repro

    import_ms = (time.perf_counter() - start) * 1e3
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        layers.install(tracer)
        tracer.enabled = True  # set-up spans: compile, store writes
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, tracer=tracer, tiny=args.tiny, workdir=workdir)
    try:
        workload.setup()
        result = {"setup_s": time.time() - args.spawned_at}
        if not args.setup_only:
            result.update(measure(args, workload, tracer, import_ms))
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, workload, tracer, import_ms):
    """Warm up, then rounds until ``--seconds`` have passed since set-up
    ended.  A traced child spends the first half with its wrappers
    switched off (the baseline its overhead is measured against) and
    the second half recording spans."""
    import workloads

    begin = time.perf_counter()
    # --check runs exactly two rounds per pass, whatever the clock says
    min_rounds = 2 if args.tiny else MIN_ROUNDS
    seconds = 0.0 if args.tiny else args.seconds
    if tracer is not None:
        tracer.enabled = False
    workload.round(workloads.Round())  # warm-up, discarded
    gc.collect()
    gc.freeze()
    workload.after_warmup(args.cpus)
    share = 0.5 if tracer is not None else 1.0
    rounds = run_rounds(
        workload, begin + seconds * share, min_rounds, args.cpus)
    counted = list(rounds)

    op_p50_ms, ops_per_s = workloads.undisturbed(rounds)
    parts = workloads.undisturbed_parts(rounds)
    result = {
        "end_to_end": {"op_p50_ms": op_p50_ms, "ops_per_s": ops_per_s},
        "per_round": {"op_p50_ms": [part[0] for part in parts],
                      "ops_per_s": [part[1] for part in parts]},
        "per_layer": {},
    }
    for metric, (value, samples) in workload.extras().items():
        result["end_to_end"][metric] = value
        result["per_round"][metric] = samples

    if tracer is not None:
        tracer.enabled = True
        traced = run_rounds(
            workload, begin + seconds, min_rounds, args.cpus)
        tracer.enabled = False
        counted += traced
        by_name, by_layer = spans.summarize(tracer.spans)
        everything, _ = spans.summarize(tracer.spans, ops_only=False)
        roots = [row for name, row in by_name.items()
                 if name.startswith("op.")]
        n_ops = sum(row["count"] for row in roots)
        view = workloads.TraceView(
            by_name, everything, tracer.counts, n_ops, rounds, traced)
        result["per_layer"] = {
            **{f"self_ms.{layer}": by_layer.get(layer, 0.0) / n_ops * 1e3
               for layer in layers.LAYERS},
            "bench.traced_op_ms":
                sum(row["total"] for row in roots) / n_ops * 1e3,
            "observe.trace_overhead_ratio":
                workloads.undisturbed(traced)[0] / op_p50_ms,
            "repro.import_ms": import_ms,
            **workload.layer_metrics(view),
        }
        result["spans_total"] = len(tracer.spans)
        if args.with_spans:
            result["spans"] = tracer.to_json()[:MAX_SPANS_IN_JSON]

    result["attempted"] = (
        sum(rnd.attempted for rnd in counted) + workload.extra_attempted)
    result["failed"] = (
        sum(rnd.failed for rnd in counted) + workload.extra_failed)
    result["rounds"] = len(rounds)
    result["end_to_end"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


# ---------------------------------------------------------------------------
# parent: spawn children, merge, report
# ---------------------------------------------------------------------------


def spawn(workload, seed, seconds, trace, tiny, cpus, setup_only=False,
          with_spans=False):
    """Run one child to completion, started (and set up) on ``cpus[0]``;
    its result dict, or ``{"error"}`` when it crashed, printed nothing,
    or hit the hard timeout."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--cpus", ",".join(map(str, cpus)),
        "--spawned-at", repr(time.time()),
    ]
    for flag, on in (("--tiny", tiny), ("--setup-only", setup_only),
                     ("--with-spans", with_spans)):
        if on:
            command.append(flag)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC  # also what the cold-CLI grandchildren import
    timeout = min(170.0, 2.0 * seconds + 60.0)
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpus[0]}))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {done.returncode}: " + " | ".join(tail)}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"error": f"unparseable child output: {lines[-1][:200]}"}


def measure_workload(name, seed, seconds, trace, tiny, units,
                     with_spans=False):
    """One workload, one pass (traced or not) -> a result record whose
    metrics are ``{"value", "unit"[, "rounds"]}`` entries."""
    cpus = sorted(os.sched_getaffinity(0))
    extra = not trace and not tiny
    plan = [True] * (SETUP_ONLY_BEFORE if extra else 0) + [False]
    plan += [True] * (SETUP_ONLY_AFTER if extra else 0)
    setups = []
    for turn, setup_only in enumerate(plan):
        first = turn % len(cpus)  # each child starts on the next CPU
        sample = spawn(
            name, seed, seconds, trace, tiny, cpus[first:] + cpus[:first],
            setup_only=setup_only, with_spans=with_spans)
        if "error" in sample:
            return sample
        setups.append(sample.pop("setup_s"))
        if not setup_only:
            record = sample
    per_round = record.pop("per_round")
    per_round["setup_s"] = setups
    # the fastest, like the op times: a set-up is one short shot, and
    # the samples straddle the measuring child and both CPUs so that a
    # neighbour's busy spell on one of them does not reach every sample
    record["end_to_end"]["setup_s"] = min(setups)
    record["end_to_end"]["failed_share"] = (
        record["failed"] / record["attempted"])
    for section in ("end_to_end", "per_layer"):
        for metric, value in record[section].items():
            entry = {"value": value, "unit": units[metric]}
            if section == "end_to_end" and metric in per_round:
                entry["rounds"] = per_round[metric]
            record[section][metric] = entry
    return record


def spec_units(spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    units.update({name: row[0] for name, row in WORKLOAD_METRICS.items()})
    return units


def print_record(name, record, section):
    if "error" in record:
        print(f"{name}: FAILED ({record['error']})")
        return
    print(f"{name}: {record['attempted']} ops attempted, "
          f"{record['failed']} failed, {record['rounds']} rounds")
    for metric, entry in record[section].items():
        print(f"  {metric:<44} {entry['value']:>16.6g} {entry['unit']}")


def driver_run(args, spec):
    """``--workload``: one pass, contract JSON on the last line."""
    section = "per_layer" if args.trace else "end_to_end"
    record = measure_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), False,
        spec_units(spec))
    print_record(args.workload, record, section)
    if "error" in record:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    # every workload prints every named metric; a layer metric another
    # workload owns reads 0 here (this workload does not exercise it)
    metrics = {}
    for metric in spec[section]:
        entry = record[section].get(metric["name"], {"value": 0.0})
        metrics[metric["name"]] = {
            "value": entry["value"], "unit": metric["unit"]}
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["failed"] == 0 else 1


def suite_run(args, spec):
    """``--all`` / ``--check``: every workload, untraced then (with
    ``--trace``) traced at a quarter of the length."""
    units = spec_units(spec)
    tiny = args.check
    out = {
        "schema": "repro-e2e/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": tiny,
        "machine": fingerprint(),
        "workloads": {},
    }
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        record = measure_workload(
            workload, args.seed, args.seconds, False, tiny, units)
        print_record(workload, record, "end_to_end")
        if args.trace and "error" not in record:
            traced = measure_workload(
                workload, args.seed, max(2.0, args.seconds / 4.0), True,
                tiny, units, with_spans=bool(args.json))
            print_record(workload + " (traced)", traced, "per_layer")
            if "error" in traced:
                record = traced
            else:
                record["attempted"] += traced["attempted"]
                record["failed"] += traced["failed"]
                for key in ("per_layer", "spans", "spans_total"):
                    if key in traced:
                        record[key] = traced[key]
        if "error" in record or record["failed"]:
            failed = True
        out["workloads"][workload] = record
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(out, handle, indent=1)
    print("FAILED" if failed else "ok")
    return 1 if failed else 0


def main(argv=None):
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=names)
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--check", action="store_true",
                      help="all workloads at tiny op counts (smoke)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--json", metavar="OUT",
                        help="write the full result (and spans) here")
    for internal in ("--child", "--tiny", "--setup-only", "--with-spans"):
        parser.add_argument(internal, action="store_true",
                            help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument(
        "--cpus", type=lambda text: [int(cpu) for cpu in text.split(",")],
        default=sorted(os.sched_getaffinity(0)), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    if args.workload:
        return driver_run(args, spec)
    return suite_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
