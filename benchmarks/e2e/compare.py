#!/usr/bin/env python3
"""Compare two result files of ``run.py --all --json``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the parent, B the change.  One row per (workload, end-to-end
metric), judged with the metric's direction and bound from
``BENCHMARK.json`` (``run.WORKLOAD_METRICS`` for the three
workload-specific ones):

``worse``       B is worse than A by more than the bound
``better``      B is better than A by more than the bound
``same``        neither
``unresolved``  a run's own spread in either file — interquartile range
                over median of the estimate taken from each interleaved
                quarter of its rounds (of the single set-ups for
                ``setup_s``) — is wider than the bound, so the pair
                cannot carry any of the three verdicts; ``worse`` and
                ``better`` stand all the same when every partial value
                of B lies beyond every one of A

Exits 1 on any ``worse`` row (a rise in ``failed_share`` is one: its
bound is 0), 2 when a workload of A is missing or failed in B.
"""

import json
import statistics
import sys

from run import WORKLOAD_METRICS, load_spec


def rules():
    """metric -> (better, bound)."""
    table = {
        m["name"]: (m["better"], m["bound"])
        for m in load_spec()["end_to_end"]
    }
    table.update(
        {name: (better, bound)
         for name, (_unit, better, bound) in WORKLOAD_METRICS.items()})
    return table


def spread(entry):
    """Interquartile range of the run's partial estimates over their
    median."""
    rounds = entry.get("rounds", ())
    if len(rounds) < 4:
        return 0.0
    low, _, high = statistics.quantiles(rounds, n=4)
    return (high - low) / statistics.median(rounds)


def judge(a, b, better, bound):
    """``(verdict, relative change in the worse direction)``."""
    old, new = a["value"], b["value"]
    if old == new:
        worse_by = 0.0
    elif old == 0:
        worse_by = float("inf") if (new > 0) == (better == "lower") else -1.0
    else:
        worse_by = (new - old) / abs(old)
        if better == "higher":
            worse_by = -worse_by
    if worse_by > bound:
        verdict = "worse"
    elif worse_by < -bound:
        verdict = "better"
    else:
        verdict = "same"
    if max(spread(a), spread(b)) > bound and (
        verdict == "same" or not apart(a, b)
    ):
        verdict = "unresolved"
    return verdict, worse_by


def apart(a, b):
    """Whether the partial values of the two runs do not overlap."""
    rounds_a, rounds_b = a.get("rounds"), b.get("rounds")
    if not rounds_a or not rounds_b:
        return False
    return min(rounds_a) > max(rounds_b) or min(rounds_b) > max(rounds_a)


def compare(result_a, result_b, out=sys.stdout):
    table = rules()
    status = 0
    for workload, record_a in result_a["workloads"].items():
        record_b = result_b["workloads"].get(workload)
        if record_b is None or "error" in record_b or "error" in record_a:
            print(f"{workload:<16} missing or failed in one file", file=out)
            status = max(status, 2)
            continue
        for metric, entry_a in record_a["end_to_end"].items():
            entry_b = record_b["end_to_end"].get(metric)
            if entry_b is None or metric not in table:
                continue
            better, bound = table[metric]
            verdict, worse_by = judge(entry_a, entry_b, better, bound)
            if verdict == "worse":
                status = max(status, 1)
            print(
                f"{workload:<16} {metric:<14} {entry_a['value']:>12.6g} -> "
                f"{entry_b['value']:>12.6g} {entry_a['unit']:<15}"
                f"{worse_by:>+8.1%} worse (bound {bound:.0%})  {verdict}",
                file=out,
            )
    return status


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle_a, open(argv[1]) as handle_b:
        return compare(json.load(handle_a), json.load(handle_b))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
