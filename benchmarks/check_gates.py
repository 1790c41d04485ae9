"""Check every row of ``benchmarks/gates.json`` against the end-to-end
benchmark:

    python3 benchmarks/check_gates.py

A row is ``[run, metric, op, bound, owner]``.  ``run`` names one entry of
the table's ``runs``: arguments to ``benchmarks/e2e/run.py``, and for the
``--check`` ledger the workload whose rows are read.  ``metric`` is a
metric that run prints, or ``correct`` (the run exited 0).  ``bound`` is a
number or ``"k * <metric of the same run>"``.  ``owner`` is the module
whose change the row guards.

Each run executes once.  One line is printed per row, and the exit status
is 1 when any row fails, naming every failing row.  The ledger is also
written to ``e2e-check.json`` in the working directory.
"""

import json
import operator
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "e2e", "run.py")]
LEDGER = "e2e-check.json"
OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge, ">": operator.gt}


def measure(run):
    """Execute one run: ``{metric: value, "correct": exited 0}``."""
    ledger = "workload" in run
    argv = RUN + run["argv"] + (["--json", LEDGER] if ledger else [])
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        sys.stdout.write(done.stdout)
    values = {}
    try:
        if ledger:
            with open(LEDGER) as handle:
                record = json.load(handle)["workloads"][run["workload"]]
            entries = {**record["end_to_end"], **record["per_layer"]}
        else:
            entries = json.loads(done.stdout.splitlines()[-1])["metrics"]
        values = {name: entry["value"] for name, entry in entries.items()}
    except (OSError, ValueError, LookupError):
        pass  # no result: every row of the run reads "missing"
    values["correct"] = done.returncode == 0
    return values


def limit(bound, values):
    """A row's bound as a number, given the values of its run."""
    if isinstance(bound, str):
        factor, name = bound.split(" * ")
        return float(factor) * values[name]
    return bound


def check(gates, results):
    """Print one line per row; return a description of each failing row."""
    failing = []
    for run, metric, op, bound, owner in gates:
        values = results[run]
        try:
            value, edge = values[metric], limit(bound, values)
            ok = OPS[op](value, edge)
            shown = f"{value:.6g}" if isinstance(value, float) else value
        except KeyError:
            ok, shown, edge = False, "missing", bound
        row = f"{run}: {metric} = {shown} {op} {bound}"
        if edge != bound:
            row += f" = {edge:.6g}"
        print(f"{'ok  ' if ok else 'FAIL'} {row}  ({owner})")
        if not ok:
            failing.append(row)
    return failing


def main():
    with open(os.path.join(HERE, "gates.json")) as handle:
        table = json.load(handle)
    gates = table["gates"]
    results = {
        run: measure(table["runs"][run])
        for run in dict.fromkeys(row[0] for row in gates)
    }
    failing = check(gates, results)
    if failing:
        print(f"FAIL: {len(failing)} of {len(gates)} gate rows: "
              + "; ".join(failing))
        return 1
    print(f"ok: {len(gates)} gate rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
