"""Tests for the command-line interface (the Figure 2 workflow)."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.compiler import ChoiceConfig, Selector
from repro.observe import load_jsonl

ROLLING = """
transform RollingSum
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, i+1) in) { b = sum(in); }
  to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) s) { b = a + s; }
}
"""


@pytest.fixture()
def source(tmp_path):
    path = tmp_path / "rolling.pbcc"
    path.write_text(ROLLING)
    return str(path)


class TestCompile:
    def test_shows_sites_and_choices(self, source, capsys):
        assert main(["compile", source]) == 0
        out = capsys.readouterr().out
        assert "transform RollingSum" in out
        assert "RollingSum.B.1" in out
        assert "rule0" in out and "rule1" in out


class TestRun:
    def test_run_with_input_file(self, source, tmp_path, capsys):
        data = tmp_path / "in.npy"
        np.save(data, np.arange(5.0))
        assert main(["run", source, "-t", "RollingSum", "--input", str(data)]) == 0
        out = capsys.readouterr().out
        assert "B (shape (5,))" in out
        assert "10." in out  # cumulative sum tail

    def test_run_with_text_input(self, source, tmp_path, capsys):
        data = tmp_path / "in.txt"
        data.write_text("1.0 2.0 3.0")
        assert main(["run", source, "-t", "RollingSum", "--input", str(data)]) == 0
        assert "6." in capsys.readouterr().out

    def test_run_random_input(self, source, capsys):
        assert main(["run", source, "-t", "RollingSum", "--random-input", "8"]) == 0
        assert "8 rule applications" in capsys.readouterr().out or "tasks" in ""

    def test_run_saves_output(self, source, tmp_path, capsys):
        data = tmp_path / "in.npy"
        np.save(data, np.ones(4))
        out_path = tmp_path / "out.npy"
        assert main([
            "run", source, "-t", "RollingSum",
            "--input", str(data), "--output", str(out_path),
        ]) == 0
        np.testing.assert_allclose(np.load(out_path), [1, 2, 3, 4])

    def test_run_with_config(self, source, tmp_path, capsys):
        config = ChoiceConfig()
        config.set_choice("RollingSum.B.1", Selector.static(1))
        cfg_path = tmp_path / "cfg.json"
        config.save(str(cfg_path))
        data = tmp_path / "in.npy"
        np.save(data, np.ones(4))
        assert main([
            "run", source, "-t", "RollingSum",
            "--input", str(data), "--config", str(cfg_path),
        ]) == 0

    def test_run_missing_inputs_errors(self, source, capsys):
        assert main(["run", source, "-t", "RollingSum"]) == 2

    def test_run_with_misspelt_reserved_tunable_exits_2(
        self, source, tmp_path, capsys
    ):
        """``__Leaf_Path__`` used to load fine and run on the default
        leaf, silently."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"tunables": {"RollingSum.__Leaf_Path__": 2}})
        )
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", source, "-t", "RollingSum", "--random-input", "8",
                "--config", str(cfg_path),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown reserved tunable 'RollingSum.__Leaf_Path__'" in err
        assert "'RollingSum.__leaf_path__'" in err


# k is a chain over free (i, j): the one bundled shape `--tile` applies to.
MATMUL_CHAIN = """
transform MatMulChain
from A[n, p], B[p, m]
through S[p + 1, n, m]
to C[n, m]
{
  to (S.cell(0, i, j) s) from () { s = 0.0; }
  to (S.cell(k, i, j) s)
  from (S.cell(k - 1, i, j) prev, A.cell(i, k - 1) a, B.cell(k - 1, j) b)
  {
    s = prev + a * b;
  }
  to (C.cell(i, j) c) from (S.cell(p, i, j) s) { c = s; }
}
"""


class TestUserErrorsAreOneLine:
    """A user's mistake ends in ``error: ...`` and exit 2 — the daemon's
    structured 4xx — never in a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "-t", "Nope", "--random-input", "8"],
             "unknown transform 'Nope'"),
            (["run", "-t", "RollingSum", "--random-input", "8",
              "--size", "n=-1"],
             "size variable 'n' must be a non-negative integer, got -1"),
        ],
    )
    def test_run(self, source, capsys, argv, message):
        assert main([argv[0], source, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            # the size schedule would double 0 forever
            (["--min-size", "0"], "min_size must be an integer >= 1, got 0"),
            (["--min-size", "64", "--max-size", "16"],
             "min_size 64 exceeds max_size 16"),
            (["--population", "0"],
             "population must be an integer >= 1, got 0"),
            (["--jobs", "0"], "jobs must be an integer >= 1, got 0"),
        ],
    )
    def test_tune_limits(self, source, capsys, monkeypatch, flags, message):
        def no_tuning(*args, **kwargs):
            raise AssertionError("a refused limit reached the tuner")

        monkeypatch.setattr("repro.cli.tune_from_spec", no_tuning)
        assert main(["tune", source, "-t", "RollingSum", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["report", "run", "trace"])
    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, 2], "a config must be an object, got [1, 2]"),
            ({"choices": []}, "choices must be an object, got []"),
            ({"choices": {"RollingSum.B.0": 5}},
             "choices['RollingSum.B.0'] must be a list of "
             "[max_size, value] pairs, got 5"),
            ({"tunables": {"RollingSum.x": [1]}},
             "tunables['RollingSum.x'] must be an integer, got [1]"),
        ],
        ids=["list", "choices-list", "levels-int", "tunable-list"],
    )
    def test_malformed_config(
        self, source, tmp_path, capsys, command, payload, message
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        argv = [command, str(path)]
        if command != "report":
            argv = [command, source, "-t", "RollingSum", "--random-input",
                    "4", "--config", str(path)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: bad config {path}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("binding", ["n", "n=x", "=3"])
    def test_malformed_size_binding_is_a_usage_error(
        self, source, capsys, binding
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", source, "-t", "RollingSum", "--random-input", "8",
                  "--size", binding])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --size: expected VAR=INTEGER, got {binding!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "{source}", "-t", "RollingSum", "--input", "{missing}"],
            ["batch", "{source}", "{missing}"],
            ["run", "{missing}", "-t", "RollingSum", "--random-input", "8"],
            # read before any connection is opened
            ["client", "batch", "{source}", "{missing}"],
        ],
    )
    def test_missing_file(self, source, tmp_path, capsys, argv):
        missing = str(tmp_path / "missing.npy")
        argv = [arg.format(source=source, missing=missing) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: [Errno 2] No such file or directory: {missing!r}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("size", ["-3", "0"])
    def test_rewrite_refused_tile_size(self, tmp_path, capsys, size):
        path = tmp_path / "matmul.pbcc"
        path.write_text(MATMUL_CHAIN)
        assert main(["rewrite", str(path), "--apply", "--tile", size]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: tile size for i must be >= 1, got {size}\n"
        )
        assert "Traceback" not in captured.out

    def test_rewrite_unwritable_output(self, tmp_path, capsys):
        # Nothing is reported as rewritten until the file is written.
        path = tmp_path / "matmul.pbcc"
        path.write_text(MATMUL_CHAIN)
        missing = str(tmp_path / "missing_dir" / "x.pbcc")
        assert main(
            ["rewrite", str(path), "--apply", "--tile", "4", "-o", missing]
        ) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {missing!r}\n"
        )

    @pytest.mark.parametrize("option", [["--tile", "8"], ["--interchange"]])
    def test_rewrite_schedule_option_needs_apply(self, tmp_path, capsys, option):
        path = tmp_path / "matmul.pbcc"
        path.write_text(MATMUL_CHAIN)
        assert main(["rewrite", str(path), *option]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --tile and --interchange need --apply\n"
        assert captured.out == ""


class TestTrace:
    def test_trace_writes_jsonl(self, source, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main([
            "trace", source, "-t", "RollingSum",
            "--random-input", "32", "-o", str(out),
        ]) == 0
        events = load_jsonl(str(out))
        kinds = {e["kind"] for e in events}
        assert {"run_begin", "task_start", "task_finish", "run_end"} <= kinds
        starts = [e for e in events if e["kind"] == "task_start"]
        finishes = [e for e in events if e["kind"] == "task_finish"]
        assert len(starts) == len(finishes) > 0
        stdout = capsys.readouterr().out
        assert "events written to" in stdout
        assert "scheduler.tasks_started" in stdout

    def test_trace_streams_jsonl_without_output(self, source, capsys):
        assert main([
            "trace", source, "-t", "RollingSum", "--random-input", "16",
        ]) == 0
        stdout = capsys.readouterr().out
        lines = [line for line in stdout.splitlines() if line.strip()]
        assert all(json.loads(line)["kind"] for line in lines)

    def test_trace_deterministic_for_seed(self, source, tmp_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main([
                "trace", source, "-t", "RollingSum",
                "--random-input", "32", "--seed", "7", "-o", str(path),
            ]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_trace_workers_one_no_steals(self, source, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main([
            "trace", source, "-t", "RollingSum", "--random-input", "32",
            "--workers", "1", "-o", str(out),
        ]) == 0
        assert not [
            e for e in load_jsonl(str(out)) if e["kind"] == "steal"
        ]

    def test_trace_missing_inputs_errors(self, source, capsys):
        assert main(["trace", source, "-t", "RollingSum"]) == 2

    def test_leaf_path_overrides_leveled_config_entry(
        self, source, tmp_path, capsys
    ):
        """``--leaf-path`` wins even when the config levels the leaf
        path by size (a leveled entry shadows the flat tunable)."""
        config = ChoiceConfig()
        config.set_leveled_tunable(
            "RollingSum.__leaf_path__", Selector.static(1)
        )
        cfg_path = tmp_path / "cfg.json"
        config.save(str(cfg_path))
        base = [
            "trace", source, "-t", "RollingSum", "--random-input", "16",
            "--config", str(cfg_path), "-o", str(tmp_path / "t.jsonl"),
        ]
        assert main(base) == 0
        assert "exec.closure_calls" in capsys.readouterr().out
        assert main(base + ["--leaf-path", "interp"]) == 0
        assert "exec.closure_calls" not in capsys.readouterr().out


class TestTuneAndReport:
    def test_tune_writes_config(self, source, tmp_path, capsys):
        cfg = tmp_path / "tuned.json"
        assert main([
            "tune", source, "-t", "RollingSum",
            "--machine", "xeon1", "--min-size", "16", "--max-size", "64",
            "-o", str(cfg),
        ]) == 0
        out = capsys.readouterr().out
        assert "best simulated time" in out
        assert cfg.exists()
        restored = ChoiceConfig.load(str(cfg))
        assert restored.choice_for("RollingSum.B.1") is not None

    def test_tune_candidate_timeline(self, source, tmp_path, capsys):
        trace = tmp_path / "tune.jsonl"
        assert main([
            "tune", source, "-t", "RollingSum",
            "--machine", "xeon1", "--min-size", "16", "--max-size", "32",
            "--trace", str(trace),
        ]) == 0
        assert "candidate timeline" in capsys.readouterr().out
        events = load_jsonl(str(trace))
        candidates = [e for e in events if e["kind"] == "candidate"]
        generations = [e for e in events if e["kind"] == "generation"]
        assert candidates and generations
        for event in candidates:
            assert {"size", "time", "config", "tasks", "steals"} <= set(event)
        assert [g["size"] for g in generations] == [16, 32]

    def test_tune_jobs_byte_identical(self, source, tmp_path, capsys):
        """--jobs 2 fans evaluation over a process pool yet writes the
        exact bytes --jobs 1 writes."""
        configs = {}
        for jobs in (1, 2):
            cfg = tmp_path / f"tuned-j{jobs}.json"
            assert main([
                "tune", source, "-t", "RollingSum",
                "--machine", "xeon8", "--min-size", "16", "--max-size", "32",
                "--jobs", str(jobs), "-o", str(cfg),
            ]) == 0
            configs[jobs] = cfg.read_bytes()
        assert configs[1] == configs[2]

    def test_tune_cache_warm_rerun(self, source, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        cfg = tmp_path / "tuned.json"
        argv = [
            "tune", source, "-t", "RollingSum",
            "--machine", "xeon1", "--min-size", "16", "--max-size", "32",
            "--cache", str(cache), "-o", str(cfg),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "measurement cache" in cold
        assert cache.exists()
        first = cfg.read_bytes()

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "(0 fresh evaluations this run)" in warm
        assert cfg.read_bytes() == first

    def test_tune_injected_faults_byte_identical(self, source, tmp_path, capsys):
        """The acceptance bar: tuning with --jobs 2 under injected
        crashes and hangs writes the exact bytes of a clean --jobs 1
        run, and reports what it recovered from."""
        base = [
            "tune", source, "-t", "RollingSum",
            "--machine", "xeon8", "--min-size", "16", "--max-size", "32",
        ]
        clean = tmp_path / "clean.json"
        assert main(base + ["--jobs", "1", "-o", str(clean)]) == 0
        capsys.readouterr()

        faulty = tmp_path / "faulty.json"
        assert main(base + [
            "--jobs", "2",
            "--inject", "worker-crash:0.2,worker-hang:0.05,hang=2",
            "--measure-timeout", "1", "--max-retries", "3",
            "-o", str(faulty),
        ]) == 0
        out = capsys.readouterr().out
        assert faulty.read_bytes() == clean.read_bytes()
        assert "fault recovery:" in out
        assert "retries" in out

    def test_tune_clean_run_reports_no_recovery(self, source, tmp_path, capsys):
        assert main([
            "tune", source, "-t", "RollingSum",
            "--machine", "xeon1", "--min-size", "16", "--max-size", "16",
        ]) == 0
        assert "fault recovery:" not in capsys.readouterr().out

    def test_tune_corrupt_cache_surfaced(self, source, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        cache.write_text('{truncated row\n["not", "a", "record"]\n')
        assert main([
            "tune", source, "-t", "RollingSum",
            "--machine", "xeon1", "--min-size", "16", "--max-size", "16",
            "--cache", str(cache),
        ]) == 0
        out = capsys.readouterr().out
        assert "2 corrupt cache lines skipped" in out
        assert (tmp_path / "cache.jsonl.bad").exists()

    def test_tune_bad_inject_spec_errors(self, source, capsys):
        assert main([
            "tune", source, "-t", "RollingSum", "--inject", "nonsense:0.5",
        ]) == 2
        assert "--inject" in capsys.readouterr().err

    def test_report(self, tmp_path, capsys):
        config = ChoiceConfig()
        config.set_choice("T.Y.0", Selector(((64, 0), (None, 1))))
        config.set_tunable("T.k", 9)
        path = tmp_path / "cfg.json"
        config.save(str(path))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "T.Y.0" in out and "T.k = 9" in out
