"""Tests for the static verifier suite (repro.analysis).

Three layers: golden-diagnostic tests pin exact code/severity/position
for seeded known-bad transforms, a hypothesis property test checks the
bounds checker's soundness guarantee (a transform whose executions are
in-bounds is never flagged), and a sweep asserts every bundled app and
example passes ``repro check --strict``.
"""

import collections
import dataclasses
import difflib
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    AnalysisReport,
    CODE_TABLE,
    Diagnostic,
    Replay,
    WitnessBudget,
    analyze_transform,
    check_bounds,
    check_file,
    check_source,
    record_report,
    run_check,
)
from repro.compiler import ChoiceConfig, Selector, compile_program
from repro.compiler.config import site_key
from repro.compiler.ir import RegionIR
from repro.language.errors import CompileError, PetaBricksError
from repro.observe import TraceSink
from repro.symbolic import Box, Interval
from tests.strategies import HEAT, MATMUL_CHAIN

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# Golden diagnostics: known-bad sources -> exact code/severity/line
# ---------------------------------------------------------------------------

OVERLAP_WRITE = """transform Overlap
from A[n]
to B[n]
{
  to (B.region(i, i+2) b) from (A.cell(i) a) { b = a; }
}
"""

DUP_BIND = """transform Dup
from A[n]
to B[n]
{
  to (B.cell(i) x, B.cell(i) y) from (A.cell(i) a) { x = a; y = a; }
}
"""

META_FALLBACK_OVERLAP = """transform MetaOverlap
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) where i % 2 == 0 { b = a; }
  to (B b) from (A a) { b = a; }
}
"""

DEADLOCK = """transform Cycle
from A[n]
to B[n]
through C[n]
{
  to (B b) from (C c) { b = c; }
  to (C c) from (B b) { c = b; }
}
"""

NO_ORDER = """transform NoOrder
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) l, B.cell(i+1) r) { b = a + l + r; }
  secondary to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
"""

UNBOUNDED = """transform Unb
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, 2*i - j) a) { b = sum(a); }
  to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
"""

UNSAT_WHERE = """transform Unsat
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) where i % 2 == 2 { b = a; }
  to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
"""

UNUSED_DECLS = """transform Unused
from A[n], C[n]
to B[n]
tunable block(1, 64)
{
  to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
"""

SHADOWED = """transform Shadow
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = a; }
  secondary to (B.cell(i) b) from (A.cell(i) a) { b = 2 * a; }
}
"""

DEAD_RULE = """transform Dead
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) where i < n / 2 { b = a; }
  to (B.cell(i) b) from (A.cell(i) a) where i >= n / 2 { b = 2 * a; }
  to (B.region(1, n-1) w) from (A a) { w = 0; }
}
"""

#: fixture -> required (code, severity, line) triples; the report may
#: additionally contain info-severity diagnostics only.
GOLDEN = {
    "overlap_write": (
        OVERLAP_WRITE,
        {("PB201", "error", 5), ("PB301", "error", 5)},
    ),
    "dup_bind": (DUP_BIND, {("PB202", "error", 5)}),
    "meta_fallback_overlap": (
        META_FALLBACK_OVERLAP,
        {("PB203", "error", 5), ("PB203", "error", 6), ("PB201", "error", 6)},
    ),
    "deadlock": (DEADLOCK, {("PB204", "error", 1)}),
    "no_order": (NO_ORDER, {("PB205", "error", 5)}),
    "unbounded": (UNBOUNDED, {("PB102", "error", 5)}),
    "unsat_where": (UNSAT_WHERE, {("PB401", "warning", 5)}),
    "unused_decls": (
        UNUSED_DECLS,
        {("PB402", "warning", 4), ("PB403", "warning", 2)},
    ),
    "shadowed": (SHADOWED, {("PB405", "warning", 6)}),
    "dead_rule": (DEAD_RULE, {("PB404", "warning", 7)}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_diagnostics(name):
    source, expected = GOLDEN[name]
    report = check_source(source, path=name)
    got = {(d.code, d.severity, d.line) for d in report if d.severity != "info"}
    assert got == expected
    for diag in report:
        assert diag.code in CODE_TABLE
        assert diag.line > 0, f"{diag.code} lost its source position"
        assert diag.column > 0, f"{diag.code} lost its source column"


def test_golden_fixtures_span_eight_codes_across_all_families():
    codes = set()
    for source, expected in GOLDEN.values():
        codes.update(code for code, _, _ in expected)
    assert len(codes) >= 8
    families = {CODE_TABLE[code][1] for code in codes}
    assert families == {"bounds", "races", "coverage", "hygiene"}


def test_witness_on_every_error():
    """Witness-based errors carry a concrete size/instance assignment."""
    report = check_source(OVERLAP_WRITE)
    witnessed = [d for d in report.errors if d.code in ("PB201", "PB301")]
    assert witnessed
    for diag in witnessed:
        assert "n=" in diag.witness


# ---------------------------------------------------------------------------
# PB101: out-of-bounds reads the symbolic layer failed to exclude
# ---------------------------------------------------------------------------


def _compiled_with_shifted_read():
    """A correct transform whose from-region is then widened behind the
    symbolic layer's back — modeling an inference bug, the exact class
    of defect the witness checker exists to catch."""
    program = compile_program(
        "transform Shift\nfrom A[n]\nto B[n]\n"
        "{\n  to (B.cell(i) b) from (A.cell(i) a) { b = a; }\n}\n",
        analyze=False,
    )
    compiled = program.transforms["Shift"]
    rule = compiled.ir.rules[0]
    region = rule.from_regions[0]
    shifted = Box(
        [Interval(iv.lo + 1, iv.hi + 1) for iv in region.box.intervals]
    )
    rule.from_regions = (dataclasses.replace(region, box=shifted),)
    return compiled


def test_bounds_checker_reports_oob_read_with_witness():
    compiled = _compiled_with_shifted_read()
    diagnostics = check_bounds(Replay(compiled))
    oob = [d for d in diagnostics if d.code == "PB101"]
    assert len(oob) == 1
    diag = oob[0]
    assert diag.severity == "error"
    assert diag.rule == "rule0"
    assert "reads" in diag.message
    assert "n=" in diag.witness and "i=" in diag.witness


def test_bounds_witness_names_a_real_crash():
    """The PB101 witness must be a size at which execution faults."""
    compiled = _compiled_with_shifted_read()
    diag = [d for d in check_bounds(Replay(compiled)) if d.code == "PB101"][0]
    env = dict(
        part.split("=") for part in diag.witness.split(", ")
    )
    n = int(env["n"])
    with pytest.raises((IndexError, PetaBricksError)):
        compiled.run([np.arange(float(n))])


# ---------------------------------------------------------------------------
# Regression: exact interval conversion for strided/fractional bounds
# ---------------------------------------------------------------------------

STRIDE = """transform Stride
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(2 * i) a) where i < (n + 1) / 2 { b = a; }
  secondary to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
"""


def test_strided_read_bounds_are_exact():
    """A from-coordinate with stride 2 previously admitted one instance
    past the matrix edge at even sizes (the +1 interval shift rounded
    (n-1)/2 up); n=4 and n=6 crashed with IndexError.  The bounds are
    now shifted by the exact 1/lcm step, the program both checks clean
    and runs at every size."""
    report = check_source(STRIDE)
    assert not report.errors
    program = compile_program(STRIDE)
    transform = program.transforms["Stride"]
    for n in range(1, 9):
        # pre-fix this raised IndexError (A[n] read) at n = 4 and 6
        result = transform.run([np.arange(float(n))])
        out = result.outputs["B"].data
        for i, value in enumerate(out):
            assert value in (float(i), float(2 * i))
            if value == float(2 * i) and i:
                assert 2 * i < n, "strided read went past the matrix edge"


# ---------------------------------------------------------------------------
# Soundness property: in-bounds executions are never flagged
# ---------------------------------------------------------------------------


def _window_source(lo: int, hi: int) -> str:
    return (
        "transform Window\n"
        "from A[n]\n"
        "to B[n]\n"
        "{\n"
        f"  to (B.cell(i) b) from (A.region(i + {lo}, i + {hi}) a)"
        " { b = sum(a); }\n"
        "  to (B.cell(i) b) from (A.cell(i) a) { b = a; }\n"
        "}\n"
    )


@settings(max_examples=30, deadline=None)
@given(lo=st.integers(-2, 2), width=st.integers(1, 3))
def test_bounds_checker_soundness(lo, width):
    """If every execution (all sizes 1..6, every choice option) stays
    in-bounds, the bounds checker must not emit PB101."""
    source = _window_source(lo, lo + width)
    try:
        program = compile_program(source, analyze=False)
    except PetaBricksError:
        return  # rejected by the pipeline: nothing to check
    compiled = program.transforms["Window"]
    flagged = [
        d for d in check_bounds(Replay(compiled)) if d.code == "PB101"
    ]
    crashed = False
    for n in range(1, 7):
        for _, segment in compiled.choice_sites():
            for index in range(len(segment.options)):
                config = ChoiceConfig()
                config.set_choice(
                    site_key("Window", segment.matrix, segment.index),
                    Selector.static(index),
                )
                try:
                    compiled.run([np.arange(float(n))], config)
                except (IndexError, PetaBricksError):
                    crashed = True
    if not crashed:
        assert not flagged, [d.format() for d in flagged]


# ---------------------------------------------------------------------------
# Sweep: every bundled app and example checks clean
# ---------------------------------------------------------------------------

BUNDLED = sorted(
    glob.glob(os.path.join(REPO_ROOT, "src", "repro", "apps", "*.py"))
    + glob.glob(os.path.join(REPO_ROOT, "examples", "*.py"))
)
BUNDLED = [p for p in BUNDLED if os.path.basename(p) != "__init__.py"]


@pytest.mark.parametrize("path", BUNDLED, ids=os.path.basename)
def test_bundled_programs_check_clean(path):
    report = check_file(path)
    assert report.clean, "\n".join(d.format() for d in report)


# ---------------------------------------------------------------------------
# Pipeline hook: compile_program(analyze=True) raises tagged CompileErrors
# ---------------------------------------------------------------------------


def test_compile_hook_raises_on_race():
    with pytest.raises(CompileError) as err:
        compile_program(OVERLAP_WRITE)
    assert err.value.code in ("PB201", "PB301")
    assert err.value.line == 5
    assert err.value.hint
    # the unformatted message stays accessible next to the formatted str
    assert err.value.message in str(err.value)
    assert str(err.value).startswith("line 5:")


def test_compile_hook_opt_out():
    program = compile_program(OVERLAP_WRITE, analyze=False)
    assert "Overlap" in program.transforms


def test_compile_hook_ignores_warnings():
    # hygiene findings are warnings: compilation must still succeed
    program = compile_program(UNUSED_DECLS)
    assert "Unused" in program.transforms


# ---------------------------------------------------------------------------
# The seam: every witness pass reads one Replay, memoised per object
# ---------------------------------------------------------------------------


@pytest.fixture()
def ranges_calls(monkeypatch):
    """Calls of ``Site.ranges`` per (segment, rule, sizes)."""
    from repro.compiler.codegen import Site

    calls = collections.Counter()
    solve = Site.ranges

    def spy(site, env, segment_bounds):
        key = (site.segment.key, site.rule.rule_id, tuple(sorted(env.items())))
        calls[key] += 1
        return solve(site, env, segment_bounds)

    monkeypatch.setattr(Site, "ranges", spy)
    return calls


def test_analysis_solves_each_instance_space_once(ranges_calls):
    heat = compile_program(HEAT, analyze=False).transform("Heat")
    analyze_transform(heat)
    assert len(ranges_calls) > 100  # every (segment, rule, env) of Heat
    assert set(ranges_calls.values()) == {1}


def test_compile_hook_solves_each_instance_space_once(ranges_calls):
    compile_program(HEAT)
    assert ranges_calls and set(ranges_calls.values()) == {1}


def test_replay_memo_is_per_object_not_a_cache():
    """What one Replay learned at a large budget must not answer a
    second one at a small budget: that one reads exactly what a run that
    never saw the large budget reads, over-budget cut-offs included."""
    small = WitnessBudget(max_size=3, max_envs=4, max_instances=5, max_cells=6)
    cut_short = []
    for source in (HEAT, MATMUL_CHAIN, UNSAT_WHERE, META_FALLBACK_OVERLAP):
        (fresh,) = compile_program(source, analyze=False).transforms.values()
        (warm,) = compile_program(source, analyze=False).transforms.values()
        at_default = analyze_transform(warm)
        at_small = analyze_transform(warm, small)
        assert at_small == analyze_transform(fresh, small)
        assert analyze_transform(warm) == at_default
        cut_short.append(at_small != at_default)
    assert cut_short[0] and any(cut_short[1:])  # the budgets do differ

    heat = compile_program(HEAT, analyze=False).transform("Heat")
    big, little = Replay(heat), Replay(heat, WitnessBudget(max_instances=2))
    assert little.envs == big.envs
    e = len(big.envs) - 1
    segment, option = max(
        big.options(), key=lambda pair: len(big.applications(*pair, e))
    )
    apps = big.applications(segment, option, e)
    assert len(apps) > 2 and big.applications(segment, option, e) is apps
    assert little.applications(segment, option, e) is None


# ---------------------------------------------------------------------------
# Report plumbing: CLI driver, JSON, exit codes, observe counters
# ---------------------------------------------------------------------------


def test_run_check_text_and_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.pbcc"
    bad.write_text(OVERLAP_WRITE)
    warn = tmp_path / "warn.pbcc"
    warn.write_text(UNUSED_DECLS)
    clean = tmp_path / "clean.pbcc"
    clean.write_text(_window_source(0, 1))

    assert run_check([str(bad)]) == 1
    assert run_check([str(warn)]) == 0
    assert run_check([str(warn)], strict=True) == 1
    assert run_check([str(clean)], strict=True) == 0
    out = capsys.readouterr().out
    assert "error[PB" in out
    assert "repro check:" in out


def test_run_check_json(tmp_path, capsys):
    bad = tmp_path / "bad.pbcc"
    bad.write_text(DUP_BIND)
    code = run_check([str(bad)], fmt="json")
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] == 1
    assert payload["counts"].get("PB202") == 1
    (diag,) = [
        d for d in payload["diagnostics"] if d["severity"] == "error"
    ]
    assert diag["code"] == "PB202"
    assert diag["line"] == 5
    assert diag["path"] == str(bad)


def test_run_check_dedupes_repeated_paths(tmp_path, capsys):
    """Passing one file twice reports each finding exactly once."""
    path = tmp_path / "prog.pbcc"
    path.write_text(UNUSED_DECLS)
    run_check([str(path)], fmt="json")
    once = capsys.readouterr().out
    run_check([str(path), str(path)], fmt="json")
    twice = capsys.readouterr().out
    assert json.loads(once)["diagnostics"], "fixture must emit findings"
    assert once == twice


def test_run_check_order_is_argument_order_independent(tmp_path, capsys):
    """Multi-file JSON reports are stably sorted, not argument-ordered."""
    first = tmp_path / "a.pbcc"
    first.write_text(UNUSED_DECLS)
    second = tmp_path / "b.pbcc"
    second.write_text(OVERLAP_WRITE)
    run_check([str(first), str(second)], fmt="json")
    forward = capsys.readouterr().out
    run_check([str(second), str(first)], fmt="json")
    backward = capsys.readouterr().out
    assert forward == backward
    paths = [d["path"] for d in json.loads(forward)["diagnostics"]]
    assert paths == sorted(paths)


def test_cli_check_subcommand(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.pbcc"
    bad.write_text(OVERLAP_WRITE)
    assert main(["check", str(bad)]) == 1
    assert main(["check", "--format", "json", str(bad)]) == 1
    app = os.path.join(REPO_ROOT, "src", "repro", "apps", "rollingsum.py")
    assert main(["check", "--strict", app]) == 0


def test_record_report_counters():
    sink = TraceSink()
    report = check_source(OVERLAP_WRITE)
    record_report(report, sink)
    counts = report.counts_by_code()
    for code, count in counts.items():
        assert sink.counter(f"analysis.diagnostics.{code}") == count
    assert sink.counter("analysis.errors") == len(report.errors)


def test_parse_error_becomes_diagnostic():
    report = check_source("transform Broken from A[n]")
    assert len(report) == 1
    (diag,) = report
    assert diag.is_error
    assert diag.code == "PB001"


TEMPLATE_SHIFT = (
    "transform Shift template<K, 1, 8> from A[n] to B[n] "
    "{ to (B.cell(i) b) from (A.cell(i + K) a) { b = a; } }"
)


def test_a_template_is_checked_at_the_ends_of_its_range():
    twin = TEMPLATE_SHIFT.replace(" template<K, 1, 8>", "")
    (template_error,) = check_source(TEMPLATE_SHIFT).errors
    (twin_error,) = check_source(twin.replace("i + K", "i + 1")).errors
    assert template_error.code == twin_error.code == "PB301"
    assert template_error.message.startswith("Shift_1: ")


def test_code_table_severities_are_valid():
    for code, (severity, family, summary) in CODE_TABLE.items():
        assert severity in ("error", "warning", "info")
        assert Diagnostic(code=code, message=summary).severity == severity
        assert family in (
            "general", "bounds", "races", "coverage", "hygiene",
            "leafpaths", "depend",
        )


def test_code_table_covers_every_emitted_code():
    """Every PB-code literal a pass can emit has a CODE_TABLE row."""
    import re

    pattern = re.compile(r"[\"'](PB\d{3})[\"']")
    emitted = set()
    src_root = os.path.join(REPO_ROOT, "src", "repro")
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for filename in filenames:
            if not filename.endswith(".py") or filename == "diagnostics.py":
                continue
            with open(
                os.path.join(dirpath, filename), encoding="utf-8"
            ) as handle:
                emitted |= set(pattern.findall(handle.read()))
    unknown = emitted - set(CODE_TABLE)
    assert not unknown, f"codes emitted without a CODE_TABLE row: {unknown}"


def test_design_doc_table_matches_code_table():
    """DESIGN.md's diagnostic-code table lists exactly the registry."""
    import re

    design = os.path.join(REPO_ROOT, "DESIGN.md")
    with open(design, encoding="utf-8") as handle:
        text = handle.read()
    documented = set(re.findall(r"^\| (PB\d{3}) \|", text, re.MULTILINE))
    assert documented == set(CODE_TABLE)


def test_report_ordering_and_summary():
    report = AnalysisReport()
    report.add(Diagnostic(code="PB402", message="w", line=9))
    report.add(Diagnostic(code="PB101", message="e", line=2))
    assert [d.code for d in report] == ["PB101", "PB402"]
    assert report.exit_code() == 1
    assert "1 error(s), 1 warning(s)" in report.summary_line()


# ---------------------------------------------------------------------------
# PB503: per-transform batch-axis (stacking) eligibility
# ---------------------------------------------------------------------------

STACK_FULL = """transform Scale
from A[n, m]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a) { b = a * 2.0; }
}
"""

STACK_PARTIAL = """transform Clamp
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) where i % 2 == 0 { b = a; }
  to (B.cell(i) b) from (A.cell(i) a) { b = 2 * a; }
}
"""

STACK_NONE = """transform RollingSum
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, i+1) in) { b = sum(in); }
  to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) leftSum) { b = a + leftSum; }
}
"""

#: fixture -> the exact PB503 message the report must contain.
PB503_GOLDEN = {
    "stack_full": (
        STACK_FULL,
        "batch-stackable under every configuration",
    ),
    "stack_partial": (
        STACK_PARTIAL,
        "batch-stackable under some configurations "
        "(B.0: meta-rule with a where-clause fallback)",
    ),
    "stack_none": (
        STACK_NONE,
        "not batch-stackable: B.0: binding 'in' is a region view "
        "(only cell reads/writes vectorize)",
    ),
}


@pytest.mark.parametrize("name", sorted(PB503_GOLDEN))
def test_pb503_golden(name):
    source, message = PB503_GOLDEN[name]
    report = check_source(source, path=name)
    found = [d for d in report if d.code == "PB503"]
    assert len(found) == 1, "exactly one PB503 per transform"
    (diag,) = found
    assert diag.message == message
    assert diag.severity == "info"
    assert diag.line == 1 and diag.column == 1
    assert diag.hint


def test_pb503_matches_engine_behavior():
    """The diagnostic verdict and the batch engine's actual execution
    path can never disagree: full -> stacked, none -> serial fallback."""
    from repro.batch import BatchEngine
    from repro.batch.stacked import batch_eligibility

    rng = np.random.default_rng(7)
    for source, expect_stacked in ((STACK_FULL, True), (STACK_NONE, False)):
        program = compile_program(source)
        transform = next(iter(program.transforms.values()))
        status, _ = batch_eligibility(transform)
        assert (status == "full") is expect_stacked
        engine = BatchEngine()
        shape = tuple(
            2 for _ in transform.ir.inputs[0].dims
        )
        engine.submit(transform, [rng.uniform(-1, 1, shape)])
        (result,) = engine.gather()
        assert result.ok
        assert result.stacked is expect_stacked


# ---------------------------------------------------------------------------
# The verifier's whole report over the shipped programs, pinned byte for byte
# ---------------------------------------------------------------------------

CHECK_GOLDEN = os.path.join(REPO_ROOT, "tests", "data", "check_golden.json")


def test_check_report_matches_golden():
    """``repro check --strict --format json`` over the apps, the examples
    and the benchmark programs prints ``tests/data/check_golden.json``.
    Every PB code, witness, distance and refusal text is in it, so a
    change that moves any verdict shows here as a diff.  After an
    intended change, regenerate the file with the same command."""
    sources = [
        *sorted(glob.glob("src/repro/apps/*.py", root_dir=REPO_ROOT)),
        *sorted(glob.glob("examples/*.py", root_dir=REPO_ROOT)),
        "benchmarks/e2e/programs.py",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--strict", "--format", "json", *sources],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    with open(CHECK_GOLDEN, encoding="utf-8") as handle:
        golden = handle.read()
    diff = "".join(
        difflib.unified_diff(
            golden.splitlines(keepends=True),
            done.stdout.splitlines(keepends=True),
            "tests/data/check_golden.json",
            "repro check output",
        )
    )
    assert not diff, "repro check output differs from the golden:\n" + diff[:6000]


REWRITE_GOLDEN = os.path.join(REPO_ROOT, "tests", "data", "rewrite_golden.json")


def test_rewrite_report_matches_golden(tmp_path):
    """``repro rewrite <name>.pbcc --json`` over each DSL program of
    ``benchmarks/e2e/programs.py`` prints its entry of
    ``tests/data/rewrite_golden.json``.  The programs are written into a
    temporary directory and run from there, so the embedded path is the
    bare file name.  After an intended change, regenerate the file from
    the same runs."""
    from repro.analysis.check import import_file

    module, failure = import_file(
        os.path.join(REPO_ROOT, "benchmarks", "e2e", "programs.py")
    )
    assert failure is None, failure
    with open(REWRITE_GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(module.DSL)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    diffs = []
    for name, (source, _transform) in sorted(module.DSL.items()):
        (tmp_path / f"{name}.pbcc").write_text(source, encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "rewrite", f"{name}.pbcc", "--json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=False,
        )
        assert done.returncode == 0, done.stderr
        expected = json.dumps(golden[name], indent=2, sort_keys=True) + "\n"
        diffs += difflib.unified_diff(
            expected.splitlines(keepends=True),
            done.stdout.splitlines(keepends=True),
            f"rewrite_golden.json[{name}]",
            f"repro rewrite {name}.pbcc --json",
        )
    assert not diffs, "repro rewrite output differs from the golden:\n" + "".join(diffs)[:6000]
