"""Verifier driver: run every pass, collect one report, serve the CLI.

Entry points, lowest to highest level:

* :func:`analyze_transform` — the six pass families over one compiled
  transform.
* :func:`analyze_program` — every transform of a compiled program.
* :func:`check_source` — compile DSL text (pipeline analysis disabled —
  this driver *is* the analysis) and analyze; compile failures become
  error diagnostics instead of exceptions.
* :func:`check_file` — dispatch on extension: DSL files are checked as
  source; ``.py`` files are imported and their ``build_program()``
  and/or module-level DSL string constants are checked.
* :func:`run_check` — the ``repro check`` subcommand body.

Diagnostic counts are mirrored into a :class:`repro.observe.TraceSink`
when one is passed: ``analysis.diagnostics.<CODE>`` per code plus the
``analysis.errors`` / ``analysis.warnings`` / ``analysis.infos`` totals.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
from typing import List

from repro.analysis.bounds import check_bounds
from repro.analysis.coverage import check_coverage
from repro.analysis.depend import check_depend
from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.analysis.leafpaths import check_leaf_paths
from repro.analysis.lints import check_lints
from repro.analysis.races import check_races
from repro.analysis.witness import DEFAULT_BUDGET, Replay, WitnessBudget
from repro.language.errors import PetaBricksError
from repro.language.parser import parse_program


def analyze_transform(
    compiled,
    budget: WitnessBudget = DEFAULT_BUDGET,
    path: str = "",
    errors_only: bool = False,
) -> List[Diagnostic]:
    """Every pass family over one compiled transform, the witness
    passes reading one :class:`Replay` that lives for this call."""
    replay = Replay(compiled, budget)
    diagnostics = []
    diagnostics.extend(check_bounds(replay, path))
    diagnostics.extend(check_races(replay, path))
    diagnostics.extend(check_coverage(replay, path))
    if not errors_only:
        diagnostics.extend(check_lints(replay, path))
        diagnostics.extend(check_leaf_paths(compiled, path))
        diagnostics.extend(check_depend(replay, path))
    if errors_only:
        diagnostics = [d for d in diagnostics if d.is_error]
    return diagnostics


def analyze_program(
    program,
    budget: WitnessBudget = DEFAULT_BUDGET,
    path: str = "",
    errors_only: bool = False,
) -> AnalysisReport:
    report = AnalysisReport()
    for name in sorted(program.transforms):
        report.extend(
            analyze_transform(
                program.transforms[name], budget, path, errors_only
            )
        )
    return report


def diagnostic_from_error(exc: PetaBricksError, path: str = "") -> Diagnostic:
    """A compile failure as a diagnostic (code PB001 when untagged)."""
    return Diagnostic(
        code=exc.code or "PB001",
        message=exc.message,
        line=exc.line,
        column=exc.column,
        hint=exc.hint or "",
        path=path,
    )


def check_source(
    source: str,
    path: str = "",
    budget: WitnessBudget = DEFAULT_BUDGET,
) -> AnalysisReport:
    """Compile DSL text and run every pass; never raises on bad input.
    A template is checked at both ends of its declared range."""
    from repro.compiler.codegen import compile_program
    from repro.compiler.ir import build_ir

    try:
        parsed = parse_program(source)
        ends = {
            decl.name: sorted({lo, hi})
            for decl in parsed.transforms
            for _, lo, hi in decl.template_params
        }
        program = compile_program(build_ir(parsed, ends), analyze=False)
    except PetaBricksError as exc:
        return AnalysisReport([diagnostic_from_error(exc, path)])
    return analyze_program(program, budget, path)


#: A module-level string constant is treated as DSL when it opens with a
#: transform declaration.
_DSL_RE = re.compile(r"^\s*transform\s+(\w+)", re.MULTILINE)
_QUOTE_RE = re.compile(r"[A-Za-z]*(\"\"\"|\'\'\'|\"|\')")


def import_file(path: str):
    """Import a ``.py`` file: ``(module, None)``, or ``(None, the PB001
    diagnostic)`` when it cannot be imported — ``repro check`` and
    ``repro rewrite`` read modules through this one door."""
    spec = importlib.util.spec_from_file_location(
        f"_repro_check_{abs(hash(path))}", path
    )
    if spec is None or spec.loader is None:
        message = f"cannot import {path}"
    else:
        module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
            return module, None
        except Exception as exc:  # import errors are check failures, not crashes
            message = f"import failed: {exc}"
    return None, Diagnostic(code="PB001", message=message, path=path)


def check_python_module(
    path: str, budget: WitnessBudget = DEFAULT_BUDGET
) -> AnalysisReport:
    """Import a ``.py`` file and check the transforms it defines.

    Checks ``build_program()`` when the module exports one, and any
    module-level string constant that parses as transform source (e.g.
    ``rollingsum.SOURCE``), each once: a constant assigned a string
    literal reports at its position in the file, and neither a constant
    assembled from checked ones (``SERVED = BLUR + ROLLINGSUM``) nor a
    ``build_program()`` transform a checked constant declares is
    checked again.  Bundled apps and examples all guard their entry
    points with ``__main__``, so importing them is side-effect free.
    """
    module, failure = import_file(path)
    if failure is not None:
        return AnalysisReport([failure])
    report = AnalysisReport()

    # Where each string literal assigned at module level opens: its text
    # is checked behind that many lines and columns of padding.
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    padding = {}
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            literal = node.value
            quote = _QUOTE_RE.match(ast.get_source_segment(text, literal))
            for target in node.targets:
                if isinstance(target, ast.Name) and quote:
                    padding[target.id] = "\n" * (literal.lineno - 1) + " " * (
                        literal.col_offset + quote.end()
                    )
    # Literals first, so an assembled constant finds its parts checked.
    checked_sources, checked_names = [], set()
    for name in sorted(vars(module), key=lambda name: (name not in padding, name)):
        value = getattr(module, name)
        if not isinstance(value, str):
            continue
        rest = value
        for source in checked_sources:
            rest = rest.replace(source, "")
        if _DSL_RE.search(rest):
            checked_sources.append(value)
            checked_names.update(_DSL_RE.findall(value))
            report.extend(check_source(padding.get(name, "") + value, path, budget))
    builder = getattr(module, "build_program", None)
    if callable(builder):
        try:
            program = builder()
        except PetaBricksError as exc:
            report.add(diagnostic_from_error(exc, path))
        else:  # a transform compiled from a checked constant is not checked again
            for name in sorted(set(program.transforms) - checked_names):
                report.extend(analyze_transform(program.transforms[name], budget, path))
    return report


def check_file(path: str, budget: WitnessBudget = DEFAULT_BUDGET) -> AnalysisReport:
    if path.endswith(".py"):
        return check_python_module(path, budget)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        return AnalysisReport([Diagnostic(code="PB001", message=str(exc), path=path)])
    return check_source(source, path, budget)


def record_report(report: AnalysisReport, sink) -> None:
    """Mirror diagnostic counts into a TraceSink's counters."""
    if sink is None:
        return
    for code, count in report.counts_by_code().items():
        sink.count(f"analysis.diagnostics.{code}", count)
    sink.count("analysis.errors", len(report.errors))
    sink.count("analysis.warnings", len(report.warnings))
    sink.count("analysis.infos", len(report.infos))


def run_check(
    paths: List[str],
    fmt: str = "text",
    strict: bool = False,
    budget: WitnessBudget = DEFAULT_BUDGET,
    sink=None,
    out=None,
) -> int:
    """The ``repro check`` subcommand: check files, print, exit-code."""
    out = out if out is not None else sys.stdout
    report = AnalysisReport()
    for path in paths:
        report.extend(check_file(path, budget).diagnostics)
    record_report(report, sink)
    if fmt == "json":
        print(report.to_json(), file=out)
    else:
        for diag in report:
            print(diag.format(), file=out)
        print(f"repro check: {report.summary_line()}", file=out)
    return report.exit_code(strict=strict)
