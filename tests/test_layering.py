"""The layering, pinned without a timer.

``repro.compiler`` owns the compiled transform; every other package
reads it through public members — the per-site facts through
``CompiledTransform.sites`` (:class:`repro.compiler.codegen.Site`).
An ``ast`` walk of ``src/repro`` holds that line, and one behavioural
test holds what the site object is for: a fact is derived once and the
same object is read by every consumer.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import repro
from repro.compiler import ChoiceConfig, compile_program
from tests.strategies import STAGES, planned

SRC = pathlib.Path(repro.__file__).parent

#: names the code base binds compiled transforms to
TRANSFORM_NAMES = {"compiled", "transform", "variant", "current", "callee"}

#: members this PR removed from ``CompiledTransform`` (and the wrappers
#: around them); nothing under ``src/`` may bring one back
REMOVED = {
    "_vector_plan", "_vector_plans", "_schedule_verdict", "_sched_cache",
    "_var_directions_cached", "_dir_cache", "_kernels", "_segments",
    "rule_sites", "vector_leaf_status", "_site_plan",
}

#: the second expression parser and the hand-written tree recursions
#: that ``ExprNode.walk`` / ``map_vars`` replaced; none may come back
EXPRESSION_WALKERS = {"parse_affine", "_TOKEN_RE", "_map_expr", "_collect_names"}

#: packages that sit below the command line
LIBRARY = (
    "compiler", "engine_fast", "analysis", "rewrite", "batch", "autotuner",
    "runtime",
)


def modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), ast.parse(path.read_text())


def names_a_transform(node):
    """``compiled`` / ``transform`` / ... or any ``<x>.transform``."""
    if isinstance(node, ast.Name):
        return node.id in TRANSFORM_NAMES
    return isinstance(node, ast.Attribute) and node.attr == "transform"


def test_no_private_member_of_a_compiled_transform_is_read_outside_compiler():
    offenders = []
    for path, tree in modules():
        if path.parts[0] == "compiler":
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and names_a_transform(node.value)
            ):
                offenders.append(f"{path}:{node.lineno} .{node.attr}")
    assert offenders == []


def offending_names(banned):
    """``path:line name`` of every use, definition or import under
    ``src/`` of a name in ``banned``."""
    offenders = []
    for path, tree in modules():
        for node in ast.walk(tree):
            name = (
                node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, (ast.FunctionDef, ast.alias))
                else None
            )
            if name in banned:
                offenders.append(f"{path}:{node.lineno} {name}")
    return offenders


def test_the_removed_accessors_stay_removed():
    assert offending_names(REMOVED) == []


def test_expressions_have_one_parser_and_one_walker():
    assert offending_names(EXPRESSION_WALKERS) == []


#: the passes that report only through ``analysis.diagnostics.Findings``
PASSES = {"bounds", "races", "coverage", "lints", "leafpaths", "depend"}


def test_a_finding_has_one_home():
    """A finding's severity is its code's ``CODE_TABLE`` row, and the
    passes build findings through the one collector, never by hand."""
    offenders = []
    for path, tree in modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if path != pathlib.Path("analysis", "diagnostics.py") and any(
                keyword.arg == "severity" for keyword in node.keywords
            ):
                offenders.append(f"{path}:{node.lineno} severity=")
            if (
                path.parts[0] == "analysis"
                and path.stem in PASSES
                and isinstance(node.func, ast.Name)
                and node.func.id == "Diagnostic"
            ):
                offenders.append(f"{path}:{node.lineno} Diagnostic(")
    assert offenders == []


def imports(tree):
    """``(line, dotted name)`` of everything ``tree`` imports; a
    ``from a import b`` names both ``a`` and ``a.b``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module or ""
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def is_under(name, package):
    return name == package or name.startswith(package + ".")


def test_the_benchmarks_hook_points_stay_where_it_patches_them():
    """``benchmarks/e2e/layers.py`` wraps each ``PATCHES`` row in the
    namespace its callers read it from, so a function moved out of it
    reads 0 in the ledger.  Every row still names a function defined
    there; only ``codegen`` reaches the lowerer and the geometry
    builder; planning imports nothing of execution."""
    spec = importlib.util.spec_from_file_location(
        "e2e_layers", SRC.parents[1] / "benchmarks" / "e2e" / "layers.py"
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for module_name, class_name, attr, _span in layers.PATCHES:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = vars(owner)[class_name]
        value = vars(owner)[attr]
        assert inspect.isfunction(getattr(value, "__func__", value)), attr
    compiler = [(path, tree) for path, tree in modules() if path.parts[0] == "compiler"]
    assert {
        path.name
        for path, tree in compiler
        for node in ast.walk(tree)
        if getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
        in {"lower_rule", "build_geometry"}
    } == {"codegen.py"}
    assert [
        name
        for path, tree in compiler
        if path.name == "plan.py"
        for _line, name in imports(tree)
        if is_under(name, "repro.compiler.leaves")
    ] == []


def test_the_library_does_not_import_the_command_line():
    offenders = [
        f"{path}:{line}"
        for path, tree in modules()
        if path.parts[0] in LIBRARY
        for line, name in imports(tree)
        if is_under(name, "repro.cli")
    ]
    assert offenders == []


def test_no_module_imports_another_modules_private_name():
    """``from repro.x.y import _z`` reaches behind a module's interface:
    what a second module needs is public, and named for what it is."""
    offenders = [
        f"{path}:{line} {name}"
        for path, tree in modules()
        for line, name in imports(tree)
        if is_under(name, "repro")
        and name.rpartition(".")[2].startswith("_")
        and not name.endswith("__")
    ]
    assert offenders == []


def test_no_test_module_imports_another():
    """What two test modules share lives in ``tests/strategies.py``."""
    offenders = [
        f"{path.name}:{line} {name}"
        for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py"))
        for line, name in imports(ast.parse(path.read_text()))
        if is_under(name, "tests") and not is_under(name, "tests.strategies")
    ]
    assert offenders == []


def test_serve_speaks_http_through_its_own_transport_only():
    """Nothing under ``repro/serve`` goes back to the stdlib's HTTP
    stack, and the transport stands alone: no import from ``repro``."""
    offenders = [
        f"{path}:{line} {name}"
        for path, tree in modules()
        if path.parts[0] == "serve"
        for line, name in imports(tree)
        if any(
            is_under(name, banned)
            for banned in ("http.server", "http.client", "email")
        )
        or (path.name == "transport.py" and is_under(name, "repro"))
    ]
    assert offenders == []


def test_the_command_line_is_a_client_of_the_daemon_and_the_tuner():
    """``repro batch`` is ``/batch`` run in process and ``repro tune`` is
    ``tune_from_spec``: the command line names none of the pieces those
    own, so it cannot wire them a second way."""
    tree = ast.parse((SRC / "cli.py").read_text())
    owned = {
        "BatchEngine", "result_record", "malformed_record", "EvaluatorSpec",
        "Evaluator",
    }
    named = {
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert named & owned == set()


def test_only_the_autotuner_constructs_a_genetic_tuner():
    offenders = [
        f"{path}:{node.lineno}"
        for path, tree in modules()
        if path.parts[0] != "autotuner"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "GeneticTuner"
    ]
    assert offenders == []


def test_a_sites_kernel_is_lowered_once_however_many_configs_plan_it(
    monkeypatch,
):
    """Plans are per configuration, the closure kernel is per site: it
    is lowered by the first plan that needs it and every later plan
    holds the same object.  (The vector half of the same pin — serial
    step ``is`` stacked step ``is`` ``site.vector[0]`` — sits with its
    spies in ``test_batch.py``.)"""
    import repro.compiler.codegen as codegen

    lowered = []
    lower_rule = codegen.lower_rule

    def spy_lower_rule(rule, *args):
        lowered.append(rule.label)
        return lower_rule(rule, *args)

    monkeypatch.setattr(codegen, "lower_rule", spy_lower_rule)
    stages = compile_program(STAGES).transform("Stages")
    shapes = [(3, 4)]
    kernels = []
    for block in (1, 2, 3, 4):
        config = ChoiceConfig()
        config.set_tunable("Stages.__block_size__", block)
        plan = stages.plan(config, shapes)
        kernels.append([step.kernel for step in plan.steps])
    assert len(planned(stages)) == 4
    assert sorted(lowered) == ["rule0", "rule1", "rule2"]
    for per_plan in kernels:
        assert all(a is b for a, b in zip(per_plan, kernels[0]))
        assert [k is not None for k in per_plan] == [True] * 3
    assert {id(site.kernel) for site in stages.sites.values()} == {
        id(kernel) for kernel in kernels[0]
    }


def test_a_rule_kernel_has_one_callable_shape():
    """The closure leaf is a block loop and nothing else: no source
    under ``src/`` and no generated kernel names a per-cell
    ``_instance`` closure beside it."""
    import re

    word = re.compile(r"(?<![A-Za-z0-9_])_instance(?![A-Za-z0-9_])")
    assert [
        str(path) for path in sorted(SRC.rglob("*.py"))
        if word.search(path.read_text())
    ] == []
    stages = compile_program(STAGES).transform("Stages")
    for site in stages.sites.values():
        source = site.kernel.source
        assert not word.search(source)
        assert source.count("    def ") == 1 and "def _block(" in source


def test_only_the_engine_records_a_leaf_after_the_fact():
    """``TaskRecorder.record_leaf`` is for a scope that has already run
    and opened no task: only the engine's own leaf loops can know that."""
    offenders = [
        str(path)
        for path, tree in modules()
        if path.parts[0] not in ("compiler", "runtime")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "record_leaf"
    ]
    assert offenders == []


def test_the_engine_opens_task_scopes_through_the_direct_pair():
    """A frame pays one ``open``/``close`` per recorded task and no scope
    object: no ``with …task(…)`` in the engine's replay.  The ``with``
    form stays for ``observe/stress.py`` and the tests."""
    tree = ast.parse((SRC / "compiler" / "leaves.py").read_text())
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.With, ast.AsyncWith))
        for item in node.items
        if isinstance(item.context_expr, ast.Call)
        and getattr(
            item.context_expr.func, "attr", getattr(item.context_expr.func, "id", None)
        ) == "task"
    ]
    assert offenders == []


#: the :class:`ChoiceConfig` methods that read a run's configuration
CONFIG_READS = {"knob", "choice_for", "tunable_at"}


def config_reads(path):
    """``(enclosing definition, method)`` of every call in ``path`` of a
    method in :data:`CONFIG_READS`; the definition is dotted
    (``Class.method``), ``""`` at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in CONFIG_READS
            ):
                found.append((scope, child.func.attr))
            visit(child, inner)

    visit(ast.parse(path.read_text()), "")
    return found


def test_a_frame_reads_its_configuration_in_one_place():
    """On the execution side a run's configuration is read by
    ``plan.decisions`` alone — ``__fuse__`` included — and by the
    ``CompiledTransform.tunables_at`` hook it calls: the plan carries
    every decision, so nothing that replays or stacks one asks again."""
    engine = [
        SRC / "compiler" / "leaves.py",
        SRC / "compiler" / "codegen.py",
        *sorted((SRC / "batch").rglob("*.py")),
        *sorted((SRC / "engine_fast").rglob("*.py")),
    ]
    offenders = [
        f"{path.relative_to(SRC)} {scope}: .{method}("
        for path in engine
        for scope, method in config_reads(path)
        if scope != "CompiledTransform.tunables_at"
    ]
    assert offenders == []
    assert {scope for scope, _ in config_reads(SRC / "compiler" / "plan.py")} == {
        "decisions"
    }
