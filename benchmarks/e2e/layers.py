"""Where the traced pass puts its spans: the public entry points of
each layer (layer = package under ``src/repro/``).

``install(tracer)`` wraps each function *in the namespace its callers
read it from* (``from x import f`` binds a second name, so the caller's
module is patched, not the defining one).  Functions called once per
cell (closure kernels, task recording) are deliberately left unwrapped:
a span costs about a microsecond, which would dominate them; their
time shows up as the self time of the enclosing ``compiler.run`` span
and as exact counts from the public ``run(sink=...)`` counters.
"""

import importlib

#: the order layers are reported in (``bench`` = the harness itself:
#: the root span of each op, whose self time is loop overhead)
LAYERS = (
    "language",
    "compiler",
    "analysis",
    "rewrite",
    "engine_fast",
    "batch",
    "serve",
    "autotuner",
    "runtime",
    "apps",
    "bench",
)

#: (module, class or None, attribute, span name); the layer is the span
#: name's prefix.
PATCHES = (
    ("repro.compiler.codegen", None, "parse_program", "language.parse"),
    ("repro.compiler.codegen", None, "build_ir", "compiler.build_ir"),
    ("repro.compiler.codegen", "CompiledTransform", "__init__",
     "compiler.transform_init"),
    ("repro.compiler.codegen", "CompiledTransform", "run", "compiler.run"),
    ("repro.compiler.codegen", "CompiledTransform", "bind_sizes_from_shapes",
     "compiler.bind_sizes"),
    ("repro.compiler.codegen", "CompiledTransform", "geometry_for",
     "compiler.geometry_for"),
    ("repro.compiler.codegen", "CompiledTransform", "tunables_at",
     "compiler.tunables_at"),
    ("repro.compiler.config", "ChoiceConfig", "to_json",
     "compiler.config_json"),
    ("repro.compiler.config", "ChoiceConfig", "from_json",
     "compiler.config_json"),
    ("repro.analysis.check", None, "analyze_program",
     "analysis.analyze_program"),
    ("repro.analysis.check", None, "analyze_transform",
     "analysis.analyze_transform"),
    ("repro.rewrite.fuse", None, "fusion_candidates",
     "analysis.fusion_candidates"),
    ("repro.compiler.codegen", "CompiledTransform", "fused_variant",
     "rewrite.fused_variant"),
    ("repro.compiler.codegen", None, "lower_rule", "engine_fast.lower_rule"),
    ("repro.compiler.codegen", None, "build_geometry",
     "engine_fast.build_geometry"),
    ("repro.batch.engine", "BatchEngine", "submit", "batch.submit"),
    ("repro.batch.engine", "BatchEngine", "gather", "batch.gather"),
    ("repro.batch.engine", None, "plan_stacked", "batch.plan_stacked"),
    ("repro.batch.engine", None, "run_stacked", "batch.run_stacked"),
    ("repro.serve.client", "ServeClient", "request", "serve.client_request"),
    ("repro.serve.app", "ServeApp", "run", "serve.app_run"),
    ("repro.serve.app", "ServeApp", "batch", "serve.app_batch"),
    ("repro.serve.app", "ServeApp", "compile", "serve.compile"),
    ("repro.serve.app", None, "result_record", "serve.result_record"),
    ("repro.serve.app", None, "bucket_for", "serve.bucket_for"),
    ("repro.serve.registry", "ServeRegistry", "lookup",
     "serve.registry_lookup"),
    ("repro.serve.store", "ArtifactStore", "save_program", "serve.store_save"),
    ("repro.serve.store", "ArtifactStore", "save_config", "serve.store_save"),
    ("repro.autotuner.tuner", "GeneticTuner", "tune", "autotuner.tune"),
    ("repro.autotuner.evaluation", "Evaluator", "measure",
     "autotuner.measure"),
)


class _JsonShim:
    """Stands in for the ``json`` module inside one serve module: spans
    around ``loads``/``dumps`` and the byte counts taken at the same
    boundary."""

    def __init__(self, tracer, json_module, where):
        self._json = json_module
        self._tracer = tracer
        self._where = where

    def __getattr__(self, name):
        return getattr(self._json, name)

    def loads(self, raw, **kwargs):
        tracer = self._tracer
        if not tracer.enabled:
            return self._json.loads(raw, **kwargs)
        tracer.begin(f"serve.json_decode.{self._where}", "serve")
        try:
            return self._json.loads(raw, **kwargs)
        finally:
            tracer.end()
            tracer.add(f"bytes.decoded.{self._where}", len(raw))

    def dumps(self, value, **kwargs):
        tracer = self._tracer
        if not tracer.enabled:
            return self._json.dumps(value, **kwargs)
        tracer.begin(f"serve.json_encode.{self._where}", "serve")
        try:
            text = self._json.dumps(value, **kwargs)
        finally:
            tracer.end()
        tracer.add(f"bytes.encoded.{self._where}", len(text))
        return text


def _traced_plan_vector_leaf(tracer, original):
    """``plan_vector_leaf`` whose returned :class:`VectorPlan` makes
    step functions that run inside an ``engine_fast.vector_step`` span
    — the vector kernels' own time, one span per data-parallel step."""

    planner = tracer.traced(
        original, "engine_fast.plan_vector_leaf", "engine_fast")

    def plan_vector_leaf(*args, **kwargs):
        plan, reason = planner(*args, **kwargs)
        if plan is not None:
            maker = plan.maker

            def traced_maker(*margs, **mkwargs):
                return tracer.traced(
                    maker(*margs, **mkwargs),
                    "engine_fast.vector_step",
                    "engine_fast",
                )

            plan.maker = traced_maker
        return plan, reason

    return plan_vector_leaf


def install(tracer):
    """Wrap every patch point; ``tracer.unwrap_all()`` restores them."""
    for module_name, class_name, attr, name in PATCHES:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attr, name, name.split(".", 1)[0])

    scheduler = importlib.import_module("repro.runtime.scheduler")

    def count_schedule(result):
        tracer.add("runtime.tasks", result.tasks)
        tracer.add("runtime.steals", result.steals)

    tracer.wrap(
        scheduler.WorkStealingScheduler, "run", "runtime.schedule_sim",
        "runtime", hook=count_schedule,
    )

    vectorize = importlib.import_module("repro.engine_fast.vectorize")
    tracer.replace(
        vectorize,
        "plan_vector_leaf",
        _traced_plan_vector_leaf(tracer, vectorize.plan_vector_leaf),
    )

    for where in ("client", "daemon", "app"):
        module = importlib.import_module(f"repro.serve.{where}")
        tracer.replace(module, "json", _JsonShim(tracer, module.json, where))


def trace_native_bodies(tracer, program):
    """Span every native (Python) rule body of a builder-made program
    as layer ``apps``, so the paper apps' own NumPy work separates from
    the compiler's dispatch and recursion around it."""
    for transform in program.transforms.values():
        for rule in transform.ir.rules:
            if rule.native_body is not None:
                rule.native_body = tracer.traced(
                    rule.native_body, "apps.native_body", "apps"
                )
