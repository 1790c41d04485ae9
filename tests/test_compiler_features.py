"""Tests for the remaining language/compiler features: template
transforms, generator declarations, configuration files (including
size-leveled tunables), static specialization and sibling calls."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import sort
from repro.autotuner import Evaluator
from repro.autotuner.evaluation import generator_inputs
from repro.compiler import (
    ChoiceConfig,
    Selector,
    TransformBuilder,
    build_ir,
    compile_program,
)
from repro.compiler.codegen import (
    ExecutionError,
    specialize,
)
from repro.compiler.ir import instantiate_template
from repro.language import parse_program
from repro.language.errors import CompileError
from repro.runtime import MACHINES
from tests.strategies import LEAVES, config_for

#: selectors of one to three levels: increasing thresholds, any options
SELECTORS = st.lists(
    st.integers(1, 10**6), max_size=2, unique=True
).flatmap(lambda bounds: st.lists(
    st.integers(-3, 2**33), min_size=len(bounds) + 1, max_size=len(bounds) + 1,
).map(lambda options: Selector(tuple(zip([*sorted(bounds), None], options)))))

TEMPLATED = """
transform Scale template <FACTOR, 1, 100>
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = a * FACTOR; }
}
"""

#: the parameter in a matrix dimension, a version range, region
#: coordinates, a ``where`` clause and a rule body
SHIFTED = """
transform Shift template<K, 1, 4>
from A[n + K]
to B[n]
through U<0..K>[n]
{
  to (U.cell(0, i) u) from (A.cell(i + K) a) { u = a; }
  to (U.cell(t, i) u) from (U.cell(t - 1, i) p) { u = p * 0.5 + K; }
  to (B.cell(i) b) from (U.cell(K, i) u) where i % K == 0 { b = u; }
  secondary to (B.cell(i) b) from (U.cell(K, i) u) { b = -u; }
}
"""
#: ``SHIFTED`` instantiated by hand at ``K = 3``
SHIFTED_3 = SHIFTED.replace(" template<K, 1, 4>", "").replace("K", "3")

WITH_GENERATOR = """
transform RandomInput
to R[n]
{
  to (R.cell(i) r) from () { r = rand(); }
}

transform Sum
from A[n]
to S
generator RandomInput
{
  to (S s) from (A a) { s = sum(a); }
}
"""


class TestTemplates:
    def test_instantiation_creates_named_instances(self):
        program = compile_program(TEMPLATED, template_values={"Scale": [2, 10]})
        assert set(program.transforms) == {"Scale_2", "Scale_10"}

    def test_instances_compute_with_their_value(self):
        program = compile_program(TEMPLATED, template_values={"Scale": [3]})
        result = program.transform("Scale_3").run([np.array([1.0, 2.0])])
        np.testing.assert_allclose(result.output("B"), [3.0, 6.0])

    def test_instances_have_independent_choice_sites(self):
        program = compile_program(TEMPLATED, template_values={"Scale": [2, 4]})
        sites_2 = [k for k, _ in program.transform("Scale_2").choice_sites()]
        sites_4 = [k for k, _ in program.transform("Scale_4").choice_sites()]
        assert sites_2 != sites_4

    def test_uninstantiated_template_not_compiled(self):
        program = compile_program(TEMPLATED)
        assert not program.transforms

    def test_instance_equals_the_hand_instantiated_declaration(self):
        (decl,) = parse_program(SHIFTED).transforms
        (hand,) = parse_program(SHIFTED_3).transforms
        assert instantiate_template(decl, 3) == replace(hand, name="Shift_3")

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_instance_runs_like_the_hand_instantiated_program(self, leaf):
        program = compile_program(SHIFTED, template_values={"Shift": [3]})
        instance = program.transform("Shift_3")
        hand = compile_program(SHIFTED_3).transform("Shift")
        data = [np.arange(11.0)]
        got = instance.run(data, config_for("Shift_3", leaf)).output("B")
        want = hand.run(data, config_for("Shift", leaf)).output("B")
        assert got.tobytes() == want.tobytes()

    def test_out_of_range_value_rejected(self):
        with pytest.raises(CompileError):
            compile_program(TEMPLATED, template_values={"Scale": [500]})


class TestGenerator:
    def test_generator_produces_inputs(self):
        program = compile_program(WITH_GENERATOR)
        gen = generator_inputs(program, "Sum")
        import random

        inputs = gen(16, random.Random(1))
        assert len(inputs) == 1 and inputs[0].shape == (16,)
        assert np.all((inputs[0] >= 0) & (inputs[0] < 1))

    def test_generator_varies_with_rng(self):
        program = compile_program(WITH_GENERATOR)
        gen = generator_inputs(program, "Sum")
        import random

        a = gen(8, random.Random(1))[0]
        b = gen(8, random.Random(2))[0]
        assert not np.allclose(a, b)

    def test_generator_feeds_evaluator(self):
        program = compile_program(WITH_GENERATOR)
        evaluator = Evaluator(
            program, "Sum", generator_inputs(program, "Sum"), MACHINES["xeon1"]
        )
        assert evaluator.time(ChoiceConfig(), 32) > 0

    def test_missing_generator_rejected(self):
        program = compile_program(WITH_GENERATOR)
        with pytest.raises(ValueError):
            generator_inputs(program, "RandomInput")


SORTISH = """
transform Reverse
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(n - 1 - i) a) { b = a; }
  to (B.cell(i) b) from (A.cell(n - 1 - i) a) { b = a + 0; }
}
"""


class TestSpecialization:
    def test_static_program_ignores_runtime_config(self):
        program = compile_program(SORTISH)
        frozen = ChoiceConfig()
        frozen.set_choice("Reverse.B.0", Selector.static(1))
        static = specialize(program, frozen)
        # Passing a different config at run time must have no effect.
        override = ChoiceConfig()
        override.set_choice("Reverse.B.0", Selector.static(0))
        result = static.transform("Reverse").run([np.arange(4.0)], override)
        np.testing.assert_allclose(result.output("B"), [3, 2, 1, 0])

    def test_multilevel_selector_keeps_both(self):
        selector = Selector(((64, 0), (None, 1)))
        assert [selector.pick(size) for size in (1, 63, 64, 10**6)] == [0, 0, 1, 1]

    def test_a_static_run_plans_only_in_the_clone(self):
        """The clone copies its transform's state, caches included: a
        static ladder-Sort run — 175 sibling frames — must recurse
        through the static program, fill only the clone's plan cache and
        leave the dynamic program's empty."""
        program = sort.build_program()
        ladder = ChoiceConfig()
        ladder.set_choice(
            sort.SORT_SITE, Selector(((128, 0), (2048, 3), (None, 2)))
        )
        static = specialize(program, ladder)
        keys = np.random.default_rng(3).uniform(0, 1, 4096)
        result = static.transform("Sort").run([keys])
        assert result.rule_applications == 175
        np.testing.assert_array_equal(result.output(), np.sort(keys))
        clone = static.transform("Sort")
        assert len(clone._plan_cache) > 1
        assert all(
            plan.transform is clone for plan in clone._plan_cache._data.values()
        )
        assert len(program.transform("Sort")._plan_cache) == 0


SPLIT = """
transform Split
from A[n]
to B[n], C[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = a; }
  to (C.cell(i) c) from (A.cell(i) a) { c = a + 1; }
}

transform CallInExpression
from A[n]
to B[n]
{
  to (B b) from (A a) { b = Split(a); }
}
"""


def native_caller(body, source=SPLIT):
    """The transforms of ``source`` plus ``CallNative``, whose one rule
    is the native ``body``."""
    builder = TransformBuilder("CallNative")
    builder.input("A", "n")
    builder.output("B", "n")
    builder.rule(to=[("B", "all", "b")], from_=[("A", "all", "a")], body=body)
    return compile_program(
        [*build_ir(parse_program(source)).transforms.values(), builder.build()],
        analyze=False,
    )


class TestSiblingCalls:
    """``ctx.call``, ``ctx.call_multi`` and calls in rule expressions
    share one path; only the single-output check differs."""

    def test_call_multi_returns_every_output(self):
        def body(ctx):
            outputs = ctx.call_multi("Split", ctx["a"])
            ctx["b"].assign(outputs["B"].data + outputs["C"].data)

        result = native_caller(body).transform("CallNative").run(
            [np.arange(3.0)]
        )
        np.testing.assert_array_equal(result.output(), [1.0, 3.0, 5.0])

    def test_call_accepts_arrays_and_views(self):
        def body(ctx):
            whole = ctx.call("Reverse", ctx["a"].to_numpy()).to_numpy()
            ctx["b"].assign(whole + ctx.call("Reverse", ctx["a"]).to_numpy())

        program = native_caller(body, SORTISH)
        result = program.transform("CallNative").run([np.arange(3.0)])
        np.testing.assert_array_equal(result.output(), [4.0, 2.0, 0.0])

    @pytest.mark.parametrize("caller,where", [
        ("CallNative", "from a native rule body"),
        ("CallInExpression", "in an expression"),
    ])
    def test_a_multi_output_callee_names_the_caller_kind(self, caller, where):
        program = native_caller(lambda ctx: ctx.call("Split", ctx["a"]))
        with pytest.raises(ExecutionError) as info:
            program.transform(caller).run([np.arange(3.0)])
        assert str(info.value) == (
            f"call to 'Split' {where} requires exactly one output, it has 2"
        )

    def test_arity_and_unknown_callee_errors(self):
        program = native_caller(lambda ctx: ctx.call("Split"))
        with pytest.raises(
            ExecutionError, match=r"^Split: expected 1 inputs, got 0$"
        ):
            program.transform("CallNative").run([np.arange(3.0)])
        program = native_caller(lambda ctx: ctx.call_multi("Nope", ctx["a"]))
        with pytest.raises(CompileError, match="unknown transform 'Nope'"):
            program.transform("CallNative").run([np.arange(3.0)])


class TestLeveledTunables:
    def test_leveled_shadows_flat(self):
        config = ChoiceConfig()
        config.set_tunable("T.iters", 5)
        config.set_leveled_tunable(
            "T.iters", Selector(((100, 10), (None, 20)))
        )
        assert config.tunable_at("T.iters", 50, 1) == 10
        assert config.tunable_at("T.iters", 500, 1) == 20

    def test_flat_fallback(self):
        config = ChoiceConfig()
        config.set_tunable("T.iters", 5)
        assert config.tunable_at("T.iters", 50, 1) == 5
        assert config.tunable_at("T.other", 50, 7) == 7

    def test_json_roundtrip_with_levels(self):
        config = ChoiceConfig()
        config.set_choice("T.Y.0", Selector(((10, 0), (None, 2))))
        config.set_tunable("T.k", 3)
        config.set_leveled_tunable("T.iters", Selector(((8, 4), (None, 9))))
        restored = ChoiceConfig.from_json(config.to_json())
        assert restored.choice_for("T.Y.0").pick(50) == 2
        assert restored.tunables["T.k"] == 3
        assert restored.tunable_at("T.iters", 4, 0) == 4
        assert restored.tunable_at("T.iters", 800, 0) == 9

    @settings(max_examples=200, deadline=None)
    @given(
        choices=st.dictionaries(
            st.text(min_size=1, max_size=6), SELECTORS, max_size=3
        ),
        tunables=st.dictionaries(
            st.text(min_size=1, max_size=6), st.integers(-(2**40), 2**40),
            max_size=4,
        ),
        leveled=st.dictionaries(
            st.sampled_from(["T.iters", "T.__leaf_path__", "T.k"]), SELECTORS,
        ),
    )
    def test_json_is_what_the_json_module_writes(self, choices, tunables, leveled):
        """``to_json`` writes its indent-2 text directly; it must be the
        bytes ``json.dumps(..., indent=2)`` writes for the same data —
        every persisted signature, seed and cache line depends on it."""
        config = ChoiceConfig(choices, tunables, leveled)
        text = config.to_json()
        assert text == json.dumps(json.loads(text), indent=2)
        assert json.loads(text) == {
            "choices": {k: [list(l) for l in s.levels] for k, s in sorted(choices.items())},
            "tunables": dict(sorted(tunables.items())),
            "leveled_tunables": {
                k: [list(l) for l in s.levels] for k, s in sorted(leveled.items())
            },
        }
