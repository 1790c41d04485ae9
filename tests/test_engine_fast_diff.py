"""The fast leaf paths (closure, vector) observe what the interpreter
does: slices of the one generator, checked by ``check_case``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.strategies import check_case, programs


@settings(max_examples=30, deadline=None)
@given(case=programs("stencil", where=st.just(False), cells=st.just(None)))
def test_random_elementwise_programs_agree(case):
    check_case(case)


@settings(max_examples=40, deadline=None)
@given(case=programs("stencil", where=st.just(True)))
def test_where_clause_programs_agree(case):
    """Meta-rules: the closure evaluates the where-clause itself (before
    its bindings, like the interpreter) and hands rejected instances to
    the fallback — or, with none, aborts where the interpreter does."""
    check_case(case)


@settings(max_examples=20, deadline=None)
@given(case=programs("rollingsum", lanes=st.just(1)))
def test_rollingsum_choices_agree(case):
    check_case(case)


@settings(max_examples=40, deadline=None)
@given(case=programs("stencil", where=st.just(False), cells=st.sampled_from((1, 3, 8))))
def test_random_elementwise_programs_agree_across_strips(case):
    check_case(case)


@settings(max_examples=30, deadline=None)
@given(case=programs("divide", bad=st.just([True])))
def test_division_by_zero_raises_the_interpreter_error(case):
    """A zero divisor — literal, scalar, or one cell of an array, in any
    strip — raises the interpreter's exact error on every leaf path."""
    check_case(case)
