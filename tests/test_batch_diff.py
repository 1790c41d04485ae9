"""A batch lane observes what its serial run does: slices of the one
generator, checked by ``check_case``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.strategies import check_case, programs


@settings(max_examples=25, deadline=None)
@given(case=programs("stencil", cells=st.just(None)))
def test_random_mixes_batch_equals_serial(case):
    check_case(case)


@settings(max_examples=15, deadline=None)
@given(case=programs("rollingsum", lanes=st.integers(2, 3)))
def test_rollingsum_mix_batch_equals_serial(case):
    """RollingSum does not stack: every lane takes the engine's serial
    fallback and still observes its serial run."""
    check_case(case)


@settings(max_examples=20, deadline=None)
@given(case=programs("divide", form=st.just("array")))
def test_division_by_zero_isolated_to_failing_requests(case):
    """Exactly the lanes with a zero divisor raise the serial error;
    their neighbours observe their serial runs."""
    check_case(case)


@settings(max_examples=25, deadline=None)
@given(case=programs("stencil", cells=st.sampled_from((1, 3, 8))))
def test_random_mixes_batch_equals_serial_across_strips(case):
    check_case(case)


@settings(max_examples=20, deadline=None)
@given(case=programs("fixed", key=st.just("momentum")))
def test_chain_and_broadcast_stack_across_strips(case):
    """A chain reading the matrix it writes, broadcast operands, a
    reversed write and a compound target: every lane stacks."""
    check_case(case)


@settings(max_examples=15, deadline=None)
@given(
    case=programs(
        "divide",
        form=st.just("array"),
        bad=st.integers(1, 4).map(lambda good: [False] * good + [True]),
        cells=st.just(3),
    )
)
def test_one_zero_lane_demotes_the_bucket_across_strips(case):
    """One failing lane leaves no lane of its bucket stacked."""
    check_case(case)
