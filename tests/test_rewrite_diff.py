"""Fusion is invisible: slices of the one generator, checked fused and
unfused by ``check_case``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.strategies import check_case, programs


@settings(max_examples=10, deadline=None)
@given(case=programs("fixed", key=st.just("pipe")))
def test_pipe_fuses_invisibly(case):
    check_case(case)


@settings(max_examples=15, deadline=None)
@given(case=programs("fixed", key=st.just("rolling")))
def test_blocked_chain_is_graceful_noop(case):
    """PB602-blocked: no fused variant, and the fuse knob changes nothing."""
    check_case(case)


@settings(max_examples=5, deadline=None)
@given(case=programs("fixed", key=st.just("pipe-1d")))
def test_error_parity(case):
    """A failing run fails identically fused and unfused."""
    check_case(case)
