"""Tiling and interchange are invisible: slices of the one generator,
checked under every tile knob by ``check_case``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.strategies import check_case, programs


@settings(max_examples=20, deadline=None)
@given(case=programs("planes", legal=st.just(True), through=st.just(False)))
def test_legal_offsets_tile_invisibly(case):
    """PB604-legal, and the real sub-extent tiles engage."""
    check_case(case)


@settings(max_examples=20, deadline=None)
@given(case=programs("planes", legal=st.just(False), through=st.just(False)))
def test_forward_offsets_never_tile(case):
    """Never proven legal; a blocking witness replays, and the engine's
    own re-proof refuses to tile the offset rule."""
    check_case(case)


@settings(max_examples=10, deadline=None)
@given(case=programs("fixed", key=st.just("matmul-chain")))
def test_matmul_chain_tiles_invisibly(case):
    check_case(case)


@settings(max_examples=5, deadline=None)
@given(case=programs("fixed", key=st.just("matmul-chain-1d")))
def test_error_parity(case):
    """A failing run fails identically tiled and untiled."""
    check_case(case)
