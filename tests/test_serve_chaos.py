"""Chaos tests: the serving invariant under injected fault schedules.

Each test drives :mod:`repro.faults.harness` — a live daemon, a
deterministic request schedule, retrying clients — and asserts that
every request either got the byte-identical fault-free response or
exactly one well-formed structured error, with no hung threads; plus
the kill-and-restart durability checks for the artifact store, and
which plans replay identically.
"""

import functools
import tempfile

import pytest

from repro.faults import FaultInjector
from repro.faults.harness import (
    COMBINED_INJECT,
    KIND_INJECTS,
    SCALE,
    check_serve_resilience,
    check_store_recovery,
    sweep,
)
from repro.serve import ServeApp, ServeError


@pytest.mark.parametrize(
    "kind", ["conn-drop", "slow-handler", "shed-storm", "drain-race"]
)
def test_single_kind_invariant(kind):
    report = check_serve_resilience(
        f"{KIND_INJECTS[kind]},seed=3", requests=9, workers=3
    )
    assert report.ok
    assert report.parity + report.structured_errors == report.requests
    assert not report.hung_threads


def test_combined_plan_keeps_parity_majority():
    report = check_serve_resilience(f"{COMBINED_INJECT},seed=2", requests=12)
    assert report.ok
    # The combined plan's probabilities leave most requests recovering
    # to byte parity; sheds during an injected drain are the rest.
    assert report.parity >= 1
    assert report.client_counters.get("serve.retry.attempts", 0) >= 1


def test_store_recovery_under_injected_io_failures():
    report = check_store_recovery(f"{KIND_INJECTS['store-io-fail']},seed=5")
    assert report.ok
    assert report.parity == report.requests  # every publish finally landed
    assert report.server_counters.get("serve.store.write_failures", 0) >= 1


def test_kill_and_restart_never_regresses_versions():
    """An unacknowledged (failed) publish must be invisible after a
    crash; a retried publish lands durably and survives the restart."""
    from repro.compiler import ChoiceConfig

    injector = FaultInjector.parse("store-io-fail:1x1")
    with tempfile.TemporaryDirectory() as root:
        app = ServeApp(store_dir=root, injector=injector)
        phash = app.compile({"source": SCALE})["program"]
        with pytest.raises(ServeError) as excinfo:
            app.publish_config(
                phash, "xeon8", "any", ChoiceConfig(), attempt=0
            )
        assert excinfo.value.code == "store_io"
        app.close()  # simulated crash after the failed, unacked publish

        restarted = ServeApp(store_dir=root, injector=injector)
        assert (
            restarted.registry.current_version(phash, "xeon8", "any") == 0
        )
        # The retry contract: attempt 1 lands durably at version 1.
        entry = restarted.publish_config(
            phash, "xeon8", "any", ChoiceConfig(), attempt=1
        )
        assert entry.version == 1
        restarted.close()

        recovered = ServeApp(store_dir=root)
        assert (
            recovered.registry.current_version(phash, "xeon8", "any") == 1
        )
        recovered.close()


#: The sweep's seeds and schedule length (the full chaos drill).
SWEEP_SEEDS = (1, 2)
SWEEP_REQUESTS = 18

#: The plans whose outcome split and counters replay exactly; a
#: ``drain-race`` plan depends on which requests are in flight.
REPLAYABLE = ("conn-drop", "slow-handler", "shed-storm", "store-io-fail")


def _check(kind):
    if kind == "store-io-fail":
        return check_store_recovery
    return functools.partial(check_serve_resilience, requests=SWEEP_REQUESTS)


@pytest.fixture(scope="module")
def swept():
    """Every fault kind alone plus the combined plan, under every sweep
    seed: plan name -> one report per seed."""
    plans = {**KIND_INJECTS, "combined": COMBINED_INJECT}
    return {
        kind: sweep(_check(kind), inject, SWEEP_SEEDS)
        for kind, inject in plans.items()
    }


def _outcome(report):
    return (
        report.parity,
        report.structured_errors,
        report.client_counters,
        report.server_counters,
    )


def test_sweep_every_plan_and_seed(swept):
    assert len(swept) == 6
    for kind, reports in swept.items():
        assert len(reports) == len(SWEEP_SEEDS)
        for report in reports:
            assert report.ok, (kind, report.inject)


@pytest.mark.parametrize("kind", REPLAYABLE)
def test_drain_free_plans_replay_identically(swept, kind):
    (again,) = sweep(_check(kind), KIND_INJECTS[kind], SWEEP_SEEDS[:1])
    assert _outcome(again) == _outcome(swept[kind][0])
