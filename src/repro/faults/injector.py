"""Deterministic, seeded fault injection.

Every decision the injector makes is a pure function of ``(injector
seed, fault kind, fault identity, attempt)`` — hashed with
:func:`repro.faults.recovery.stable_hash`, as measurement seeds and
retry jitter are — so a fault plan fires identically across runs, across
worker processes, and regardless of evaluation order.  That is what makes the
recovery machinery of :mod:`repro.autotuner.parallel` testable in CI:
an injected crash is as reproducible as the measurement it interrupts.

Spec grammar (the CLI's ``--inject`` argument)::

    SPEC    := ITEM (',' ITEM)*
    ITEM    := FAULT | OPTION
    FAULT   := KIND ':' PROB ('x' REPEAT)?
    OPTION  := 'seed' '=' INT | 'hang' '=' SECONDS
    KIND    := 'worker-crash' | 'worker-hang' | 'transient'
             | 'corrupt-record' | 'cache-corrupt'
             | 'conn-drop' | 'slow-handler' | 'shed-storm'
             | 'store-io-fail' | 'drain-race'

``PROB`` is the per-attempt firing probability.  ``REPEAT`` bounds how
many attempts of one identity the fault may fire on: it defaults to 1
for ``PROB < 1`` (the fault fires at most once, so a single retry always
recovers and tuned output is provably identical to a fault-free run) and
to unbounded for ``PROB >= 1`` (a persistent fault, e.g. a candidate
that kills every worker — the quarantine path).  ``seed`` reseeds the
decision hash; ``hang`` sets how long an injected hang sleeps.

Example: ``worker-crash:0.2,worker-hang:0.05,seed=7,hang=2``.

Fault kinds
-----------

* ``worker-crash`` — the worker process exits hard (``os._exit``),
  breaking the process pool: exercises rebuild + retry.
* ``worker-hang`` — the worker sleeps ``hang`` seconds before
  measuring: exercises the per-measurement deadline.
* ``transient`` — the worker reports a retryable error record:
  exercises bounded retries with backoff.
* ``corrupt-record`` — the worker returns a malformed result record:
  exercises parent-side record validation + retry.
* ``cache-corrupt`` — a flushed cache line is garbled on disk:
  exercises the crash-safe cache loader.

The first four are process-boundary faults and fire only in pool
workers; the serial (in-process) evaluation path injects ``transient``
faults only — a crash or hang cannot be recovered from in-process, and
degraded-serial mode exists precisely to escape them.

Serve-side fault kinds (injected into the daemon stack — see
:mod:`repro.serve` and :mod:`repro.faults.harness`; identities
key off the request's ``rid`` payload field and the client's retry
``attempt`` counter, so HTTP fault plans replay identically too):

* ``conn-drop`` — the daemon truncates a response mid-body and closes
  the connection: exercises client retry on ``BrokenReply``.
* ``slow-handler`` — an admitted request sleeps in its handler:
  exercises deadline budgets and queue backpressure.
* ``shed-storm`` — admission force-sheds the request with a structured
  429: exercises Retry-After honoring and shed-then-retry parity.
* ``store-io-fail`` — an artifact-store write raises ``OSError``
  before any byte reaches disk: exercises durable-before-acknowledged
  publish ordering and restart recovery.
* ``drain-race`` — an in-flight request flips the daemon to draining
  mid-dispatch: exercises graceful-drain semantics under race.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.faults.recovery import stable_hash

#: Fault kinds the injector understands.
KINDS: Tuple[str, ...] = (
    "worker-crash",
    "worker-hang",
    "transient",
    "corrupt-record",
    "cache-corrupt",
    # serve-side kinds (daemon / transport / artifact store)
    "conn-drop",
    "slow-handler",
    "shed-storm",
    "store-io-fail",
    "drain-race",
)

#: Default decision seed ("FA17" — fault).
DEFAULT_SEED = 0xFA17

#: Default injected hang duration (seconds); far beyond any sane
#: measurement deadline, so an unrecovered hang is indistinguishable
#: from a dead worker.
DEFAULT_HANG_SECONDS = 3600.0


class FaultSpecError(ValueError):
    """An ``--inject`` spec string failed to parse."""


class TransientFault(RuntimeError):
    """An injected transient failure — always retryable."""


@dataclass(frozen=True)
class FaultRule:
    """One fault kind's firing policy.

    ``repeat`` bounds the attempts (0-based) the rule may fire on;
    ``None`` means unbounded (a persistent fault).
    """

    kind: str
    probability: float
    repeat: Optional[int] = 1

    def describe(self) -> str:
        prob = f"{self.probability:g}"
        if self.repeat is None:
            return f"{self.kind}:{prob}"
        return f"{self.kind}:{prob}x{self.repeat}"


@dataclass(frozen=True)
class FaultInjector:
    """A deterministic fault plan: rules per kind + the decision seed.

    Frozen and built from plain data, so it pickles across the process
    boundary and both parent and workers replay identical decisions.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = DEFAULT_SEED
    hang_seconds: float = DEFAULT_HANG_SECONDS
    _by_kind: Dict[str, FaultRule] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_by_kind", {rule.kind: rule for rule in self.rules}
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultInjector":
        """Parse the ``--inject`` grammar (see module docstring)."""
        rules: Dict[str, FaultRule] = {}
        seed = DEFAULT_SEED
        hang = DEFAULT_HANG_SECONDS
        for raw in spec.split(","):
            item = raw.strip()
            if not item:
                continue
            if "=" in item:
                name, _, value = item.partition("=")
                name = name.strip()
                try:
                    if name == "seed":
                        seed = int(value)
                    elif name == "hang":
                        hang = float(value)
                        if hang < 0:
                            raise ValueError
                    else:
                        raise FaultSpecError(
                            f"unknown option {name!r} in {item!r} "
                            "(options: seed=INT, hang=SECONDS)"
                        )
                except FaultSpecError:
                    raise
                except ValueError:
                    raise FaultSpecError(
                        f"bad value for option {name!r} in {item!r}"
                    ) from None
                continue
            kind, sep, tail = item.partition(":")
            kind = kind.strip()
            if not sep or kind not in KINDS:
                raise FaultSpecError(
                    f"unknown fault {item!r}; expected KIND:PROB[xN] with "
                    f"KIND one of {', '.join(KINDS)}"
                )
            prob_text, x, repeat_text = tail.partition("x")
            try:
                probability = float(prob_text)
            except ValueError:
                raise FaultSpecError(
                    f"bad probability in {item!r}"
                ) from None
            if not 0.0 <= probability or not math.isfinite(probability):
                raise FaultSpecError(
                    f"probability must be a finite value >= 0 in {item!r}"
                )
            repeat: Optional[int]
            if x:
                try:
                    repeat = int(repeat_text)
                except ValueError:
                    raise FaultSpecError(
                        f"bad repeat count in {item!r}"
                    ) from None
                if repeat < 1:
                    raise FaultSpecError(
                        f"repeat count must be >= 1 in {item!r}"
                    )
            else:
                # Sub-certain faults default to firing at most once per
                # identity (a retry is then guaranteed to recover);
                # certain faults default to persistent.
                repeat = 1 if probability < 1.0 else None
            rules[kind] = FaultRule(kind, probability, repeat)
        if not rules:
            raise FaultSpecError(f"no faults in spec {spec!r}")
        ordered = tuple(rules[kind] for kind in KINDS if kind in rules)
        return cls(rules=ordered, seed=seed, hang_seconds=hang)

    def describe(self) -> str:
        """Canonical spec string; ``parse(describe())`` round-trips."""
        parts = [rule.describe() for rule in self.rules]
        if self.seed != DEFAULT_SEED:
            parts.append(f"seed={self.seed}")
        if self.hang_seconds != DEFAULT_HANG_SECONDS:
            parts.append(f"hang={self.hang_seconds:g}")
        return ",".join(parts)

    # -- decisions ---------------------------------------------------------

    def _fraction(self, kind: str, identity: str, attempt: int) -> float:
        return stable_hash(self.seed, kind, identity, attempt) / 2.0**64

    def fires(self, kind: str, identity: str, attempt: int = 0) -> bool:
        """Does fault ``kind`` fire for ``identity`` on this attempt?

        A pure function of ``(seed, kind, identity, attempt)``: the same
        question always gets the same answer, in any process.
        """
        rule = self._by_kind.get(kind)
        if rule is None:
            return False
        if rule.repeat is not None and attempt >= rule.repeat:
            return False
        if rule.probability >= 1.0:
            return True
        return self._fraction(kind, identity, attempt) < rule.probability

    def corrupt_line(self, line: str) -> str:
        """The ``cache-corrupt`` payload: garble a JSONL line the way a
        killed writer does — truncate mid-record."""
        return line[: max(1, len(line) // 2)]
