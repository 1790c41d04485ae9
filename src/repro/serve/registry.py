"""The versioned in-memory registry behind the serve daemon.

Compile-once, tune-per-machine, run-many (the paper's Figure 2 split,
made resident): programs are compiled exactly once per content hash,
and tuned configurations are registered under

    (program blake2b hash, machine profile, input-size bucket)

with a monotonically increasing **version** per key.  The hot path —
``lookup()`` followed by execution — is two dict reads returning an
immutable :class:`ConfigEntry` snapshot: no parsing, no config
serialization, no locks.  Writers (``publish``) build a fresh entry and
swap it in under the registry lock, so readers observe either the old
version or the new one, never a torn state; in-flight runs that already
hold an entry keep executing their version while new requests see the
bump.

Size buckets are power-of-two ceilings of the request's largest input
extent (``b16``, ``b32``, …).  A config published under the wildcard
bucket ``"any"`` serves every size whose exact bucket has no entry —
the genetic tuner emits multi-level selectors that already encode
size-dependence, so ``"any"`` is the common case and exact buckets are
the specialization hook.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.batch.engine import BatchEngine
from repro.compiler import ChoiceConfig, CompiledProgram, compile_program

#: Wildcard size bucket: matches any request size on fallback.
ANY_BUCKET = "any"


def program_digest(source: str) -> str:
    """Content hash of program source (the registry's program key)."""
    return hashlib.blake2b(source.encode("utf-8"), digest_size=16).hexdigest()


def config_digest(config: ChoiceConfig) -> str:
    """The published identity of a registered config: a blake2b digest
    of :meth:`ChoiceConfig.to_json`, written to the store's meta and
    shown by ``/stats`` and a tune job's result."""
    return hashlib.blake2b(config.to_json().encode(), digest_size=8).hexdigest()


def size_bucket(extent: int) -> str:
    """Power-of-two-ceiling bucket of one size extent (``b1``, ``b2``,
    ``b4`` …).  Non-positive extents share ``b1``."""
    if extent <= 1:
        return "b1"
    return f"b{1 << (int(extent) - 1).bit_length()}"


def bucket_for(
    shapes: Sequence[Sequence[int]],
    sizes: Optional[Mapping[str, int]] = None,
) -> str:
    """The bucket of a request: largest extent across its input shapes
    and explicit size bindings."""
    extent = 0
    for shape in shapes:
        for dim in shape:
            extent = max(extent, int(dim))
    for value in (sizes or {}).values():
        extent = max(extent, int(value))
    return size_bucket(extent)


@dataclass(frozen=True)
class ConfigEntry:
    """One immutable registry snapshot: a tuned config at a version.

    ``digest`` is the config's published identity
    (:func:`config_digest`), computed once at publish for ``/stats`` and
    the store.  The ``config`` object is shared by reference and must
    never be mutated — publish a new version instead; the batch engine
    copies it per request and buckets by its plan key.
    """

    version: int
    config: ChoiceConfig
    digest: str
    origin: str = "publish"  # "publish" | "tune" | "store"
    meta: Mapping[str, object] = field(default_factory=dict)


class ProgramEntry:
    """A compiled program resident in the daemon, plus the long-lived
    batch engine that serves its ``/batch`` traffic.  The engine keeps
    no plans of its own: its buckets replay the resident transforms'
    cached run plans, which ``/run`` shares."""

    def __init__(
        self, phash: str, source: str, program: CompiledProgram, sink=None
    ):
        self.phash = phash
        self.source = source
        self.program = program
        self.engine = BatchEngine(sink=sink)
        #: BatchEngine is submit/gather-cycle stateful; one cycle at a time.
        self.engine_lock = threading.Lock()

    def transforms(self) -> List[str]:
        return sorted(self.program.transforms)


class ServeRegistry:
    """Programs + versioned config entries, with cold/warm accounting.

    Thread model: ``_programs`` and ``_configs`` are plain dicts whose
    values are immutable once inserted (entries are replaced wholesale on
    version bump), so the read path is lock-free under the GIL; all
    mutation happens under ``_lock``.
    """

    def __init__(self, sink=None) -> None:
        self.sink = sink
        self._lock = threading.RLock()
        self._programs: Dict[str, ProgramEntry] = {}
        self._configs: Dict[Tuple[str, str, str], ConfigEntry] = {}

    # -- programs -----------------------------------------------------------

    def register_program(
        self, source: str
    ) -> Tuple[ProgramEntry, bool]:
        """Compile-once registration; returns (entry, was_cached)."""
        phash = program_digest(source)
        entry = self._programs.get(phash)
        if entry is not None:
            self._count("serve.program_hits")
            return entry, True
        with self._lock:
            entry = self._programs.get(phash)
            if entry is not None:
                self._count("serve.program_hits")
                return entry, True
            program = compile_program(source)
            entry = ProgramEntry(phash, source, program, sink=self.sink)
            self._programs[phash] = entry
            self._count("serve.compiles")
            return entry, False

    def program(self, phash: str) -> ProgramEntry:
        entry = self._programs.get(phash)
        if entry is None:
            raise KeyError(f"unknown program {phash!r} (POST /compile first)")
        return entry

    def programs(self) -> List[str]:
        return sorted(self._programs)

    # -- configs ------------------------------------------------------------

    def publish(
        self,
        phash: str,
        machine: str,
        bucket: str,
        config: ChoiceConfig,
        origin: str = "publish",
        meta: Optional[Mapping[str, object]] = None,
        version: Optional[int] = None,
    ) -> ConfigEntry:
        """Atomically version-bump (or seed, during store recovery, at an
        explicit ``version``) the entry for one key.  The config object
        is owned by the registry from here on and must not be mutated by
        the caller."""
        key = (phash, machine, bucket)
        with self._lock:
            current = self._configs.get(key)
            if version is None:
                version = (current.version if current else 0) + 1
            entry = ConfigEntry(
                version=version,
                config=config,
                digest=config_digest(config),
                origin=origin,
                meta=dict(meta or {}),
            )
            self._configs[key] = entry
            self._count("serve.version_bumps")
            return entry

    def current_version(self, phash: str, machine: str, bucket: str) -> int:
        """The registered version for one exact key (0 when absent) —
        the durable-publish path reserves ``current_version() + 1``,
        writes the artifact, and only then commits the registry bump, so
        an acknowledged version is always on disk."""
        entry = self._configs.get((phash, machine, bucket))
        return entry.version if entry is not None else 0

    def lookup(
        self, phash: str, machine: str, bucket: str
    ) -> Optional[ConfigEntry]:
        """O(1) hot-path lookup: exact bucket, then the ``any`` wildcard.
        Counts a config hit or miss either way."""
        entry = self._configs.get((phash, machine, bucket))
        if entry is None and bucket != ANY_BUCKET:
            entry = self._configs.get((phash, machine, ANY_BUCKET))
        self._count("serve.config_hits" if entry else "serve.config_misses")
        return entry

    def peek(
        self, phash: str, machine: str, bucket: str
    ) -> Optional[ConfigEntry]:
        """Lookup without hit/miss accounting (introspection only)."""
        return self._configs.get((phash, machine, bucket))

    def entries(self) -> Dict[str, Dict[str, object]]:
        """A JSON-able snapshot of every registered config entry."""
        snapshot = {}
        for (phash, machine, bucket), entry in sorted(self._configs.items()):
            snapshot["/".join((phash, machine, bucket))] = {
                "version": entry.version,
                "digest": entry.digest,
                "origin": entry.origin,
            }
        return snapshot

    # -- accounting ---------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.sink is not None:
            self.sink.count(name)
