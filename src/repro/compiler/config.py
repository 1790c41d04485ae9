"""Choice configuration files (paper §3.1 Figure 2, §3.3).

Autotuning emits an *application configuration file* that controls when
different choices are made.  A configuration holds:

* one :class:`Selector` per choice site (a segment of a matrix in some
  transform) — a multi-level algorithm: an ordered list of
  ``(max_input_size, option)`` levels, so different options fire at
  different region sizes (this is how recursive compositions such as
  "quicksort above 600, insertion sort below" are encoded);
* integer tunables, including the runtime's sequential cutoff and
  per-site parallel block sizes, plus user ``tunable`` declarations.

Configurations serialize to JSON (the original used a flat text format;
the structure — a flat key/value space — is preserved) and can be fed
back into the compiler for static specialization.
"""

from __future__ import annotations

import difflib
import json
import operator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Mapping, Optional, Tuple


@dataclass(frozen=True)
class Knob:
    """One reserved tunable ``"Transform.<name>"``: a runtime cutoff or
    schedule choice in the paper's one flat tunable space (§3.1).  Its
    row is all the engine, the tuner and the config loader know of it."""

    name: str
    default: int  # an absent entry's value (a site may declare its own)
    clamp: Callable[[int], int]  # raw value -> the value the engine obeys
    leveled: bool  # a size-leveled entry applies; the loader refuses one elsewhere
    search: Callable[[int], Tuple[int, int]]  # training size -> the tuner's (lo, hi)
    live: Callable[[object], bool]  # transform -> may any value change what runs?

    def key(self, transform: str) -> str:
        return f"{transform}.{self.name}"


def _clamp(lo: int, hi: Optional[int] = None) -> Callable[[int], int]:
    return lambda v: max(lo, v) if hi is None else min(hi, max(lo, v))


def _always(transform) -> bool:
    return True


def _fusible(transform) -> bool:
    return transform.fused_variant() is not None


def _tilable(transform) -> bool:
    return any(s.tilable and s.vector[0] is not None for s in transform.sites.values())


# Meaning, per row: region size below which tasks are inlined (§3.2);
# cells per data-parallel task; leaf 0 interp / 1 closure / 2 vector;
# step volume below which vector demotes to closure; run the verified
# fused rewrite; tile size of the first / second data-parallel variable
# (0 = off); run the whole sequential chain per tile.  The tuner starts
# cutoffs at 8 (below, overhead only), skips interp (exactly the
# closure's simulated work), and searches fusion and tiling instead of
# assuming them, only where the analyzer proved them legal.
# fmt: off
SEQ_CUTOFF, BLOCK_SIZE, LEAF_PATH, VECTORIZE_CUTOFF, FUSE, TILE_I, TILE_J, INTERCHANGE = _ROWS = (
    #    name               default  clamp         leveled search: n -> (lo, hi)          live
    Knob("__seq_cutoff__",       64, int,          False,  lambda n: (8, max(16, n * 4)), _always),
    Knob("__block_size__",       64, _clamp(1),    False,  lambda n: (8, max(16, n)),     _always),
    Knob("__leaf_path__",         1, _clamp(0, 2), True,   lambda n: (1, 2),              _always),
    Knob("__vectorize_cutoff__",  0, _clamp(1),    True,   lambda n: (1, max(16, n)),     _always),
    Knob("__fuse__",              0, bool,         False,  lambda n: (0, 1),              _fusible),
    Knob("__tile_i__",            0, _clamp(0),    False,  lambda n: (0, max(16, n)),     _tilable),
    Knob("__tile_j__",            0, _clamp(0),    False,  lambda n: (0, max(16, n)),     _tilable),
    Knob("__interchange__",       0, bool,         False,  lambda n: (0, 1),              _tilable),
)
# fmt: on

#: The reserved tunables by name, in the order the tuner searches them:
#: the only ``__dunder__`` names a configuration may carry.
KNOBS: Dict[str, Knob] = {knob.name: knob for knob in _ROWS}


@dataclass(frozen=True)
class Selector:
    """A multi-level choice: ordered ``(max_size, option)`` levels.

    ``pick(size)`` returns the option of the first level whose
    ``max_size`` (exclusive) exceeds the region size; the final level
    should use ``None`` (infinity).  A selector with one ``(None, k)``
    level is a static choice of option ``k``.
    """

    levels: Tuple[Tuple[Optional[int], int], ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("selector needs at least one level")
        thresholds = [t for t, _ in self.levels[:-1]]
        if any(t is None for t in thresholds):
            raise ValueError("only the last level may be unbounded")
        if self.levels[-1][0] is not None:
            raise ValueError("last level must be unbounded (max_size=None)")
        if any(
            thresholds[i] >= thresholds[i + 1]
            for i in range(len(thresholds) - 1)
        ):
            raise ValueError("level thresholds must be strictly increasing")

    @staticmethod
    def static(option: int) -> "Selector":
        """A selector that always picks ``option``."""
        return Selector(((None, option),))

    def pick(self, size: int) -> int:
        for max_size, option in self.levels:
            if max_size is None or size < max_size:
                return option
        return self.levels[-1][1]

    def describe(self) -> str:
        parts = []
        for max_size, option in self.levels:
            bound = "inf" if max_size is None else str(max_size)
            parts.append(f"{option}(<{bound})")
        return " ".join(parts)


@dataclass
class ChoiceConfig:
    """A complete application configuration.

    Keys are flat strings (the paper's flat configuration space):
    choice sites are ``"Transform.Matrix.segment"``, tunables are
    ``"Transform.name"`` plus the reserved runtime and schedule
    tunables ``"Transform.__name__"`` of :data:`KNOBS`, each read
    through :meth:`knob`.
    """

    choices: Dict[str, Selector] = field(default_factory=dict)
    tunables: Dict[str, int] = field(default_factory=dict)
    #: size-leveled tunables: like choice selectors, the tuned value may
    #: depend on the problem size (e.g. iteration counts per grid size in
    #: the variable-accuracy Poisson solver).  A leveled entry shadows
    #: the flat entry of the same name.
    leveled_tunables: Dict[str, Selector] = field(default_factory=dict)

    # -- choice sites --------------------------------------------------------

    def set_choice(self, site: str, selector: Selector) -> None:
        self.choices[site] = selector

    def choice_for(self, site: str) -> Optional[Selector]:
        return self.choices.get(site)

    # -- tunables ------------------------------------------------------------

    def set_tunable(self, name: str, value: int) -> None:
        self.tunables[name] = int(value)

    def set_leveled_tunable(self, name: str, selector: Selector) -> None:
        """Set a tunable whose value depends on the problem size; the
        selector's "options" are the tunable's values per size band."""
        self.leveled_tunables[_checked_tunable(name, leveled=True)] = selector

    def tunable_at(self, name: str, size: int, default: int) -> int:
        """Resolve a tunable at a problem size (leveled entries win)."""
        leveled = self.leveled_tunables.get(name)
        if leveled is not None:
            return leveled.pick(size)
        return self.tunables.get(name, default)

    def knob(
        self, transform: str, knob: Knob, size: int = 0, default: Optional[int] = None
    ) -> int:
        """The value ``transform`` runs reserved tunable ``knob`` with at
        problem ``size``: its entry (a leveled one wins where the row
        allows levels), else ``default`` or the row's, clamped."""
        key = knob.key(transform)
        default = knob.default if default is None else default
        if knob.leveled:
            return knob.clamp(int(self.tunable_at(key, size, default)))
        return knob.clamp(int(self.tunables.get(key, default)))

    # -- identity ----------------------------------------------------------------

    def key(self) -> Tuple:
        """The configuration's content as a hashable value: the sorted
        items of the three dicts, each selector as its ``levels`` tuple
        (so hashing a key never re-runs ``Selector.__hash__``).  Equal
        exactly when two configs would drive the engine identically,
        whatever their insertion order — the in-process identity, about
        a microsecond to build: of run
        plans (hence batch buckets), and of the tuner's measurements,
        failures and population dedupe.  Persisted identities
        (:func:`repro.serve.registry.config_digest`, the tuner's
        ``config_signature``, written once per fresh measurement) stay
        :meth:`to_json` or digests of it."""
        return (
            tuple(sorted((site, sel.levels) for site, sel in self.choices.items())),
            tuple(sorted(self.tunables.items())),
            tuple(sorted(
                (name, sel.levels) for name, sel in self.leveled_tunables.items()
            )),
        )

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        """The configuration as JSON, keys sorted: the bytes of
        ``json.dumps(payload, indent=2)``, written here directly because
        that encoder runs in pure Python and the tuner writes one per
        fresh measurement (:func:`repro.autotuner.evaluation.config_signature`)."""
        return _json_object(
            (
                ("choices", _json_object(
                    [(site, _json_levels(sel.levels, 2))
                     for site, sel in sorted(self.choices.items())], 1,
                )),
                ("tunables", _json_object(
                    [(name, _json_scalar(value))
                     for name, value in sorted(self.tunables.items())], 1,
                )),
                ("leveled_tunables", _json_object(
                    [(name, _json_levels(sel.levels, 2))
                     for name, sel in sorted(self.leveled_tunables.items())], 1,
                )),
            ),
            0,
        )

    @staticmethod
    def from_json(text: str) -> "ChoiceConfig":
        return ChoiceConfig.from_dict(json.loads(text))

    @staticmethod
    def from_dict(payload: Mapping) -> "ChoiceConfig":
        """A config from the parsed form of :meth:`to_json`; any shape
        :meth:`to_json` cannot produce is a ``ValueError`` naming the
        field."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"a config must be an object, got {payload!r}")
        unknown = sorted(set(payload) - set(_CONFIG_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown config field {unknown[0]!r} (expected "
                f"{', '.join(_CONFIG_FIELDS)})"
            )

        def section(name: str) -> Mapping:
            entries = payload.get(name, {})
            if not isinstance(entries, Mapping):
                raise ValueError(f"{name} must be an object, got {entries!r}")
            return entries

        def parse_levels(where: str, levels) -> Selector:
            if not isinstance(levels, (list, tuple)) or not all(
                isinstance(level, (list, tuple)) and len(level) == 2
                for level in levels
            ):
                raise ValueError(
                    f"{where} must be a list of [max_size, value] pairs, "
                    f"got {levels!r}"
                )
            parsed = tuple(
                (
                    None if max_size is None else _integer(max_size, where),
                    _integer(value, where),
                )
                for max_size, value in levels
            )
            try:
                return Selector(parsed)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None

        config = ChoiceConfig()
        for site, levels in section("choices").items():
            config.choices[site] = parse_levels(f"choices[{site!r}]", levels)
        for name, value in section("tunables").items():
            config.tunables[_checked_tunable(name)] = _integer(
                value, f"tunables[{name!r}]"
            )
        for name, levels in section("leveled_tunables").items():
            config.set_leveled_tunable(
                name, parse_levels(f"leveled_tunables[{name!r}]", levels)
            )
        return config

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @staticmethod
    def load(path: str) -> "ChoiceConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return ChoiceConfig.from_json(handle.read())

    def copy(self) -> "ChoiceConfig":
        return ChoiceConfig(
            dict(self.choices),
            dict(self.tunables),
            dict(self.leveled_tunables),
        )


#: The fields of :meth:`ChoiceConfig.to_json`, in its order.
_CONFIG_FIELDS = ("choices", "tunables", "leveled_tunables")


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    return repr(value) if type(value) is int else json.dumps(value)


def _json_levels(levels, depth: int) -> str:
    """A selector's ``[[max_size, value], ...]`` nested ``depth`` deep,
    as ``json.dumps(..., indent=2)`` writes it."""
    pad = "\n" + "  " * (depth + 1)
    item = pad + "  "
    body = ",".join(
        f"{pad}[{item}{_json_scalar(bound)},{item}{_json_scalar(value)}{pad}]"
        for bound, value in levels
    )
    return "[" + body + "\n" + "  " * depth + "]"


def _json_object(entries, depth: int) -> str:
    """``{key: text}`` (each text already JSON) nested ``depth`` deep,
    as ``json.dumps(..., indent=2)`` writes it."""
    if not entries:
        return "{}"
    pad = "\n" + "  " * (depth + 1)
    body = ",".join(
        f"{pad}{encode_basestring_ascii(key)}: {text}" for key, text in entries
    )
    return "{" + body + "\n" + "  " * depth + "}"


def _integer(value, where: str) -> int:
    """``value`` as a JSON integer: floats, strings and booleans are
    refused, naming ``where``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{where} must be an integer, got {value!r}")


def _checked_tunable(name: str, leveled: bool = False) -> str:
    """``name``, unless it has the reserved ``X.__y__`` shape without
    being reserved, or is a ``leveled`` entry for a knob the engine
    reads flat: either would be accepted from outside (a request's
    ``config`` field, a ``--config`` file) and silently ignored."""
    prefix, dot, knob = name.rpartition(".")
    if not (knob.startswith("__") and knob.endswith("__")):
        return name
    row = KNOBS.get(knob)
    if row is None:
        nearest = difflib.get_close_matches(
            knob.lower(), KNOBS, n=1, cutoff=0.0
        )[0]
        raise ValueError(
            f"unknown reserved tunable {name!r} (nearest valid name: "
            f"{prefix + dot + nearest!r})"
        )
    if leveled and not row.leveled:
        levels = " and ".join(k for k, r in KNOBS.items() if r.leveled)
        raise ValueError(
            f"reserved tunable {name!r} cannot be size-leveled (only "
            f"{levels} can; set it under \"tunables\")"
        )
    return name


def site_key(transform: str, matrix: str, segment_index: int) -> str:
    """The flat configuration key of a choice site."""
    return f"{transform}.{matrix}.{segment_index}"
