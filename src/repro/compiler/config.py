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
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

INFINITE = None  # marker: level applies to all sizes

#: The reserved tunables, keyed ``"Transform.<name>"`` — the only
#: ``__dunder__`` names a configuration may carry, in the order the
#: tuner searches them.
RESERVED_TUNABLES = (
    "__seq_cutoff__",  # region size below which tasks are inlined (§3.2)
    "__block_size__",  # cells per data-parallel task
    "__leaf_path__",  # 0 interp / 1 closure / 2 vector
    "__vectorize_cutoff__",  # step volume below which vector demotes
    "__fuse__",  # run the verified fused rewrite when one exists
    "__tile_i__",  # tile size of the first data-parallel variable; 0 = off
    "__tile_j__",  # ... of the second
    "__interchange__",  # run the sequential chain per tile
)


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

    def options_used(self) -> Tuple[int, ...]:
        return tuple(dict.fromkeys(option for _, option in self.levels))

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
    tunables ``"Transform.__name__"`` of :data:`RESERVED_TUNABLES`,
    each read through its accessor below.
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
        self.leveled_tunables[name] = selector

    def tunable(self, name: str, default: int) -> int:
        return self.tunables.get(name, default)

    def tunable_at(self, name: str, size: int, default: int) -> int:
        """Resolve a tunable at a problem size (leveled entries win)."""
        leveled = self.leveled_tunables.get(name)
        if leveled is not None:
            return leveled.pick(size)
        return self.tunables.get(name, default)

    def seq_cutoff(self, transform: str, default: int = 64) -> int:
        """Region size below which generated code runs the sequential
        (non-task-spawning) version (paper §3.2)."""
        return self.tunable(f"{transform}.__seq_cutoff__", default)

    def block_size(self, transform: str, default: int = 64) -> int:
        """Granularity for splitting data-parallel regions into tasks."""
        return self.tunable(f"{transform}.__block_size__", default)

    def leaf_path(self, transform: str, size: int, default: int = 1) -> int:
        """Leaf execution path for rule instances at a problem size:
        0 = reference interpreter, 1 = compiled closure (the default),
        2 = vectorized NumPy leaves (see :mod:`repro.engine_fast`).
        Leveled entries make the path itself size-dependent."""
        value = self.tunable_at(f"{transform}.__leaf_path__", size, default)
        return min(2, max(0, int(value)))

    def vectorize_cutoff(self, transform: str, size: int, default: int = 0) -> int:
        """Minimum data-parallel step volume before the vector leaf path
        engages; below it the engine demotes to the closure path."""
        return max(
            0,
            int(
                self.tunable_at(
                    f"{transform}.__vectorize_cutoff__", size, default
                )
            ),
        )

    def fuse_enabled(self, transform: str, default: int = 0) -> int:
        """Whether the engine dispatches to the transform's verified
        fused rewrite (:mod:`repro.rewrite`) when one exists: 0 runs the
        program as written (the default), 1 runs the fused variant.  A
        no-op on transforms with no legal fusion."""
        return 1 if self.tunable(f"{transform}.__fuse__", default) else 0

    def tile_size(self, transform: str, dim: int, default: int = 0) -> int:
        """Tile size for the ``dim``-th data-parallel (free) instance
        variable of a PB604-legal site: ``__tile_i__`` for the first,
        ``__tile_j__`` for the second.  0 (the default) disables tiling
        of that variable; the engine ignores the knob entirely on sites
        the dependence analyzer cannot prove safe."""
        name = "__tile_i__" if dim == 0 else "__tile_j__"
        return max(0, int(self.tunable(f"{transform}.{name}", default)))

    def interchange_enabled(self, transform: str, default: int = 0) -> int:
        """Whether tiled sites run tiles outermost — the whole
        sequential chain sweeps each tile while it is cache-hot —
        instead of re-visiting every tile at every chain step.  Only
        meaningful with a nonzero tile size; a no-op on sites without a
        PB604 legality proof."""
        return 1 if self.tunable(f"{transform}.__interchange__", default) else 0

    # -- identity ----------------------------------------------------------------

    def key(self) -> Tuple:
        """The configuration's content as a hashable value: the sorted
        items of the three dicts.  Equal exactly when two configs would
        drive the engine identically, whatever their insertion order —
        the in-process cache key (run plans), about a microsecond to
        build.  Persisted identities (:func:`repro.batch.config_digest`,
        the tuner's ``config_signature``) stay digests of
        :meth:`to_json`."""
        return (
            tuple(sorted(self.choices.items())),
            tuple(sorted(self.tunables.items())),
            tuple(sorted(self.leveled_tunables.items())),
        )

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "choices": {
                site: [
                    [max_size, option] for max_size, option in sel.levels
                ]
                for site, sel in sorted(self.choices.items())
            },
            "tunables": dict(sorted(self.tunables.items())),
            "leveled_tunables": {
                name: [
                    [max_size, value] for max_size, value in sel.levels
                ]
                for name, sel in sorted(self.leveled_tunables.items())
            },
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "ChoiceConfig":
        return ChoiceConfig.from_dict(json.loads(text))

    @staticmethod
    def from_dict(payload: Mapping) -> "ChoiceConfig":
        """A config from the parsed form of :meth:`to_json`."""
        config = ChoiceConfig()

        def parse_levels(levels) -> Selector:
            return Selector(
                tuple(
                    (None if max_size is None else int(max_size), int(value))
                    for max_size, value in levels
                )
            )

        for site, levels in payload.get("choices", {}).items():
            config.choices[site] = parse_levels(levels)
        for name, value in payload.get("tunables", {}).items():
            config.tunables[_checked_tunable(name)] = int(value)
        for name, levels in payload.get("leveled_tunables", {}).items():
            config.leveled_tunables[_checked_tunable(name)] = parse_levels(
                levels
            )
        return config

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @staticmethod
    def load(path: str) -> "ChoiceConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return ChoiceConfig.from_json(handle.read())

    def merged_with(self, other: "ChoiceConfig") -> "ChoiceConfig":
        """A new config where ``other``'s entries win on conflicts."""
        merged = ChoiceConfig(
            dict(self.choices),
            dict(self.tunables),
            dict(self.leveled_tunables),
        )
        merged.choices.update(other.choices)
        merged.tunables.update(other.tunables)
        merged.leveled_tunables.update(other.leveled_tunables)
        return merged

    def copy(self) -> "ChoiceConfig":
        return ChoiceConfig(
            dict(self.choices),
            dict(self.tunables),
            dict(self.leveled_tunables),
        )


def _checked_tunable(name: str) -> str:
    """``name``, unless it has the reserved ``X.__y__`` shape without
    being reserved: a misspelt knob arriving from outside (a request's
    ``config`` field, a ``--config`` file) would be accepted and
    silently ignored."""
    prefix, dot, knob = name.rpartition(".")
    reserved_shape = knob.startswith("__") and knob.endswith("__")
    if reserved_shape and knob not in RESERVED_TUNABLES:
        nearest = difflib.get_close_matches(
            knob.lower(), RESERVED_TUNABLES, n=1, cutoff=0.0
        )[0]
        raise ValueError(
            f"unknown reserved tunable {name!r} (nearest valid name: "
            f"{prefix + dot + nearest!r})"
        )
    return name


def site_key(transform: str, matrix: str, segment_index: int) -> str:
    """The flat configuration key of a choice site."""
    return f"{transform}.{matrix}.{segment_index}"
