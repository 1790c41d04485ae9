"""Candidate algorithms and mutation operators.

A candidate is a full :class:`ChoiceConfig`.  Following §3.3:

* the population is **seeded with all single-algorithm implementations**
  — for every option index, a config that statically picks that option
  (at every site that has it);
* **adding a level**: a candidate tuned up to input size ``s`` is
  extended by keeping its current selector below ``s`` and switching to
  a different option at and above ``s``; recursive rules then bottom out
  into the already-tuned smaller-size behaviour, which is exactly how
  hybrid compositions (e.g. quicksort over insertion sort) are built
  incrementally from the bottom up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.compiler.codegen import CompiledTransform
from repro.compiler.config import ChoiceConfig, Selector


@dataclass
class Candidate:
    """A configuration with bookkeeping for the tuner."""

    config: ChoiceConfig
    lineage: str = "seed"
    last_time: float = float("inf")

    def clone(self, lineage: str) -> "Candidate":
        return Candidate(config=self.config.copy(), lineage=lineage)


def choice_sites(transform: CompiledTransform) -> List[Tuple[str, int]]:
    """(site key, option count) for every choice site of a transform."""
    return [
        (key, len(segment.options))
        for key, segment in transform.choice_sites()
    ]


def seed_population(transform: CompiledTransform) -> List[Candidate]:
    """All single-algorithm implementations of a transform.

    Candidate ``k`` statically selects option ``min(k, options-1)`` at
    every site; the number of seeds is the maximum option count anywhere.
    Only seeds that are *safe* (terminating) are the tuner's concern —
    seeds that always recurse will fail evaluation and be culled, exactly
    like a nonviable member of a genetic population.
    """
    sites = choice_sites(transform)
    max_options = max([1] + [count for _, count in sites])

    seeds: List[Candidate] = []
    for option in range(max_options):
        config = ChoiceConfig()
        for key, count in sites:
            config.set_choice(key, Selector.static(min(option, count - 1)))
        seeds.append(Candidate(config=config, lineage=f"seed{option}"))
    return seeds


def add_level(
    candidate: Candidate, site: str, option: int, threshold: int
) -> Optional[Candidate]:
    """Extend ``candidate`` with a new top level at ``site``.

    Sizes below ``threshold`` keep the candidate's existing behaviour;
    sizes at or above switch to ``option``.  Returns None when the
    mutation is a no-op (the top level already picks ``option``) or when
    the threshold does not extend the selector monotonically.
    """
    selector = candidate.config.choice_for(site)
    if selector is None:
        selector = Selector.static(0)
    top_option = selector.levels[-1][1]
    if top_option == option:
        return None
    prior = [lvl for lvl in selector.levels[:-1]]
    if prior and prior[-1][0] is not None and prior[-1][0] >= threshold:
        return None  # would not be monotonically increasing
    new_levels = tuple(prior) + ((threshold, top_option), (None, option))
    mutated = candidate.clone(
        lineage=f"{candidate.lineage}+{site}@{threshold}->{option}"
    )
    mutated.config.set_choice(site, Selector(new_levels))
    return mutated


def set_tunable(candidate: Candidate, name: str, value: int) -> Candidate:
    mutated = candidate.clone(lineage=f"{candidate.lineage} {name}={value}")
    mutated.config.set_tunable(name, value)
    return mutated


def dedupe(candidates: Sequence[Candidate]) -> List[Candidate]:
    """Drop candidates with identical configurations (first wins)."""
    seen: Set[Tuple] = set()
    unique: List[Candidate] = []
    for candidate in candidates:
        key = candidate.config.key()
        if key not in seen:
            seen.add(key)
            unique.append(candidate)
    return unique
