"""Shared infrastructure for the benchmark harness.

Each ``bench_*.py`` regenerates one table or figure of the paper's
evaluation section (see DESIGN.md's experiment index).  Conventions:

* heavy experiments run once via ``benchmark.pedantic(fn, rounds=1,
  iterations=1)`` so pytest-benchmark records the harness wall time
  while the experiment itself is not repeated;
* every experiment prints its paper-style rows and also writes them to
  ``benchmarks/results/<name>.txt`` (EXPERIMENTS.md quotes these files);
* tuned configurations are cached as JSON under
  ``benchmarks/results/configs/`` — delete a file (or set
  ``REPRO_RETUNE=1``) to force retuning.
"""

import os
import pathlib

from repro.compiler import ChoiceConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
CONFIG_DIR = RESULTS_DIR / "configs"



def write_report(name: str, lines) -> str:
    """Print report lines and persist them under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    text = "\n".join(str(line) for line in lines) + "\n"
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    print(f"\n=== {name} ===")
    print(text)
    return str(path)


def cached_config(name: str, factory) -> ChoiceConfig:
    """Load a tuned config from disk, or tune and cache it."""
    CONFIG_DIR.mkdir(parents=True, exist_ok=True)
    path = CONFIG_DIR / f"{name}.json"
    if path.exists() and not os.environ.get("REPRO_RETUNE"):
        return ChoiceConfig.load(str(path))
    config = factory()
    config.save(str(path))
    return config


def fmt_row(cells, widths) -> str:
    return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))
