"""Per-theorem prove pipeline: search, then the hammer fallback, then one
report. The configuration it reads lives in ``config``."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .config import EngineConfig
from .core import Theory
from .hammer import hammer_fallback
from .search import SearchOutcome, best_first_search, frontier_summary


@dataclass
class ProveResult:
    proved: bool
    via: str | None  # search | fallback | None
    steps: tuple | None
    outcome: SearchOutcome
    report: dict


def prove_theorem(theory: Theory, theorem_id: str, config: EngineConfig,
                  backend=None, generator=None,
                  prefix_steps: tuple = ()) -> ProveResult:
    """Search, then the hammer fallback if the search failed; the search's
    root, and with it every snapshot derived from it, is released before
    returning or raising, and a backend made here from ``config`` is closed.
    ``prefix_steps`` are replayed first (``ReplayError`` if one fails)."""
    if backend is None:
        backend = config.make_backend()
        try:
            return prove_theorem(theory, theorem_id, config, backend, generator, prefix_steps)
        finally:
            backend.close()
    generator = generator if generator is not None else config.make_generator()
    outcome = best_first_search(theory, theorem_id, backend, generator, config,
                                prefix_steps=tuple(prefix_steps))
    via: str | None = "search" if outcome.proved else None
    steps = outcome.steps if outcome.proved else None
    fallback_attempts: list | None = None
    try:
        if not outcome.proved and config.hammer_states:
            fallback_attempts = []
            fallback_steps = hammer_fallback(outcome, backend, config,
                                             attempts=fallback_attempts)
            if fallback_steps is not None:
                via = "fallback"
                steps = tuple(fallback_steps)
    finally:
        backend.release([outcome.root])
    proved = steps is not None
    entry = theory.entry(theorem_id)
    report = {
        "theory": theory.name,
        "theorem": theorem_id,
        "proved": proved,
        "via": via,
        "steps": [s.text() for s in steps] if steps is not None else None,
        "ground_truth_length": len(entry.proof) if entry and entry.proof else 0,
        "seed": config.seed,
        "stats": dict(outcome.stats.__dict__),
        "filtering": dict(outcome.filter_stats.__dict__),
    }
    if not outcome.proved:
        report["frontier"] = frontier_summary(outcome)
    if fallback_attempts is not None:
        report["fallback_attempts"] = fallback_attempts
    return ProveResult(proved, via, steps, outcome, report)


def write_report(report: dict, directory, filename: str | None = None) -> Path:
    """Atomic per-theorem report write (temp file plus rename)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = filename or f"{report['theory']}.{report['theorem']}.json"
    target = directory / name
    tmp = directory / (name + ".tmp")
    tmp.write_text(json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    os.replace(tmp, target)
    return target
