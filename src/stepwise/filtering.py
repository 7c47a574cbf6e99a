"""Proof-state filtering: duplicate detection and counterexample pruning."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import Candidate, ProofState, canonical_state
from .prover import CexResult

# one call per filter pass: a verdict for each state, in order
Oracle = Callable[[list[ProofState]], list[CexResult]]


@dataclass
class FilterStats:
    duplicates_rejected: int = 0
    counterexamples_rejected: int = 0
    unknown_oracle: int = 0

    def merge(self, other: "FilterStats") -> None:
        self.duplicates_rejected += other.duplicates_rejected
        self.counterexamples_rejected += other.counterexamples_rejected
        self.unknown_oracle += other.unknown_oracle


class SeenSet:
    """Canonical keys of every state already admitted to the search tree."""

    def __init__(self):
        self.keys: set[str] = set()
        self.stats = FilterStats()

    def insert(self, state: ProofState) -> None:
        self.keys.add(canonical_state(state))


def is_duplicate(state: ProofState, seen: SeenSet) -> bool:
    """True iff the state's canonical key was seen before; a miss inserts it."""
    key = canonical_state(state)
    if key in seen.keys:
        return True
    seen.keys.add(key)
    return False


def filter_states(candidates: list[tuple[ProofState, Candidate]], seen: SeenSet,
                  oracle: Oracle) -> tuple[list[tuple[ProofState, Candidate]], FilterStats]:
    """Drop duplicates first (cheap key lookup), then the states the oracle
    falsifies, asking it once about every survivor of the first check;
    Unknown verdicts keep the state and are counted. Survivor order is
    preserved. Returns the kept list and this call's stats delta; the
    SeenSet accumulates totals."""
    delta = FilterStats()
    fresh: list[tuple[ProofState, Candidate]] = []
    for state, cand in candidates:
        if is_duplicate(state, seen):
            delta.duplicates_rejected += 1
            continue
        fresh.append((state, cand))
    kept = []
    verdicts = oracle([state for state, _ in fresh]) if fresh else []
    for pair, verdict in zip(fresh, verdicts, strict=True):
        if verdict.kind == "counterexample":
            delta.counterexamples_rejected += 1
            continue
        if verdict.kind == "unknown":
            delta.unknown_oracle += 1
        kept.append(pair)
    seen.stats.merge(delta)
    return kept, delta

