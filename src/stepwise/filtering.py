"""Proof-state filtering: duplicate detection and counterexample pruning.

The counterexample verdicts come with the states: the backend's
``apply_batch`` returns the kind of one (``none``, ``counterexample`` or
``unknown``) for each success with open subgoals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ProofState, canonical_state


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


def filter_states(items: list[tuple], seen: SeenSet) -> tuple[list[tuple], FilterStats]:
    """Each item is a tuple whose first two entries are a state and its
    verdict kind. Drop the duplicates (cheap key lookup), then the
    states their verdict falsifies; Unknown verdicts keep the state and are
    counted. Kept items come back as given, in order. Returns the kept list
    and this call's stats delta; the SeenSet accumulates totals."""
    delta = FilterStats()
    kept = []
    for item in items:
        state, kind = item[0], item[1]
        if is_duplicate(state, seen):
            delta.duplicates_rejected += 1
        elif kind == "counterexample":
            delta.counterexamples_rejected += 1
        else:
            delta.unknown_oracle += kind == "unknown"
            kept.append(item)
    seen.stats.merge(delta)
    return kept, delta

