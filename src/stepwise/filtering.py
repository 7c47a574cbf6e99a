"""Proof-state filtering: duplicate detection and counterexample pruning.

A state is a duplicate when its canonical key is already in the caller's
set of seen keys; the search keeps that set and one ``FilterStats`` total,
to which it adds each call's counts. The counterexample verdicts come with
the states: the backend's ``apply_batch`` returns the kind of one
(``none``, ``counterexample`` or ``unknown``) for each success with open
subgoals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import canonical_state


@dataclass
class FilterStats:
    duplicates_rejected: int = 0
    counterexamples_rejected: int = 0
    unknown_oracle: int = 0

    def merge(self, other: "FilterStats") -> None:
        self.duplicates_rejected += other.duplicates_rejected
        self.counterexamples_rejected += other.counterexamples_rejected
        self.unknown_oracle += other.unknown_oracle


def filter_states(items: list[tuple], seen: set[str]) -> tuple[list[tuple], FilterStats]:
    """Each item is a tuple whose first two entries are a state and its
    verdict kind. Drop the duplicates (a canonical key already in ``seen``;
    a miss adds it), then the states their verdict falsifies; Unknown
    verdicts keep the state and are counted. Kept items come back as
    given, in order. Returns the kept list and this call's counts."""
    delta = FilterStats()
    kept = []
    for item in items:
        state, kind = item[0], item[1]
        key = canonical_state(state)
        if key in seen:
            delta.duplicates_rejected += 1
            continue
        seen.add(key)
        if kind == "counterexample":
            delta.counterexamples_rejected += 1
        else:
            delta.unknown_oracle += kind == "unknown"
            kept.append(item)
    return kept, delta

