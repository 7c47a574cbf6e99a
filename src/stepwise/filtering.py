"""Proof-state filtering: duplicate detection and counterexample pruning."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import Candidate, FactContext, ProofState, ProofStep, canonical_state
from .prover import CexResult, apply_step

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


@dataclass(frozen=True)
class FilterConfig:
    check_duplicates: bool = True
    check_counterexamples: bool = True
    use_equivalence: bool = False


class SeenSet:
    """Canonical keys of every state already admitted to the search tree."""

    def __init__(self, retain_states: bool = False):
        self.keys: set[str] = set()
        self.stats = FilterStats()
        self.states: list[ProofState] | None = [] if retain_states else None

    def insert(self, state: ProofState) -> None:
        self.keys.add(canonical_state(state))
        if self.states is not None:
            self.states.append(state)


def is_duplicate(state: ProofState, seen: SeenSet) -> bool:
    """True iff the state's canonical key was seen before; a miss inserts it."""
    key = canonical_state(state)
    if key in seen.keys:
        return True
    seen.keys.add(key)
    if seen.states is not None:
        seen.states.append(state)
    return False


def states_equivalent(s1: ProofState, s2: ProofState, context: FactContext) -> bool:
    """Bidirectional one-step closure check.

    Each side's subgoals must close in a single step (assumption or apply)
    once the other side's goals are available as temporary facts. Runs on the
    in-process prover: temporary-fact injection is not a wire capability.
    """
    return _covered(s1, s2, context) and _covered(s2, s1, context)


def _covered(target: ProofState, provider: ProofState, context: FactContext) -> bool:
    facts = dict(context.facts)
    temp_names = []
    for i, sub in enumerate(provider.subgoals):
        name = f"_peer{i}"
        while name in facts:
            name += "'"
        facts[name] = sub.goal
        temp_names.append(name)
    bridged = FactContext(facts, context.usage_counts)
    for sub in target.subgoals:
        single = ProofState((sub,), bridged, 0)
        if apply_step(single, ProofStep("assumption")).ok:
            continue
        closed = False
        for name in temp_names:
            result = apply_step(single, ProofStep("apply", (name,)))
            if result.ok and result.state.qed:
                closed = True
                break
        if not closed:
            return False
    return True


def filter_states(candidates: list[tuple[ProofState, Candidate]], seen: SeenSet,
                  oracle: Oracle, config: FilterConfig = FilterConfig(),
                  ) -> tuple[list[tuple[ProofState, Candidate]], FilterStats]:
    """Drop duplicates first (cheap key lookup), then the states the oracle
    falsifies, asking it once about every survivor of the first check;
    Unknown verdicts keep the state and are counted. Survivor order is
    preserved. Returns the kept list and this call's stats delta; the
    SeenSet accumulates totals."""
    delta = FilterStats()
    fresh: list[tuple[ProofState, Candidate]] = []
    for state, cand in candidates:
        if config.check_duplicates:
            if is_duplicate(state, seen):
                delta.duplicates_rejected += 1
                continue
            if config.use_equivalence and seen.states is not None and _equivalent_to_seen(state, seen):
                delta.duplicates_rejected += 1
                continue
        fresh.append((state, cand))
    kept = fresh
    if config.check_counterexamples and fresh:
        verdicts = oracle([state for state, _ in fresh])
        kept = []
        for pair, verdict in zip(fresh, verdicts, strict=True):
            if verdict.kind == "counterexample":
                delta.counterexamples_rejected += 1
                continue
            if verdict.kind == "unknown":
                delta.unknown_oracle += 1
            kept.append(pair)
    seen.stats.merge(delta)
    return kept, delta


def _equivalent_to_seen(state: ProofState, seen: SeenSet) -> bool:
    assert seen.states is not None
    for prior in seen.states:
        if prior is state:
            continue
        if states_equivalent(state, prior, state.context):
            return True
    return False
