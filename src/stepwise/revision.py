"""Repair of failed proof steps: tactic recombination and premise substitution."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import TACTICS, Candidate, FactContext, ProofState, ProofStep, Theory
from .formulas import atoms

DEFAULT_TACTIC_SET = TACTICS
TACTIC_SET_LIMIT = 12


@dataclass(frozen=True)
class RevisionConfig:
    tactic_set: tuple[str, ...] = DEFAULT_TACTIC_SET
    premise_pool_size: int = 128
    top_matches: int = 3
    max_edit_distance: int = 3
    budget: int = 256
    repair_rounds: int = 1

    def __post_init__(self):
        if not self.tactic_set:
            raise ValueError("tactic_set must be nonempty")
        if self.top_matches < 1:
            raise ValueError("top_matches must be >= 1")


@dataclass(frozen=True)
class FailedAttempt:
    state: ProofState
    step: ProofStep
    log_prob: float
    category: str
    detail: str = ""


def tactic_frequencies(theory: Theory, limit: int = TACTIC_SET_LIMIT) -> tuple[str, ...]:
    """Tactics ranked by frequency in the theory's ground-truth proofs,
    capped at ``limit``; falls back to the full tactic set when no proofs
    exist."""
    counts: dict[str, int] = {}
    for entry in theory.entries:
        for step in entry.proof or ():
            counts[step.tactic] = counts.get(step.tactic, 0) + 1
    if not counts:
        return DEFAULT_TACTIC_SET[:limit]
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    return tuple(ranked[:limit])


def relevance_filter(goal_state: ProofState, context: FactContext, k: int) -> list[str]:
    """Iterative symbol-overlap premise selection.

    Grows a relevant-atom set seeded from the state's subgoals; each round
    picks the unselected fact with the highest |atoms(f) & R| / |atoms(f)|
    (ties by fact id) and joins its atoms into R. Stops at ``k`` facts or
    when every remaining score is zero.
    """
    relevant: set[str] = set()
    for sub in goal_state.subgoals:
        relevant |= sub.atom_names()
    fact_atoms = {name: atoms(f) for name, f in context.facts.items()}
    remaining = sorted(context.facts)
    selected: list[str] = []
    while len(selected) < k and remaining:
        best_name = None
        best_score = 0.0
        for name in remaining:
            f_atoms = fact_atoms[name]
            if not f_atoms:
                continue
            score = len(f_atoms & relevant) / len(f_atoms)
            if score > best_score:
                best_score = score
                best_name = name
        if best_name is None:
            break
        selected.append(best_name)
        relevant |= fact_atoms[best_name]
        remaining.remove(best_name)
    return selected


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance, by the two-row dynamic programme."""
    if a == b:
        return 0
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def tactic_repair(attempt: FailedAttempt, config: RevisionConfig) -> list[Candidate]:
    """Recombine the failed step's fact list with every tactic in the set,
    minus the original pairing; scores are inherited unpenalised."""
    if attempt.category not in ("tactic_failure", "no_progress"):
        raise ValueError(f"tactic repair does not apply to {attempt.category}")
    facts = attempt.step.facts
    out = []
    for tactic in config.tactic_set:
        if tactic == attempt.step.tactic:
            continue
        out.append(Candidate(ProofStep(tactic, facts), attempt.log_prob, "tactic_repair"))
    return out


def premise_repair(attempt: FailedAttempt, pool: list[str],
                   config: RevisionConfig) -> list[Candidate]:
    """Substitute each undefined fact name with its nearest pool ids by edit
    distance (ties by pool order, cutoff at ``max_edit_distance``), one
    candidate per substitution combination."""
    if attempt.category != "undefined_fact":
        raise ValueError(f"premise repair does not apply to {attempt.category}")
    context = attempt.state.context
    step = attempt.step
    undefined = []
    for name in step.facts:
        if name not in context and name not in undefined:
            undefined.append(name)
    if not undefined:
        return []
    replacements: list[list[str]] = []
    for u in undefined:
        scored = []
        for order, name in enumerate(pool):
            d = edit_distance(u, name)
            if d <= config.max_edit_distance:
                scored.append((d, order, name))
        scored.sort()
        matches = [name for _, _, name in scored[:config.top_matches]]
        if not matches:
            return []
        replacements.append(matches)
    out = []
    seen_texts: set[str] = set()
    for combo in itertools.product(*replacements):
        mapping = dict(zip(undefined, combo))
        new_facts = tuple(mapping.get(f, f) for f in step.facts)
        new_step = ProofStep(step.tactic, new_facts)
        if new_step.text() in seen_texts:
            continue
        seen_texts.add(new_step.text())
        out.append(Candidate(new_step, attempt.log_prob, "premise_repair"))
    return out


def revise(failures: list[FailedAttempt], context: FactContext,
           config: RevisionConfig) -> list[Candidate]:
    """Dispatch failures to the matching repair, then dedup by step text
    keeping the best score and cap at the budget."""
    raw: list[Candidate] = []
    for attempt in failures:
        if attempt.category == "undefined_fact":
            pool = relevance_filter(attempt.state, context, config.premise_pool_size)
            raw.extend(premise_repair(attempt, pool, config))
        elif attempt.category in ("tactic_failure", "no_progress"):
            raw.extend(tactic_repair(attempt, config))
        # parse_error and timeout failures carry no repairable signal
    best: dict[str, Candidate] = {}
    for cand in raw:
        text = cand.step.text()
        kept = best.get(text)
        if kept is None or cand.log_prob > kept.log_prob:
            best[text] = cand
    ranked = sorted(best.values(), key=lambda c: (-c.log_prob, c.step.text()))
    return ranked[:config.budget]
