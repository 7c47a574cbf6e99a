"""Repair of failed proof steps: tactic recombination and premise substitution."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .core import TACTICS, Candidate, FactContext, ProofState, ProofStep, Theory

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

    Each fact's overlap count is kept and raised only for the facts that
    share an atom newly joined into R, each raise pushing a fresh heap entry
    keyed (-score, id). Scores only grow, so a fact's newest entry pops
    before its older ones, which are skipped once the fact is selected.
    """
    fact_atoms = context.fact_atoms()
    index = context.atom_index()
    hits: dict[str, int] = {}
    heap: list[tuple[float, str]] = []
    selected: list[str] = []
    chosen: set[str] = set()

    def join(new_atoms) -> None:
        raised = set()
        for a in new_atoms:
            for name in index.get(a, ()):
                hits[name] = hits.get(name, 0) + 1
                raised.add(name)
        for name in raised - chosen:
            heapq.heappush(heap, (-hits[name] / len(fact_atoms[name]), name))

    relevant: set[str] = set()
    for sub in goal_state.subgoals:
        relevant |= sub.atom_names()
    join(relevant)
    while len(selected) < k and heap:
        _, name = heapq.heappop(heap)
        if name in chosen:
            continue
        selected.append(name)
        chosen.add(name)
        new_atoms = fact_atoms[name] - relevant
        relevant |= new_atoms
        join(new_atoms)
    return selected


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance, by the bit-parallel algorithm of
    Myers (1999) in Hyyrö's formulation: bit ``i`` of ``vp``/``vn`` says the
    DP column rises/falls between rows ``i`` and ``i + 1``, one text
    character advances the whole column, and ``score`` tracks its last row."""
    if a == b:
        return 0
    if not a:
        return len(b)
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    vp, vn, score = mask, 0, len(a)
    for ch in b:
        x = peq.get(ch, 0) | vn
        d0 = ((((x & vp) + vp) ^ vp) | x) & mask
        hp = vn | (~(d0 | vp) & mask)
        hn = vp & d0
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        hp = (hp << 1) | 1
        vn = hp & d0
        vp = ((hn << 1) | ~(d0 | hp)) & mask
    return score


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
