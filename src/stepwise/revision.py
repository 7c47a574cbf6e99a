"""Repair of failed proof steps: tactic recombination and premise substitution."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .config import EngineConfig
from .core import TACTICS, Candidate, FactIndex, ProofState, ProofStep, Theory
from .formulas import PARSE_CACHE_SIZE
from .prover import Ranking, relevance_ranking


@dataclass(frozen=True, slots=True)
class FailedAttempt:
    state: ProofState
    step: ProofStep
    log_prob: float
    category: str


def tactic_frequencies(theory: Theory) -> tuple[str, ...]:
    """Tactics ranked by frequency in the theory's ground-truth proofs;
    falls back to the full tactic set when no proofs exist."""
    counts: dict[str, int] = {}
    for entry in theory.entries:
        for step in entry.proof or ():
            counts[step.tactic] = counts.get(step.tactic, 0) + 1
    if not counts:
        return TACTICS
    return tuple(sorted(counts, key=lambda t: (-counts[t], t)))


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance."""
    return edit_distances(a, (b,))[0]


def edit_distances(a: str, texts) -> list[int]:
    """``edit_distance(a, b)`` for each ``b`` in ``texts``, in one pass over
    ``a``: the last row is ``len(a)`` plus the rises minus the falls in each
    text's block of ``_last_column``."""
    packed, blocks = _pack_texts(texts)
    vp, vn = _last_column(a, packed)
    n = len(a)
    return [n + (vp & block).bit_count() - (vn & block).bit_count() for block in blocks]


def _pack_texts(texts) -> tuple:
    """Every text as one block of a wide int (Hyyrö, Fredriksson & Navarro,
    2005), text ``j`` in bits ``[off_j, off_j + len_j)`` under a zero guard
    bit: the match masks, the mask of all text bits and the bottom bit of
    every block, then each text's block mask, in place."""
    peq: dict[str, int] = {}
    blocks = []
    mask = low = off = 0
    for text in texts:
        for i, ch in enumerate(text):
            peq[ch] = peq.get(ch, 0) | (1 << (off + i))
        block = ((1 << len(text)) - 1) << off
        blocks.append(block)
        if text:
            mask |= block
            low |= 1 << off
            off += len(text) + 1
    return (peq, mask, low), blocks


def _last_column(a: str, packed: tuple) -> tuple[int, int]:
    """The bit-parallel Levenshtein of Myers (1999) in Hyyrö's formulation,
    over all packed blocks at once. Bit ``i`` of a block of ``vp``/``vn``
    says its DP column rises/falls between rows ``i`` and ``i + 1``; guard
    bits absorb the carries of ``+`` and ``<< 1``, and ``low`` feeds each
    block its top row's +1."""
    peq, mask, low = packed
    vp, vn = mask, 0
    for ch in a:
        x = peq.get(ch, 0) | vn
        d0 = ((((x & vp) + vp) ^ vp) | x) & mask
        hp = vn | (~(d0 | vp) & mask)
        hn = vp & d0
        hp = (hp << 1) | low
        vn = hp & d0
        vp = ((hn << 1) | ~(d0 | hp)) & mask
    return vp, vn


def tactic_repair(attempt: FailedAttempt, tactic_set: tuple[str, ...]) -> list[ProofStep]:
    """Recombine the failed step's fact list with every tactic in the set,
    minus the original pairing (``revise`` scores each with the attempt's
    score, unpenalised)."""
    if attempt.category not in ("tactic_failure", "no_progress"):
        raise ValueError(f"tactic repair does not apply to {attempt.category}")
    return list(_recombine(attempt.step, tactic_set))


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _recombine(step: ProofStep, tactic_set: tuple[str, ...]) -> tuple[ProofStep, ...]:
    """``step``'s facts under every other tactic of the set, in set order;
    memoised like ``parse_step``, since a search repairs few distinct steps."""
    return tuple(ProofStep(t, step.facts) for t in tactic_set if t != step.tactic)


def premise_repair(attempt: FailedAttempt, config: EngineConfig) -> list[ProofStep]:
    """Substitute each undefined fact name with its nearest names by edit
    distance in the state's relevance pool, the first ``premise_pool_size``
    of its ``relevance_filter`` ranking (ties by pool order, cutoff at
    ``max_edit_distance``), one step per distinct substitution combination
    (``revise`` scores each with the attempt's score).

    One scan of the context's packed names puts each fact within the
    cutoff into a bucket for its distance. The buckets are read nearest
    first, and the ranking is resumed only until it decides a bucket's
    earliest members: a fact already ranked in the pool comes before every
    fact not yet ranked.
    """
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
    ranking, index = relevance_ranking(attempt.state)
    limit = min(config.premise_pool_size, len(index.names))
    replacements: list[list[str]] = []
    for u in undefined:
        matches: list[int] = []
        for bucket in _distance_buckets(u, index, config.max_edit_distance):
            if bucket:
                matches += _earliest(bucket, config.top_matches - len(matches),
                                     ranking, limit, index)
                if len(matches) == config.top_matches:
                    break
        if not matches:
            return []
        replacements.append([index.names[i] for i in matches])
    out: dict[ProofStep, None] = {}
    for combo in itertools.product(*replacements):
        mapping = dict(zip(undefined, combo))
        out[ProofStep(step.tactic, tuple(mapping.get(f, f) for f in step.facts))] = None
    return list(out)


def _distance_buckets(u: str, index: FactIndex, cutoff: int) -> list[list[int]]:
    """The ids of the index's names at each edit distance from ``u`` up to
    ``cutoff``, from one scan of the names, which the index packs in id
    order on first use (see ``edit_distances``)."""
    if index.packed_names is None:
        index.packed_names = _pack_texts(index.names)
    packed, blocks = index.packed_names
    vp, vn = _last_column(u, packed)
    n = len(u)
    buckets: list[list[int]] = [[] for _ in range(cutoff + 1)]
    for i, block in enumerate(blocks):
        d = n + (vp & block).bit_count() - (vn & block).bit_count()
        if d <= cutoff:
            buckets[d].append(i)
    return buckets


def _earliest(bucket: list[int], need: int, ranking: Ranking, limit: int,
              index: FactIndex) -> list[int]:
    """The first ``need`` members of ``bucket`` in ranking order among the
    first ``limit`` picks, resuming the ranking until ``need`` members are
    picked, the bucket is used up, or the pool is complete."""
    pos = ranking.pos
    ranked = [i for i in bucket if pos[i] < limit]
    want = min(need, len(bucket)) - len(ranked)
    if want > 0 and len(ranking.order) < limit:
        ranking.extend(limit, index, frozenset(bucket), want)
        ranked = [i for i in bucket if pos[i] < limit]
    ranked.sort(key=pos.__getitem__)
    return ranked[:need]


def revise(failures: list[FailedAttempt], tactic_set: tuple[str, ...],
           config: EngineConfig) -> list[Candidate]:
    """Dispatch failures to the matching repair (tactic repair recombines
    with ``tactic_set``), each repaired step scored with its attempt's
    score, then dedup by step keeping the best score (the first seen on a
    tie) and cap at the revision budget, best first, ties by text."""
    best: dict[ProofStep, Candidate] = {}
    for attempt in failures:
        if attempt.category == "undefined_fact":
            steps, origin = premise_repair(attempt, config), "premise_repair"
        elif attempt.category in ("tactic_failure", "no_progress"):
            steps, origin = tactic_repair(attempt, tactic_set), "tactic_repair"
        else:  # parse_error and timeout failures carry no repairable signal
            continue
        log_prob = attempt.log_prob
        for step in steps:
            kept = best.get(step)
            if kept is None or log_prob > kept.log_prob:
                best[step] = Candidate(step, log_prob, origin)
    ranked = sorted(best.values(), key=lambda c: (-c.log_prob, c.step.text()))
    return ranked[:config.revision_budget]
