"""Best-first proof search: scoring, frontier management, and the main loop.

The loop generalises single-node expansion to a top-k batch per iteration
(k = 1 recovers plain best-first). Per node: generate candidates, apply them
to the node's snapshot token in one backend batch, revise the failures and
apply the repairs as another batch, stop on the first zero-subgoal success,
filter the surviving states (one oracle batch), score and insert. Applying
a step to an immutable snapshot is a pure function, so each distinct step
goes to the backend once per expansion; a repeat reuses its first result.
When filtering is on, each batch asks for its successes' oracle verdicts
too, so a remote backend answers the filter without another round trip.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .config import EngineConfig
from .core import Candidate, ProofState, ProofStep, StepResult, Theory
from .filtering import FilterStats, SeenSet, filter_states
from .revision import FailedAttempt, revise, tactic_frequencies


@dataclass
class SearchNode:
    state: ProofState
    parent: "SearchNode | None"
    producing_step: Candidate | None
    path_log_prob: float
    length: int
    score: float
    order: int  # insertion sequence, breaks score ties
    token: str  # backend snapshot of this state
    explored: bool = False


@dataclass
class SearchStats:
    iterations: int = 0
    nodes_created: int = 0
    nodes_filtered_dup: int = 0
    nodes_filtered_cex: int = 0
    generator_calls: int = 0
    revisions_tried: int = 0
    wall_time: float = 0.0

    def deterministic_view(self) -> dict:
        """Stats with the physically nondeterministic wall clock removed."""
        out = self.__dict__.copy()
        out.pop("wall_time")
        return out


@dataclass
class SearchOutcome:
    proved: bool
    steps: tuple[ProofStep, ...]
    stats: SearchStats
    tree: list[SearchNode]
    filter_stats: FilterStats
    # every backend snapshot the search opened, tree tokens included; the
    # caller releases them once the fallback is done
    opened: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return not self.proved


def score_node(path_log_prob: float, length: int, alpha: float) -> float:
    """Length-normalised cumulative log-probability; higher is better."""
    if length < 1:
        raise ValueError("length must be >= 1 (the root is scored by convention)")
    return path_log_prob / length**alpha


def select_top_k(frontier: list[SearchNode], k: int) -> list[SearchNode]:
    """The k highest-scoring unexplored nodes (ties by earlier insertion),
    marked explored."""
    open_nodes = [n for n in frontier if not n.explored]
    open_nodes.sort(key=lambda n: (-n.score, n.order))
    batch = open_nodes[:k]
    for node in batch:
        node.explored = True
    return batch


def reconstruct_proof(node: SearchNode) -> list[ProofStep]:
    steps: list[ProofStep] = []
    while node.parent is not None:
        assert node.producing_step is not None
        steps.append(node.producing_step.step)
        node = node.parent
    steps.reverse()
    return steps


class ReplayError(Exception):
    pass


def best_first_search(theory: Theory, theorem_id: str, backend, generator,
                      config: EngineConfig = EngineConfig(),
                      prefix_steps: tuple[ProofStep, ...] = ()) -> SearchOutcome:
    """Search for a proof of ``theorem_id``; deterministic given a
    deterministic generator such as the seeded mock. Returns Failed (never
    raises) on budget exhaustion; backend transport errors propagate.
    ``prefix_steps`` are replayed before the search starts (completion
    experiments)."""
    from .prover import render_theory

    start_time = time.monotonic()
    deadline = start_time + config.time_limit_s
    stats = SearchStats()
    context = theory.context_for(theorem_id)
    tactic_set = config.tactic_set or tactic_frequencies(theory)

    backend.load_theory(render_theory(theory))
    token, root_state = backend.start(theory.name, theorem_id)
    opened = [token]
    for step in prefix_steps:
        [(result, token)] = backend.apply_batch(token, [step], config.step_timeout_ms)
        if not result.ok:
            backend.release(opened)
            raise ReplayError(f"prefix step {step.text()!r} failed: {result.category}")
        opened.append(token)
        root_state = result.state
    root_state = root_state.with_context(context)
    root = SearchNode(root_state, None, None, 0.0, 0, 0.0, order=0, token=token)
    tree = [root]
    stats.nodes_created = 1
    seen = SeenSet()
    seen.insert(root_state)
    oracle_limit = config.atom_limit if config.filtering_enabled else None

    if root_state.qed:
        stats.wall_time = time.monotonic() - start_time
        return SearchOutcome(True, (), stats, tree, seen.stats, opened)

    def expand(node: SearchNode, cands: list[Candidate], memo, successes, failures):
        """Apply ``cands`` to the node's snapshot, recording successes and
        failures in candidate order; returns the winning node (the first
        zero-subgoal success) or None. One batch carries the steps ``memo``
        (step -> result and token, for this node) has not seen yet."""
        fresh = list(dict.fromkeys(c.step for c in cands if c.step not in memo))
        if fresh:
            results = backend.apply_batch(node.token, fresh, config.step_timeout_ms,
                                          atom_limit=oracle_limit)
            for step, (result, token) in zip(fresh, results):
                memo[step] = (result, token)
                if token is not None:
                    opened.append(token)
        for cand in cands:
            # a memoised step never closed the goal, and the batch only
            # stops short after the winner, so every step before it is here
            result, token = memo[cand.step]
            if not result.ok:
                failures.append(FailedAttempt(
                    node.state, cand.step, cand.log_prob, result.category))
                continue
            new_state = result.state.with_context(context)
            if new_state.qed:
                return SearchNode(new_state, node, cand,
                                  node.path_log_prob + cand.log_prob,
                                  node.length + 1, 0.0, order=-1, token=token)
            successes.append((new_state, cand, token))
        return None

    while (stats.iterations < config.max_iterations
           and time.monotonic() < deadline):
        batch = select_top_k(tree, config.top_k)
        if not batch:
            break
        stats.iterations += 1
        for node in batch:
            candidates = generator.generate(node.state)[:config.candidates_per_state]
            stats.generator_calls += 1
            memo: dict[ProofStep, tuple[StepResult, str | None]] = {}
            successes: list[tuple[ProofState, Candidate, str]] = []
            failures: list[FailedAttempt] = []
            winner = expand(node, candidates, memo, successes, failures)
            if winner is None and config.revision_enabled:
                round_failures = failures
                for _ in range(config.repair_rounds):
                    repaired = revise(round_failures, context, tactic_set, config)
                    if not repaired:
                        break
                    stats.revisions_tried += len(repaired)
                    round_failures = []
                    winner = expand(node, repaired, memo, successes, round_failures)
                    if winner is not None:
                        break
            if winner is not None:
                stats.wall_time = time.monotonic() - start_time
                return SearchOutcome(True, tuple(reconstruct_proof(winner)), stats,
                                     tree, seen.stats, opened)

            if config.filtering_enabled:
                token_of = {id(state): token for state, _, token in successes}

                def oracle(states: list[ProofState]):
                    return backend.counterexamples_at(
                        [token_of[id(s)] for s in states], config.atom_limit)

                pairs = [(state, cand) for state, cand, _ in successes]
                kept_pairs, delta = filter_states(pairs, seen, oracle)
                stats.nodes_filtered_dup += delta.duplicates_rejected
                stats.nodes_filtered_cex += delta.counterexamples_rejected
                kept = [(state, cand, token_of[id(state)]) for state, cand in kept_pairs]
            else:
                kept = successes
            for state, cand, token in kept:
                if stats.nodes_created >= config.node_budget:
                    break
                length = node.length + 1
                path_lp = node.path_log_prob + cand.log_prob
                child = SearchNode(state, node, cand, path_lp, length,
                                   score_node(path_lp, length, config.alpha),
                                   order=stats.nodes_created, token=token)
                tree.append(child)
                stats.nodes_created += 1

    stats.wall_time = time.monotonic() - start_time
    return SearchOutcome(False, (), stats, tree, seen.stats, opened)


def frontier_summary(outcome: SearchOutcome) -> dict:
    open_nodes = [n for n in outcome.tree if not n.explored]
    return {
        "tree_nodes": len(outcome.tree),
        "frontier_size": len(open_nodes),
        "best_unexplored_score": max((n.score for n in open_nodes), default=None),
        "max_depth": max((n.length for n in outcome.tree), default=0),
    }


def replay_steps(theory: Theory, theorem_id: str, backend,
                 steps: list[ProofStep] | tuple[ProofStep, ...]) -> bool:
    """Replay a step list on a fresh session; True iff it ends with zero
    subgoals (the soundness check for Proved outcomes). The session and its
    root snapshot are released before returning."""
    from .prover import render_theory

    backend.load_theory(render_theory(theory))
    token, state = backend.start(theory.name, theorem_id)
    sid = backend.restore(token)
    try:
        for step in steps:
            result = backend.apply(sid, step, None)
            if not result.ok:
                return False
            state = result.state
        return state.qed
    finally:
        backend.release([sid, token])
