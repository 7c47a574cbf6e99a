"""Best-first proof search: scoring, frontier management, and the main loop.

The loop generalises single-node expansion to a top-k batch per iteration
(k = 1 recovers plain best-first). Each iteration generates candidates for
every selected node, applies them all in one backend batch (one group per
node's snapshot token), revises each node's failures and applies every
node's repairs as one more batch per repair round. Then it commits the
nodes in order: the first whose steps closed the goal wins, and each node
before it has its surviving states filtered, scored and inserted.
Generation, applying a step to an immutable snapshot and revision are pure
in the node's state, so batching across nodes leaves the result of the
node-by-node loop unchanged; only the commit sees the other nodes. The
backend is handed the ``Theory`` itself at ``start``, and every later call
addresses the snapshot tokens it returns. Each distinct step goes to the
backend once per node and iteration; a repeat reuses its first result.
When filtering is on, each batch returns its open successes' counterexample
verdicts with them, which the filter reads; no other call asks for one.
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


@dataclass(slots=True)
class _Expansion:
    """One selected node's work in an iteration, kept until its commit."""
    node: SearchNode
    memo: dict = field(default_factory=dict)  # step -> (result, token, verdict)
    successes: list = field(default_factory=list)  # (state, verdict, candidate, token)
    failures: list = field(default_factory=list)  # the last round's
    revisions_tried: int = 0
    winner: SearchNode | None = None


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
    raises) on budget exhaustion; backend transport errors and generator
    errors propagate, after every snapshot the search opened is released.
    ``prefix_steps`` are replayed before the search starts (completion
    experiments)."""
    opened: list[str] = []
    try:
        return _search(theory, theorem_id, backend, generator, config, prefix_steps, opened)
    except BaseException:
        backend.release(opened)
        raise


def _search(theory: Theory, theorem_id: str, backend, generator, config: EngineConfig,
            prefix_steps: tuple[ProofStep, ...], opened: list[str]) -> SearchOutcome:
    start_time = time.monotonic()
    deadline = start_time + config.time_limit_s
    stats = SearchStats()
    context = theory.context_for(theorem_id)
    tactic_set = config.tactic_set or tactic_frequencies(theory)

    token, root_state = backend.start(theory, theorem_id)
    opened.append(token)
    if prefix_steps:
        results, final = backend.replay(token, prefix_steps, config.step_timeout_ms)
        if final is None:
            step = prefix_steps[len(results) - 1]
            raise ReplayError(f"prefix step {step.text()!r} failed: {results[-1].category}")
        token = final
        opened.append(token)
        root_state = results[-1].state
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

    def expand_round(expansions: list[_Expansion], tried: list[list[Candidate]]) -> int | None:
        """Apply each expansion's ``tried`` candidates to its node's snapshot:
        one backend batch carries every step that no expansion's memo (step
        -> result, token and verdict, per node) has seen yet. Then record each
        expansion's successes and this round's failures in candidate order,
        up to its first zero-subgoal success. Returns the index of the first
        expansion that closed the goal, or None; later ones are left as
        they are."""
        groups, fresh_of = [], []
        for exp, cands in zip(expansions, tried):
            memo = exp.memo
            fresh = list(dict.fromkeys(c.step for c in cands if c.step not in memo))
            if fresh:
                groups.append((exp.node.token, fresh))
                fresh_of.append((memo, fresh))
        if groups:
            replies = backend.apply_batch(groups, config.step_timeout_ms,
                                          atom_limit=oracle_limit)
            for (memo, fresh), results in zip(fresh_of, replies):
                for step, (result, token, verdict) in zip(fresh, results):
                    memo[step] = (result, token, verdict)
                    if token is not None:
                        opened.append(token)
        for index, (exp, cands) in enumerate(zip(expansions, tried)):
            node, memo, successes = exp.node, exp.memo, exp.successes
            failures = exp.failures = []
            for cand in cands:
                # a memoised step never closed the goal, and a group only
                # stops short after the winner, so every step before it is here
                result, token, verdict = memo[cand.step]
                if not result.ok:
                    failures.append(FailedAttempt(
                        node.state, cand.step, cand.log_prob, result.category))
                    continue
                new_state = result.state.with_context(context)
                if new_state.qed:
                    exp.winner = SearchNode(new_state, node, cand,
                                            node.path_log_prob + cand.log_prob,
                                            node.length + 1, 0.0, order=-1, token=token)
                    return index
                successes.append((new_state, verdict, cand, token))
        return None

    while (stats.iterations < config.max_iterations
           and time.monotonic() < deadline):
        batch = select_top_k(tree, config.top_k)
        if not batch:
            break
        stats.iterations += 1
        # Expand every selected node at once, one backend batch per round:
        # each node's generation, applies and repairs are pure in its state,
        # so only the commit below, in node order, sees the others. The
        # first node that closes the goal ends the commit; the nodes after
        # it are dropped uncommitted, their snapshots released with the rest.
        expansions = [_Expansion(node) for node in batch]
        tried = [generator.generate(node.state)[:config.candidates_per_state]
                 for node in batch]
        live = expansions
        for repair_round in range(config.repair_rounds + 1):
            won = expand_round(live, tried)
            if won is not None:  # only the nodes before the winner go on
                live = live[:won]
            if repair_round == config.repair_rounds or not config.revision_enabled:
                break
            repairing, tried = [], []
            for exp in live:
                repaired = revise(exp.failures, context, tactic_set, config)
                if repaired:
                    exp.revisions_tried += len(repaired)
                    repairing.append(exp)
                    tried.append(repaired)
            live = repairing
            if not live:
                break

        for exp in expansions:
            node, successes = exp.node, exp.successes
            stats.generator_calls += 1
            stats.revisions_tried += exp.revisions_tried
            if exp.winner is not None:
                stats.wall_time = time.monotonic() - start_time
                return SearchOutcome(True, tuple(reconstruct_proof(exp.winner)), stats,
                                     tree, seen.stats, opened)

            if config.filtering_enabled:
                kept, delta = filter_states(successes, seen)
                stats.nodes_filtered_dup += delta.duplicates_rejected
                stats.nodes_filtered_cex += delta.counterexamples_rejected
            else:
                kept = successes
            for state, _, cand, token in kept:
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


def replay_from_root(backend, theory: Theory, theorem_id: str, steps,
                     timeout_ms: int | None = None
                     ) -> tuple[ProofState, list[StepResult], bool]:
    """``steps`` chained from the theorem's root snapshot in one backend
    ``replay``: the root state, the results up to the first failure, and
    whether every step succeeded. Both snapshots are released."""
    token, root = backend.start(theory, theorem_id)
    final = None
    try:
        results, final = backend.replay(token, steps, timeout_ms)
    finally:
        backend.release([token] if final is None else [token, final])
    return root, results, final is not None


def replay_steps(theory: Theory, theorem_id: str, backend,
                 steps: list[ProofStep] | tuple[ProofStep, ...]) -> bool:
    """True iff the step list replays from the theorem's root and ends with
    zero subgoals (the soundness check for Proved outcomes)."""
    root, results, ok = replay_from_root(backend, theory, theorem_id, steps)
    return ok and (results[-1].state if results else root).qed
