"""Hammer fallback: when search fails, try the strongest tree states.

The hammer is never invoked per step; only after a failed search does it get
the highest-scoring states (explored ones included; states dropped by the
filter never entered the tree) with a combined-relevance premise pool.
"""

from __future__ import annotations

from .config import EngineConfig
from .core import ProofState, ProofStep
from .prover import HammerConfig, HammerResult
from .revision import relevance_filter
from .search import SearchNode, SearchOutcome, reconstruct_proof


def mesh_rank(state: ProofState, k: int, w: float) -> list[str]:
    """Premises ranked by a blend of symbol overlap and proof usage.

    The overlap component is the reciprocal rank from ``relevance_filter``
    (0 for unranked facts); the usage component is the fact's ground-truth
    usage count normalised by the maximum (0 when the corpus is empty).
    Combined score: ``w * overlap + (1 - w) * usage``; ties break by fact id.
    """
    index = state.context.index()
    overlap_order = relevance_filter(state, len(index.names))
    overlap_score = {name: 1.0 / (rank + 1) for rank, name in enumerate(overlap_order)}
    scored = sorted((-(w * overlap_score.get(name, 0.0) + (1 - w) * usage), name)
                    for name, usage in zip(index.names, index.usage_shares))
    return [name for _, name in scored[:k]]


def hammer_state(state: ProofState, token: str, backend,
                 config: EngineConfig) -> HammerResult:
    """One hammer call on the snapshot ``token`` of ``state``, with the
    ``mesh_rank`` premise pool capped at ``hammer_premise_limit``."""
    pool = mesh_rank(state, config.hammer_premise_limit, config.mesh_weight)
    hammer_config = HammerConfig(config.hammer_depth, int(config.hammer_timeout_s * 1000))
    return backend.hammer_at(token, hammer_config, pool)


def hammer_fallback(outcome: SearchOutcome, backend,
                    config: EngineConfig = EngineConfig(),
                    attempts: list | None = None) -> list[ProofStep] | None:
    """Attempt the ``hammer_states`` best tree states in score order; on the
    first hit, return the path to that state plus the hammer's steps (a full
    proof). Per-state timeouts are absorbed; None when every attempt fails.
    ``attempts``, when given, collects one record per state tried (for the
    search report).
    """
    nodes: list[SearchNode] = sorted(
        outcome.tree, key=lambda n: (-n.score, n.order))[:config.hammer_states]
    for node in nodes:
        result = hammer_state(node.state, node.token, backend, config)
        if attempts is not None:
            attempts.append({"depth": node.length, "score": node.score,
                             "result": result.kind})
        if result.found:
            return reconstruct_proof(node) + list(result.steps)
    return None
