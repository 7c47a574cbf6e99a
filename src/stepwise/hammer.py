"""Hammer fallback: when search fails, try the strongest tree states.

The hammer is never invoked per step; only after a failed search does it get
the highest-scoring states (explored ones included; states dropped by the
filter never entered the tree), and the prover selects each one's premises.
"""

from __future__ import annotations

from .config import EngineConfig
from .core import ProofStep
from .prover import HammerConfig, HammerResult, PremiseSelection
from .search import SearchNode, SearchOutcome, reconstruct_proof


def hammer_state(token: str, backend, config: EngineConfig) -> HammerResult:
    """One hammer call on the snapshot ``token``, which uses the first
    ``hammer_premise_limit`` facts of the prover's ``mesh_rank`` order."""
    hammer_config = HammerConfig(config.hammer_depth, int(config.hammer_timeout_s * 1000))
    premises = PremiseSelection(config.hammer_premise_limit, config.mesh_weight)
    return backend.hammer_at(token, hammer_config, premises)


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
        result = hammer_state(node.token, backend, config)
        if attempts is not None:
            attempts.append({"depth": node.length, "score": node.score,
                             "result": result.kind})
        if result.found:
            return reconstruct_proof(node) + list(result.steps)
    return None
