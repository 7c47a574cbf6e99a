"""Stepwise: best-first proof search over a miniature interactive prover.

A step generator proposes candidate tactics for each proof state; failed
steps are symbolically repaired, new states are filtered against duplicates
and counterexamples and ranked by cumulative log-probability, and a bounded
proof hammer picks up the strongest states when the search stalls. The toy
prover doubles as the reference server for the wire protocol, so the whole
pipeline runs in-process or against a remote backend.
"""

__version__ = "0.1.0"

from .config import EngineConfig
from .core import (
    Candidate,
    FactContext,
    ProofState,
    ProofStep,
    StepResult,
    Subgoal,
    Theory,
    TheoryEntry,
    canonical_state,
    parse_step,
    render_state,
)
from .formulas import Formula, parse_formula, render
from .prover import ToyProver, apply_step, check_counterexample, init_goal, load_theory, toy_hammer
from .search import best_first_search

__all__ = [
    "Candidate",
    "EngineConfig",
    "FactContext",
    "Formula",
    "ProofState",
    "ProofStep",
    "StepResult",
    "Subgoal",
    "Theory",
    "TheoryEntry",
    "ToyProver",
    "apply_step",
    "best_first_search",
    "canonical_state",
    "check_counterexample",
    "init_goal",
    "load_theory",
    "parse_formula",
    "parse_step",
    "render",
    "render_state",
    "toy_hammer",
]
