"""Candidate step generation: a seeded deterministic mock and an HTTP client
for a remote completion endpoint.

A generator is any object with ``generate(state) -> list[Candidate]``. Its
output must depend on the state alone: the search generates for every node
of an iteration before it commits any of them, and drops the candidates of
nodes after the one that closes the goal."""

from __future__ import annotations

import hashlib
import json
import math

from .config import EngineConfig, GeneratorError
from .core import (
    FACT_REQUIRED,
    TACTICS,
    Candidate,
    ProofState,
    ProofStep,
    canonical_state,
    parse_step,
    render_state,
)
from .formulas import ParseError, atoms

REQUEST_TIMEOUT_S = 60.0

PROMPT_HEADER = (
    "### Given the following Isabelle proof state,\n"
    "suggest the next proof step."
)


def build_prompt(state: ProofState) -> str:
    """Instruction prompt for the next-step model; byte-stable for equal
    states, with the rendered state between the Input and Response markers."""
    return f"{PROMPT_HEADER}\n### Input:\n{render_state(state)}\n### Response:\n"


# ---------------------------------------------------------------------------
# Deterministic mock
# ---------------------------------------------------------------------------

def mock_generate(state: ProofState, config: EngineConfig) -> list[Candidate]:
    """Test double for the step model.

    The candidate pool is every fact-free tactic plus apply/elim over the
    context facts. Weights are 1 plus the atom overlap between the fact and
    the first goal (1 for fact-free steps), scaled by a seeded perturbation
    (from the sha256 of seed, state key and text); log-probabilities
    normalise over the whole pool. Output is sorted by score descending,
    ties by step text, and is a pure function of the canonical state, seed,
    and config. The pool is built once per context, on its ``FactIndex``.
    """
    if state.qed:
        return []
    index = state.context.index()
    if index.mock_pool is None:  # the fact-free tactics, then apply and elim per name
        pool = [(ProofStep(t), None) for t in TACTICS if t not in FACT_REQUIRED]
        pool += [(ProofStep(t, (name,)), fact_atoms) for name, fact_atoms
                 in zip(index.names, index.fact_atoms) for t in ("apply", "elim")]
        index.mock_pool = [(step, step.text(), step.text().encode(), fact_atoms)
                           for step, fact_atoms in pool]
    goal_atoms = atoms(state.subgoals[0].goal)
    prefix = hashlib.sha256(f"{config.seed}|{canonical_state(state)}|".encode())
    temperature = config.temperature
    weighted = []
    for step, text, data, fact_atoms in index.mock_pool:
        w = 1.0 if fact_atoms is None else 1.0 + len(fact_atoms & goal_atoms)
        digest = prefix.copy()
        digest.update(data)
        u = int.from_bytes(digest.digest()[:8], "big") / 2.0**64
        w *= 2.0 ** (temperature * (2.0 * u - 1.0))
        weighted.append((text, step, w))
    total = sum(w for _, _, w in weighted)
    scored = [(math.log(w / total), text, step) for text, step, w in weighted]
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [
        Candidate(step, min(lp, 0.0), "generated")
        for lp, _, step in scored[:config.candidates_per_state]
    ]


# ---------------------------------------------------------------------------
# Remote completion client
# ---------------------------------------------------------------------------

def llm_generate(state: ProofState, config: EngineConfig) -> list[Candidate]:
    """Query a completion endpoint and parse one step per sample.

    Sends the prompt with the configured sampling parameters and
    ``logprobs: true``. The first nonempty line of each sample is parsed as a
    step (unparseable samples are dropped); its score is the sum of the
    sample's token log-probabilities, clamped to 0. When any sample lacks
    log-probabilities the whole batch degrades to rank-based scores -1, -2,
    ... over distinct steps in arrival order. Duplicates keep the maximum
    score. No reasoning flags are sent: the model answers directly. A
    malformed reply raises ``GeneratorError`` naming the fault.
    """
    import urllib.error
    import urllib.request

    if not config.endpoint:
        raise GeneratorError("no generator endpoint configured")
    body = json.dumps({
        "prompt": build_prompt(state),
        "n": config.candidates_per_state,
        "temperature": config.temperature,
        "top_p": config.top_p,
        "max_tokens": config.max_tokens,
        "logprobs": True,
    }).encode()
    request = urllib.request.Request(
        config.endpoint, data=body, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as resp:
            payload = json.loads(resp.read().decode())
    except (urllib.error.URLError, OSError, ValueError) as e:
        raise GeneratorError(f"generator endpoint failed: {e}") from e

    choices = payload.get("choices", []) if isinstance(payload, dict) else None
    if not isinstance(choices, list):
        raise GeneratorError("generator reply is not an object with a list of choices")
    parsed: list[tuple[ProofStep, float | None]] = []
    have_logprobs = True
    for choice in choices:
        text = choice.get("text", "") if isinstance(choice, dict) else None
        if not isinstance(text, str):
            raise GeneratorError(f"generator choice {choice!r} has no text string")
        first_line = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
        if not first_line:
            continue
        try:
            step = parse_step(first_line)
        except ParseError:
            continue
        token_logprobs = choice.get("token_logprobs")
        if token_logprobs is None:
            have_logprobs = False
            parsed.append((step, None))
        elif not isinstance(token_logprobs, list) or any(
                type(x) not in (int, float) for x in token_logprobs):
            raise GeneratorError(f"token_logprobs {token_logprobs!r} is not a list of numbers")
        elif math.isnan(lp := float(sum(token_logprobs))) or lp == -math.inf:
            raise GeneratorError(f"token log-probabilities sum to {lp}")
        else:
            parsed.append((step, lp))
    if not parsed:
        raise GeneratorError("no sample parsed as a proof step")

    best: dict[ProofStep, Candidate] = {}
    rank = 0
    for step, lp in parsed:
        if not have_logprobs:
            if step in best:
                continue
            rank += 1
            best[step] = Candidate(step, float(-rank), "generated")
            continue
        score = min(lp, 0.0)  # defensively clamp a misbehaving server
        kept = best.get(step)
        if kept is None or score > kept.log_prob:
            best[step] = Candidate(step, score, "generated")
    ranked = sorted(best.values(), key=lambda c: (-c.log_prob, c.step.text()))
    return ranked


class MockGenerator:
    """Engine-facing wrapper over ``mock_generate``."""

    def __init__(self, config: EngineConfig):
        self.config = config

    def generate(self, state: ProofState) -> list[Candidate]:
        return mock_generate(state, self.config)


class HttpGenerator:
    """Engine-facing wrapper over ``llm_generate``."""

    def __init__(self, config: EngineConfig):
        self.config = config

    def generate(self, state: ProofState) -> list[Candidate]:
        return llm_generate(state, self.config)
