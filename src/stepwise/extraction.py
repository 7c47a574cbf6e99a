"""Dataset emission: replay ground-truth proofs into (state, next step) pairs."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import Theory, render_state


@dataclass(frozen=True)
class StatePair:
    theory: str
    theorem: str
    index: int
    state: str  # rendered exactly as the generator prompt renders it
    step: str


@dataclass
class ExtractionResult:
    pairs: list[StatePair]
    failures: list[tuple[str, str]]  # (entry id, reason)


def extract_pairs(theory: Theory, backend) -> ExtractionResult:
    """Replay every entry that has a ground-truth proof, recording the state
    before each step. An entry whose replay breaks (a failing step, or a
    proof that does not end at zero subgoals) contributes no pairs and is
    reported instead. Each entry's session and root snapshot are released
    once it is replayed."""
    from .prover import render_theory

    backend.load_theory(render_theory(theory))
    result = ExtractionResult([], [])
    for entry in theory.entries:
        if entry.proof is None:
            continue
        token, state = backend.start(theory.name, entry.name)
        sid = backend.restore(token)
        entry_pairs: list[StatePair] = []
        broken = None
        try:
            for index, step in enumerate(entry.proof):
                entry_pairs.append(StatePair(
                    theory.name, entry.name, index, render_state(state), step.text()))
                outcome = backend.apply(sid, step, None)
                if not outcome.ok:
                    broken = f"step {index} ({step.text()}): {outcome.category} {outcome.detail}"
                    break
                state = outcome.state
        finally:
            backend.release([sid, token])
        if broken is None and not state.qed:
            broken = "proof ends with open subgoals"
        if broken is None:
            result.pairs.extend(entry_pairs)
        else:
            result.failures.append((entry.name, broken))
    return result


def write_dataset(pairs: list[StatePair], path) -> int:
    """One JSON object per line, input order; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(json.dumps({
                "theory": pair.theory,
                "theorem": pair.theorem,
                "index": pair.index,
                "state": pair.state,
                "step": pair.step,
            }, sort_keys=True, ensure_ascii=False))
            fh.write("\n")
            count += 1
    return count


def read_dataset(path) -> list[StatePair]:
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            pairs.append(StatePair(obj["theory"], obj["theorem"], int(obj["index"]),
                                   obj["state"], obj["step"]))
    return pairs
