"""Dataset emission: replay ground-truth proofs into (state, next step) pairs."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import Theory, render_state
from .search import replay_from_root


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
    reported instead. Each entry is one backend ``replay``."""
    result = ExtractionResult([], [])
    for entry in theory.entries:
        if entry.proof is None:
            continue
        root, outcomes, ok = replay_from_root(backend, theory, entry.name, entry.proof)
        states = [root] + [outcome.state for outcome in outcomes if outcome.ok]
        if not ok:
            index = len(outcomes) - 1
            failed = outcomes[index]
            result.failures.append((entry.name, f"step {index} ({entry.proof[index].text()}): "
                                                 f"{failed.category} {failed.detail}"))
        elif not states[-1].qed:
            result.failures.append((entry.name, "proof ends with open subgoals"))
        else:
            result.pairs.extend(
                StatePair(theory.name, entry.name, index, render_state(state), step.text())
                for index, (state, step) in enumerate(zip(states, entry.proof)))
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
