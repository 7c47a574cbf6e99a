"""Inputs of the pipeline benchmark: pinned budgets, the three workloads'
theorem sets, the scripted near-miss generator and the input digests.

The inputs are a function of the workload seed alone, and the seed reaches
the program only through them: the engine's own seed is pinned. The budgets
are copied from ``stepwise.bench.bench_engine_config`` as it stood when the
benchmark was written, so that a change to the program cannot make itself
faster by shrinking them; the digests pin the rendered inputs of the
default seed for the same reason.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from stepwise.bench import generate_corpus
from stepwise.core import Candidate, ProofStep, Theory, TheoryEntry, canonical_state
from stepwise.engine import EngineConfig
from stepwise.formulas import Atom, Implies
from stepwise.prover import apply_step, init_goal, render_theory

DEFAULT_SEED = 0
# The engine's seed (the mock generator's perturbation) is pinned rather than
# taken from the workload seed. With it, the search trees the hammer starts
# from change with the seed, and the fallback theorems that form the p95
# tail cost 1,700 to 3,700 apply calls each depending on the seed alone.
ENGINE_SEED = 0

# Copied from bench_engine_config: desk-scale budgets small enough that the
# deep chains exceed the search and exercise the hammer fallback.
BUDGETS = {
    "top_k": 4,
    "candidates_per_state": 64,
    "max_iterations": 8,
    "node_budget": 400,
    "time_limit_s": 60.0,
    "temperature": 0.3,
    "hammer_states": 16,
    "hammer_timeout_s": 5.0,
    "hammer_depth": 4,
}

WIDE_THEORIES = 400
WIDE_CHAIN = (6, 12)
WIDE_DECOYS = (16, 48)
_NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyz_0123456789"

# sha256 of the rendered inputs at DEFAULT_SEED; see input_digest().
PINNED_DIGESTS = {
    "corpus": "4f855567137310d83c2bb6e34dd0db6ae18d33eb5cbbe2ff99a23328ec3f2fe4",
    "wide": "d70ec4615735fceca6fcb12872048de36cac0de1d970d2951d2fd0546f261e15",
}


def engine_config() -> EngineConfig:
    return EngineConfig(seed=ENGINE_SEED, **BUDGETS)


# ---------------------------------------------------------------------------
# repair_wide: wide chain theories proved from a corrupted script
# ---------------------------------------------------------------------------

def near_miss(name: str, taken: set[str], rng: random.Random) -> str:
    """A name one or two random edits away from ``name`` that is a valid
    identifier and not in ``taken``."""
    for _ in range(1000):
        out = name
        for _ in range(rng.choice((1, 2))):
            mode = rng.choice(("insert", "delete", "substitute"))
            pos = rng.randrange(len(out) + (mode == "insert"))
            if mode == "insert":
                out = out[:pos] + rng.choice(_NAME_ALPHABET) + out[pos:]
            elif mode == "delete" and len(out) > 1:
                out = out[:pos] + out[pos + 1:]
            else:
                out = out[:pos] + rng.choice(_NAME_ALPHABET) + out[pos + 1:]
        if out and out not in taken and (out[0].isalpha() or out[0] == "_"):
            return out
    raise RuntimeError(f"no near miss of {name!r} left")


def wide_chain_theory(name: str, length: int, decoys: int, rng: random.Random) -> Theory:
    """An implication chain p0 -> ... -> pL whose lemmas ``imp_NN`` are
    surrounded by decoys with near-miss names. Half the decoys conclude a
    chain atom from a fresh premise, so a wrong repair still applies and
    leaves a dead subgoal; the rest are unrelated. Every state spans more
    atoms than the counterexample oracle's ``atom_limit``."""
    entries = [TheoryEntry("axiom", "base", Atom("p0"))]
    names = {"base", "goal"}
    for i in range(1, length + 1):
        lemma = f"imp_{i:02d}"
        names.add(lemma)
        entries.append(TheoryEntry("axiom", lemma, Implies(Atom(f"p{i - 1}"), Atom(f"p{i}"))))
    for d in range(decoys):
        target = rng.randint(1, length)
        decoy = near_miss(f"imp_{target:02d}", names, rng)
        names.add(decoy)
        conclusion = Atom(f"p{target}") if d % 2 == 0 else Atom(f"w{d}")
        entries.append(TheoryEntry("axiom", decoy, Implies(Atom(f"z{d}"), conclusion)))
    proof = [ProofStep("apply", (f"imp_{i:02d}",)) for i in range(length, 0, -1)]
    proof.append(ProofStep("assumption"))
    entries.append(TheoryEntry("theorem", "goal", Atom(f"p{length}"), tuple(proof)))
    return Theory(name, tuple(entries))


class ScriptedGenerator:
    """Replays a theorem's ground-truth script with every fact name turned
    into an undefined near miss, like a model that hallucinates premises.
    Modelled on ``stepwise.bench.CorruptedScriptGenerator``; one candidate
    per state on the ground-truth path, none elsewhere."""

    def __init__(self, theory: Theory, seed: int):
        self.script: dict[str, Candidate] = {}
        context = theory.context_for("goal")
        state = init_goal(theory, "goal")
        rng = random.Random(f"{seed}|{theory.name}")
        taken = set(context.facts)
        for step in theory.entry("goal").proof:
            emitted = step
            if step.facts:
                emitted = ProofStep(step.tactic, tuple(near_miss(f, taken, rng) for f in step.facts))
            self.script[canonical_state(state)] = Candidate(emitted, -0.1, "generated")
            result = apply_step(state, step)
            if not result.ok:
                raise ValueError(f"{theory.name}: ground truth broke at {step.text()}")
            state = result.state

    def generate(self, state) -> list[Candidate]:
        cand = self.script.get(canonical_state(state))
        return [cand] if cand is not None else []

    def render(self) -> str:
        """The emitted script in proof order."""
        return "\n".join(cand.step.text() for cand in self.script.values())


def wide_theories(seed: int) -> list[Theory]:
    """Chain lengths and decoy counts sweep their ranges the same way for
    every seed, so the seed changes names and decoy targets but not the
    amount of work."""
    rng = random.Random(f"wide|{seed}")
    low, high = WIDE_CHAIN
    few, many = WIDE_DECOYS
    return [wide_chain_theory(f"wide_{i:03d}", low + i % (high - low + 1),
                              few + (i * 5) % (many - few + 1), rng)
            for i in range(WIDE_THEORIES)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Item:
    """One theorem to prove and, for scripted workloads, its generator."""
    theory: Theory
    generator: ScriptedGenerator | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str      # key of PINNED_DIGESTS
    remote: bool     # prove through RemoteProver over TCP
    build: Callable[[int], list[Item]]


def corpus_items(seed: int) -> list[Item]:
    return [Item(t) for t in generate_corpus(seed)]


def wide_items(seed: int) -> list[Item]:
    return [Item(t, ScriptedGenerator(t, seed)) for t in wide_theories(seed)]


WORKLOADS = {
    "corpus_inproc": Workload("corpus_inproc", "corpus", False, corpus_items),
    "corpus_tcp": Workload("corpus_tcp", "corpus", True, corpus_items),
    "repair_wide": Workload("repair_wide", "wide", False, wide_items),
}


def input_digest(items: list[Item]) -> str:
    """sha256 over every rendered theory and scripted generator."""
    h = hashlib.sha256()
    for item in items:
        h.update(render_theory(item.theory).encode())
        if item.generator is not None:
            h.update(item.generator.render().encode())
    return h.hexdigest()


def check_pinned_inputs(workload: Workload) -> None:
    """Raise ValueError unless the default seed still renders the pinned inputs."""
    digest = input_digest(workload.build(DEFAULT_SEED))
    if digest != PINNED_DIGESTS[workload.inputs]:
        raise ValueError(f"{workload.name}: inputs at seed {DEFAULT_SEED} changed "
                         f"(digest {digest}, pinned {PINNED_DIGESTS[workload.inputs]})")


def check_ground_truth(items: list[Item]) -> None:
    """Raise ValueError unless every input theorem's ground-truth proof
    replays to no open goals; invalid inputs would make solved_frac
    meaningless."""
    for item in items:
        state = init_goal(item.theory, "goal")
        for step in item.theory.entry("goal").proof:
            result = apply_step(state, step)
            if not result.ok:
                raise ValueError(f"{item.theory.name}: ground truth fails at {step.text()}")
            state = result.state
        if not state.qed:
            raise ValueError(f"{item.theory.name}: ground truth leaves open goals")
