"""Seeded benchmark corpus and the three-arm comparison harness.

The corpus mixes families with known difficulty profiles: implication chains
(some deeper than the root hammer bound), case splits that need ``elim``,
constant-folding goals that only ``simp`` closes, pure-intro tautologies,
and disjunction goals with one dead branch. Every theorem carries a
ground-truth proof, so the same corpus also drives extraction, filtering,
and revision-recovery checks. All output tables are timing-free and
byte-stable for a fixed seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace

from .core import Candidate, ProofStep, Theory, TheoryEntry, canonical_state
from .config import EngineConfig
from .engine import prove_theorem
from .formulas import And, Atom, Implies, Or, TRUE, parse_formula
from .hammer import hammer_state
from .prover import ToyProver, apply_step, init_goal
from .search import replay_from_root

FAMILY_SIZES = {
    "case": 60,       # elim-requiring case splits, depth 4
    "chain_s": 30,    # shallow chains, every arm solves
    "chain_m": 8,     # length-4 chains: auto yes, root hammer no
    "chain_d": 40,    # deep chains with decoy implications, search only
    "chain_x": 15,    # chains into an elim tail, need search + fallback
    "dis": 15,        # disjunction goals with one falsifiable branch
    "simp": 25,       # constant-folding goals, only simp closes them
    "taut": 28,       # intro/split tautologies
}


def bench_engine_config(seed: int) -> EngineConfig:
    """Pinned desk-scale budgets; small enough that the deep families
    genuinely exceed the search budget and exercise the fallback."""
    return EngineConfig(
        seed=seed,
        top_k=4,
        candidates_per_state=64,
        max_iterations=8,
        node_budget=400,
        time_limit_s=60.0,
        temperature=0.3,  # keep fact-overlap ordering stable under perturbation
        hammer_states=16,
        hammer_timeout_s=5.0,
        hammer_depth=4,
    )


# ---------------------------------------------------------------------------
# Corpus families
# ---------------------------------------------------------------------------

def _chain(length: int) -> tuple[tuple[TheoryEntry, ...], tuple[ProofStep, ...]]:
    """The axioms ``imp_NN: p(N-1) -> pN`` up to ``p{length}``, and the
    steps that apply them back down to ``p0``."""
    axioms = tuple(TheoryEntry("axiom", f"imp_{i:02d}", Implies(Atom(f"p{i - 1}"), Atom(f"p{i}")))
                   for i in range(1, length + 1))
    return axioms, tuple(ProofStep("apply", (f"imp_{i:02d}",)) for i in range(length, 0, -1))


def _case_split(goal: str) -> tuple[tuple[TheoryEntry, ...], tuple[ProofStep, ...]]:
    # branch: a | goal and lift: a -> goal force a case split; one branch
    # closes by assumption, so the proof fits the default hammer depth.
    axioms = (TheoryEntry("axiom", "branch", Or(Atom("a"), Atom(goal))),
              TheoryEntry("axiom", "lift", Implies(Atom("a"), Atom(goal))))
    proof = (ProofStep("elim", ("branch",)), ProofStep("apply", ("lift",)),
             ProofStep("assumption"), ProofStep("assumption"))
    return axioms, proof


def _chain_theory(name: str, length: int, decoys: int) -> Theory:
    axioms, proof = _chain(length)
    decoy_axioms = tuple(TheoryEntry("axiom", f"dead_{d}",
                                     Implies(Atom(f"z{d}"), Atom(f"p{(d * 2 + 1) % length + 1}")))
                         for d in range(decoys))
    goal = TheoryEntry("theorem", "goal", Atom(f"p{length}"), proof + (ProofStep("assumption"),))
    return Theory(name, (TheoryEntry("axiom", "base", Atom("p0")), *axioms, *decoy_axioms, goal))


def _case_theory(name: str) -> Theory:
    axioms, proof = _case_split("g")
    return Theory(name, (*axioms, TheoryEntry("theorem", "goal", Atom("g"), proof)))


def _elim_tail_chain_theory(name: str, length: int) -> Theory:
    # A chain whose base atom is only reachable through a case split; the
    # proof outruns the bench iteration budget but a frontier state stays
    # within hammer reach.
    case_axioms, case_proof = _case_split("p0")
    chain_axioms, chain_proof = _chain(length)
    goal = TheoryEntry("theorem", "goal", Atom(f"p{length}"), chain_proof + case_proof)
    return Theory(name, (*case_axioms, *chain_axioms, goal))


def _disjunction_theory(name: str) -> Theory:
    entries = (
        TheoryEntry("axiom", "have_b", Atom("b")),
        TheoryEntry("theorem", "goal", Or(Atom("a"), Atom("b")), (
            ProofStep("right"),
            ProofStep("assumption"),
        )),
    )
    return Theory(name, entries)


def _simp_theory(name: str, variant: int) -> Theory:
    if variant % 2 == 0:
        goal = And(Atom("q"), TRUE)
        proof = (ProofStep("simp"), ProofStep("assumption"))
        entries = (
            TheoryEntry("axiom", "have_q", Atom("q")),
            TheoryEntry("theorem", "goal", goal, proof),
        )
    else:
        goal = parse_formula("p & true -> p")
        proof = (ProofStep("simp"), ProofStep("intro"), ProofStep("assumption"))
        entries = (TheoryEntry("theorem", "goal", goal, proof),)
    return Theory(name, entries)


def _tautology_theory(name: str, variant: int) -> Theory:
    shapes = (
        ("p -> q -> p",
         ("intro", "intro", "assumption")),
        ("p -> p | q",
         ("intro", "left", "assumption")),
        ("p -> q -> p & q",
         ("intro", "intro", "split", "assumption", "assumption")),
        ("p -> p",
         ("intro", "assumption")),
    )
    text, tactics = shapes[variant % len(shapes)]
    proof = tuple(ProofStep(t) for t in tactics)
    return Theory(name, (TheoryEntry("theorem", "goal", parse_formula(text), proof),))


def generate_corpus(seed: int) -> list[Theory]:
    """Deterministic corpus; theory names sort fact-bearing families first."""
    rng = random.Random(seed)
    corpus: list[Theory] = []
    for i in range(FAMILY_SIZES["case"]):
        corpus.append(_case_theory(f"case_{i:03d}"))
    for i in range(FAMILY_SIZES["chain_s"]):
        corpus.append(_chain_theory(f"chain_s{i:03d}", rng.choice((2, 3)), 0))
    for i in range(FAMILY_SIZES["chain_m"]):
        corpus.append(_chain_theory(f"chain_m{i:03d}", 4, 0))
    for i in range(FAMILY_SIZES["chain_d"]):
        corpus.append(_chain_theory(f"chain_d{i:03d}", rng.choice((6, 7, 8, 9)),
                                    rng.choice((1, 2))))
    for i in range(FAMILY_SIZES["chain_x"]):
        corpus.append(_elim_tail_chain_theory(f"chain_x{i:03d}", rng.choice((6, 7))))
    for i in range(FAMILY_SIZES["dis"]):
        corpus.append(_disjunction_theory(f"dis_{i:03d}"))
    for i in range(FAMILY_SIZES["simp"]):
        corpus.append(_simp_theory(f"simp_{i:03d}", i))
    for i in range(FAMILY_SIZES["taut"]):
        corpus.append(_tautology_theory(f"taut_{i:03d}", i))
    return corpus


def family_of(name: str) -> str:
    return name.rsplit("_", 1)[0]


# ---------------------------------------------------------------------------
# Arms
# ---------------------------------------------------------------------------

def arm_auto(theory: Theory, backend) -> bool:
    """Baseline: a single ``auto`` invocation on the initial goal."""
    _, [result], _ = replay_from_root(backend, theory, "goal", [ProofStep("auto")], 5000)
    return bool(result.ok and result.state.qed)


def arm_hammer_root(theory: Theory, backend, config: EngineConfig) -> bool:
    """Baseline: the fallback hammer applied to the root state only."""
    token, _ = backend.start(theory, "goal")
    try:
        result = hammer_state(token, backend, config)
    finally:
        backend.release([token])
    return result.found


# the table's arm columns, each with the report arm it reads
TABLE_ARMS = {"auto": "auto", "hammer": "hammer_root", "full": "full"}


@dataclass
class BenchResult:
    """The reports of one bench pass, one per theorem in corpus order; the
    tables read them."""
    seed: int
    reports: list[dict]
    wall_time: float

    def solved(self, arm: str) -> int:
        return sum(1 for r in self.reports if r["arms"][TABLE_ARMS[arm]])

    def _rows(self):
        for r in self.reports:
            arms = [_yn(r["arms"][key]) for key in TABLE_ARMS.values()]
            yield r["theory"], r["session"], r["ground_truth_length"], arms, r["via"]

    def table_text(self) -> str:
        lines = [f"# bench corpus seed={self.seed} theorems={len(self.reports)}",
                 f"{'theory':<16} {'family':<8} {'gt_len':>6} {'auto':<5} {'hammer':<6} {'full':<5} via"]
        for theory, family, gt_len, (auto, hammer, full), via in self._rows():
            lines.append(f"{theory:<16} {family:<8} {gt_len:>6} "
                         f"{auto:<5} {hammer:<6} {full:<5} {via or '-'}")
        n = len(self.reports)
        lines.append("")
        for arm in TABLE_ARMS:
            k = self.solved(arm)
            lines.append(f"TOTAL {arm:<7} {k:>4}/{n}  ({100.0 * k / n:.1f}%)")
        return "\n".join(lines) + "\n"

    def csv_text(self) -> str:
        lines = ["theory,family,gt_len,auto,hammer,full,via"]
        for theory, family, gt_len, arms, via in self._rows():
            lines.append(",".join([theory, family, str(gt_len), *arms, via or ""]))
        return "\n".join(lines) + "\n"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def run_bench(seed: int) -> BenchResult:
    """Run all three arms over the seeded corpus on a shared in-process
    prover. Reports carry timings; the tables never do."""
    started = time.monotonic()
    config = bench_engine_config(seed)
    backend = ToyProver()
    generator = config.make_generator()
    reports: list[dict] = []
    for theory in generate_corpus(seed):
        auto_ok = arm_auto(theory, backend)
        hammer_ok = arm_hammer_root(theory, backend, config)
        result = prove_theorem(theory, "goal", config, backend=backend, generator=generator)
        report = dict(result.report)
        report["split"] = "bench"
        report["session"] = family_of(theory.name)
        report["arms"] = {"auto": auto_ok, "hammer_root": hammer_ok, "full": result.proved}
        reports.append(report)
    return BenchResult(seed, reports, time.monotonic() - started)


# ---------------------------------------------------------------------------
# Revision recovery experiment
# ---------------------------------------------------------------------------

class CorruptedScriptGenerator:
    """Adversarial generator: replays a theorem's ground-truth script but
    corrupts one fact name per fact-bearing step into an undefined name
    within two edits, imitating a model that hallucinates near-miss premises.
    """

    def __init__(self, theory: Theory, theorem_id: str, seed: int):
        self.script: dict[str, Candidate] = {}
        state = init_goal(theory, theorem_id)
        entry = theory.entry(theorem_id)
        assert entry is not None and entry.proof
        rng = random.Random(f"{seed}|{theory.name}|{theorem_id}")
        for step in entry.proof:
            emitted = step
            if step.facts:
                bad = _corrupt_name(step.facts[0], state.context, rng)
                emitted = ProofStep(step.tactic, (bad,) + step.facts[1:])
            self.script[canonical_state(state)] = Candidate(emitted, -0.1, "generated")
            result = apply_step(state, step)
            assert result.ok, f"ground truth broke at {step.text()}"
            state = result.state

    def generate(self, state) -> list[Candidate]:
        cand = self.script.get(canonical_state(state))
        return [cand] if cand is not None else []


def _corrupt_name(name: str, context, rng: random.Random) -> str:
    alphabet = "abcdefghijklmnopqrstuvwxyz_0123456789"
    for _ in range(100):
        out = name
        for _ in range(rng.choice((1, 2))):
            mode = rng.choice(("insert", "delete", "substitute"))
            pos = rng.randrange(len(out) + (1 if mode == "insert" else 0))
            if mode == "insert":
                out = out[:pos] + rng.choice(alphabet) + out[pos:]
            elif mode == "delete" and len(out) > 1:
                out = out[:pos] + out[pos + 1:]
            else:
                out = out[:pos] + rng.choice(alphabet) + out[pos + 1:]
        if out != name and out not in context and out[0].isidentifier():
            return out
    raise RuntimeError(f"could not corrupt {name!r} into an undefined name")


@dataclass
class RecoveryResult:
    attempted: list[str] = field(default_factory=list)
    solved_with_revision: set[str] = field(default_factory=set)
    solved_without_revision: set[str] = field(default_factory=set)


def revision_recovery(corpus: list[Theory], solved_names: list[str], seed: int,
                      limit: int = 100) -> RecoveryResult:
    """Corrupt the ground-truth scripts of the first ``limit`` solved
    theorems and rerun the pipeline with and without revision."""
    by_name = {t.name: t for t in corpus}
    picked = [n for n in sorted(solved_names) if n in by_name][:limit]
    base = bench_engine_config(seed)
    result = RecoveryResult(attempted=picked)
    for revision_on in (True, False):
        config = base if revision_on else replace(base, repair_rounds=0)
        backend = ToyProver()
        for name in picked:
            theory = by_name[name]
            generator = CorruptedScriptGenerator(theory, "goal", seed)
            outcome = prove_theorem(theory, "goal", config,
                                    backend=backend, generator=generator)
            if outcome.proved:
                target = (result.solved_with_revision if revision_on
                          else result.solved_without_revision)
                target.add(name)
    return result
