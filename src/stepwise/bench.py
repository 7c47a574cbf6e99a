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

def _chain_theory(name: str, length: int, decoys: int) -> Theory:
    entries = [TheoryEntry("axiom", "base", Atom("p0"))]
    for i in range(1, length + 1):
        entries.append(TheoryEntry(
            "axiom", f"imp_{i:02d}", Implies(Atom(f"p{i - 1}"), Atom(f"p{i}"))))
    for d in range(decoys):
        target = (d * 2 + 1) % length + 1
        entries.append(TheoryEntry(
            "axiom", f"dead_{d}", Implies(Atom(f"z{d}"), Atom(f"p{target}"))))
    proof = [ProofStep("apply", (f"imp_{i:02d}",)) for i in range(length, 0, -1)]
    proof.append(ProofStep("assumption"))
    entries.append(TheoryEntry("theorem", "goal", Atom(f"p{length}"), tuple(proof)))
    return Theory(name, tuple(entries))


def _case_theory(name: str) -> Theory:
    # d: a | g and fa: a -> g force a case split; one branch closes by
    # assumption, so the whole proof fits the default hammer depth.
    entries = (
        TheoryEntry("axiom", "branch", Or(Atom("a"), Atom("g"))),
        TheoryEntry("axiom", "lift", Implies(Atom("a"), Atom("g"))),
        TheoryEntry("theorem", "goal", Atom("g"), (
            ProofStep("elim", ("branch",)),
            ProofStep("apply", ("lift",)),
            ProofStep("assumption"),
            ProofStep("assumption"),
        )),
    )
    return Theory(name, entries)


def _elim_tail_chain_theory(name: str, length: int) -> Theory:
    # A chain whose base atom is only reachable through a case split; the
    # proof outruns the bench iteration budget but a frontier state stays
    # within hammer reach.
    entries = [
        TheoryEntry("axiom", "branch", Or(Atom("a"), Atom("p0"))),
        TheoryEntry("axiom", "lift", Implies(Atom("a"), Atom("p0"))),
    ]
    for i in range(1, length + 1):
        entries.append(TheoryEntry(
            "axiom", f"imp_{i:02d}", Implies(Atom(f"p{i - 1}"), Atom(f"p{i}"))))
    proof = [ProofStep("apply", (f"imp_{i:02d}",)) for i in range(length, 0, -1)]
    proof.extend([
        ProofStep("elim", ("branch",)),
        ProofStep("apply", ("lift",)),
        ProofStep("assumption"),
        ProofStep("assumption"),
    ])
    entries.append(TheoryEntry("theorem", "goal", Atom(f"p{length}"), tuple(proof)))
    return Theory(name, tuple(entries))


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


def generate_corpus(seed: int, sizes: dict[str, int] | None = None) -> list[Theory]:
    """Deterministic corpus; theory names sort fact-bearing families first."""
    rng = random.Random(seed)
    sizes = dict(FAMILY_SIZES if sizes is None else sizes)
    corpus: list[Theory] = []
    for i in range(sizes.get("case", 0)):
        corpus.append(_case_theory(f"case_{i:03d}"))
    for i in range(sizes.get("chain_s", 0)):
        corpus.append(_chain_theory(f"chain_s{i:03d}", rng.choice((2, 3)), 0))
    for i in range(sizes.get("chain_m", 0)):
        corpus.append(_chain_theory(f"chain_m{i:03d}", 4, 0))
    for i in range(sizes.get("chain_d", 0)):
        corpus.append(_chain_theory(f"chain_d{i:03d}", rng.choice((6, 7, 8, 9)),
                                    rng.choice((1, 2))))
    for i in range(sizes.get("chain_x", 0)):
        corpus.append(_elim_tail_chain_theory(f"chain_x{i:03d}", rng.choice((6, 7))))
    for i in range(sizes.get("dis", 0)):
        corpus.append(_disjunction_theory(f"dis_{i:03d}"))
    for i in range(sizes.get("simp", 0)):
        corpus.append(_simp_theory(f"simp_{i:03d}", i))
    for i in range(sizes.get("taut", 0)):
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
    token, state = backend.start(theory, "goal")
    try:
        result = hammer_state(state.with_context(theory.context_for("goal")),
                              token, backend, config)
    finally:
        backend.release([token])
    return result.found


@dataclass
class BenchRow:
    theory: str
    family: str
    ground_truth_length: int
    auto: bool
    hammer: bool
    full: bool
    via: str | None
    steps: list[str] | None


@dataclass
class BenchResult:
    seed: int
    rows: list[BenchRow]
    reports: list[dict]
    wall_time: float

    def solved(self, arm: str) -> int:
        return sum(1 for r in self.rows if getattr(r, arm))

    def table_text(self) -> str:
        lines = [f"# bench corpus seed={self.seed} theorems={len(self.rows)}",
                 f"{'theory':<16} {'family':<8} {'gt_len':>6} {'auto':<5} {'hammer':<6} {'full':<5} via"]
        for r in self.rows:
            lines.append(
                f"{r.theory:<16} {r.family:<8} {r.ground_truth_length:>6} "
                f"{_yn(r.auto):<5} {_yn(r.hammer):<6} {_yn(r.full):<5} {r.via or '-'}")
        n = len(self.rows)
        lines.append("")
        for arm in ("auto", "hammer", "full"):
            k = self.solved(arm)
            lines.append(f"TOTAL {arm:<7} {k:>4}/{n}  ({100.0 * k / n:.1f}%)")
        return "\n".join(lines) + "\n"

    def csv_text(self) -> str:
        lines = ["theory,family,gt_len,auto,hammer,full,via"]
        for r in self.rows:
            lines.append(",".join([
                r.theory, r.family, str(r.ground_truth_length),
                _yn(r.auto), _yn(r.hammer), _yn(r.full), r.via or ""]))
        return "\n".join(lines) + "\n"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def run_bench(seed: int, sizes: dict[str, int] | None = None,
              config: EngineConfig | None = None) -> BenchResult:
    """Run all three arms over the seeded corpus on a shared in-process
    prover. Reports carry timings; the tables never do."""
    started = time.monotonic()
    corpus = generate_corpus(seed, sizes)
    config = config or bench_engine_config(seed)
    backend = ToyProver()
    generator = config.make_generator()
    rows: list[BenchRow] = []
    reports: list[dict] = []
    for theory in corpus:
        auto_ok = arm_auto(theory, backend)
        hammer_ok = arm_hammer_root(theory, backend, config)
        result = prove_theorem(theory, "goal", config, backend=backend, generator=generator)
        entry = theory.entry("goal")
        report = dict(result.report)
        report["split"] = "bench"
        report["session"] = family_of(theory.name)
        report["arms"] = {"auto": auto_ok, "hammer_root": hammer_ok, "full": result.proved}
        reports.append(report)
        rows.append(BenchRow(
            theory.name, family_of(theory.name),
            len(entry.proof) if entry.proof else 0,
            auto_ok, hammer_ok, result.proved, result.via,
            report["steps"]))
    return BenchResult(seed, rows, reports, time.monotonic() - started)


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
        context = theory.context_for(theorem_id)
        state = init_goal(theory, theorem_id)
        entry = theory.entry(theorem_id)
        assert entry is not None and entry.proof
        rng = random.Random(f"{seed}|{theory.name}|{theorem_id}")
        for step in entry.proof:
            emitted = step
            if step.facts:
                bad = _corrupt_name(step.facts[0], context, rng)
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
        config = replace(base, revision_enabled=revision_on)
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
