"""Shared domain types: proof steps, states, theories, and canonical keys."""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, replace

from .formulas import PARSE_CACHE_SIZE, Formula, ParseError, atoms, parse_formula, render

TACTICS = ("assumption", "intro", "split", "left", "right", "simp", "auto", "elim", "apply")
FACT_REQUIRED = ("elim", "apply")

ERROR_CATEGORIES = ("undefined_fact", "tactic_failure", "no_progress", "parse_error", "timeout")

CANDIDATE_ORIGINS = ("generated", "tactic_repair", "premise_repair", "hammer", "ground_truth")

QED_KEY = "QED"

_STEP_RE = re.compile(
    r"^\s*(?P<tactic>[a-zA-Z_][a-zA-Z0-9_']*)\s*(?:\[(?P<facts>[^\]]*)\]\s*)?$"
)


@dataclass(frozen=True, slots=True)
class ProofStep:
    """A tactic invocation with optional fact arguments.

    ``raw`` preserves the text a step was parsed from and is excluded from
    equality; synthesized steps leave it empty and render canonically. The
    parser enforces that ``elim``/``apply`` carry at least one fact; directly
    constructed steps may violate this and simply fail at execution.
    """

    tactic: str
    facts: tuple[str, ...] = ()
    raw: str = field(default="", compare=False)

    def text(self) -> str:
        if self.facts:
            return f"{self.tactic} [{', '.join(self.facts)}]"
        return self.tactic


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_step(text: str) -> ProofStep:
    """Parse one step; memoised, since the result is immutable (a text
    that fails raises again, exceptions are not cached)."""
    m = _STEP_RE.match(text)
    if m is None:
        raise ParseError(f"malformed step {text.strip()!r}", 1, expected="tactic [facts]")
    tactic = m.group("tactic")
    if tactic not in TACTICS:
        raise ParseError(f"unknown tactic {tactic!r}", m.start("tactic") + 1)
    facts: tuple[str, ...] = ()
    if m.group("facts") is not None:
        names = [n.strip() for n in m.group("facts").split(",") if n.strip()]
        for n in names:
            if not re.fullmatch(r"[a-zA-Z_][a-zA-Z0-9_']*", n):
                raise ParseError(f"invalid fact name {n!r}", text.index(n) + 1)
        facts = tuple(names)
    if tactic in FACT_REQUIRED and not facts:
        raise ParseError(f"{tactic} requires a fact list", 1, expected="[fact]")
    return ProofStep(tactic, facts, raw=text.strip())


class FactContext:
    """Immutable named-fact pool visible to a proof, with usage statistics.

    ``facts`` maps fact name to statement; ``usage_counts`` records how often
    each name appears in the ground-truth proofs preceding the owner entry
    (the usage-frequency signal for premise ranking). Lookup of an undefined
    name is an explicit miss, never a default. The atom and statement
    indexes below are built on first use and rely on ``facts`` never
    changing.
    """

    __slots__ = ("facts", "usage_counts", "_atom_cache", "_auto_cache",
                 "_statements", "_fact_atoms", "_atom_index")

    def __init__(self, facts: dict[str, Formula], usage_counts: dict[str, int] | None = None):
        self.facts = dict(facts)
        self.usage_counts = dict(usage_counts or {})
        self._atom_cache: tuple[str, ...] | None = None
        self._auto_cache: dict = {}
        self._statements: frozenset[Formula] | None = None
        self._fact_atoms: dict[str, frozenset[str]] | None = None
        self._atom_index: dict[str, tuple[str, ...]] | None = None

    def atom_names(self) -> tuple[str, ...]:
        if self._atom_cache is None:
            self._atom_cache = tuple(sorted(self.atom_index()))
        return self._atom_cache

    def statements(self) -> frozenset[Formula]:
        """Every fact statement, for membership tests."""
        if self._statements is None:
            self._statements = frozenset(self.facts.values())
        return self._statements

    def fact_atoms(self) -> dict[str, frozenset[str]]:
        """Each fact's atom set, by fact name."""
        if self._fact_atoms is None:
            self._fact_atoms = {name: atoms(f) for name, f in self.facts.items()}
        return self._fact_atoms

    def atom_index(self) -> dict[str, tuple[str, ...]]:
        """Atom name -> the names of the facts that mention it, in name order."""
        if self._atom_index is None:
            fact_atoms = self.fact_atoms()
            index: dict[str, list[str]] = {}
            for name in sorted(fact_atoms):
                for a in fact_atoms[name]:
                    index.setdefault(a, []).append(name)
            self._atom_index = {a: tuple(names) for a, names in index.items()}
        return self._atom_index

    def __contains__(self, name: str) -> bool:
        return name in self.facts

    def __repr__(self) -> str:
        return f"FactContext({len(self.facts)} facts)"


EMPTY_CONTEXT = FactContext({})


@dataclass(frozen=True, slots=True)
class Subgoal:
    hypotheses: tuple[Formula, ...]
    goal: Formula

    def atom_names(self) -> frozenset[str]:
        names = atoms(self.goal)
        for h in self.hypotheses:
            names |= atoms(h)
        return names


@dataclass(frozen=True, slots=True)
class ProofState:
    """An ordered list of open subgoals over a shared fact context.

    ``context`` is identity-shared and excluded from equality; state identity
    is the subgoal structure (see ``canonical_state``).
    """

    subgoals: tuple[Subgoal, ...]
    context: FactContext = field(default=EMPTY_CONTEXT, compare=False, repr=False)
    depth: int = field(default=0, compare=False)

    @property
    def qed(self) -> bool:
        return not self.subgoals

    def with_context(self, context: FactContext) -> "ProofState":
        return replace(self, context=context)


def canonical_subgoal(sub: Subgoal) -> str:
    hyps = ", ".join(sorted(render(h) for h in sub.hypotheses))
    return f"{hyps} ⊢ {render(sub.goal)}" if hyps else f"⊢ {render(sub.goal)}"


def canonical_state(state: ProofState) -> str:
    """Deterministic dedup key: invariant under subgoal and hypothesis
    permutation, distinct for structurally different subgoal multisets."""
    if not state.subgoals:
        return QED_KEY
    return " || ".join(sorted(canonical_subgoal(s) for s in state.subgoals))


def render_state(state: ProofState) -> str:
    """Display form, one subgoal per line in order; also the serialization
    used for dataset emission (``parse_state`` inverts it)."""
    if not state.subgoals:
        return QED_KEY
    lines = []
    for sub in state.subgoals:
        hyps = ", ".join(render(h) for h in sub.hypotheses)
        lines.append(f"{hyps} ⊢ {render(sub.goal)}" if hyps else f"⊢ {render(sub.goal)}")
    return "\n".join(lines)


def parse_state(text: str, context: FactContext = EMPTY_CONTEXT, depth: int = 0) -> ProofState:
    stripped = text.strip()
    if stripped == QED_KEY:
        return ProofState((), context, depth)
    subgoals = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line:
            continue
        if "⊢" not in line:
            raise ParseError(f"subgoal line without turnstile: {line!r}", 1)
        hyp_part, goal_part = line.split("⊢", 1)
        hyps = tuple(parse_formula(h) for h in hyp_part.split(",") if h.strip())
        subgoals.append(Subgoal(hyps, parse_formula(goal_part)))
    return ProofState(tuple(subgoals), context, depth)


def state_to_wire(state: ProofState) -> dict:
    return {
        "subgoals": [
            {"hyps": [render(h) for h in s.hypotheses], "goal": render(s.goal)}
            for s in state.subgoals
        ],
        "depth": state.depth,
    }


def state_from_wire(obj: dict, context: FactContext = EMPTY_CONTEXT) -> ProofState:
    subgoals = tuple(
        Subgoal(tuple(parse_formula(h) for h in s["hyps"]), parse_formula(s["goal"]))
        for s in obj["subgoals"]
    )
    return ProofState(subgoals, context, int(obj.get("depth", 0)))


@dataclass(frozen=True, slots=True)
class Candidate:
    """A proposed step scored with a natural-log probability (finite, <= 0)."""

    step: ProofStep
    log_prob: float
    origin: str = "generated"

    def __post_init__(self):
        if not math.isfinite(self.log_prob) or self.log_prob > 0:
            raise ValueError(f"log_prob must be finite and <= 0, got {self.log_prob}")
        if self.origin not in CANDIDATE_ORIGINS:
            raise ValueError(f"unknown candidate origin {self.origin!r}")


@dataclass(frozen=True, slots=True)
class StepResult:
    """Success carries the new state; failure carries a category and detail.

    A success state is never canonically equal to the input state
    (non-advancing applications are reported as ``no_progress`` failures).
    """

    state: ProofState | None = None
    category: str | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.state is not None

    @classmethod
    def success(cls, state: ProofState) -> "StepResult":
        return cls(state=state)

    @classmethod
    def failure(cls, category: str, detail: str = "") -> "StepResult":
        if category not in ERROR_CATEGORIES:
            raise ValueError(f"unknown error category {category!r}")
        return cls(category=category, detail=detail)


# the detail-free failure of each category; results are immutable, so one
# instance per category serves every category-only report
BARE_FAILURES = {category: StepResult.failure(category) for category in ERROR_CATEGORIES}


@dataclass(frozen=True, slots=True)
class TheoryEntry:
    kind: str  # axiom | lemma | theorem
    name: str
    statement: Formula
    proof: tuple[ProofStep, ...] | None = None


@dataclass(frozen=True, slots=True)
class Theory:
    """Named entries in declaration order; entry names are unique.

    Facts visible to an entry are all axioms plus the statements of entries
    declared before it.
    """

    name: str
    entries: tuple[TheoryEntry, ...]

    def entry(self, name: str) -> TheoryEntry | None:
        for e in self.entries:
            if e.name == name:
                return e
        return None

    def provable_entries(self) -> tuple[TheoryEntry, ...]:
        return tuple(e for e in self.entries if e.kind != "axiom")

    def context_for(self, entry_name: str) -> FactContext:
        facts: dict[str, Formula] = {}
        usage: dict[str, int] = {}
        target_seen = False
        for e in self.entries:
            if e.name == entry_name:
                target_seen = True
                continue
            if e.kind == "axiom":
                facts[e.name] = e.statement
            elif not target_seen:
                facts[e.name] = e.statement
            if not target_seen and e.proof:
                for step in e.proof:
                    for fact in step.facts:
                        usage[fact] = usage.get(fact, 0) + 1
        if not target_seen:
            raise KeyError(f"no entry named {entry_name!r}")
        return FactContext(facts, usage)
