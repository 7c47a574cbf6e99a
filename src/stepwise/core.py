"""Shared domain types: proof steps, states, theories, and canonical keys."""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

from .formulas import _TABLE as INTERN_TABLE
from .formulas import (
    IDENT_RE,
    PARSE_CACHE_SIZE,
    Formula,
    Implies,
    Interned,
    ParseError,
    atoms,
    intern,
    parse_formula,
    render,
)

TACTICS = ("assumption", "intro", "split", "left", "right", "simp", "auto", "elim", "apply")
FACT_REQUIRED = ("elim", "apply")

ERROR_CATEGORIES = ("undefined_fact", "tactic_failure", "no_progress", "parse_error", "timeout")

CANDIDATE_ORIGINS = ("generated", "tactic_repair", "premise_repair")

QED_KEY = "QED"

_STEP_RE = re.compile(
    rf"^\s*(?P<tactic>{IDENT_RE.pattern})\s*(?:\[(?P<facts>[^\]]*)\]\s*)?$"
)


class ProofStep(Interned):
    """A tactic invocation with optional fact arguments, written out by
    ``text``. The parser enforces that ``elim``/``apply`` carry at least one
    fact; directly constructed steps may violate this and simply fail at
    execution.

    Steps are interned like formulas (``formulas.Interned``): the
    constructor returns the one live step of each ``(tactic, facts)``, so
    equality and hashing are object identity, and ``text`` is computed once.
    ``facts`` may be any iterable of names; it is kept as a tuple.
    """

    __match_args__ = ("tactic", "facts")
    _caches = ("_text",)
    __slots__ = __match_args__ + _caches

    def __new__(cls, tactic: str, facts: tuple[str, ...] = ()):
        if type(facts) is not tuple:
            facts = tuple(facts)
        ref = INTERN_TABLE.get((cls, tactic, facts))
        return ref and ref() or intern(cls, (tactic, facts))

    def text(self) -> str:
        text = self._text
        if text is None:
            text = f"{self.tactic} [{', '.join(self.facts)}]" if self.facts else self.tactic
            object.__setattr__(self, "_text", text)
        return text


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
        names = []
        offset = m.start("facts")  # where each part starts in the text
        for part in m.group("facts").split(","):
            name = part.strip()
            if name:
                if not IDENT_RE.fullmatch(name):
                    raise ParseError(f"invalid fact name {name!r}",
                                     offset + len(part) - len(part.lstrip()) + 1)
                names.append(name)
            offset += len(part) + 1
        facts = tuple(names)
    if tactic in FACT_REQUIRED and not facts:
        raise ParseError(f"{tactic} requires a fact list", 1, expected="[fact]")
    return ProofStep(tactic, facts)


class FactContext:
    """Immutable named-fact pool visible to a proof, with usage statistics.

    ``facts`` maps fact name to statement; ``usage_counts`` records how often
    each name appears in the ground-truth proofs preceding the owner entry
    (the usage-frequency signal for premise ranking). Lookup of an undefined
    name is an explicit miss, never a default. Every table derived from the
    pool lives in its ``FactIndex``, which relies on ``facts`` never changing.
    """

    __slots__ = ("facts", "usage_counts", "_index")

    def __init__(self, facts: dict[str, Formula], usage_counts: dict[str, int] | None = None):
        self.facts = dict(facts)
        self.usage_counts = dict(usage_counts or {})
        self._index: FactIndex | None = None

    def index(self) -> "FactIndex":
        """The pool's tables, built on first use and kept as long as the
        context lives (so a theorem's states free them)."""
        if self._index is None:
            self._index = FactIndex(self)
        return self._index

    def __contains__(self, name: str) -> bool:
        return name in self.facts

    def __repr__(self) -> str:
        return f"FactContext({len(self.facts)} facts)"


class FactIndex:
    """Every table the engine reads of one ``FactContext``. By fact id
    (name order, so a tie by id is a tie by name): ``names``,
    ``fact_atoms``, ``usage_shares`` (the usage count over the largest, 0
    when no fact is used), and the relevance ranking's ``fact_atom_ids`` and
    ``sizes``; by atom, ``atom_ids`` and ``atom_facts``. ``statements``,
    ``atoms`` and ``name_set`` hold every statement, atom and fact name, and
    ``spine`` maps a formula to the facts, in name order, whose implication
    right spine passes through it: the only goals ``apply [f]`` can
    conclude. ``rankings`` (per atom seed, the relevance ranking picked as
    far as it has been read, a ``prover.Ranking`` that premise repair,
    ``relevance_filter`` and the hammer's ``mesh_rank`` resume) and
    ``packed_names`` (the names packed in id order for premise repair's
    edit distances) are filled on use, and so are the counterexample
    oracle's ``cex_table`` (the sorted atoms and the conjunction table of
    the statements over them), ``cex_rows`` (per ``Subgoal`` judged, its
    sorted atoms and first counterexample row), the mock generator's
    ``mock_pool`` and ``hammer_tables``: per premise pool set, the hammer's
    ``elim`` moves and, per ``Subgoal`` reached, its least closing length
    or a length it exceeds and its successful moves (see
    ``prover.toy_hammer``).
    """

    __slots__ = ("statements", "spine", "atoms", "names", "name_set", "fact_atoms",
                 "usage_shares", "atom_ids", "atom_facts", "fact_atom_ids", "sizes", "rankings",
                 "packed_names", "cex_table", "cex_rows", "mock_pool", "hammer_tables")

    def __init__(self, context: FactContext):
        facts, usage = context.facts, context.usage_counts
        self.statements = frozenset(facts.values())
        self.names = names = sorted(facts)
        self.name_set = frozenset(names)
        self.fact_atoms = fact_atoms = [atoms(facts[name]) for name in names]
        most = max(usage.values(), default=0)
        self.usage_shares = [usage.get(name, 0) / most if most else 0.0 for name in names]
        self.spine: dict[Formula, list[str]] = {}
        self.atom_ids: dict[str, int] = {}
        self.atom_facts: list[list[int]] = []
        self.fact_atom_ids: list[list[int]] = []
        spine, atom_ids, atom_facts = self.spine, self.atom_ids, self.atom_facts
        for i, name in enumerate(names):
            node = facts[name]
            while node is not None:
                spine.setdefault(node, []).append(name)
                node = node.right if isinstance(node, Implies) else None
            ids = []
            for a in fact_atoms[i]:
                j = atom_ids.get(a)
                if j is None:
                    j = atom_ids[a] = len(atom_facts)
                    atom_facts.append([])
                atom_facts[j].append(i)
                ids.append(j)
            self.fact_atom_ids.append(ids)
        self.atoms = frozenset(atom_ids)
        self.sizes = [len(a) for a in fact_atoms]
        self.rankings: dict[frozenset[str], object] = {}
        self.packed_names: tuple | None = None
        self.cex_table: tuple[list[str], int] | None = None
        self.cex_rows: dict[Subgoal, list] | None = None
        self.mock_pool: list[tuple] | None = None
        self.hammer_tables: dict[frozenset[str], tuple] = {}


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

    @property
    def qed(self) -> bool:
        return not self.subgoals

    def with_context(self, context: FactContext) -> "ProofState":
        return ProofState(self.subgoals, context)


def canonical_state(state: ProofState) -> str:
    """Deterministic dedup key: invariant under subgoal and hypothesis
    permutation, distinct for structurally different subgoal multisets."""
    if not state.subgoals:
        return QED_KEY
    keys = []
    for sub in state.subgoals:
        hyps = ", ".join(sorted(render(h) for h in sub.hypotheses))
        keys.append(f"{hyps} ⊢ {render(sub.goal)}" if hyps else f"⊢ {render(sub.goal)}")
    return " || ".join(sorted(keys))


def render_state(state: ProofState) -> str:
    """Display form, one subgoal per line in order, ``QED`` when none is
    left; also the prompt's, the dataset's and the wire's form of a state
    (``parse_state`` inverts it)."""
    if not state.subgoals:
        return QED_KEY
    lines = []
    for sub in state.subgoals:
        hyps = ", ".join(render(h) for h in sub.hypotheses)
        lines.append(f"{hyps} ⊢ {render(sub.goal)}" if hyps else f"⊢ {render(sub.goal)}")
    return "\n".join(lines)


def parse_state(text: str, context: FactContext = EMPTY_CONTEXT) -> ProofState:
    """The state ``render_state`` printed as ``text``, also off the wire;
    a text with no subgoal line and not ``QED`` is a ``ParseError``."""
    stripped = text.strip()
    if stripped == QED_KEY:
        return ProofState((), context)
    subgoals = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line:
            continue
        if "⊢" not in line:
            raise ParseError(f"subgoal line without turnstile: {line!r}", 1)
        hyp_part, goal_part = line.split("⊢", 1)
        hyps = (tuple(parse_formula(h.strip()) for h in hyp_part.split(","))
                if hyp_part.strip() else ())
        subgoals.append(Subgoal(hyps, parse_formula(goal_part.strip())))
    if not subgoals:
        raise ParseError("state text without a subgoal line", 1, expected=QED_KEY)
    return ProofState(tuple(subgoals), context)


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
