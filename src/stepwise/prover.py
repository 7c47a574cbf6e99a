"""Deterministic miniature interactive prover.

Implements the theory format and the backend surface the search engine
drives: goal initialisation, step execution, a truth-table counterexample
oracle and a depth-bounded proof hammer, all addressed by immutable
snapshot tokens: ``start`` takes a parsed ``Theory`` and returns the
root's, ``apply_batch`` one per success of each ``(token, steps)`` group,
with the kind of the counterexample verdict on it, and ``replay`` the end
of a step chain, and ``hammer_at`` takes one with the caller's budgets
and premise selection, which the prover ranks itself; releasing a root
frees its whole tree. All tactics act on the first subgoal.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    BARE_FAILURES,
    FACT_REQUIRED,
    FactContext,
    FactIndex,
    ProofState,
    ProofStep,
    StepResult,
    Subgoal,
    Theory,
    TheoryEntry,
    parse_step,
)
from .formulas import (
    FALSE,
    IDENT_RE,
    TRUE,
    And,
    Atom,
    Const,
    Formula,
    Implies,
    Not,
    Or,
    ParseError,
    atoms,
    fold_constants,
    parse_formula,
    render,
)

DEFAULT_STEP_BUDGET_MS = 10_000
DEFAULT_ATOM_LIMIT = 16  # the counterexample oracle's default
AUTO_DEPTH = 5
MAX_ATOM_LIMIT = 20  # a truth table over n atoms has 2**n rows


class ProverError(Exception):
    category = "prover_error"


class TheoryParseError(ProverError):
    category = "parse_error"

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownTheoremError(ProverError):
    category = "unknown_theorem"


class UnknownSessionError(ProverError):
    category = "unknown_session"


# ---------------------------------------------------------------------------
# Theory files
# ---------------------------------------------------------------------------

def load_theory(source: str) -> Theory:
    """Parse the line-oriented theory format (see the format reference)."""
    name: str | None = None
    entries: list[TheoryEntry] = []
    seen: set[str] = set()
    pending: tuple[str, str, Formula] | None = None
    proof_steps: list[ProofStep] | None = None
    ended = False

    def flush() -> None:
        nonlocal pending
        if pending is not None:
            entries.append(TheoryEntry(*pending))
            pending = None

    for lineno, raw_line in enumerate(source.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise TheoryParseError(f"content after end: {line!r}", lineno)
        word = line.split(None, 1)[0]
        if proof_steps is not None:
            if word == "qed":
                assert pending is not None
                entries.append(TheoryEntry(pending[0], pending[1], pending[2], tuple(proof_steps)))
                pending = None
                proof_steps = None
            else:
                try:
                    proof_steps.append(parse_step(line))
                except ParseError as e:
                    raise TheoryParseError(str(e), lineno) from e
            continue
        if word == "theory":
            if name is not None:
                raise TheoryParseError("duplicate theory header", lineno)
            parts = line.split()
            if len(parts) != 2:
                raise TheoryParseError("expected: theory <name>", lineno)
            if not IDENT_RE.fullmatch(parts[1]):  # reports are named after it
                raise TheoryParseError(f"invalid theory name {parts[1]!r}", lineno)
            name = parts[1]
            continue
        if name is None:
            raise TheoryParseError("expected a theory header first", lineno)
        if word == "end":
            flush()
            ended = True
            continue
        if word == "proof":
            if pending is None:
                raise TheoryParseError("proof without a lemma or theorem", lineno)
            if pending[0] == "axiom":
                raise TheoryParseError("axioms carry no proof", lineno)
            proof_steps = []
            continue
        if word in ("axiom", "lemma", "theorem"):
            flush()
            body = line[len(word):].strip()
            if ":" not in body:
                raise TheoryParseError(f"expected: {word} <id>: <formula>", lineno)
            ident, formula_text = body.split(":", 1)
            ident = ident.strip()
            if not IDENT_RE.fullmatch(ident):  # steps must be able to name it
                raise TheoryParseError(f"invalid entry id {ident!r}", lineno)
            if ident in seen:
                raise TheoryParseError(f"duplicate entry id {ident!r}", lineno)
            seen.add(ident)
            try:
                statement = parse_formula(formula_text)
            except ParseError as e:
                raise TheoryParseError(str(e), lineno) from e
            pending = (word, ident, statement)
            continue
        raise TheoryParseError(f"unrecognised line {line!r}", lineno)

    if name is None:
        raise TheoryParseError("empty source", 1)
    if proof_steps is not None:
        raise TheoryParseError("unterminated proof block", len(source.splitlines()))
    if not ended:
        raise TheoryParseError("missing end", len(source.splitlines()))
    return Theory(name, tuple(entries))


def render_theory(theory: Theory) -> str:
    lines = [f"theory {theory.name}"]
    for e in theory.entries:
        lines.append(f"{e.kind} {e.name}: {render(e.statement)}")
        if e.proof is not None:
            lines.append("  proof")
            lines.extend(f"    {s.text()}" for s in e.proof)
            lines.append("  qed")
    lines.append("end")
    return "\n".join(lines) + "\n"


def init_goal(theory: Theory, theorem_id: str) -> ProofState:
    entry = theory.entry(theorem_id)
    if entry is None or entry.kind == "axiom":
        raise UnknownTheoremError(f"no provable entry named {theorem_id!r} in {theory.name}")
    context = theory.context_for(theorem_id)
    return ProofState((Subgoal((), entry.statement),), context)


# ---------------------------------------------------------------------------
# Step execution
# ---------------------------------------------------------------------------

class _BudgetExceeded(Exception):
    pass


def _match_apply(fact: Formula, goal: Formula) -> tuple[Formula, ...] | None:
    """Premises needed to conclude ``goal`` from a curried implication,
    matching the shortest implication suffix; None if no suffix matches."""
    premises: list[Formula] = []
    node = fact
    while True:
        if node == goal:
            return tuple(premises)
        if isinstance(node, Implies):
            premises.append(node.left)
            node = node.right
        else:
            return None


def _with_hypothesis(hyps: tuple[Formula, ...], extra: Formula) -> tuple[Formula, ...]:
    if extra in hyps:
        return hyps
    return hyps + (extra,)


# ``apply_step``'s failures whose detail never varies, by detail: results
# are immutable, so one instance serves every report of each
_FAILED = {detail: StepResult.failure(category, detail) for category, detail in (
    ("tactic_failure", "no open subgoals"),
    ("tactic_failure", "goal is not an assumption or fact"),
    ("tactic_failure", "goal is not an implication or negation"),
    ("tactic_failure", "goal is not a conjunction"),
    ("tactic_failure", "goal is not a disjunction"),
    ("tactic_failure", "elim requires a fact argument"),
    ("tactic_failure", "apply requires a fact argument"),
    ("no_progress", "goal has no constant redexes"),
    ("timeout", "auto exceeded its budget"),
    ("tactic_failure", "auto could not close the first subgoal"),
    ("no_progress", "state unchanged"),
)}


def apply_step(state: ProofState, step: ProofStep,
               budget_ms: int = DEFAULT_STEP_BUDGET_MS) -> StepResult:
    """Execute one tactic on the first subgoal.

    Returns Success with the same context, or a categorised
    failure; a success state always differs canonically from the input.
    """
    if not state.subgoals:
        return _FAILED["no open subgoals"]
    sub, rest = state.subgoals[0], state.subgoals[1:]
    ctx = state.context
    goal = sub.goal
    tactic = step.tactic

    new_subgoals: tuple[Subgoal, ...] | None = None
    if tactic == "assumption":
        if goal in sub.hypotheses or goal in ctx.index().statements:
            new_subgoals = ()
        else:
            return _FAILED["goal is not an assumption or fact"]
    elif tactic == "intro":
        if isinstance(goal, Implies):
            new_subgoals = (Subgoal(_with_hypothesis(sub.hypotheses, goal.left), goal.right),)
        elif isinstance(goal, Not):
            new_subgoals = (Subgoal(_with_hypothesis(sub.hypotheses, goal.operand), FALSE),)
        else:
            return _FAILED["goal is not an implication or negation"]
    elif tactic == "split":
        if not isinstance(goal, And):
            return _FAILED["goal is not a conjunction"]
        new_subgoals = (Subgoal(sub.hypotheses, goal.left), Subgoal(sub.hypotheses, goal.right))
    elif tactic in ("left", "right"):
        if not isinstance(goal, Or):
            return _FAILED["goal is not a disjunction"]
        picked = goal.left if tactic == "left" else goal.right
        new_subgoals = (Subgoal(sub.hypotheses, picked),)
    elif tactic == "elim":
        if not step.facts:
            return _FAILED["elim requires a fact argument"]
        fname = step.facts[0]
        if fname not in ctx:
            return StepResult.failure("undefined_fact", fname)
        fact = ctx.facts[fname]
        if not isinstance(fact, Or):
            return StepResult.failure("tactic_failure", f"{fname} is not a disjunction")
        new_subgoals = (
            Subgoal(_with_hypothesis(sub.hypotheses, fact.left), goal),
            Subgoal(_with_hypothesis(sub.hypotheses, fact.right), goal),
        )
    elif tactic == "apply":
        if not step.facts:
            return _FAILED["apply requires a fact argument"]
        fname = step.facts[0]
        if fname not in ctx:
            return StepResult.failure("undefined_fact", fname)
        premises = _match_apply(ctx.facts[fname], goal)
        if premises is None:
            return StepResult.failure("tactic_failure", f"{fname} does not conclude the goal")
        new_subgoals = tuple(Subgoal(sub.hypotheses, p) for p in premises)
    elif tactic == "simp":
        folded = fold_constants(goal)
        if folded == goal != TRUE:  # ``true`` itself has no redex, and closes
            return _FAILED["goal has no constant redexes"]
        new_subgoals = () if folded == TRUE else (Subgoal(sub.hypotheses, folded),)
    elif tactic == "auto":
        try:
            closed = _auto_close(sub, ctx, AUTO_DEPTH, time.monotonic() + budget_ms / 1000.0)
        except _BudgetExceeded:
            return _FAILED["auto exceeded its budget"]
        if not closed:
            return _FAILED["auto could not close the first subgoal"]
        new_subgoals = ()
    else:
        return StepResult.failure("parse_error", f"unknown tactic {tactic!r}")

    # only the first subgoal was replaced, so the state is canonically
    # unchanged iff that subgoal came back alone and canonically equal
    if len(new_subgoals) == 1 and _same_subgoal(new_subgoals[0], sub):
        return _FAILED["state unchanged"]
    return StepResult.success(ProofState(new_subgoals + rest, ctx))


def _same_subgoal(a: Subgoal, b: Subgoal) -> bool:
    """Equal goals and equal hypothesis multisets, i.e. equal canonical keys."""
    return a.goal == b.goal and Counter(a.hypotheses) == Counter(b.hypotheses)


def _auto_close(sub: Subgoal, ctx: FactContext, depth: int, deadline: float) -> bool:
    """Depth-bounded deterministic backtracking over assumption, intro,
    split, left, right, and apply with the facts that conclude the goal, in
    name order; a goal without atoms (``false``, say) gets no apply."""
    if time.monotonic() > deadline:
        raise _BudgetExceeded
    if depth <= 0:
        return False
    goal = sub.goal
    index = ctx.index()
    if goal in sub.hypotheses or goal in index.statements:
        return True
    if isinstance(goal, Implies):
        if _auto_close(Subgoal(_with_hypothesis(sub.hypotheses, goal.left), goal.right),
                       ctx, depth - 1, deadline):
            return True
    if isinstance(goal, Not):
        if _auto_close(Subgoal(_with_hypothesis(sub.hypotheses, goal.operand), FALSE),
                       ctx, depth - 1, deadline):
            return True
    if isinstance(goal, And):
        if (_auto_close(Subgoal(sub.hypotheses, goal.left), ctx, depth - 1, deadline)
                and _auto_close(Subgoal(sub.hypotheses, goal.right), ctx, depth - 1, deadline)):
            return True
    if isinstance(goal, Or):
        if _auto_close(Subgoal(sub.hypotheses, goal.left), ctx, depth - 1, deadline):
            return True
        if _auto_close(Subgoal(sub.hypotheses, goal.right), ctx, depth - 1, deadline):
            return True
    for fname in index.spine.get(goal, ()) if atoms(goal) else ():
        premises = _match_apply(ctx.facts[fname], goal)
        if all(_auto_close(Subgoal(sub.hypotheses, p), ctx, depth - 1, deadline)
               for p in premises):
            return True
    return False


# ---------------------------------------------------------------------------
# Counterexample oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CexResult:
    kind: str  # none | counterexample | unknown
    assignment: dict[str, bool] | None = None
    subgoal_index: int = -1

    @classmethod
    def none(cls) -> "CexResult":
        return cls("none")

    @classmethod
    def found(cls, assignment: dict[str, bool], subgoal_index: int) -> "CexResult":
        return cls("counterexample", assignment, subgoal_index)

    @classmethod
    def unknown(cls) -> "CexResult":
        return cls("unknown")


_ROW_MASKS: dict[int, tuple[int, ...]] = {}


def row_masks(n: int) -> tuple[int, ...]:
    """One bitset per atom: bit ``k`` of mask ``i`` is atom ``i``'s value in
    assignment ``k``, with atom 0 the most significant bit of ``k``, so
    counting ``k`` up enumerates assignments in lexicographic atom order
    with false before true. Memoised per atom count."""
    masks = _ROW_MASKS.get(n)
    if masks is None:
        masks = []
        for i in range(n):
            # a run of `width` zeros then `width` ones, doubled up to 2**n rows
            width = 1 << (n - 1 - i)
            mask = ((1 << width) - 1) << width
            width *= 2
            while width < 1 << n:
                mask |= mask << width
                width *= 2
            masks.append(mask)
        masks = _ROW_MASKS[n] = tuple(masks)
    return masks


def _table(f: Formula, masks: dict[str, int], full: int) -> int:
    """The set of rows in which ``f`` is true, as a bitset."""
    if isinstance(f, Atom):
        return masks[f.name]
    if isinstance(f, Const):
        return full if f.value else 0
    if isinstance(f, Not):
        return _table(f.operand, masks, full) ^ full
    if isinstance(f, And):
        return _table(f.left, masks, full) & _table(f.right, masks, full)
    if isinstance(f, Or):
        return _table(f.left, masks, full) | _table(f.right, masks, full)
    if isinstance(f, Implies):
        return (_table(f.left, masks, full) ^ full) | _table(f.right, masks, full)
    raise TypeError(f"not a formula: {f!r}")


def first_counterexample(premises: tuple[Formula, ...], goal: Formula, names: list[str],
                         base: int = -1) -> int:
    """Index of the first assignment over ``names`` (see ``row_masks``)
    among the rows of the bitset ``base`` (-1: every row) that makes every
    premise true and ``goal`` false, or -1 if there is none."""
    full = (1 << (1 << len(names))) - 1
    masks = dict(zip(names, row_masks(len(names))))
    sat = (_table(goal, masks, full) ^ full) & base
    for p in premises:
        if not sat:
            break
        sat &= _table(p, masks, full)
    return (sat & -sat).bit_length() - 1


def _check_atom_limit(atom_limit: int) -> None:
    if not 0 <= atom_limit <= MAX_ATOM_LIMIT:
        raise ValueError(f"atom_limit must be in 0..{MAX_ATOM_LIMIT}, got {atom_limit}")


def check_counterexample(state: ProofState, atom_limit: int = DEFAULT_ATOM_LIMIT) -> CexResult:
    """Exhaustive truth-table scan per subgoal, in subgoal order.

    A counterexample satisfies every context fact and hypothesis of the
    indexed subgoal and falsifies its goal; the first one under lexicographic
    atom order with false before true is returned. Subgoals spanning more
    than ``atom_limit`` atoms cannot be certified; if no other subgoal is
    falsifiable the verdict is Unknown, at once when the context alone
    spans more. ``atom_limit`` must lie in ``0..MAX_ATOM_LIMIT``.

    The context's ``FactIndex`` keeps the conjunction table of its facts
    over its sorted atoms, from which a subgoal that adds no atom starts,
    and each subgoal's sorted atoms and first counterexample row (-1 if
    none), so a subgoal is judged once per context whatever the limit.
    """
    _check_atom_limit(atom_limit)
    if not state.subgoals:
        return CexResult.none()
    index = state.context.index()
    ctx_atoms = index.atoms
    if len(ctx_atoms) > atom_limit:
        return CexResult.unknown()
    if index.cex_rows is None:
        names = sorted(ctx_atoms)
        full = (1 << (1 << len(names))) - 1
        masks = dict(zip(names, row_masks(len(names))))
        table = full
        for f in index.statements:
            table &= _table(f, masks, full)
        index.cex_table, index.cex_rows = (names, table), {}
    (ctx_names, ctx_table), rows = index.cex_table, index.cex_rows
    unknown = False
    for idx, sub in enumerate(state.subgoals):
        entry = rows.get(sub)
        if entry is None:
            extra = sub.atom_names() - ctx_atoms
            entry = rows[sub] = [sorted(ctx_atoms | extra) if extra else ctx_names, None]
        names, k = entry
        if len(names) > atom_limit:
            unknown = True
            continue
        if k is None:
            k = entry[1] = (
                first_counterexample(sub.hypotheses, sub.goal, names, ctx_table)
                if names is ctx_names else
                first_counterexample((*index.statements, *sub.hypotheses), sub.goal, names))
        if k >= 0:
            n = len(names)
            return CexResult.found(
                {name: bool((k >> (n - 1 - i)) & 1) for i, name in enumerate(names)}, idx)
    return CexResult.unknown() if unknown else CexResult.none()


# ---------------------------------------------------------------------------
# Premise selection
# ---------------------------------------------------------------------------

def relevance_filter(goal_state: ProofState, k: int) -> list[str]:
    """Iterative symbol-overlap premise selection.

    Grows a relevant-atom set seeded from the state's subgoals; each round
    picks the unselected fact with the highest |atoms(f) & R| / |atoms(f)|
    (ties by fact id) and joins its atoms into R. Stops at ``k`` facts or
    when every remaining score is zero.

    No pick depends on ``k``, so the answer is the first ``k`` names of the
    full ranking, which the state's context's index keeps per atom seed.
    """
    seed = frozenset().union(*(sub.atom_names() for sub in goal_state.subgoals))
    index = goal_state.context.index()
    ranking = index.rankings.get(seed)
    if ranking is None:
        ranking = index.rankings[seed] = _rank_by_relevance(seed, index)
    return ranking[:max(k, 0)]


def _rank_by_relevance(seed: frozenset[str], index: FactIndex) -> list[str]:
    """Every fact ``relevance_filter`` would ever pick from ``seed``, in order.

    Each unchosen fact's overlap count is kept and raised only when an atom
    it mentions joins R, each raise pushing a fresh heap entry keyed
    (-score, id). Scores only grow, so a fact's newest entry pops before its
    older ones, which are skipped once the fact is chosen.
    """
    atom_facts, fact_atoms, sizes = index.atom_facts, index.fact_atom_ids, index.sizes
    hits = [0] * len(sizes)
    chosen = [False] * len(sizes)
    relevant = [False] * len(atom_facts)
    heap: list[tuple[float, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    selected: list[int] = []
    new_atoms = [index.atom_ids[a] for a in seed if a in index.atom_ids]
    while True:
        for a in new_atoms:
            relevant[a] = True
            for i in atom_facts[a]:
                if not chosen[i]:
                    hits[i] += 1
                    push(heap, (-hits[i] / sizes[i], i))
        while heap:
            i = pop(heap)[1]
            if not chosen[i]:
                break
        else:
            return [index.names[i] for i in selected]
        selected.append(i)
        chosen[i] = True
        new_atoms = [a for a in fact_atoms[i] if not relevant[a]]


def mesh_rank(state: ProofState, k: int, w: float) -> list[str]:
    """Premises ranked by a blend of symbol overlap and proof usage.

    The overlap component is the reciprocal rank from ``relevance_filter``
    (0 for unranked facts); the usage component is the fact's ground-truth
    usage count normalised by the maximum (0 when the corpus is empty).
    Combined score: ``w * overlap + (1 - w) * usage``; ties break by fact id.
    """
    index = state.context.index()
    overlap_order = relevance_filter(state, len(index.names))
    overlap_score = {name: 1.0 / (rank + 1) for rank, name in enumerate(overlap_order)}
    scored = sorted((-(w * overlap_score.get(name, 0.0) + (1 - w) * usage), name)
                    for name, usage in zip(index.names, index.usage_shares))
    return [name for _, name in scored[:k]]


class PremiseSelection(NamedTuple):
    """The facts the hammer may use: the first ``premise_limit`` of the
    state's ``mesh_rank`` order at weight ``mesh_weight``, tried in that
    order."""

    premise_limit: int
    mesh_weight: float


# ---------------------------------------------------------------------------
# Bounded-search hammer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HammerConfig:
    max_depth: int
    budget_ms: int


@dataclass(frozen=True)
class HammerResult:
    kind: str  # found | notfound | timeout
    steps: tuple[ProofStep, ...] = ()

    @property
    def found(self) -> bool:
        return self.kind == "found"


# ``assumption`` reads the hypotheses, so the hammer tries it on every
# goal; the other fact-free moves only on the goal classes that admit them
_ASSUMPTION = ProofStep("assumption")
_SHAPE_MOVES = {
    Implies: (ProofStep("intro"),),
    Not: (ProofStep("intro"),),
    And: (ProofStep("split"),),
    Or: (ProofStep("left"), ProofStep("right")),
}
# where the fact moves fall in the hammer's move order, after the fact-free ones
_FACT_MOVE_GROUPS = {"elim": 1, "apply": 2}


def toy_hammer(state: ProofState, config: HammerConfig,
               premises: PremiseSelection) -> HammerResult:
    """The first proof of least length in a fixed move order, if that
    length is at most ``config.max_depth``.

    The pool is the facts ``premises`` selects, and moves are tried in a
    fixed order with facts in pool order: ``assumption``, ``intro``,
    ``split``, ``left``, ``right``, ``elim`` over the pool's disjunctions,
    then ``apply`` over the pool facts. Deterministic for fixed inputs;
    Timeout when the budget runs out.

    The result is the one iterative deepening (Korf, 1985) with
    canonical-key depth pruning returns, computed from each subgoal's least
    closing length, the AND-OR decomposition of AO* (Martelli & Montanari,
    1973):

    (a) Each step rewrites the first subgoal alone, so a state's least
        proof length is the sum of its subgoals' least lengths, and a
        subgoal's is one more than the least sum over its moves' children.
        Neither depends on subgoal order or on pool order, only on the
        pool's set.
    (b) Deepening stops at depth d, the root's least length. In that round
        a child is entered with one less depth than its parent and has at
        least one less least length, so ``depth - least length`` never
        rises along a path from 0. So each state on the returned path is
        entered with depth equal to its least length, and the DFS returns
        through the first move in order whose child's least length is one
        less: every earlier move's child needs more depth than it gets.
    (c) Canonical-key pruning cannot cut that path. A state is pruned only
        by an earlier visit to its key with at least as much depth, hence
        (by (b)) with depth equal to its least length; the first such visit
        to finish would have returned a proof first.

    So a state whose subgoals' least lengths sum past ``max_depth`` is
    ``notfound`` at once, and otherwise the proof is the greedy walk that
    takes at each state the first move whose children's least lengths sum
    to the first subgoal's minus one.

    The lengths live on the context's ``FactIndex``, one table per pool
    set: per ``Subgoal`` its least length once known, else the largest
    length it was shown to exceed, and its successful moves with their
    children. Each entry is stored only once complete, so a timeout leaves
    the table sound, and every call on the theorem's states with that pool
    set reuses it.

    Only the walk reads the pool order. A limit below the context's size
    needs the ``mesh_rank`` order for the pool set itself, so it is ranked
    first; otherwise the set is every fact, the index's ``name_set``, and
    the order is ranked only once a proof is known to exist.
    """
    if not state.subgoals:
        return HammerResult("found", ())
    ctx = state.context
    index = ctx.index()
    limit, weight = premises
    if limit >= len(index.names):
        pool, pool_set = None, index.name_set
    else:
        pool = mesh_rank(state, limit, weight)
        pool_set = frozenset(pool)
    table = index.hammer_tables.get(pool_set)
    if table is None:
        elims = [ProofStep("elim", (f,)) for f in index.names
                 if f in pool_set and isinstance(ctx.facts[f], Or)]
        table = index.hammer_tables[pool_set] = (elims, {}, {}, {})
    elims, least, refuted, moves = table
    spines, statements = index.spine, index.statements
    deadline = time.monotonic() + config.budget_ms / 1000.0

    def expand(sub: Subgoal) -> list[tuple[ProofStep, tuple[Subgoal, ...]]]:
        # the fact-free moves the goal's class admits, every elim, then
        # `apply [f]` for the pool facts whose implication right spine
        # passes through the goal (the only goals f concludes)
        goal, alone = sub.goal, ProofState((sub,), ctx)
        out = []
        for step in (_ASSUMPTION, *_SHAPE_MOVES.get(type(goal), ()), *elims,
                     *(ProofStep("apply", (f,)) for f in spines.get(goal, ()) if f in pool_set)):
            result = apply_step(alone, step)
            if result.ok:
                out.append((step, result.state.subgoals))
        return out

    def length(sub: Subgoal, budget: int) -> int | None:
        """``sub``'s least closing length if it is at most ``budget``."""
        n = least.get(sub)
        if n is not None:
            return n if n <= budget else None
        if budget <= refuted.get(sub, 0):
            return None
        if time.monotonic() > deadline:
            raise _BudgetExceeded
        if budget == 1:
            # only a move with no children takes one step, and any such
            # move (`apply` with a fact equal to the goal) makes the goal
            # a statement, so `assumption` is one
            if sub.goal in sub.hypotheses or sub.goal in statements:
                least[sub] = 1
                return 1
            refuted[sub] = 1
            return None
        sub_moves = moves.get(sub)
        if sub_moves is None:
            sub_moves = moves[sub] = expand(sub)
        best = budget + 1
        for _, children in sub_moves:
            total = fit(children, best - 2)  # look only for a shorter proof
            if total is not None:
                best = total + 1
                if best == 1:
                    break
        if best > budget:
            refuted[sub] = budget
            return None
        least[sub] = best
        return best

    def fit(subgoals: tuple[Subgoal, ...], budget: int) -> int | None:
        """The sum of the least lengths of ``subgoals`` if it is at most
        ``budget``; each subgoal takes at least one step."""
        total, after = 0, len(subgoals)
        for sub in subgoals:
            after -= 1
            n = length(sub, budget - total - after)
            if n is None:
                return None
            total += n
        return total

    try:
        if fit(state.subgoals, config.max_depth) is None:
            return HammerResult("notfound")
        if pool is None:
            pool = mesh_rank(state, limit, weight)
        rank = {name: i for i, name in enumerate(pool)}

        def order(move: tuple[ProofStep, tuple[Subgoal, ...]]) -> tuple[int, int]:
            step = move[0]
            return (_FACT_MOVE_GROUPS.get(step.tactic, 0), rank[step.facts[0]] if step.facts else 0)

        steps = []
        subgoals = state.subgoals
        while subgoals:
            need = least[subgoals[0]] - 1
            if need:
                step, children = next(move for move in sorted(moves[subgoals[0]], key=order)
                                      if fit(move[1], need) is not None)
            else:  # closed in one step, so by `assumption` (see `length`)
                step, children = _ASSUMPTION, ()
            steps.append(step)
            subgoals = children + subgoals[1:]
    except _BudgetExceeded:
        return HammerResult("timeout")
    return HammerResult("found", tuple(steps))


# ---------------------------------------------------------------------------
# The in-process backend
# ---------------------------------------------------------------------------

def _apply_text_or_step(state: ProofState, step: ProofStep | str,
                        timeout_ms: int | None) -> StepResult:
    if isinstance(step, str):
        try:
            step = parse_step(step)
        except ParseError as e:
            # a factless apply/elim fails the parser, but the same step
            # built directly fails in apply_step; give its text that verdict
            if step.strip() not in FACT_REQUIRED:
                return StepResult.failure("parse_error", str(e))
            step = ProofStep(step.strip())
    return apply_step(state, step, timeout_ms or DEFAULT_STEP_BUDGET_MS)


# Sessions serve no backend caller; ``Session``, ``ToyProver.load_theory``,
# ``state``, ``apply``, ``clone``, ``restore`` and ``counterexample_at`` stay
# because the benchmark's tracer (``pipebench/tracing.py``) looks them up
# by name.
@dataclass
class Session:
    id: str
    current: ProofState


class ToyProver:
    """In-process reference backend.

    The wire protocol server gives each connection its own instance, and a
    remote client exposes the same token surface, so the search engine is
    backend-agnostic. ``start`` takes the ``Theory`` itself and returns
    the root with the theorem's fact context; snapshots are immutable, and
    each belongs to the tree of the root it descends from. One instance
    serves one serial caller (one connection, or one in-process search), so
    its registry takes no lock.
    """

    def __init__(self):
        self._sessions: dict[str, Session] = {}
        self._snapshots: dict[str, tuple[ProofState, str]] = {}  # token -> (state, root)
        self._trees: dict[str, list[str]] = {}  # root -> its tree's snapshots, itself included
        self._counter = itertools.count()

    def load_theory(self, source: str) -> str:
        return load_theory(source).name

    # -- snapshots and sessions ---------------------------------------------

    def _new_id(self, prefix: str) -> str:
        return f"{prefix}{next(self._counter)}"

    def _session(self, sid: str) -> Session:
        session = self._sessions.get(sid)
        if session is None:
            raise UnknownSessionError(f"no session {sid!r}")
        return session

    def _store(self, state: ProofState, root: str | None = None) -> str:
        token = self._new_id("c")  # the root of a new tree unless ``root`` is given
        self._snapshots[token] = (state, root or token)
        self._trees.setdefault(root or token, []).append(token)
        return token

    def start(self, theory: Theory, theorem_id: str) -> tuple[str, ProofState]:
        """The theorem's initial goal in ``theory``, stored as the root
        snapshot of a new tree: its token and state. The state carries the
        theorem's fact context, which every state stepped from it shares."""
        state = init_goal(theory, theorem_id)
        return self._store(state), state

    def state(self, sid: str) -> ProofState:
        return self._session(sid).current

    def apply(self, sid: str, step: ProofStep | str,
              timeout_ms: int | None = None) -> StepResult:
        session = self._session(sid)
        result = _apply_text_or_step(session.current, step, timeout_ms)
        if result.ok:
            session.current = result.state
        return result

    def apply_batch(self, groups, timeout_ms: int | None = None, atom_limit: int | None = None
                    ) -> list[list[tuple[StepResult, str | None, str | None]]]:
        """For each ``(token, steps)`` group, in order, apply each step, in
        order and with its own ``timeout_ms`` budget, to the snapshot
        ``token``; each success is stored as a new snapshot whose token comes
        back with its result, each failure reports its category alone. Given
        ``atom_limit``, a success with open subgoals comes with the kind of
        ``check_counterexample`` on its state (``none``, ``counterexample``
        or ``unknown``); every other step's kind is None. A group stops after
        its first success with zero subgoals. Returns one ``(result, token,
        kind)`` list per group; an unknown token or an ``atom_limit`` outside
        ``0..MAX_ATOM_LIMIT`` fails the whole call before any step runs."""
        if atom_limit is not None:
            _check_atom_limit(atom_limit)
        snapshots = [(*self._snapshot(token), steps) for token, steps in groups]
        out: list[list[tuple[StepResult, str | None, str | None]]] = []
        for state, root, steps in snapshots:
            results: list[tuple[StepResult, str | None, str | None]] = []
            for step in steps:
                result = _apply_text_or_step(state, step, timeout_ms)
                if not result.ok:
                    results.append((BARE_FAILURES[result.category], None, None))
                    continue
                closed = result.state.qed
                kind = (None if atom_limit is None or closed
                        else check_counterexample(result.state, atom_limit).kind)
                results.append((result, self._store(result.state, root), kind))
                if closed:
                    break
            out.append(results)
        return out

    def replay(self, token: str, steps, timeout_ms: int | None = None
               ) -> tuple[list[StepResult], str | None]:
        """Apply ``steps`` in a chain from the snapshot ``token``, each to
        the previous one's result and with its own ``timeout_ms`` budget,
        stopping after the first failure. Returns every result, failures
        with their detail, and, when all succeeded, the token of a snapshot
        of the final state; no intermediate state is stored."""
        state, root = self._snapshot(token)
        results: list[StepResult] = []
        for step in steps:
            result = _apply_text_or_step(state, step, timeout_ms)
            results.append(result)
            if not result.ok:
                return results, None
            state = result.state
        return results, self._store(state, root)

    def clone(self, sid: str) -> str:  # the root of a tree of its own
        return self._store(self._session(sid).current)

    def _snapshot(self, token: str) -> tuple[ProofState, str]:  # its state and root
        entry = self._snapshots.get(token)
        if entry is None:
            raise UnknownSessionError(f"no snapshot {token!r}")
        return entry

    def restore(self, token: str, session: str | None = None) -> str:
        state = self._snapshot(token)[0]
        if session is None:
            sid = self._new_id("s")
            self._sessions[sid] = Session(sid, state)
            return sid
        self._session(session).current = state
        return session

    # -- oracles -----------------------------------------------------------

    def counterexample_at(self, token: str, atom_limit: int = DEFAULT_ATOM_LIMIT) -> CexResult:
        return check_counterexample(self._snapshot(token)[0], atom_limit)

    def hammer_at(self, token: str, config: HammerConfig,
                  premises: PremiseSelection) -> HammerResult:
        return toy_hammer(self._snapshot(token)[0], config, premises)

    # -- lifetime ----------------------------------------------------------

    def release(self, ids) -> None:
        """Drop the named sessions and snapshots, a root (a ``start`` token)
        with its whole tree; unknown ids are ignored."""
        for name in ids:
            self._sessions.pop(name, None)
            for token in self._trees.pop(name, (name,)):
                self._snapshots.pop(token, None)

    def stats(self) -> dict:
        """Live object counts."""
        return {"sessions": len(self._sessions), "snapshots": len(self._snapshots)}

    def close(self) -> None:
        self._sessions.clear()
        self._snapshots.clear()
        self._trees.clear()
