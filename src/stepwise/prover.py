"""Deterministic miniature interactive prover.

Implements the theory format and the backend surface the search engine
drives: goal initialisation, step execution, a truth-table counterexample
oracle and a depth-bounded proof hammer, all addressed by immutable
snapshot tokens: ``start`` takes a parsed ``Theory`` and returns the
root's, ``apply_batch`` one per success of each ``(token, steps)`` group,
with the counterexample verdict on it, and ``replay`` the end of a step
chain, and ``hammer_at`` takes one. All tactics act on the first subgoal.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass

from .core import (
    BARE_FAILURES,
    FACT_REQUIRED,
    FactContext,
    ProofState,
    ProofStep,
    StepResult,
    Subgoal,
    Theory,
    TheoryEntry,
    canonical_state,
    canonical_subgoal,
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
    return ProofState((Subgoal((), entry.statement),), context, 0)


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


def apply_step(state: ProofState, step: ProofStep,
               budget_ms: int = DEFAULT_STEP_BUDGET_MS) -> StepResult:
    """Execute one tactic on the first subgoal.

    Returns Success with depth+1 and the same context, or a categorised
    failure; a success state always differs canonically from the input.
    """
    if not state.subgoals:
        return StepResult.failure("tactic_failure", "no open subgoals")
    deadline = time.monotonic() + budget_ms / 1000.0
    sub, rest = state.subgoals[0], state.subgoals[1:]
    ctx = state.context
    goal = sub.goal
    tactic = step.tactic

    new_subgoals: tuple[Subgoal, ...] | None = None
    if tactic == "assumption":
        if goal in sub.hypotheses or goal in ctx.statements():
            new_subgoals = ()
        else:
            return StepResult.failure("tactic_failure", "goal is not an assumption or fact")
    elif tactic == "intro":
        if isinstance(goal, Implies):
            new_subgoals = (Subgoal(_with_hypothesis(sub.hypotheses, goal.left), goal.right),)
        elif isinstance(goal, Not):
            new_subgoals = (Subgoal(_with_hypothesis(sub.hypotheses, goal.operand), FALSE),)
        else:
            return StepResult.failure("tactic_failure", "goal is not an implication or negation")
    elif tactic == "split":
        if not isinstance(goal, And):
            return StepResult.failure("tactic_failure", "goal is not a conjunction")
        new_subgoals = (Subgoal(sub.hypotheses, goal.left), Subgoal(sub.hypotheses, goal.right))
    elif tactic in ("left", "right"):
        if not isinstance(goal, Or):
            return StepResult.failure("tactic_failure", "goal is not a disjunction")
        picked = goal.left if tactic == "left" else goal.right
        new_subgoals = (Subgoal(sub.hypotheses, picked),)
    elif tactic == "elim":
        if not step.facts:
            return StepResult.failure("tactic_failure", "elim requires a fact argument")
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
            return StepResult.failure("tactic_failure", "apply requires a fact argument")
        fname = step.facts[0]
        if fname not in ctx:
            return StepResult.failure("undefined_fact", fname)
        premises = _match_apply(ctx.facts[fname], goal)
        if premises is None:
            return StepResult.failure("tactic_failure", f"{fname} does not conclude the goal")
        new_subgoals = tuple(Subgoal(sub.hypotheses, p) for p in premises)
    elif tactic == "simp":
        folded = fold_constants(goal)
        if folded == goal:
            return StepResult.failure("no_progress", "goal has no constant redexes")
        new_subgoals = () if folded == TRUE else (Subgoal(sub.hypotheses, folded),)
    elif tactic == "auto":
        try:
            closed = _auto_close(sub, ctx, AUTO_DEPTH, deadline)
        except _BudgetExceeded:
            return StepResult.failure("timeout", "auto exceeded its budget")
        if not closed:
            return StepResult.failure("tactic_failure", "auto could not close the first subgoal")
        new_subgoals = ()
    else:
        return StepResult.failure("parse_error", f"unknown tactic {tactic!r}")

    # only the first subgoal was replaced, so the state is canonically
    # unchanged iff that subgoal came back alone and canonically equal
    if len(new_subgoals) == 1 and _same_subgoal(new_subgoals[0], sub):
        return StepResult.failure("no_progress", "state unchanged")
    return StepResult.success(ProofState(new_subgoals + rest, ctx, state.depth + 1))


def _same_subgoal(a: Subgoal, b: Subgoal) -> bool:
    """Equal goals and equal hypothesis multisets, i.e. equal canonical keys."""
    return a.goal == b.goal and Counter(a.hypotheses) == Counter(b.hypotheses)


def _auto_close(sub: Subgoal, ctx: FactContext, depth: int, deadline: float) -> bool:
    """Depth-bounded deterministic backtracking over assumption, intro,
    split, left, right, and apply with goal-sharing facts in id order."""
    if time.monotonic() > deadline:
        raise _BudgetExceeded
    if depth <= 0:
        return False
    cache = ctx._auto_cache
    key = (canonical_subgoal(sub), depth)
    hit = cache.get(key)
    if hit is not None:
        return hit
    result = _auto_close_uncached(sub, ctx, depth, deadline)
    cache[key] = result
    return result


def _auto_close_uncached(sub: Subgoal, ctx: FactContext, depth: int, deadline: float) -> bool:
    goal = sub.goal
    if goal in sub.hypotheses or goal in ctx.statements():
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
    index = ctx.atom_index()
    for fname in sorted({name for a in atoms(goal) for name in index.get(a, ())}):
        premises = _match_apply(ctx.facts[fname], goal)
        if premises is None:
            continue
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
    reason: str = ""

    @classmethod
    def none(cls) -> "CexResult":
        return cls("none")

    @classmethod
    def found(cls, assignment: dict[str, bool], subgoal_index: int) -> "CexResult":
        return cls("counterexample", assignment, subgoal_index)

    @classmethod
    def unknown(cls, reason: str) -> "CexResult":
        return cls("unknown", reason=reason)


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


def first_counterexample(premises: list[Formula], goal: Formula, names: list[str]) -> int:
    """Index of the first assignment over ``names`` (see ``row_masks``) that
    makes every premise true and ``goal`` false, or -1 if there is none."""
    full = (1 << (1 << len(names))) - 1
    masks = dict(zip(names, row_masks(len(names))))
    sat = _table(goal, masks, full) ^ full
    for p in premises:
        if not sat:
            break
        sat &= _table(p, masks, full)
    return (sat & -sat).bit_length() - 1


def _check_atom_limit(atom_limit: int) -> None:
    if not 0 <= atom_limit <= MAX_ATOM_LIMIT:
        raise ValueError(f"atom_limit must be in 0..{MAX_ATOM_LIMIT}, got {atom_limit}")


def check_counterexample(state: ProofState, atom_limit: int = 16) -> CexResult:
    """Exhaustive truth-table scan per subgoal, in subgoal order.

    A counterexample satisfies every context fact and hypothesis of the
    indexed subgoal and falsifies its goal; the first one under lexicographic
    atom order with false before true is returned. Subgoals spanning more
    than ``atom_limit`` atoms cannot be certified; if no other subgoal is
    falsifiable the verdict is Unknown. ``atom_limit`` must lie in
    ``0..MAX_ATOM_LIMIT``.
    """
    _check_atom_limit(atom_limit)
    ctx = state.context
    ctx_atoms = set(ctx.atom_names())
    context_facts = list(ctx.facts.values())
    unknown_reason = ""
    for idx, sub in enumerate(state.subgoals):
        names = sorted(ctx_atoms | sub.atom_names())
        if len(names) > atom_limit:
            unknown_reason = f"subgoal {idx} spans {len(names)} atoms (limit {atom_limit})"
            continue
        k = first_counterexample(context_facts + list(sub.hypotheses), sub.goal, names)
        if k >= 0:
            n = len(names)
            return CexResult.found(
                {name: bool((k >> (n - 1 - i)) & 1) for i, name in enumerate(names)}, idx)
    if unknown_reason:
        return CexResult.unknown(unknown_reason)
    return CexResult.none()


# ---------------------------------------------------------------------------
# Bounded-search hammer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HammerConfig:
    max_depth: int = 4
    premise_limit: int = 2048
    budget_ms: int = 60_000


@dataclass(frozen=True)
class HammerResult:
    kind: str  # found | notfound | timeout
    steps: tuple[ProofStep, ...] = ()

    @property
    def found(self) -> bool:
        return self.kind == "found"


_HAMMER_TACTICS = ("assumption", "intro", "split", "left", "right")


def toy_hammer(state: ProofState, config: HammerConfig = HammerConfig(),
               pool: list[str] | None = None) -> HammerResult:
    """Iterative-deepening search for a full closing step sequence.

    Tactics are tried in a fixed order with facts in relevance order
    (``pool`` overrides the default relevance filtering): the fact-free
    tactics, ``elim`` over the pool's disjunctions, then ``apply`` over the
    pool facts. Deterministic for fixed inputs; Timeout when the budget runs
    out.
    """
    if not state.subgoals:
        return HammerResult("found", ())
    from .revision import relevance_filter

    ctx = state.context
    if pool is None:
        pool = relevance_filter(state, ctx, config.premise_limit)
    else:
        pool = list(pool)[:config.premise_limit]
    moves = [ProofStep(tactic) for tactic in _HAMMER_TACTICS]
    moves += [ProofStep("elim", (fname,)) for fname in pool
              if isinstance(ctx.facts.get(fname), Or)]
    spines = ctx.spine_index()
    applies: dict[Formula, list[ProofStep]] = {}

    def successors(current: ProofState) -> list[tuple[ProofStep, ProofState]]:
        # `apply [f]` succeeds only on a goal on f's implication right
        # spine, so a goal's apply moves are those pool facts, in pool order
        goal = current.subgoals[0].goal
        if goal not in applies:
            names = spines.get(goal, ())
            applies[goal] = [ProofStep("apply", (f,)) for f in pool if f in names]
        out = []
        for step in itertools.chain(moves, applies[goal]):
            result = apply_step(current, step)
            if result.ok:
                out.append((step, result.state))
        return out

    # every deepening round re-walks the tree, so each state reached keeps
    # [canonical key, successors once expanded], keyed by its exact
    # subgoals: apply_step acts on the first one, which the key ignores
    records: dict[tuple[Subgoal, ...], list] = {}
    deadline = time.monotonic() + config.budget_ms / 1000.0
    try:
        for depth in range(1, config.max_depth + 1):
            steps = _hammer_dfs(state, successors, records, depth, deadline, {})
            if steps is not None:
                return HammerResult("found", tuple(steps))
    except _BudgetExceeded:
        return HammerResult("timeout")
    return HammerResult("notfound")


def _hammer_dfs(state: ProofState, successors, records: dict, depth: int,
                deadline: float, visited: dict[str, int]) -> list[ProofStep] | None:
    if not state.subgoals:
        return []
    if depth <= 0:
        return None
    if time.monotonic() > deadline:
        raise _BudgetExceeded
    record = records.get(state.subgoals)
    if record is None:
        record = records[state.subgoals] = [canonical_state(state), None]
    key = record[0]
    if visited.get(key, -1) >= depth:
        return None
    visited[key] = depth
    if record[1] is None:
        record[1] = successors(state)
    for step, child in record[1]:
        tail = _hammer_dfs(child, successors, records, depth - 1, deadline, visited)
        if tail is not None:
            return [step] + tail
    return None


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

    The wire protocol server wraps an instance of this class; a remote client
    exposes the same token surface, so the search engine is backend-agnostic.
    ``start`` takes the ``Theory`` itself; snapshots are immutable and the
    registry is safe to share across threads.
    """

    def __init__(self):
        self._sessions: dict[str, Session] = {}
        self._snapshots: dict[str, ProofState] = {}
        self._counter = itertools.count()
        self._lock = threading.Lock()

    def load_theory(self, source: str) -> str:
        return load_theory(source).name

    # -- snapshots and sessions ---------------------------------------------

    def _new_id(self, prefix: str) -> str:
        return f"{prefix}{next(self._counter)}"

    def _session(self, sid: str) -> Session:
        with self._lock:
            session = self._sessions.get(sid)
        if session is None:
            raise UnknownSessionError(f"no session {sid!r}")
        return session

    def _store(self, state: ProofState) -> str:
        token = self._new_id("c")
        with self._lock:
            self._snapshots[token] = state
        return token

    def start(self, theory: Theory, theorem_id: str) -> tuple[str, ProofState]:
        """The theorem's initial goal in ``theory``, stored as a snapshot:
        its token and state."""
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
                    ) -> list[list[tuple[StepResult, str | None, CexResult | None]]]:
        """For each ``(token, steps)`` group, in order, apply each step, in
        order and with its own ``timeout_ms`` budget, to the snapshot
        ``token``; each success is stored as a new snapshot whose token comes
        back with its result, each failure reports its category alone. Given
        ``atom_limit``, a success with open subgoals comes with
        ``check_counterexample`` on its state; every other step's verdict is
        None. A group stops after its first success with zero subgoals.
        Returns one ``(result, token, verdict)`` list per group; an unknown
        token or an ``atom_limit`` outside ``0..MAX_ATOM_LIMIT`` fails the
        whole call before any step runs."""
        if atom_limit is not None:
            _check_atom_limit(atom_limit)
        snapshots = [(self._snapshot(token), steps) for token, steps in groups]
        out: list[list[tuple[StepResult, str | None, CexResult | None]]] = []
        for state, steps in snapshots:
            results: list[tuple[StepResult, str | None, CexResult | None]] = []
            for step in steps:
                result = _apply_text_or_step(state, step, timeout_ms)
                if not result.ok:
                    results.append((BARE_FAILURES[result.category], None, None))
                    continue
                closed = result.state.qed
                verdict = (None if atom_limit is None or closed
                           else check_counterexample(result.state, atom_limit))
                results.append((result, self._store(result.state), verdict))
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
        state = self._snapshot(token)
        results: list[StepResult] = []
        for step in steps:
            result = _apply_text_or_step(state, step, timeout_ms)
            results.append(result)
            if not result.ok:
                return results, None
            state = result.state
        return results, self._store(state)

    def clone(self, sid: str) -> str:
        return self._store(self._session(sid).current)

    def _snapshot(self, token: str) -> ProofState:
        with self._lock:
            state = self._snapshots.get(token)
        if state is None:
            raise UnknownSessionError(f"no snapshot {token!r}")
        return state

    def restore(self, token: str, session: str | None = None) -> str:
        state = self._snapshot(token)
        if session is None:
            sid = self._new_id("s")
            with self._lock:
                self._sessions[sid] = Session(sid, state)
            return sid
        self._session(session).current = state
        return session

    # -- oracles -----------------------------------------------------------

    def counterexample_at(self, token: str, atom_limit: int = 16) -> CexResult:
        return check_counterexample(self._snapshot(token), atom_limit)

    def hammer_at(self, token: str, config: HammerConfig = HammerConfig(),
                  pool: list[str] | None = None) -> HammerResult:
        return toy_hammer(self._snapshot(token), config, pool)

    # -- lifetime ----------------------------------------------------------

    def release(self, ids) -> None:
        """Drop the named sessions and snapshots; unknown ids are ignored."""
        with self._lock:
            for name in ids:
                self._sessions.pop(name, None)
                self._snapshots.pop(name, None)

    def stats(self) -> dict:
        """Live object counts."""
        with self._lock:
            return {"sessions": len(self._sessions), "snapshots": len(self._snapshots)}

    def close(self) -> None:
        with self._lock:
            self._sessions.clear()
            self._snapshots.clear()
