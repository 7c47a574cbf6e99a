import itertools

import pytest
from hypothesis import strategies as st

from stepwise.core import ProofState, Subgoal
from stepwise.formulas import FALSE, TRUE, And, Atom, Const, Implies, Not, Or, atoms
from stepwise.prover import load_theory

BENCH_SEED = 11

CHAIN_SRC = """\
theory demo
axiom f1: p
axiom f2: p -> q
theorem t1: q
  proof
    apply [f2]
    apply [f1]
  qed
theorem t2: p -> p
  proof
    intro
    assumption
  qed
end
"""


@pytest.fixture
def chain_theory():
    return load_theory(CHAIN_SRC)


def evaluate(f, assignment: dict[str, bool]) -> bool:
    """Naive reference: the truth value of ``f`` under a total assignment
    of its atoms, by recursion over the tree."""
    if isinstance(f, Atom):
        return assignment[f.name]
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not evaluate(f.operand, assignment)
    if isinstance(f, And):
        return evaluate(f.left, assignment) and evaluate(f.right, assignment)
    if isinstance(f, Or):
        return evaluate(f.left, assignment) or evaluate(f.right, assignment)
    if isinstance(f, Implies):
        return (not evaluate(f.left, assignment)) or evaluate(f.right, assignment)
    raise TypeError(f"not a formula: {f!r}")


def naive_first_counterexample(state: ProofState):
    """Independent oracle: enumerate assignments over sorted atoms with the
    recursive evaluator, false before true, subgoals in order."""
    ctx = state.context
    ctx_atoms = set()
    for f in ctx.facts.values():
        ctx_atoms |= atoms(f)
    for idx, sub in enumerate(state.subgoals):
        names = sorted(ctx_atoms | sub.atom_names())
        for values in itertools.product((False, True), repeat=len(names)):
            assignment = dict(zip(names, values))
            if not all(evaluate(f, assignment) for f in ctx.facts.values()):
                continue
            if not all(evaluate(h, assignment) for h in sub.hypotheses):
                continue
            if not evaluate(sub.goal, assignment):
                return assignment, idx
    return None


def naive_auto_close(sub, ctx, depth: int) -> bool:
    """Reference ``auto``: the same backtracking as the prover's, but its
    ``apply`` candidates come from a scan of every fact that shares an atom
    with the goal, in name order, each kept only if ``_match_apply`` finds
    premises for it."""
    from stepwise.prover import _match_apply, _with_hypothesis

    if depth <= 0:
        return False
    goal, hyps = sub.goal, sub.hypotheses
    if goal in hyps or goal in ctx.facts.values():
        return True
    if isinstance(goal, Implies) and naive_auto_close(
            Subgoal(_with_hypothesis(hyps, goal.left), goal.right), ctx, depth - 1):
        return True
    if isinstance(goal, Not) and naive_auto_close(
            Subgoal(_with_hypothesis(hyps, goal.operand), FALSE), ctx, depth - 1):
        return True
    if isinstance(goal, And) and all(
            naive_auto_close(Subgoal(hyps, g), ctx, depth - 1) for g in (goal.left, goal.right)):
        return True
    if isinstance(goal, Or) and any(
            naive_auto_close(Subgoal(hyps, g), ctx, depth - 1) for g in (goal.left, goal.right)):
        return True
    for name in sorted(n for n, f in ctx.facts.items() if atoms(f) & atoms(goal)):
        premises = _match_apply(ctx.facts[name], goal)
        if premises is not None and all(
                naive_auto_close(Subgoal(hyps, p), ctx, depth - 1) for p in premises):
            return True
    return False


def replay_chain(backend, token, steps, timeout_ms=None):
    """Each step as a one-step ``replay`` on the token the last success
    returned (a failure leaves it in place): the results, and the tokens
    the successes returned, in order."""
    results, tokens = [], []
    for step in steps:
        [result], new_token = backend.replay(token, [step], timeout_ms)
        results.append(result)
        if new_token is not None:
            token = new_token
            tokens.append(token)
    return results, tokens


def naive_revise(failures, tactic_set, config):
    """Reference ``revise``: every raw repair built as a ``Candidate``, with
    tactic recombination written out here (premise repair's steps are
    ``premise_repair``'s, which tests/test_kernels.py checks on its own),
    then the first best candidate per step text, sorted by
    ``(-log_prob, text)`` and capped."""
    from stepwise.core import Candidate, ProofStep
    from stepwise.revision import premise_repair

    raw = []
    for attempt in failures:
        if attempt.category == "undefined_fact":
            raw.extend(Candidate(step, attempt.log_prob, "premise_repair")
                       for step in premise_repair(attempt, config))
        elif attempt.category in ("tactic_failure", "no_progress"):
            raw.extend(Candidate(ProofStep(tactic, attempt.step.facts), attempt.log_prob,
                                 "tactic_repair")
                       for tactic in tactic_set if tactic != attempt.step.tactic)
    best = {}
    for cand in raw:
        kept = best.get(cand.step.text())
        if kept is None or cand.log_prob > kept.log_prob:
            best[cand.step.text()] = cand
    ranked = sorted(best.values(), key=lambda c: (-c.log_prob, c.step.text()))
    return ranked[:config.revision_budget]


# few atoms and short formulas, so that scores tie often, facts share atoms
# and some are reached only through others; constants give atomless facts
relevance_formulas = st.recursive(
    st.one_of(st.sampled_from("pqrstu").map(Atom), st.sampled_from((TRUE, FALSE))),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda lr: And(*lr)),
        st.tuples(sub, sub).map(lambda lr: Implies(*lr))),
    max_leaves=4)


def greedy_relevance_reference(goal_state, context, k):
    """The O(k*n) greedy: every round rescans every remaining fact."""
    relevant = set()
    for sub in goal_state.subgoals:
        relevant |= sub.atom_names()
    remaining = sorted(context.facts)
    selected = []
    while len(selected) < k and remaining:
        best_name, best_score = None, 0.0
        for name in remaining:
            f_atoms = atoms(context.facts[name])
            if not f_atoms:
                continue
            score = len(f_atoms & relevant) / len(f_atoms)
            if score > best_score:
                best_name, best_score = name, score
        if best_name is None:
            break
        selected.append(best_name)
        relevant |= atoms(context.facts[best_name])
        remaining.remove(best_name)
    return selected


def random_formula(rng, leaves=3):
    """A random formula over the atoms a-e with ``leaves`` leaves."""
    if leaves <= 1:
        return Atom(rng.choice("abcde")) if rng.random() < 0.85 else rng.choice((TRUE, FALSE))
    if rng.random() < 0.2:
        return Not(random_formula(rng, leaves - 1))
    left = rng.randint(1, leaves - 1)
    op = rng.choice((And, Or, Implies))
    return op(random_formula(rng, left), random_formula(rng, leaves - left))


@pytest.fixture(scope="session")
def bench_result():
    from stepwise.bench import run_bench

    return run_bench(BENCH_SEED)


@pytest.fixture(scope="session")
def bench_corpus():
    from stepwise.bench import generate_corpus

    return generate_corpus(BENCH_SEED)
