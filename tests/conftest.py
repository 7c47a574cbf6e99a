import itertools

import pytest

from stepwise.core import ProofState
from stepwise.formulas import FALSE, TRUE, And, Atom, Implies, Not, Or, evaluate
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


def naive_first_counterexample(state: ProofState):
    """Independent oracle: enumerate assignments over sorted atoms with the
    recursive evaluator, false before true, subgoals in order."""
    ctx = state.context
    ctx_atoms = set()
    for f in ctx.facts.values():
        from stepwise.formulas import atoms
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
