import itertools

import pytest

from stepwise.core import ProofState
from stepwise.formulas import evaluate
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


@pytest.fixture(scope="session")
def bench_result():
    from stepwise.bench import run_bench

    return run_bench(BENCH_SEED)


@pytest.fixture(scope="session")
def bench_corpus():
    from stepwise.bench import generate_corpus

    return generate_corpus(BENCH_SEED)
