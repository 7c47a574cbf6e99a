"""Differential tests: the truth-table oracle and edit distance against naive
Python references.

Each case runs on two implementations: ``python``, the production routines
(the bitset truth table and the bit-parallel Levenshtein of Myers), and
``numpy``, vectorised references kept only in the tests as a second,
independent whole-table implementation."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepwise.config import EngineConfig
from stepwise.core import FactContext, ProofState, ProofStep, Subgoal
from stepwise.formulas import And, Atom, Const, Implies, Not, Or, atoms, parse_formula
from stepwise.prover import first_counterexample, relevance_filter, row_masks
from stepwise.revision import FailedAttempt, edit_distance, edit_distances, premise_repair
from conftest import evaluate, greedy_relevance_reference, relevance_formulas


def pure_levenshtein(a: str, b: str) -> int:
    # Textbook full-matrix DP, the independent oracle for edit_distance.
    rows = [[j for j in range(len(b) + 1)]]
    for i in range(1, len(a) + 1):
        row = [i]
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            row.append(min(rows[i - 1][j - 1] + cost, rows[i - 1][j] + 1, row[j - 1] + 1))
        rows.append(row)
    return rows[-1][-1]


def naive_first_sat(formula_texts, goal_text):
    premises = [parse_formula(t) for t in formula_texts]
    goal = parse_formula(goal_text)
    names = sorted(set().union(*(atoms(f) for f in premises + [goal])) | atoms(goal))
    for k, values in enumerate(itertools.product((False, True), repeat=len(names))):
        assignment = dict(zip(names, values))
        if all(evaluate(p, assignment) for p in premises) and not evaluate(goal, assignment):
            return k, assignment
    return -1, None


def numpy_first_counterexample(premises, goal, names, base=-1):
    # Boolean column per atom over all 2**n rows, atom 0 the most significant
    # bit; the rows outside the bitset ``base`` are struck out.
    n = len(names)
    rows = np.arange(1 << n)
    columns = {name: ((rows >> (n - 1 - i)) & 1).astype(bool) for i, name in enumerate(names)}

    def table(f):
        if isinstance(f, Atom):
            return columns[f.name]
        if isinstance(f, Const):
            return np.full(1 << n, f.value)
        if isinstance(f, Not):
            return ~table(f.operand)
        if isinstance(f, And):
            return table(f.left) & table(f.right)
        if isinstance(f, Or):
            return table(f.left) | table(f.right)
        if isinstance(f, Implies):
            return ~table(f.left) | table(f.right)
        raise TypeError(f)

    sat = ~table(goal) & np.array([(base >> int(k)) & 1 for k in rows], dtype=bool)
    for p in premises:
        sat &= table(p)
    hits = np.flatnonzero(sat)
    return int(hits[0]) if hits.size else -1


def numpy_edit_distance(a: str, b: str) -> int:
    # Row DP with the substitution and deletion terms vectorised; insertions
    # are a running minimum along the row.
    bs = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    prev = np.arange(len(b) + 1)
    for i, ca in enumerate(a, 1):
        cur = np.empty_like(prev)
        cur[0] = i
        cur[1:] = np.minimum(prev[1:] + 1, prev[:-1] + (bs != ord(ca)))
        for j in range(1, len(b) + 1):
            cur[j] = min(cur[j], cur[j - 1] + 1)
        prev = cur
    return int(prev[-1])


IMPLEMENTATIONS = {
    "python": (first_counterexample, edit_distance),
    "numpy": (numpy_first_counterexample, numpy_edit_distance),
}


@pytest.fixture(params=list(IMPLEMENTATIONS))
def implementation(request):
    return IMPLEMENTATIONS[request.param]


def table_first_sat(first_cex, formula_texts, goal_text):
    premises = [parse_formula(t) for t in formula_texts]
    goal = parse_formula(goal_text)
    names = sorted(set().union(*(atoms(f) for f in premises + [goal])) | atoms(goal))
    return first_cex(premises, goal, names)


CASES = [
    ([], "p"),
    ([], "true"),
    ([], "false"),
    (["p"], "p"),
    (["p | q"], "p"),
    (["p -> q", "p"], "q"),
    (["a | b", "a -> c", "b -> c"], "c"),
    (["~x"], "x | y"),
    (["p & q -> r"], "r"),
]


@pytest.mark.parametrize("premises,goal", CASES)
def test_first_satisfying_matches_naive_enumeration(implementation, premises, goal):
    expected_idx, _ = naive_first_sat(premises, goal)
    assert table_first_sat(implementation[0], premises, goal) == expected_idx


def test_backends_agree_on_random_formulas(implementation):
    rng = np.random.default_rng(5)
    pool = ["p", "q", "r", "~p", "p -> q", "q & r", "p | r", "q -> p & r"]
    for _ in range(40):
        k = int(rng.integers(0, 3))
        premises = [pool[int(i)] for i in rng.integers(0, len(pool), size=k)]
        goal = pool[int(rng.integers(0, len(pool)))]
        expected_idx, _ = naive_first_sat(premises, goal)
        assert table_first_sat(implementation[0], premises, goal) == expected_idx


def test_base_rows_act_as_premises(implementation):
    # the rows of ``extra``'s conjunction, passed as ``base``, give the same
    # first row as passing ``extra`` among the premises
    rng = np.random.default_rng(9)
    pool = ["p", "q", "r", "~p", "p -> q", "q & r", "p | r", "q -> p & r", "false"]
    for _ in range(40):
        premises, extra = ([pool[int(i)] for i in rng.integers(0, len(pool), size=int(k))]
                           for k in rng.integers(0, 3, size=2))
        goal = pool[int(rng.integers(0, len(pool)))]
        formulas = [parse_formula(t) for t in premises + extra + [goal]]
        names = sorted(set().union(*(atoms(f) for f in formulas)))
        base = sum(1 << k for k, values in enumerate(
            itertools.product((False, True), repeat=len(names)))
            if all(evaluate(parse_formula(t), dict(zip(names, values))) for t in extra))
        expected_idx, _ = naive_first_sat(premises + extra, goal)
        assert implementation[0]([parse_formula(t) for t in premises], parse_formula(goal),
                                 names, base) == expected_idx


def test_assignment_from_index_bit_order():
    # atom order (a, b): row k counts with a as the most significant digit,
    # so row 1 assigns b=True first (false-before-true, lexicographic atoms).
    a, b = row_masks(2)
    assert a == 0b1100
    assert b == 0b1010
    for n in range(6):
        for i, mask in enumerate(row_masks(n)):
            assert all(((mask >> k) & 1) == ((k >> (n - 1 - i)) & 1) for k in range(1 << n))


def test_zero_atom_formula(implementation):
    first_cex = implementation[0]
    assert first_cex([], parse_formula("false"), []) == 0  # the empty assignment falsifies
    assert first_cex([], parse_formula("true"), []) == -1


@pytest.mark.parametrize("a,b,expected", [
    ("x", "x", 0),
    ("set_cap_valid_obj", "set_cap_valid_objs", 1),
    ("kitten", "sitting", None),  # computed by the oracle below
    ("", "abc", 3),
    ("abc", "", 3),
])
def test_levenshtein_known_values(implementation, a, b, expected):
    oracle = pure_levenshtein(a, b)
    if expected is not None:
        assert oracle == expected
    assert implementation[1](a, b) == oracle


def test_kitten_sitting_is_three():
    assert pure_levenshtein("kitten", "sitting") == 3


@settings(max_examples=150)
@given(st.text(alphabet="abcdef_0123456789", max_size=12),
       st.text(alphabet="abcdef_0123456789", max_size=12))
def test_levenshtein_property_both_backends(a, b):
    expected = pure_levenshtein(a, b)
    for _, distance in IMPLEMENTATIONS.values():
        assert distance(a, b) == expected


# Strings longer than one 64-bit machine word and outside ASCII, where the
# bit vectors of the production edit distance span several words.
@pytest.mark.parametrize("a,b", [
    ("a" * 64, "a" * 65),
    ("ab" * 40, "ba" * 40),
    ("x" * 130, ""),
    ("kätzchen" * 9, "katze" * 13),
    ("证明" * 40 + "λ", "证" * 70),
])
def test_levenshtein_long_and_non_ascii_cases(implementation, a, b):
    assert implementation[1](a, b) == pure_levenshtein(a, b)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab_éλ证🙂", min_size=65, max_size=130),
       st.text(alphabet="ab_éλ证🙂", max_size=130))
def test_levenshtein_long_and_non_ascii_property(a, b):
    expected = pure_levenshtein(a, b)
    assert edit_distance(a, b) == expected
    assert edit_distance(b, a) == expected


# a pool scored with one pattern per name: short texts over a small alphabet,
# texts past one 64-bit word, and always the name itself and the empty text
pool_texts = st.one_of(st.text("abc", max_size=8), st.text("ab", min_size=60, max_size=80))


@settings(max_examples=300, deadline=None)
@given(pool_texts, st.lists(pool_texts, max_size=6))
def test_edit_distances_scores_a_pool_pair_by_pair(a, texts):
    texts = texts + [a, ""]
    expected = [pure_levenshtein(a, b) for b in texts]
    assert [edit_distance(a, b) for b in texts] == expected
    assert edit_distances(a, texts) == expected


# The packed kernel: every text is one block of a wide int, so many blocks
# straddle 64-bit words. Texts share prefixes, repeat characters and go
# past ASCII, and ``a`` may be empty.
PACKED_ALPHABET = "aab_⊢é"


@st.composite
def packed_cases(draw):
    prefix = draw(st.text(PACKED_ALPHABET, max_size=12))
    text = st.text(PACKED_ALPHABET, max_size=90)
    texts = draw(st.lists(st.one_of(text, text.map(lambda s: (prefix + s)[:90])), max_size=80))
    a = draw(st.one_of(st.just(""), text, text.map(lambda s: prefix + s[:8])))
    return a, texts


@settings(max_examples=80, deadline=None)
@given(packed_cases())
@example(("", ["⊢" * 90] * 80))
@example(("ab" * 45, ["a" * 90, "b" * 63, "", "ab" * 32, "⊢" * 64] * 16))
def test_packed_edit_distances_match_the_full_matrix(case):
    a, texts = case
    assert edit_distances(a, texts) == [pure_levenshtein(a, b) for b in texts]


def reference_premise_repair(attempt, pool, config):
    """Premise repair from its definition: each undefined name's nearest
    pool names by the full-matrix distance, ties by pool order."""
    undefined = list(dict.fromkeys(
        name for name in attempt.step.facts if name not in attempt.state.context))
    if not undefined:
        return []
    replacements = []
    for u in undefined:
        scored = sorted((pure_levenshtein(u, name), order, name)
                        for order, name in enumerate(pool))
        matches = [name for d, _, name in scored
                   if d <= config.max_edit_distance][:config.top_matches]
        if not matches:
            return []
        replacements.append(matches)
    texts = []
    for combo in itertools.product(*replacements):
        mapping = dict(zip(undefined, combo))
        text = ProofStep(attempt.step.tactic,
                         tuple(mapping.get(f, f) for f in attempt.step.facts)).text()
        if text not in texts:
            texts.append(text)
    return texts


# a small name space, so a misspelt name has many neighbours and each
# distance bucket many members
fact_names = st.text("ab", max_size=4).map(lambda s: "f" + s)


@st.composite
def misspelt(draw, names):
    """A name one edit from a context name, or any name."""
    name = draw(st.sampled_from(names))
    cut = draw(st.integers(0, len(name)))
    ch = draw(st.sampled_from("abx"))
    return draw(st.sampled_from((name[:cut] + name[cut + 1:], name[:cut] + ch + name[cut:],
                                 name[:cut] + ch + name[cut + 1:], draw(fact_names))))


@st.composite
def repair_cases(draw):
    """A context of facts over shared atoms, a state on it, a step naming
    misspelt facts (the same one twice, sometimes) and the repair budgets,
    with a pool size from 0 to past the context's size."""
    facts = draw(st.dictionaries(fact_names, relevance_formulas, min_size=4, max_size=30))
    context = FactContext(facts)
    goals = draw(st.lists(relevance_formulas, min_size=1, max_size=3))
    state = ProofState(tuple(Subgoal((), g) for g in goals), context)
    step_facts = draw(st.lists(misspelt(sorted(facts)), min_size=1, max_size=3))
    if draw(st.booleans()):
        step_facts.append(step_facts[0])
    config = EngineConfig(premise_pool_size=draw(st.integers(0, len(facts) + 1)),
                          top_matches=draw(st.integers(1, 3)),
                          max_edit_distance=draw(st.integers(0, 3)))
    attempt = FailedAttempt(state, ProofStep("apply", tuple(step_facts)), -0.5, "undefined_fact")
    return attempt, config


def reference_repair(attempt, config):
    """Premise repair over the eager pool: the greedy ranking's first
    ``premise_pool_size`` names."""
    state = attempt.state
    pool = greedy_relevance_reference(state, state.context, config.premise_pool_size)
    return reference_premise_repair(attempt, pool, config)


@settings(max_examples=300, deadline=None)
@given(repair_cases())
def test_premise_repair_matches_a_full_matrix_reference(case):
    attempt, config = case
    out = premise_repair(attempt, config)
    assert [s.text() for s in out] == reference_repair(attempt, config)


@settings(max_examples=200, deadline=None)
@given(repair_cases(), st.lists(st.integers(0, 31), min_size=1, max_size=3),
       st.lists(st.integers(0, 31), min_size=1, max_size=3))
def test_premise_repair_on_a_warm_ranking_matches_the_reference(case, before, after):
    # the ranking of the state's seed is read to a smaller and a larger k
    # before and after each repair, which resumes it where they left it
    attempt, config = case
    state, expected = attempt.state, reference_repair(attempt, config)
    for ks in (before, after):
        for k in ks + [k + 2 for k in ks]:
            assert relevance_filter(state, k) == greedy_relevance_reference(state, state.context, k)
        assert [s.text() for s in premise_repair(attempt, config)] == expected
