import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_revise
from stepwise.config import EngineConfig
from stepwise.core import ERROR_CATEGORIES, TACTICS, FactContext, ProofState, ProofStep, Subgoal
from stepwise.formulas import (
    FALSE,
    PARSE_CACHE_SIZE,
    TRUE,
    And,
    Atom,
    Implies,
    Not,
    atoms,
    parse_formula,
)
from stepwise.prover import load_theory, relevance_filter
from stepwise.revision import (
    FailedAttempt,
    _recombine,
    edit_distance,
    premise_repair,
    revise,
    tactic_frequencies,
    tactic_repair,
)


def ctx_of(**facts):
    return FactContext({k: parse_formula(v) for k, v in facts.items()})


def state_of(goal, ctx):
    return ProofState((Subgoal((), parse_formula(goal)),), ctx)


# -- relevance filter ---------------------------------------------------------

def test_relevance_overlap_zero_excluded():
    ctx = ctx_of(f1="p", f2="r")
    assert relevance_filter(state_of("p & q", ctx), 10) == ["f1"]


def test_relevance_iterative_expansion():
    ctx = ctx_of(f1="p -> r", f2="r")
    # f2 shares nothing with {p} until f1 joins r into the relevant set
    assert relevance_filter(state_of("p", ctx), 10) == ["f1", "f2"]


def test_relevance_k_zero():
    ctx = ctx_of(f1="p")
    assert relevance_filter(state_of("p", ctx), 0) == []


def test_relevance_ties_break_by_id():
    ctx = ctx_of(b="p", a="p")
    assert relevance_filter(state_of("p", ctx), 2) == ["a", "b"]


def test_relevance_scores_by_overlap_share():
    # f_pure is fully about p; f_mixed dilutes p with two foreign atoms
    ctx = ctx_of(f_mixed="p & x & y", f_pure="p")
    assert relevance_filter(state_of("p", ctx), 1) == ["f_pure"]


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


# few atoms and short formulas, so that scores tie often; constants give
# atomless facts
relevance_formulas = st.recursive(
    st.one_of(st.sampled_from("pqrstu").map(Atom), st.sampled_from((TRUE, FALSE))),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda lr: And(*lr)),
        st.tuples(sub, sub).map(lambda lr: Implies(*lr))),
    max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text("abxy", min_size=1, max_size=3), relevance_formulas, max_size=12),
       st.lists(relevance_formulas, min_size=1, max_size=3),
       st.integers(0, 14))
def test_relevance_filter_matches_greedy_reference(facts, goals, k):
    context = FactContext(facts)
    state = ProofState(tuple(Subgoal((), g) for g in goals), context)
    assert relevance_filter(state, k) == greedy_relevance_reference(state, context, k)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text("abxy", min_size=1, max_size=3), relevance_formulas, max_size=12),
       st.lists(st.lists(relevance_formulas, min_size=1, max_size=3), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 8), st.integers(0, 14)), min_size=1, max_size=12))
def test_relevance_filter_warm_context_matches_greedy_reference(facts, goal_lists, queries):
    # one context answers every query, so its memo is warm; each goal list
    # gives three states with one atom seed but different goals, and the
    # queries run forwards then backwards, so each k meets both a larger and
    # a smaller k already asked of the same seed
    context = FactContext(facts)
    states = []
    for goals in goal_lists:
        states.append(ProofState(tuple(Subgoal((), g) for g in goals), context))
        states.append(ProofState(tuple(Subgoal((), g) for g in reversed(goals)), context))
        states.append(ProofState((Subgoal((), functools.reduce(And, goals)),), context))
    for i, k in queries + queries[::-1]:
        state = states[i % len(states)]
        assert relevance_filter(state, k) == greedy_relevance_reference(state, context, k)


# -- edit distance -----------------------------------------------------------

@pytest.mark.parametrize("a,b,d", [
    ("x", "x", 0),
    ("set_cap_valid_obj", "set_cap_valid_objs", 1),
    ("kitten", "sitting", 3),
])
def test_edit_distance_values(a, b, d):
    assert edit_distance(a, b) == d


# -- tactic repair ------------------------------------------------------------

def fail(state, step_text, category, lp=-1.0):
    step = ProofStep(*(_split(step_text)))
    return FailedAttempt(state, step, lp, category)


def _split(text):
    if "[" in text:
        tactic, rest = text.split("[", 1)
        return tactic.strip(), tuple(f.strip() for f in rest.rstrip("]").split(","))
    return text.strip(), ()


def test_tactic_repair_cross_product_minus_original():
    ctx = ctx_of(f1="p")
    tactic_set = ("simp", "auto", "apply")
    out = tactic_repair(fail(state_of("p", ctx), "simp [f1]", "tactic_failure"), tactic_set)
    assert [(s.tactic, s.facts) for s in out] == [("auto", ("f1",)), ("apply", ("f1",))]


def test_tactic_repair_empty_fact_list():
    ctx = ctx_of()
    tactic_set = ("intro", "split", "simp")
    out = tactic_repair(fail(state_of("p", ctx), "simp", "no_progress"), tactic_set)
    assert [(s.tactic, s.facts) for s in out] == [("intro", ()), ("split", ())]


def test_tactic_repair_size_law():
    ctx = ctx_of(f1="p")
    full = tuple(f"t{i}" for i in range(12))
    attempt = fail(state_of("p", ctx), "simp [f1]", "tactic_failure")
    assert len(tactic_repair(attempt, full)) == 12  # original not in set
    assert len(tactic_repair(attempt, full[:-1] + ("simp",))) == 11


def test_tactic_repair_wrong_category_rejected():
    ctx = ctx_of()
    with pytest.raises(ValueError):
        tactic_repair(fail(state_of("p", ctx), "apply [f]", "undefined_fact"),
                      TACTICS)


# -- premise repair -------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(TACTICS),
                          st.lists(st.sampled_from(("f1", "f2", "g")), max_size=3),
                          st.sampled_from(("tactic_failure", "no_progress")),
                          st.lists(st.sampled_from(TACTICS), max_size=6).map(tuple)),
                min_size=1, max_size=6))
def test_tactic_repair_matches_the_naive_recombination(calls):
    """Repeated and fresh ``(step, tactic set)`` keys, each answer mutated
    before the next call: every call returns the comprehension's list."""
    state = state_of("p", ctx_of(f1="p", f2="q"))
    for tactic, facts, category, tactic_set in calls + calls:
        step = ProofStep(tactic, facts)
        out = tactic_repair(FailedAttempt(state, step, -1.0, category), tactic_set)
        assert out == [ProofStep(t, tuple(facts)) for t in tactic_set if t != tactic]
        out.append(step)
        out.reverse()


def test_tactic_repair_returns_a_fresh_list_from_a_bounded_cache():
    attempt = fail(state_of("p", ctx_of(f1="p")), "simp [f1]", "tactic_failure")
    first = tactic_repair(attempt, TACTICS)
    first.clear()
    again = tactic_repair(attempt, TACTICS)
    assert again is not first
    assert [s.text() for s in again] == [f"{t} [f1]" for t in TACTICS if t != "simp"]
    assert _recombine.cache_info().maxsize == PARSE_CACHE_SIZE


def test_premise_repair_nearest_name():
    ctx = ctx_of(set_cap_valid_objs="p")
    state = state_of("p", ctx)
    attempt = fail(state, "apply [set_cap_valid_obj]", "undefined_fact")
    out = premise_repair(attempt, ["set_cap_valid_objs"], EngineConfig())
    assert [s.text() for s in out] == ["apply [set_cap_valid_objs]"]


def test_premise_repair_distance_cutoff():
    ctx = ctx_of(totally_different="p")
    attempt = fail(state_of("p", ctx), "apply [zz]", "undefined_fact")
    assert premise_repair(attempt, ["totally_different"], EngineConfig()) == []


def test_premise_repair_top_matches_and_tie_order():
    ctx = ctx_of(fx="p", fy="p", fz="p")
    attempt = fail(state_of("p", ctx), "apply [f_]", "undefined_fact")
    out = premise_repair(attempt, ["fz", "fy", "fx"], EngineConfig(top_matches=2))
    # all three are distance 1; pool order breaks the tie
    assert [s.facts[0] for s in out] == ["fz", "fy"]


def test_premise_repair_multiple_undefined_names_cross_product():
    ctx = ctx_of(aa="p", bb="q")
    attempt = fail(state_of("p", ctx), "apply [a, b]", "undefined_fact")
    out = premise_repair(attempt, ["aa", "bb"], EngineConfig(top_matches=1))
    assert [s.facts for s in out] == [("aa", "bb")]


def test_premise_repair_output_only_defined_names():
    ctx = ctx_of(aa="p")
    attempt = fail(state_of("p", ctx), "elim [ab, aa]", "undefined_fact")
    out = premise_repair(attempt, ["aa"], EngineConfig())
    for step in out:
        assert all(f in ctx for f in step.facts)


def test_premise_repair_recovery_after_random_edits():
    names = [f"lemma_about_{w}" for w in
             ("caps", "pointers", "stacks", "threads", "frames", "pages")]
    ctx = FactContext({n: parse_formula("p") for n in names})
    state = state_of("p", ctx)
    rng = random.Random(3)
    alphabet = "abcdefghijklmnopqrstuvwxyz_"
    recovered = 0
    for _ in range(60):
        original = rng.choice(names)
        corrupted = original
        for _ in range(rng.choice((1, 2))):
            pos = rng.randrange(len(corrupted))
            corrupted = corrupted[:pos] + rng.choice(alphabet) + corrupted[pos + 1:]
        if corrupted in ctx:
            continue
        attempt = fail(state, f"apply [{corrupted}]", "undefined_fact")
        out = premise_repair(attempt, names, EngineConfig())
        if any(s.facts == (original,) for s in out):
            recovered += 1
        else:
            # the corruption must have landed within reach of the original
            assert edit_distance(corrupted, original) <= 2
            raise AssertionError(f"{corrupted!r} not repaired to {original!r}")
    assert recovered > 0


# -- revise dispatch ----------------------------------------------------------------

def test_revise_empty():
    assert revise([], TACTICS, EngineConfig()) == []


def test_revise_dispatch_union():
    ctx = ctx_of(aa="p", bb="p -> q")
    state = state_of("q", ctx)
    failures = [
        fail(state, "apply [ab]", "undefined_fact"),
        fail(state, "intro", "tactic_failure"),
    ]
    out = revise(failures, ("intro", "apply"), EngineConfig())
    texts = {c.step.text() for c in out}
    assert "apply [aa]" in texts          # premise repair
    assert "apply" not in {t.split()[0] for t in texts} - texts
    assert any(c.origin == "tactic_repair" for c in out)
    assert any(c.origin == "premise_repair" for c in out)


def test_revise_scores_each_repair_with_its_attempt_and_names_its_origin():
    ctx = ctx_of(set_cap_valid_objs="p", f1="p")
    state = state_of("p", ctx)
    failures = [fail(state, "simp [f1]", "tactic_failure", lp=-1.5),
                fail(state, "apply [set_cap_valid_obj]", "undefined_fact", lp=-0.5)]
    out = revise(failures, ("simp", "auto", "apply"), EngineConfig())
    assert [(c.step.text(), c.log_prob, c.origin) for c in out] == [
        ("apply [set_cap_valid_objs]", -0.5, "premise_repair"),
        ("apply [f1]", -1.5, "tactic_repair"),
        ("auto [f1]", -1.5, "tactic_repair"),
    ]


def test_revise_drops_parse_and_timeout_failures():
    ctx = ctx_of()
    state = state_of("p", ctx)
    failures = [fail(state, "simp", "parse_error"), fail(state, "simp", "timeout")]
    assert revise(failures, TACTICS, EngineConfig()) == []


def test_revise_dedups_keeping_max_logprob():
    ctx = ctx_of(f1="p")
    state = state_of("p", ctx)
    failures = [
        fail(state, "simp [f1]", "tactic_failure", lp=-2.0),
        fail(state, "intro [f1]", "tactic_failure", lp=-1.0),
    ]
    out = revise(failures, ("simp", "auto"), EngineConfig())
    by_text = {c.step.text(): c for c in out}
    assert by_text["auto [f1]"].log_prob == -1.0


def test_revise_keeps_the_first_origin_of_a_tied_text():
    ctx = ctx_of(aa="p")
    state = state_of("p", ctx)
    typo = fail(state, "apply [ab]", "undefined_fact", lp=-1.0)
    wrong = fail(state, "elim [aa]", "tactic_failure", lp=-1.0)
    for failures, origin in (([typo, wrong], "premise_repair"),
                             ([wrong, typo], "tactic_repair")):
        out = revise(failures, ("apply",), EngineConfig())
        assert [(c.step.text(), c.log_prob, c.origin) for c in out] == [
            ("apply [aa]", -1.0, origin)]


def test_revise_budget_cap_orders_by_logprob_then_text():
    ctx = ctx_of(f1="p")
    state = state_of("p", ctx)
    tactic_set = tuple(f"t{i:02d}" for i in range(20))
    failures = [fail(state, "simp", "tactic_failure", lp=-1.0)]
    out = revise(failures, tactic_set, EngineConfig(revision_budget=5))
    assert len(out) == 5
    assert [c.step.tactic for c in out] == ["t00", "t01", "t02", "t03", "t04"]


def test_revise_determinism():
    ctx = ctx_of(aa="p", ab="p")
    state = state_of("p", ctx)
    failures = [fail(state, "apply [ac]", "undefined_fact"),
                fail(state, "simp", "no_progress")]
    config = EngineConfig()
    first = [(c.step.text(), c.log_prob, c.origin)
             for c in revise(failures, TACTICS, config)]
    second = [(c.step.text(), c.log_prob, c.origin)
              for c in revise(failures, TACTICS, config)]
    assert first == second


_REVISE_CTX = ctx_of(aa="p", ab="p -> q", ba="q | r", bb="r & p", abc="s")
_REVISE_STATES = [state_of(goal, _REVISE_CTX) for goal in ("q", "p & r", "s -> t")]


@settings(max_examples=300, deadline=None)
@given(failures=st.lists(st.tuples(
           st.sampled_from(_REVISE_STATES),
           st.sampled_from(("apply", "elim", "simp")),
           st.lists(st.sampled_from(("aa", "ab", "ac", "ba", "zz")), max_size=2),
           st.sampled_from((0.0, -1.0, -1.0, -2.5)),
           st.sampled_from(ERROR_CATEGORIES)), max_size=8),
       tactic_set=st.lists(st.sampled_from(("apply", "elim", "intro", "simp")),
                           max_size=5).map(tuple),
       budget=st.integers(0, 30), top_matches=st.integers(1, 3),
       pool_size=st.integers(0, 5))
def test_revise_matches_a_naive_reference(failures, tactic_set, budget, top_matches,
                                          pool_size):
    """Mixed categories, tied scores and duplicate fact tuples: ``revise``
    keeps the same steps, scores and origins, in the same order, as the
    build-everything reference."""
    attempts = [FailedAttempt(state, ProofStep(tactic, facts), lp, category)
                for state, tactic, facts, lp, category in failures]
    config = EngineConfig(revision_budget=budget, top_matches=top_matches,
                          premise_pool_size=pool_size)
    got = revise(attempts, tactic_set, config)
    want = naive_revise(attempts, tactic_set, config)
    assert [(c.step, c.log_prob, c.origin) for c in got] == \
        [(c.step, c.log_prob, c.origin) for c in want]


# -- tactic frequencies ----------------------------------------------------------------

def test_tactic_frequencies_ranked_by_use():
    theory = load_theory(
        "theory t\naxiom f1: p\nlemma l1: p\nproof\napply [f1]\nqed\n"
        "lemma l2: p -> p\nproof\nintro\nassumption\nqed\n"
        "theorem t1: p\nproof\napply [f1]\nqed\nend\n")
    ranked = tactic_frequencies(theory)
    assert ranked[0] == "apply"
    assert set(ranked) == {"apply", "intro", "assumption"}


def test_tactic_frequencies_fallback_when_no_proofs():
    theory = load_theory("theory t\ntheorem t1: p\nend\n")
    assert tactic_frequencies(theory) == TACTICS
