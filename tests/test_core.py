import copy
import gc
import itertools
import math
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_formula
from stepwise.core import (
    QED_KEY,
    Candidate,
    FactContext,
    ProofState,
    ProofStep,
    Subgoal,
    canonical_state,
    parse_state,
    parse_step,
    render_state,
)
from stepwise.formulas import _TABLE as INTERN_TABLE
from stepwise.formulas import Atom, Implies, Or, ParseError, parse_formula, render


def sg(goal, *hyps):
    return Subgoal(tuple(parse_formula(h) for h in hyps), parse_formula(goal))


# -- step grammar -------------------------------------------------------------

def test_parse_step_plain_and_facts():
    assert parse_step("intro") == ProofStep("intro")
    assert parse_step("apply [f1, f2]") == ProofStep("apply", ("f1", "f2"))
    assert parse_step("  apply [ f1 ,f2 ] ") == ProofStep("apply", ("f1", "f2"))


def test_step_text_round_trip():
    for text in ("simp", "elim [d]", "apply [a, b, c]"):
        assert parse_step(text).text() == text


def test_factless_tactics_accept_and_ignore_fact_lists():
    step = parse_step("simp [f1]")
    assert step.tactic == "simp" and step.facts == ("f1",)


def test_fact_required_tactics_reject_empty_lists():
    with pytest.raises(ParseError):
        parse_step("apply")
    with pytest.raises(ParseError):
        parse_step("elim []")


def test_unknown_tactic_rejected():
    with pytest.raises(ParseError):
        parse_step("megasimp")


@pytest.mark.parametrize("text,name,position", [
    ("apply [x1a, 1a]", "1a", 13),  # not at the "1a" inside "x1a"
    ("apply [1a]", "1a", 8),
    ("elim [ f1 ,  f-2]", "f-2", 14),
    ("apply [f1, f1 f2]", "f1 f2", 12),
])
def test_a_bad_fact_name_is_reported_where_it_stands(text, name, position):
    with pytest.raises(ParseError, match=f"invalid fact name {name!r}") as err:
        parse_step(text)
    assert err.value.position == position and text[position - 1:].startswith(name)


def test_parse_step_is_memoised_and_a_bad_text_fails_every_time():
    assert parse_step(" intro ") is parse_step(" intro ")
    for _ in range(3):
        with pytest.raises(ParseError, match="unknown tactic"):
            parse_step("megasimp [f1]")


# -- interned steps --------------------------------------------------------------

_fresh = itertools.count()


def fresh_fact(tag: str) -> str:
    """A fact name no other test builds a step with, so its steps start
    uninterned."""
    return f"{tag}_{next(_fresh)}"


def test_equal_steps_are_one_object_and_text_is_kept():
    name = fresh_fact("same")
    step = ProofStep("apply", (name, "f2"))
    assert ProofStep("apply", (name, "f2")) is step
    assert ProofStep(tactic="apply", facts=(name, "f2")) is step
    assert parse_step(f"apply [{name}, f2]") is step
    assert ProofStep("apply", ("f2", name)) is not step
    assert ProofStep("elim", (name, "f2")) is not step
    assert step.text() is step.text() == f"apply [{name}, f2]"
    assert ProofStep("intro") == ProofStep("intro", ()) != ProofStep("intro", ("x",))
    assert repr(ProofStep("apply", ("f",))) == "ProofStep(tactic='apply', facts=('f',))"


def test_a_list_of_facts_is_kept_as_the_tuple_built_step():
    name = fresh_fact("listed")
    step = ProofStep("apply", [name])
    assert step.facts == (name,) and type(step.facts) is tuple
    assert step is ProofStep("apply", (name,))
    assert ProofStep("elim", iter([name, "g"])) is ProofStep("elim", (name, "g"))


def test_copy_deepcopy_and_pickle_return_the_same_step():
    step = parse_step("apply [f1, f2]")
    assert copy.copy(step) is step
    assert copy.deepcopy(step) is step
    assert copy.deepcopy([step, step]) == [step, step]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(step, protocol)) is step


def test_steps_are_immutable():
    step = ProofStep("apply", ("f1",))
    with pytest.raises(AttributeError):
        step.tactic = "elim"
    with pytest.raises(AttributeError):
        step.extra = 1
    with pytest.raises(AttributeError):
        del step.facts
    assert step.text() == "apply [f1]" and step is ProofStep("apply", ("f1",))


def test_concurrent_builders_get_one_step():
    """Threads racing to intern the same fresh steps all get the same
    objects; a forced-fine switch interval makes the race likely."""
    names = [fresh_fact("race") for _ in range(40)]

    def build():
        return [ProofStep(tactic, (a, b)) for a, b in zip(names, names[1:])
                for tactic in ("apply", "elim")]

    results = [None] * 8
    barrier = threading.Barrier(len(results))

    def worker(i):
        barrier.wait()
        results[i] = build()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    first = results[0]
    assert len(first) == 78
    for other in results[1:]:
        assert len(other) == len(first)
        assert all(x is y for x, y in zip(first, other))


def test_a_dropped_step_leaves_nothing_in_the_intern_table():
    """The table holds steps weakly, so a server that parses step after
    step keeps only the live ones."""
    tag = fresh_fact("dropped")
    steps = [ProofStep("apply", (f"{tag}_{i}",)) for i in range(30)]
    assert steps[0].text() == f"apply [{tag}_0]"
    refs = [weakref.ref(s) for s in steps]
    del steps
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert not any(key[0] is ProofStep and any(f.startswith(tag) for f in key[2])
                   for key in list(INTERN_TABLE.keys()))
    assert ProofStep("apply", (f"{tag}_0",)).text() == f"apply [{tag}_0]"


# -- canonical keys ------------------------------------------------------------

def test_canonical_invariant_under_subgoal_permutation():
    a = ProofState((sg("g1", "a"), sg("g2", "b")))
    b = ProofState((sg("g2", "b"), sg("g1", "a")))
    assert canonical_state(a) == canonical_state(b)


def test_canonical_invariant_under_hypothesis_permutation():
    a = ProofState((sg("r", "p", "q"),))
    b = ProofState((sg("r", "q", "p"),))
    assert canonical_state(a) == canonical_state(b)


def test_canonical_empty_state_is_qed_sentinel():
    assert canonical_state(ProofState(())) == "QED"


def test_canonical_distinguishes_different_hypotheses():
    a = ProofState((sg("r", "p"),))
    b = ProofState((sg("r", "q"),))
    assert canonical_state(a) != canonical_state(b)


def test_canonical_distinguishes_subgoal_multiplicity():
    once = ProofState((sg("g"),))
    twice = ProofState((sg("g"), sg("g")))
    assert canonical_state(once) != canonical_state(twice)


def test_canonical_does_not_normalize_commutative_operands():
    # formula identity is structural: a & b and b & a get distinct keys
    assert canonical_state(ProofState((sg("a & b"),))) \
        != canonical_state(ProofState((sg("b & a"),)))


def test_canonical_is_pure():
    state = ProofState((sg("p -> q", "r"),))
    assert canonical_state(state) == canonical_state(state)


simple_formulas = st.sampled_from(
    [parse_formula(t) for t in ("p", "q", "~p", "p -> q", "p & q", "q | r", "false")])


@settings(max_examples=100)
@given(st.lists(st.tuples(st.lists(simple_formulas, max_size=3), simple_formulas),
                min_size=1, max_size=4), st.randoms())
def test_canonical_permutation_property(raw, rnd):
    subgoals = tuple(Subgoal(tuple(h), g) for h, g in raw)
    state = ProofState(subgoals)
    shuffled = list(subgoals)
    rnd.shuffle(shuffled)
    shuffled = tuple(
        Subgoal(tuple(sorted(s.hypotheses, key=repr, reverse=True)), s.goal)
        for s in shuffled)
    assert canonical_state(state) == canonical_state(ProofState(shuffled))


# -- state serialization ---------------------------------------------------------

def test_render_parse_state_round_trip():
    state = ProofState((sg("p -> q", "r", "s"), sg("false")))
    parsed = parse_state(render_state(state))
    assert canonical_state(parsed) == canonical_state(state)


def test_render_state_empty():
    assert render_state(ProofState(())) == "QED"
    assert parse_state("QED").qed


def random_subgoal(rng):
    """Random hypotheses, one of them a nested implication and one a
    disjunction of implications, and a random goal."""
    hyps = [random_formula(rng, rng.randint(1, 6)) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.8:
        hyps.append(Implies(Implies(random_formula(rng, 2), random_formula(rng, 2)),
                            random_formula(rng, 3)))
        hyps.append(Or(Implies(random_formula(rng, 2), random_formula(rng, 1)),
                       random_formula(rng, 2)))
        rng.shuffle(hyps)
    return Subgoal(tuple(hyps), random_formula(rng, rng.randint(1, 6)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_parse_state_inverts_render_state(seed, count):
    """The state text is the wire's, the prompt's and the dataset's form;
    ``parse_state`` splits it on newlines, on the first ``⊢`` of each line
    and on ``,`` between hypotheses, which holds while no rendered formula
    contains any of the three."""
    rng = random.Random(seed)
    state = ProofState(tuple(random_subgoal(rng) for _ in range(count)))
    text = render_state(state)
    assert parse_state(text).subgoals == state.subgoals
    for sub in state.subgoals:
        for formula in (*sub.hypotheses, sub.goal):
            assert not any(mark in render(formula) for mark in (",", "⊢", "\n"))
    assert (text == QED_KEY) == (count == 0)
    assert len(text.splitlines()) == max(count, 1)


@pytest.mark.parametrize("text", [
    "p",  # a subgoal line without a turnstile
    "⊢ p q",  # two formulas for one goal
    "p ⊢",  # no goal
    "p,, q ⊢ r",  # an empty hypothesis
    ", ⊢ r",
    "QED\n⊢ p",  # QED is the whole text or none of it
    "",  # neither QED nor a subgoal
    " \n ",
])
def test_malformed_state_text_is_parse_error(text):
    with pytest.raises(ParseError):
        parse_state(text)


def test_parse_state_memoises_the_rendered_formula():
    """Each hypothesis and goal is stripped before ``parse_formula``, so
    the memo holds ``q``, not ``" q "``."""
    parse_formula.cache_clear()
    parse_state("p ,  q ⊢  q ")
    parse_formula("p")
    parse_formula("q")
    assert parse_formula.cache_info().currsize == 2


# -- candidates -------------------------------------------------------------------

def test_candidate_rejects_positive_logprob():
    with pytest.raises(ValueError):
        Candidate(ProofStep("intro"), 0.5)


def test_candidate_rejects_nonfinite_logprob():
    with pytest.raises(ValueError):
        Candidate(ProofStep("intro"), -math.inf)
    with pytest.raises(ValueError):
        Candidate(ProofStep("intro"), math.nan)


def test_candidate_accepts_zero_and_validates_origin():
    assert Candidate(ProofStep("intro"), 0.0).log_prob == 0.0
    with pytest.raises(ValueError):
        Candidate(ProofStep("intro"), -1.0, origin="dreamt_up")


@settings(max_examples=50)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_candidate_logprob_contract(lp):
    valid = math.isfinite(lp) and lp <= 0
    if valid:
        Candidate(ProofStep("intro"), lp)
    else:
        with pytest.raises(ValueError):
            Candidate(ProofStep("intro"), lp)


# -- fact contexts ------------------------------------------------------------------

def test_context_lookup_distinguishes_undefined():
    ctx = FactContext({"f1": Atom("p")})
    assert "f1" in ctx
    assert "ghost" not in ctx


def test_context_atom_names_sorted():
    ctx = FactContext({"b": parse_formula("x"), "a": parse_formula("z & y")})
    index = ctx.index()
    assert index is ctx.index()  # built once, then kept
    assert index.atoms == {"x", "y", "z"}
    assert index.names == ["a", "b"]
    assert index.fact_atoms == [{"y", "z"}, {"x"}]
