import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepwise.core import (
    Candidate,
    EMPTY_CONTEXT,
    FactContext,
    ProofState,
    ProofStep,
    Subgoal,
    canonical_state,
    parse_state,
    parse_step,
    render_state,
    state_from_wire,
    state_to_wire,
)
from stepwise.formulas import Atom, ParseError, parse_formula


def sg(goal, *hyps):
    return Subgoal(tuple(parse_formula(h) for h in hyps), parse_formula(goal))


# -- step grammar -------------------------------------------------------------

def test_parse_step_plain_and_facts():
    assert parse_step("intro") == ProofStep("intro")
    assert parse_step("apply [f1, f2]") == ProofStep("apply", ("f1", "f2"))


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


def test_parse_step_is_memoised_and_a_bad_text_fails_every_time():
    assert parse_step(" intro ") is parse_step(" intro ")
    for _ in range(3):
        with pytest.raises(ParseError, match="unknown tactic"):
            parse_step("megasimp [f1]")


def test_step_equality_ignores_raw():
    assert parse_step("intro") == ProofStep("intro", raw="weird")


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


def test_wire_round_trip_preserves_depth():
    state = ProofState((sg("p", "q"),), EMPTY_CONTEXT, depth=3)
    back = state_from_wire(state_to_wire(state))
    assert back.depth == 3
    assert canonical_state(back) == canonical_state(state)


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
    ctx = FactContext({"a": parse_formula("z & y"), "b": parse_formula("x")})
    assert ctx.atom_names() == ("x", "y", "z")
