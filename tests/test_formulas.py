import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepwise.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Implies,
    Not,
    Or,
    ParseError,
    atoms,
    evaluate,
    fold_constants,
    parse_formula,
    render,
)

names = st.from_regex(r"[a-z_][a-z0-9_']{0,3}", fullmatch=True).filter(
    lambda s: s not in ("true", "false"))

formulas = st.recursive(
    st.one_of(names.map(Atom), st.just(TRUE), st.just(FALSE)),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda p: And(*p)),
        st.tuples(inner, inner).map(lambda p: Or(*p)),
        st.tuples(inner, inner).map(lambda p: Implies(*p)),
    ),
    max_leaves=24,
)


def test_right_associative_implication():
    assert parse_formula("p -> q -> r") == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))


def test_precedence_not_binds_tighter_than_and():
    assert parse_formula("~p & q") == And(Not(Atom("p")), Atom("q"))


def test_precedence_and_over_or_over_imp():
    assert parse_formula("a | b & c -> d") == Implies(
        Or(Atom("a"), And(Atom("b"), Atom("c"))), Atom("d"))


def test_parentheses_override():
    assert parse_formula("(a | b) & c") == And(Or(Atom("a"), Atom("b")), Atom("c"))


def test_unbalanced_paren_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p -> (q")
    assert err.value.position == 8


def test_unexpected_character_reports_position():
    with pytest.raises(ParseError):
        parse_formula("p @ q")


def test_parse_formula_is_memoised_and_a_bad_text_fails_every_time():
    assert parse_formula("a & (b | c)") is parse_formula("a & (b | c)")
    for _ in range(3):
        with pytest.raises(ParseError) as err:
            parse_formula("p -> (q")
        assert err.value.position == 8


def test_constants_are_not_atoms():
    assert parse_formula("true") is TRUE
    assert parse_formula("false") is FALSE
    with pytest.raises(ValueError):
        Atom("true")


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("9bad")
    assert Atom("p'").name == "p'"


@settings(max_examples=300)
@given(formulas)
def test_parse_render_round_trip(f):
    assert parse_formula(render(f)) == f


def test_left_associative_render_distinguishes_grouping():
    left = And(And(Atom("a"), Atom("b")), Atom("c"))
    right = And(Atom("a"), And(Atom("b"), Atom("c")))
    assert render(left) == "a & b & c"
    assert render(right) == "a & (b & c)"
    assert parse_formula(render(left)) == left
    assert parse_formula(render(right)) == right


def test_atoms_collects_all_names():
    assert atoms(parse_formula("p & (q -> ~r) | true")) == {"p", "q", "r"}


def test_evaluate_matches_truth_table():
    f = parse_formula("(p -> q) & ~r")
    assert evaluate(f, {"p": False, "q": False, "r": False}) is True
    assert evaluate(f, {"p": True, "q": False, "r": False}) is False
    assert evaluate(f, {"p": True, "q": True, "r": True}) is False


@pytest.mark.parametrize("text,expected", [
    ("p & true", "p"),
    ("true & p", "p"),
    ("p & false", "false"),
    ("p | true", "true"),
    ("p | false", "p"),
    ("~true", "false"),
    ("~false", "true"),
    ("true -> p", "p"),
    ("p -> true", "true"),
    ("false -> p", "true"),
    ("~(p & true) | false", "~p"),
])
def test_fold_constants_rules(text, expected):
    assert render(fold_constants(parse_formula(text))) == expected


@settings(max_examples=150)
@given(formulas)
def test_fold_constants_is_a_fixpoint_and_preserves_truth(f):
    folded = fold_constants(f)
    assert fold_constants(folded) == folded
    for bits in range(2 ** min(len(atoms(f)), 4)):
        names_sorted = sorted(atoms(f))[:4]
        assignment = {n: bool((bits >> i) & 1) for i, n in enumerate(names_sorted)}
        for other in atoms(f) - set(names_sorted):
            assignment[other] = False
        assert evaluate(folded, assignment) == evaluate(f, assignment)
