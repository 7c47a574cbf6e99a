import copy
import gc
import itertools
import pickle
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepwise.core import Theory, TheoryEntry
from stepwise.formulas import _TABLE as INTERN_TABLE
from stepwise.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Const,
    Implies,
    Not,
    Or,
    ParseError,
    atoms,
    fold_constants,
    parse_formula,
    render,
)
from conftest import evaluate

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
    assert parse_formula(render(f)) is f


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


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------

_fresh = itertools.count()


def fresh_name(tag: str) -> str:
    """An atom name no other test builds, so its nodes start uninterned."""
    return f"{tag}_{next(_fresh)}"


def test_equal_structures_are_one_node():
    a, b = fresh_name("x"), fresh_name("y")
    f = Implies(And(Atom(a), Not(Atom(b))), Or(Atom(b), TRUE))
    assert Implies(And(Atom(a), Not(Atom(b))), Or(Atom(b), TRUE)) is f
    assert Atom(name=a) is Atom(a) and Const(value=False) is FALSE
    assert And(Atom(a), Atom(b)) is not And(Atom(b), Atom(a))
    assert And(Atom(a), Atom(b)) is not Or(Atom(a), Atom(b))
    assert repr(Not(Atom("p"))) == "Not(operand=Atom(name='p'))"


def test_copy_deepcopy_and_pickle_return_the_same_node():
    f = parse_formula("(p -> q) & ~(r | false)")
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert copy.deepcopy([f, f]) == [f, f]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) is f


def test_nodes_are_immutable():
    f = parse_formula("p & q")
    with pytest.raises(AttributeError):
        f.left = Atom("r")
    with pytest.raises(AttributeError):
        f.extra = 1
    with pytest.raises(AttributeError):
        del f.right
    assert render(f) == "p & q"


def test_rejected_constructions_leave_no_entry():
    before = set(INTERN_TABLE.keys())
    for bad in ("true", "1x", "a-b", ""):
        with pytest.raises(ValueError):
            Atom(bad)
    with pytest.raises(TypeError):
        Const(1)
    after = set(INTERN_TABLE.keys())
    assert after <= before
    assert all(type(key[1]) is bool for key in after if key[0] is Const)
    assert Const(True) is TRUE


def test_concurrent_builders_get_one_node():
    """Threads racing to intern the same fresh formulas all get the same
    objects; a forced-fine switch interval makes the race likely."""
    names = [fresh_name("race") for _ in range(40)]

    def build():
        nodes = [Atom(n) for n in names]
        return [Implies(x, And(y, Not(x))) for x, y in zip(nodes, nodes[1:])]

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
    for other in results[1:]:
        assert len(other) == len(first)
        assert all(x is y for x, y in zip(first, other))


def test_a_dropped_theory_leaves_nothing_in_the_intern_table():
    """The table holds its nodes weakly, so a server that parses theory
    after theory keeps only the live ones."""
    tag = fresh_name("dropped")
    atoms_ = [Atom(f"{tag}_{i}") for i in range(30)]
    theory = Theory(tag, tuple(
        TheoryEntry("axiom", f"ax{i}", Implies(a, Or(b, Not(a))))
        for i, (a, b) in enumerate(zip(atoms_, atoms_[1:]))))
    assert render(theory.entries[0].statement).startswith(tag)
    refs = [weakref.ref(e.statement) for e in theory.entries] + [weakref.ref(a) for a in atoms_]
    del theory, atoms_
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert not any(key[0] is Atom and key[1].startswith(tag)
                   for key in list(INTERN_TABLE.keys()))
