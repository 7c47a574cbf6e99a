import functools
import math
import random
from collections import deque
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stepwise import prover
from stepwise.core import (
    FACT_REQUIRED,
    TACTICS,
    FactContext,
    ProofState,
    ProofStep,
    Subgoal,
    canonical_state,
    parse_step,
)
from stepwise.formulas import (
    FALSE, TRUE, And, Atom, Const, Implies, Not, Or, atoms, fold_constants, parse_formula,
    render)
from stepwise.prover import (
    MAX_ATOM_LIMIT,
    HammerConfig,
    HammerResult,
    PremiseSelection,
    TheoryParseError,
    ToyProver,
    UnknownTheoremError,
    apply_step,
    check_counterexample,
    init_goal,
    load_theory,
    relevance_filter,
    render_theory,
    toy_hammer,
)
from conftest import CHAIN_SRC, naive_auto_close, naive_first_counterexample, random_formula


def state_of(goal, hyps=(), ctx=None):
    sub = Subgoal(tuple(parse_formula(h) for h in hyps), parse_formula(goal))
    return ProofState((sub,), ctx if ctx is not None else FactContext({}))


def ctx_of(**facts):
    return FactContext({k: parse_formula(v) for k, v in facts.items()})


# -- theory files ---------------------------------------------------------------

def test_load_theory_axiom_and_theorem():
    theory = load_theory("theory t\naxiom a1: p\ntheorem t1: p\nend\n")
    assert [e.name for e in theory.entries] == ["a1", "t1"]
    ctx = theory.context_for("t1")
    assert "a1" in ctx


def test_load_theory_duplicate_id():
    with pytest.raises(TheoryParseError, match="duplicate entry id"):
        load_theory("theory t\naxiom f1: p\nlemma f1: q\nproof\nassumption\nqed\nend\n")


def test_load_theory_rejects_ids_steps_cannot_name():
    # `apply [a-b]` does not parse, so `a-b` may not name an entry
    for ident in ("a-b", "1a", "x.y"):
        with pytest.raises(TheoryParseError, match="invalid entry id"):
            load_theory(f"theory x\naxiom {ident}: p\nend\n")


def test_load_theory_empty_block():
    theory = load_theory("theory t\nend\n")
    assert theory.entries == ()


def test_load_theory_reports_line_numbers():
    with pytest.raises(TheoryParseError) as err:
        load_theory("theory t\naxiom a1: p &\nend\n")
    assert err.value.line == 2


def test_load_theory_comments_and_proofs():
    theory = load_theory(CHAIN_SRC + "# trailing comment\n")
    entry = theory.entry("t1")
    assert entry.proof == (parse_step("apply [f2]"), parse_step("apply [f1]"))


def test_render_theory_round_trips(chain_theory):
    again = load_theory(render_theory(chain_theory))
    assert again == chain_theory


def test_context_includes_all_axioms_and_earlier_entries():
    theory = load_theory(
        "theory t\nlemma l1: p -> p\nproof\nintro\nassumption\nqed\n"
        "theorem t1: q\naxiom late: q\nend\n")
    ctx = theory.context_for("t1")
    assert "l1" in ctx and "late" in ctx
    ctx_l1 = theory.context_for("l1")
    assert "t1" not in ctx_l1 and "late" in ctx_l1


def test_usage_counts_exclude_later_proofs():
    theory = load_theory(
        "theory t\naxiom f1: p\nlemma l1: p\nproof\napply [f1]\nqed\n"
        "theorem t1: p\nend\n")
    assert theory.context_for("t1").usage_counts == {"f1": 1}
    assert theory.context_for("l1").usage_counts == {}


# -- init_goal -------------------------------------------------------------------

def test_init_goal_single_subgoal(chain_theory):
    state = init_goal(chain_theory, "t2")
    assert len(state.subgoals) == 1
    assert state.subgoals[0].hypotheses == ()
    assert state.subgoals[0].goal == chain_theory.entry("t2").statement


def test_init_goal_unknown_theorem(chain_theory):
    with pytest.raises(UnknownTheoremError):
        init_goal(chain_theory, "zz")


def test_init_goal_context_has_preceding_entries():
    theory = load_theory(
        "theory t\nlemma l1: p -> p\nproof\nintro\nassumption\nqed\ntheorem t1: q\nend\n")
    assert "l1" in init_goal(theory, "t1").context


# -- tactic semantics --------------------------------------------------------------

def test_intro_implication():
    state = state_of("p -> q")
    result = apply_step(state, parse_step("intro"))
    assert result.ok
    assert canonical_state(result.state) == "p ⊢ q"
    assert result.state.context is state.context


def test_intro_negation_gives_false_goal():
    result = apply_step(state_of("~p"), parse_step("intro"))
    assert result.ok and canonical_state(result.state) == "p ⊢ false"


def test_apply_backward_chains():
    ctx = ctx_of(f="p -> q")
    result = apply_step(state_of("q", ["p"], ctx), parse_step("apply [f]"))
    assert result.ok and canonical_state(result.state) == "p ⊢ p"


def test_apply_undefined_fact_names_the_offender():
    result = apply_step(state_of("q", ["p"]), parse_step("apply [ghost]"))
    assert not result.ok
    assert result.category == "undefined_fact"
    assert "ghost" in result.detail


def test_apply_multi_premise_and_shortest_suffix():
    ctx = ctx_of(m="a -> b -> g")
    result = apply_step(state_of("g", (), ctx), parse_step("apply [m]"))
    assert result.ok
    assert [canonical_state(ProofState((s,),)) for s in result.state.subgoals] \
        == ["⊢ a", "⊢ b"]
    # goal b -> g matches after peeling one premise only
    result2 = apply_step(state_of("b -> g", (), ctx), parse_step("apply [m]"))
    assert result2.ok and len(result2.state.subgoals) == 1


def test_apply_shape_mismatch_is_tactic_failure():
    ctx = ctx_of(f="p -> q")
    result = apply_step(state_of("r", (), ctx), parse_step("apply [f]"))
    assert result.category == "tactic_failure"


def test_simp_constant_folding():
    result = apply_step(state_of("p & true"), parse_step("simp"))
    assert result.ok and canonical_state(result.state) == "⊢ p"


@pytest.mark.parametrize("goal", ["p -> true", "true"])
def test_simp_closes_when_goal_becomes_true(goal):
    result = apply_step(state_of(goal), parse_step("simp"))
    assert result.ok and result.state.qed


def test_simp_no_progress():
    result = apply_step(state_of("p & q"), parse_step("simp"))
    assert result.category == "no_progress"


def test_split_and_left_right():
    split = apply_step(state_of("a & b"), parse_step("split"))
    assert split.ok and len(split.state.subgoals) == 2
    left = apply_step(state_of("a | b"), parse_step("left"))
    assert left.ok and canonical_state(left.state) == "⊢ a"
    right = apply_step(state_of("a | b"), parse_step("right"))
    assert right.ok and canonical_state(right.state) == "⊢ b"


def test_assumption_from_hypothesis_and_fact():
    assert apply_step(state_of("p", ["p"]), parse_step("assumption")).ok
    ctx = ctx_of(f1="p")
    assert apply_step(state_of("p", (), ctx), parse_step("assumption")).ok
    assert apply_step(state_of("p", ["q"]), parse_step("assumption")).category \
        == "tactic_failure"


def test_elim_splits_on_context_disjunction():
    ctx = ctx_of(d="a | b")
    result = apply_step(state_of("g", (), ctx), parse_step("elim [d]"))
    assert result.ok
    keys = sorted(canonical_state(ProofState((s,))) for s in result.state.subgoals)
    assert keys == ["a ⊢ g", "b ⊢ g"]


def test_elim_unknown_and_non_disjunction():
    ctx = ctx_of(d="a -> b")
    assert apply_step(state_of("g", (), ctx), parse_step("elim [zz]")).category \
        == "undefined_fact"
    assert apply_step(state_of("g", (), ctx), parse_step("elim [d]")).category \
        == "tactic_failure"


def test_auto_closes_within_depth():
    ctx = ctx_of(f1="p", f2="p -> q")
    result = apply_step(state_of("q", (), ctx), parse_step("auto"))
    assert result.ok and result.state.qed


def test_auto_leaves_other_subgoals():
    ctx = ctx_of(f1="p")
    state = ProofState((Subgoal((), parse_formula("p")),
                        Subgoal((), parse_formula("z"))), ctx)
    result = apply_step(state, parse_step("auto"))
    assert result.ok and canonical_state(result.state) == "⊢ z"


def test_auto_gives_a_goal_without_atoms_no_apply():
    # apply [f] would close false from the hypothesis p, but auto offers
    # apply only on goals with atoms; the hammer does close it
    state = state_of("~p", (), ctx_of(f="p -> false"))
    assert apply_step(state, parse_step("auto")).category == "tactic_failure"
    assert not naive_auto_close(state.subgoals[0], state.context, prover.AUTO_DEPTH)
    assert hammer(state, 3).found


def _parts(f):
    yield f
    for child in (getattr(f, "operand", None), getattr(f, "left", None),
                  getattr(f, "right", None)):
        if child is not None:
            yield from _parts(child)


atom_free = st.recursive(
    st.sampled_from((TRUE, FALSE)),
    lambda sub: st.one_of(sub.map(Not), st.tuples(sub, sub).map(lambda lr: Implies(*lr))),
    max_leaves=3)


@st.composite
def auto_problems(draw):
    """A subgoal and a context whose extra facts conclude parts of the goal
    through one or two premises, so that apply has work to do."""
    goal = draw(st.one_of(formulas, atom_free))
    hyps = draw(st.lists(formulas, max_size=2))
    facts = draw(st.lists(formulas, max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        fact = draw(st.sampled_from(list(_parts(goal))))
        for premise in draw(st.lists(st.one_of(formulas, atom_free), min_size=1, max_size=2)):
            fact = Implies(premise, fact)
        facts.append(fact)
    names = draw(st.permutations([f"f{i}" for i in range(len(facts))]))
    return Subgoal(tuple(hyps), goal), FactContext(dict(zip(names, facts)))


@settings(max_examples=200, deadline=None)
@given(auto_problems(), st.integers(1, prover.AUTO_DEPTH))
def test_auto_matches_naive_reference_on_random_subgoals(problem, depth):
    sub, ctx = problem
    assert prover._auto_close(sub, ctx, depth, math.inf) == naive_auto_close(sub, ctx, depth)


def test_no_progress_when_state_unchanged():
    # f concludes the goal from the goal itself: the new state equals the old
    ctx = ctx_of(f="g -> g")
    result = apply_step(state_of("g", (), ctx), parse_step("apply [f]"))
    assert result.category == "no_progress"


def test_apply_step_determinism():
    ctx = ctx_of(f="p -> q")
    state = state_of("q", ["r"], ctx)
    step = parse_step("apply [f]")
    first = apply_step(state, step)
    second = apply_step(state, step)
    assert canonical_state(first.state) == canonical_state(second.state)


def test_ground_truth_replay_reaches_qed(chain_theory):
    # hand-execution oracle: q --apply f2--> p --apply f1--> closed
    state = init_goal(chain_theory, "t1")
    for text in ("apply [f2]", "apply [f1]"):
        result = apply_step(state, parse_step(text))
        assert result.ok
        state = result.state
    assert state.qed


# -- counterexample oracle -------------------------------------------------------

def test_cex_falsifiable_atom():
    verdict = check_counterexample(state_of("p"))
    assert verdict.kind == "counterexample"
    assert verdict.assignment == {"p": False}
    assert verdict.subgoal_index == 0


def test_cex_identity_is_valid():
    assert check_counterexample(state_of("p", ["p"])).kind == "none"


def test_cex_disjunction_hypothesis():
    state = state_of("p", ["p | q"])
    expected = naive_first_counterexample(state)
    assert expected is not None
    verdict = check_counterexample(state)
    assert verdict.kind == "counterexample"
    assert verdict.assignment == expected[0]
    assert verdict.assignment == {"p": False, "q": True}


def test_cex_modus_ponens_valid():
    state = state_of("q", ["p -> q", "p"])
    assert naive_first_counterexample(state) is None
    assert check_counterexample(state).kind == "none"


def test_cex_context_facts_constrain_assignments():
    ctx = ctx_of(f1="p")
    # p is pinned true by the context, so only q can falsify
    verdict = check_counterexample(state_of("p & q", (), ctx))
    assert verdict.kind == "counterexample"
    assert verdict.assignment == {"p": True, "q": False}


def test_cex_atom_limit_yields_unknown():
    hyps = [f"x{i}" for i in range(5)]
    verdict = check_counterexample(state_of("y", hyps), atom_limit=3)
    assert verdict.kind == "unknown"


def test_cex_later_subgoal_found_despite_earlier_overflow():
    big = Subgoal(tuple(parse_formula(f"x{i}") for i in range(5)), parse_formula("y"))
    bad = Subgoal((), parse_formula("z"))
    verdict = check_counterexample(ProofState((big, bad)), atom_limit=3)
    assert verdict.kind == "counterexample" and verdict.subgoal_index == 1


def test_cex_qed_state_has_no_counterexample():
    assert check_counterexample(ProofState(())).kind == "none"


def test_cex_assignments_verify_independently():
    cases = [
        state_of("p"),
        state_of("p", ["p | q"]),
        state_of("q", ["p -> q"]),
        state_of("a & b", (), ctx_of(f="a")),
        state_of("x | y", ["~x"]),
    ]
    for state in cases:
        verdict = check_counterexample(state)
        expected = naive_first_counterexample(state)
        if verdict.kind == "none":
            assert expected is None
        else:
            assert (verdict.assignment, verdict.subgoal_index) == expected


formulas = st.recursive(
    st.one_of(st.sampled_from("abcde").map(Atom), st.sampled_from((TRUE, FALSE))),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda lr: And(*lr)),
        st.tuples(sub, sub).map(lambda lr: Or(*lr)),
        st.tuples(sub, sub).map(lambda lr: Implies(*lr))),
    max_leaves=6)


def folding_to(const, depth: int):
    """Formulas that ``fold_constants`` turns into ``const`` by construction:
    the constant itself, or a connective whose rewrite yields ``const``
    from operands folding to a constant and random ``formulas``, nested up
    to ``depth`` connectives deep."""
    if depth == 0:
        return st.just(const)
    true, false = folding_to(TRUE, depth - 1), folding_to(FALSE, depth - 1)

    def pair(left, right, op):
        return st.tuples(left, right).map(lambda lr: op(*lr))

    if const == TRUE:
        return st.one_of(st.just(TRUE), false.map(Not), pair(true, formulas, Or),
                         pair(formulas, true, Or), pair(true, true, And),
                         pair(false, formulas, Implies), pair(formulas, true, Implies))
    return st.one_of(st.just(FALSE), true.map(Not), pair(false, formulas, And),
                     pair(formulas, false, And), pair(false, false, Or), pair(true, false, Implies))


# most goals fold to true by construction, so the filter below keeps most
# draws; the random formulas beside them keep every other shape that folds
@settings(max_examples=200)
@given(st.one_of(folding_to(TRUE, 3), formulas), st.lists(formulas, max_size=2))
def test_simp_closes_every_goal_that_folds_to_true(goal, hyps):
    assume(fold_constants(goal) == TRUE)  # ``true`` itself included
    result = apply_step(ProofState((Subgoal(tuple(hyps), goal),), FactContext({})),
                        parse_step("simp"))
    assert result.ok and result.state.qed


@settings(max_examples=200)
@given(st.lists(st.tuples(st.lists(formulas, max_size=3), formulas), min_size=1, max_size=3),
       st.dictionaries(st.sampled_from(("f1", "f2")), formulas, max_size=2))
def test_cex_matches_naive_on_random_states(subgoals, facts):
    state = ProofState(tuple(Subgoal(tuple(h), g) for h, g in subgoals), FactContext(facts))
    verdict = check_counterexample(state, atom_limit=MAX_ATOM_LIMIT)
    expected = naive_first_counterexample(state)
    if expected is None:
        assert verdict.kind == "none"
    else:
        assert (verdict.assignment, verdict.subgoal_index) == expected


def test_cex_atom_limit_outside_range_is_rejected():
    state = state_of("p")
    for limit in (-1, MAX_ATOM_LIMIT + 1, 1_000_000):
        with pytest.raises(ValueError, match="atom_limit"):
            check_counterexample(state, atom_limit=limit)
    assert check_counterexample(state, atom_limit=0).kind == "unknown"
    assert check_counterexample(state, atom_limit=MAX_ATOM_LIMIT).kind == "counterexample"


def test_cex_memo_hit_still_applies_the_atom_limit():
    # the context spans one atom, so only the subgoal's own six pass 3
    state = state_of("y", [f"x{i}" for i in range(4)], ctx_of(f="p"))
    limits = (MAX_ATOM_LIMIT, 3, MAX_ATOM_LIMIT)
    assert [check_counterexample(state, limit).kind for limit in limits] \
        == ["counterexample", "unknown", "counterexample"]
    state = state_of("y", [f"x{i}" for i in range(4)], ctx_of(f="p"))
    assert [check_counterexample(state, limit).kind for limit in limits[1:]] \
        == ["unknown", "counterexample"]


def test_cex_judges_each_subgoal_once_and_tabulates_the_context_once(monkeypatch):
    evaluated = []
    table = prover._table
    monkeypatch.setattr(prover, "_table",
                        lambda f, masks, full: evaluated.append(f) or table(f, masks, full))
    facts = {"f1": parse_formula("a -> b"), "f2": parse_formula("b | c")}
    context = FactContext(facts)
    tail = Subgoal((), parse_formula("b"))
    state = ProofState((Subgoal((parse_formula("a"),), parse_formula("b")), tail), context)
    verdict = check_counterexample(state)
    assert verdict.kind == "counterexample" and verdict.subgoal_index == 1
    assert all(evaluated.count(f) == 1 for f in facts.values())
    evaluated.clear()
    assert check_counterexample(state) == verdict
    assert evaluated == []
    # a successor differs in its first subgoal: only its goal and hypothesis
    # are tabulated, against the context's kept table
    goal, hyp = parse_formula("~a"), parse_formula("~b")
    successor = ProofState((Subgoal((hyp,), goal), tail), context)
    assert check_counterexample(successor) == verdict
    assert set(evaluated) <= {goal, hyp, *(Atom(a) for a in "abc")}
    assert goal in evaluated and hyp in evaluated
    evaluated.clear()
    check_counterexample(ProofState(state.subgoals, FactContext(facts)))
    assert all(evaluated.count(f) == 1 for f in facts.values())


def _limit_reference(state, atom_limit):
    """The contract's verdict, from the naive oracle one subgoal at a time:
    the first falsifiable subgoal within the limit, else unknown if some
    subgoal spans more atoms than the limit, else none."""
    ctx_atoms = frozenset().union(*(atoms(f) for f in state.context.facts.values()))
    spans_more = False
    for idx, sub in enumerate(state.subgoals):
        if len(ctx_atoms | sub.atom_names()) > atom_limit:
            spans_more = True
            continue
        found = naive_first_counterexample(ProofState((sub,), state.context))
        if found is not None:
            return "counterexample", found[0], idx
    return ("unknown" if spans_more else "none"), None, -1


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(("f1", "f2", "f3")), formulas, max_size=3),
       st.lists(st.tuples(st.lists(formulas, max_size=2), formulas), min_size=1, max_size=4),
       st.data())
def test_cex_with_a_warm_memo_matches_a_fresh_context_and_naive(facts, pool, data):
    # states drawn from one subgoal pool share one context, so later checks
    # hit the memo at limits other than the one that filled it
    pool = [Subgoal(tuple(h), g) for h, g in pool]
    context = FactContext(facts)
    for _ in range(6):
        subgoals = tuple(data.draw(st.lists(st.sampled_from(pool), max_size=3)))
        limit = data.draw(st.one_of(st.integers(0, 6), st.integers(0, MAX_ATOM_LIMIT)))
        warm = check_counterexample(ProofState(subgoals, context), limit)
        fresh = check_counterexample(ProofState(subgoals, FactContext(facts)), limit)
        got = (warm.kind, warm.assignment, warm.subgoal_index)
        assert got == (fresh.kind, fresh.assignment, fresh.subgoal_index)
        assert got == _limit_reference(ProofState(subgoals, context), limit)


# -- hammer ------------------------------------------------------------------------

def hammer_moves_oracle(state, ctx, pool):
    # re-derived from the stated move order: fixed tactic order, facts in
    # relevance order, elim only over disjunction facts
    for tactic in ("assumption", "intro", "split", "left", "right"):
        yield ProofStep(tactic)
    for name in pool:
        if isinstance(ctx.facts.get(name), Or):
            yield ProofStep("elim", (name,))
    for name in pool:
        yield ProofStep("apply", (name,))


def bfs_proof_oracle(state, pool, max_depth):
    """Independent breadth-first closure search over the hammer move pool."""
    ctx = state.context
    queue = deque([(state, [])])
    seen = {canonical_state(state)}
    while queue:
        current, steps = queue.popleft()
        if len(steps) >= max_depth:
            continue
        for step in hammer_moves_oracle(current, ctx, pool):
            result = apply_step(current, step)
            if not result.ok:
                continue
            if result.state.qed:
                return steps + [step]
            key = canonical_state(result.state)
            if key not in seen:
                seen.add(key)
                queue.append((result.state, steps + [step]))
    return None


# every fact, in symbol-overlap order
EVERY_FACT = PremiseSelection(2048, 1.0)


def hammer(state, max_depth, budget_ms=60_000):
    """``toy_hammer`` with every fact as its pool."""
    return toy_hammer(state, HammerConfig(max_depth, budget_ms), EVERY_FACT)


def mesh_pool(state, k, w):
    """The pool the engine ranked and sent before the prover ranked its own
    premises: ``mesh_rank`` as it stood in the fallback, kept as the
    reference for the selection ``toy_hammer`` makes."""
    index = state.context.index()
    overlap_order = relevance_filter(state, len(index.names))
    overlap_score = {name: 1.0 / (rank + 1) for rank, name in enumerate(overlap_order)}
    scored = sorted((-(w * overlap_score.get(name, 0.0) + (1 - w) * usage), name)
                    for name, usage in zip(index.names, index.usage_shares))
    return [name for _, name in scored[:k]]


def test_hammer_two_step_chain():
    ctx = ctx_of(f1="p", f2="p -> q")
    state = state_of("q", (), ctx)
    result = hammer(state, 2)
    assert result.found
    # the oracle agrees a depth-2 proof exists; assumption-first ordering
    # closes the p subgoal from the context fact
    oracle = bfs_proof_oracle(state, ["f2", "f1"], 2)
    assert oracle is not None and len(oracle) == 2
    assert [s.text() for s in result.steps] == ["apply [f2]", "assumption"]


def test_hammer_false_goal_not_found():
    result = hammer(state_of("false"), 4)
    assert result.kind == "notfound"
    assert bfs_proof_oracle(state_of("false"), [], 4) is None


def test_hammer_assumption_first_by_tactic_order():
    ctx = ctx_of(f1="p")
    result = hammer(state_of("p", (), ctx), 2)
    assert result.found and [s.text() for s in result.steps] == ["assumption"]


def test_hammer_found_steps_replay_to_qed():
    ctx = ctx_of(d="a | g", lift="a -> g")
    state = state_of("g", (), ctx)
    result = hammer(state, 4)
    assert result.found
    replay = state
    for step in result.steps:
        outcome = apply_step(replay, step)
        assert outcome.ok
        replay = outcome.state
    assert replay.qed


def test_hammer_timeout():
    hyps = []
    ctx = ctx_of(**{f"h{i}": f"a{i} -> a{i + 1}" for i in range(8)})
    result = hammer(state_of("a8", hyps, ctx), 4, budget_ms=0)
    assert result.kind == "timeout"


def test_hammer_matches_bfs_oracle_on_small_states():
    contexts = [
        ctx_of(),
        ctx_of(f="a"),
        ctx_of(f="a", g="a -> b"),
        ctx_of(d="a | b"),
        ctx_of(d="a | b", pa="a -> c", pb="b -> c"),
        ctx_of(m="a -> b -> c", fa="a", fb="b"),
    ]
    goals = ["a", "b", "c", "a -> a", "a & b", "a | b", "~a", "false"]
    checked = 0
    for ctx in contexts:
        for goal in goals:
            state = state_of(goal, (), ctx)
            pool = mesh_pool(state, *EVERY_FACT)
            for depth in (1, 2, 3, 4):
                ours = hammer(state, depth)
                oracle = bfs_proof_oracle(state, pool, depth)
                assert ours.found == (oracle is not None), (goal, ctx.facts, depth)
                checked += 1
    assert checked >= 150


def reference_hammer(state, config, pool):
    """The hammer without its conclusion index: at every state it tries
    ``apply`` with every pool fact and lets ``apply_step`` reject misfits."""
    if not state.subgoals:
        return HammerResult("found", ())
    ctx = state.context

    def dfs(current, depth, visited):
        if not current.subgoals:
            return []
        if depth <= 0:
            return None
        key = canonical_state(current)
        if visited.get(key, -1) >= depth:
            return None
        visited[key] = depth
        for step in hammer_moves_oracle(current, ctx, pool):
            result = apply_step(current, step)
            if result.ok:
                tail = dfs(result.state, depth - 1, visited)
                if tail is not None:
                    return [step] + tail
        return None

    for depth in range(1, config.max_depth + 1):
        steps = dfs(state, depth, {})
        if steps is not None:
            return HammerResult("found", tuple(steps))
    return HammerResult("notfound")


def random_fact(rng):
    kind = rng.randrange(5)
    if kind <= 1:  # a curried chain a1 -> ... -> an, which `apply` unwinds
        parts = [Atom(rng.choice("abcde")) for _ in range(rng.randint(2, 4))]
        return functools.reduce(lambda acc, p: Implies(p, acc), reversed(parts[:-1]), parts[-1])
    if kind == 2:  # spines that mention one formula twice
        x, y = random_formula(rng, 2), random_formula(rng, 2)
        return Implies(x, x) if rng.random() < 0.5 else Implies(x, Implies(y, x))
    if kind == 3:
        return Or(Atom(rng.choice("abcde")), Atom(rng.choice("abcde")))
    return random_formula(rng, rng.randint(1, 4))


FACT_NAMES = ("d", "f1", "f2", "f3", "g")


def random_context(rng):
    facts = {}
    for name in FACT_NAMES:
        if rng.random() < 0.7:
            # some facts repeat an earlier statement, so that move order decides
            # which of them a proof uses
            repeat = facts and rng.random() < 0.25
            facts[name] = rng.choice(list(facts.values())) if repeat else random_fact(rng)
    return FactContext(facts)


def random_state(rng, ctx=None):
    """A random state whose goals mostly conclude a suffix of some fact's
    implication spine, with most of the premises that suffix skips as
    hypotheses, so that proofs through `apply` are common."""
    if ctx is None:
        ctx = random_context(rng)
    subgoals = []
    for _ in range(1 if rng.random() < 0.7 else 2):
        if not ctx.facts or rng.random() < 0.2:
            subgoals.append(Subgoal((random_formula(rng),), random_formula(rng)))
            continue
        node = rng.choice(list(ctx.facts.values()))
        premises = []
        while isinstance(node, Implies) and rng.random() < 0.9:
            premises.append(node.left)
            node = node.right
        hyps = [p for p in premises if rng.random() < 0.9]
        hyps += [random_formula(rng, 2) for _ in range(rng.randint(0, 1))]
        subgoals.append(Subgoal(tuple(hyps), node))
    return ProofState(tuple(subgoals), ctx)


def with_usage(ctx, rng):
    """``ctx`` with random usage counts, so that the mesh weight matters."""
    return FactContext(ctx.facts, {name: rng.randint(1, 4) for name in ctx.facts
                                   if rng.random() < 0.6})


def random_premises(rng, ctx):
    """A selection whose limit lies below, at or above the context's size."""
    n = len(ctx.facts)
    limit = rng.choice((rng.randint(0, max(n - 1, 0)), n, n + 1, 2048))
    return PremiseSelection(limit, rng.choice((0.0, 0.5, 1.0, rng.random())))


def test_hammer_matches_all_pool_apply_reference():
    rng = random.Random(20)
    via_apply = 0
    for _ in range(400):
        state = random_state(rng)
        premises = PremiseSelection(rng.choice((1, 2, 2048)), rng.choice((0.0, 0.5, 1.0)))
        config = HammerConfig(rng.randint(2, 4), 60_000)
        ours = toy_hammer(state, config, premises)
        expected = reference_hammer(state, config, mesh_pool(state, *premises))
        assert (ours.kind, ours.steps) == (expected.kind, expected.steps)
        via_apply += any(step.tactic == "apply" for step in ours.steps)
    assert via_apply >= 40  # 61 of the 400 cases


def test_hammer_with_a_warm_context_matches_reference():
    # each context serves many hammer calls, so its indexes, rankings and
    # tables are warm; selections vary, and each state is also tried with
    # its subgoals swapped (same canonical key, other first goal)
    rng = random.Random(23)
    calls = 0
    for _ in range(8):
        ctx = with_usage(random_context(rng), rng)
        for _ in range(6):
            state = random_state(rng, ctx)
            premises = random_premises(rng, ctx)
            config = HammerConfig(rng.randint(2, 4), 60_000)
            swapped = ProofState(state.subgoals[::-1], ctx)
            extra = Subgoal((), random_formula(rng, 2))
            for s in (state, swapped, ProofState((extra,) + state.subgoals, ctx),
                      ProofState(state.subgoals + (extra,), ctx)):
                ours = toy_hammer(s, config, premises)
                expected = reference_hammer(s, config, mesh_pool(s, *premises))
                assert (ours.kind, ours.steps) == (expected.kind, expected.steps)
                calls += 1
    assert calls >= 50


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), where=st.sampled_from(("below", "equal", "above")),
       weight=st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0, 1))
def test_hammer_selection_equals_the_engines_mesh_pool(seed, where, weight):
    """Whether the prover ranks up front (a limit below the context's size)
    or only for the walk of a found proof, its result is the hammer's on
    the pool the engine used to rank and send."""
    rng = random.Random(seed)
    ctx = with_usage(random_context(rng), rng)
    n = len(ctx.facts)
    limit = {"below": rng.randint(0, max(n - 1, 0)), "equal": n,
             "above": n + rng.randint(1, 2048)}[where]
    config = HammerConfig(rng.randint(1, 4), 60_000)
    for state in [random_state(rng, ctx) for _ in range(3)]:
        ours = toy_hammer(state, config, PremiseSelection(limit, weight))
        expected = reference_hammer(state, config, mesh_pool(state, limit, weight))
        assert (ours.kind, ours.steps) == (expected.kind, expected.steps)


def test_hammer_ranks_premises_only_to_walk_a_proof():
    # the verdict reads only the pool set: with every fact selected, a
    # notfound call ranks nothing and a found call ranks once, for its walk;
    # a limit below the context's size ranks once, up front, for the set,
    # and a found walk reuses that order
    ctx = ctx_of(f1="p", f2="p -> q", d="a | q")
    found, notfound = state_of("q", (), ctx), state_of("a", (), ctx)
    config = HammerConfig(4, 60_000)
    for limit, ranked in ((3, (0, 1)), (2048, (0, 1)), (2, (1, 1))):
        premises = PremiseSelection(limit, 0.5)
        for state, kind, calls in ((notfound, "notfound", ranked[0]),
                                   (found, "found", ranked[1])):
            with mock.patch.object(prover, "mesh_rank", wraps=prover.mesh_rank) as spy:
                assert toy_hammer(state, config, premises).kind == kind
            assert spy.call_count == calls, (limit, kind)


def test_hammer_applies_each_move_to_each_state_once():
    # the context keeps each subgoal's moves per pool set, so across calls
    # on one context no move is applied to a subgoal twice, and a repeated
    # call applies nothing
    ctx = ctx_of(ab="a | b", pa="a -> c", pb="b -> c", m="c -> d -> e", n="e -> f")
    config = HammerConfig(4, 60_000)
    seen = []

    def recording(current, step, *args):
        seen.append((current.subgoals, step))
        return apply_step(current, step, *args)

    for goal, hyps, kind in (("a -> e", ("c", "d"), "found"),
                             ("(a -> f) & (b -> e)", ("d",), "notfound")):
        state = state_of(goal, hyps, ctx)
        with mock.patch.object(prover, "apply_step", recording):
            result = toy_hammer(state, config, EVERY_FACT)
            applied = len(seen)
            assert result == toy_hammer(state, config, EVERY_FACT)
        assert len(seen) == applied
        assert result.kind == kind
        expected = reference_hammer(state, config, mesh_pool(state, *EVERY_FACT))
        assert (result.kind, result.steps) == (expected.kind, expected.steps)
    assert len(set(seen)) == len(seen) > 0


def test_hammer_with_one_warm_table_per_pool_set_matches_reference():
    # one context serves many states and selections: every limit at or above
    # its size selects every fact, so those calls share one table, and a
    # limit below it selects the top of the state's mesh order, whose set
    # (and table) may differ from state to state; the context keeps exactly
    # one table per pool set selected
    rng = random.Random(29)
    calls = tables = 0
    for _ in range(40):
        ctx = with_usage(random_context(rng), rng)
        pool_sets = set()
        for _ in range(12):
            state = random_state(rng, ctx)
            premises = random_premises(rng, ctx)
            config = HammerConfig(rng.randint(1, 5), 60_000)
            for s in (state, ProofState(state.subgoals[::-1], ctx)):
                pool = mesh_pool(s, *premises)
                pool_sets.add(frozenset(pool))
                ours = toy_hammer(s, config, premises)
                expected = reference_hammer(s, config, pool)
                assert (ours.kind, ours.steps) == (expected.kind, expected.steps)
                calls += 1
        assert set(ctx.index().hammer_tables) == pool_sets
        tables += len(pool_sets)
    assert calls >= 900 and tables >= 120  # 960 calls over 140 tables


def test_hammer_timeout_leaves_the_table_sound():
    # a cold call that runs out of budget partway leaves only complete
    # entries, so an ample call on the same context still equals the
    # reference; the clock ticks once per read, so a 1 ms budget runs out
    # after about `ticks` reads, and every cut point is tried
    class Clock:
        def __init__(self, ticks):
            self.now, self.tick = 0.0, 0.001 / ticks

        def monotonic(self):
            self.now += self.tick
            return self.now

    rng = random.Random(30)
    cuts = 0
    for _ in range(150):
        facts = random_context(rng).facts
        state = random_state(rng, FactContext(facts))
        config = HammerConfig(4, 60_000)
        expected = reference_hammer(state, config, mesh_pool(state, *EVERY_FACT))
        for ticks in range(1, 40):
            ctx = FactContext(facts)
            cold = ProofState(state.subgoals, ctx)
            with mock.patch.object(prover, "time", Clock(ticks)):
                cut = toy_hammer(cold, HammerConfig(4, 1), EVERY_FACT)
            if cut.kind != "timeout":
                break
            cuts += 1
            ours = toy_hammer(cold, config, EVERY_FACT)
            assert (ours.kind, ours.steps) == (expected.kind, expected.steps)
    assert cuts >= 200  # 252 cut calls


# the goal classes each fact-free move can act on; the hammer tries no
# other pairing, and tries `assumption` everywhere
SHAPED_TACTICS = {"intro": (Implies, Not), "split": (And,), "left": (Or,), "right": (Or,)}
GOAL_CLASSES = (Atom, Const, Not, And, Or, Implies)


def test_hammer_tries_only_the_moves_its_goal_class_admits():
    rng = random.Random(25)
    tried = {cls: set() for cls in GOAL_CLASSES}
    for cls in GOAL_CLASSES * 25:
        ctx = random_context(rng)
        goal = random_formula(rng, rng.randint(1, 4))
        while type(goal) is not cls:
            goal = random_formula(rng, rng.randint(1, 4))
        hyps = tuple(random_formula(rng, 2) for _ in range(rng.randint(0, 2)))
        state = ProofState((Subgoal(hyps, goal),) + random_state(rng, ctx).subgoals[:1], ctx)
        config = HammerConfig(rng.randint(2, 4), 60_000)
        seen = []

        def recording(current, step, *args):
            seen.append((type(current.subgoals[0].goal), step.tactic))
            return apply_step(current, step, *args)

        with mock.patch.object(prover, "apply_step", recording):
            ours = toy_hammer(state, config, EVERY_FACT)
        expected = reference_hammer(state, config, mesh_pool(state, *EVERY_FACT))
        assert (ours.kind, ours.steps) == (expected.kind, expected.steps)
        for goal_cls, tactic in seen:
            assert goal_cls in SHAPED_TACTICS.get(tactic, GOAL_CLASSES), (goal_cls, tactic)
            tried[goal_cls].add(tactic)
    for cls in GOAL_CLASSES:
        assert "assumption" in tried[cls]
    for tactic, classes in SHAPED_TACTICS.items():
        assert all(tactic in tried[cls] for cls in classes)


def test_no_progress_verdict_matches_canonical_keys():
    # with the structural check disabled every application succeeds, and the
    # canonical keys decide whether the real verdict must be no_progress
    rng = random.Random(21)
    unchanged_seen = 0
    for _ in range(300):
        state = random_state(rng)
        steps = [ProofStep(t) for t in TACTICS if t not in FACT_REQUIRED]
        steps += [ProofStep(t, (name,)) for t in FACT_REQUIRED for name in state.context.facts]
        for step in steps:
            result = apply_step(state, step)
            with mock.patch.object(prover, "_same_subgoal", return_value=False):
                forced = apply_step(state, step)
            unchanged = forced.ok and canonical_state(forced.state) == canonical_state(state)
            assert (result.category == "no_progress"
                    and result.detail == "state unchanged") == unchanged
            if result.ok:
                assert canonical_state(result.state) == canonical_state(forced.state)
            unchanged_seen += unchanged
    assert unchanged_seen >= 12  # 24 of the steps tried


# -- snapshots and sessions -------------------------------------------------------

def test_session_clone_restore_round_trip(chain_theory):
    prover = ToyProver()
    sid = prover.restore(prover.start(chain_theory, "t1")[0])
    token = prover.clone(sid)
    key_at_clone = canonical_state(prover.state(sid))
    assert prover.apply(sid, "apply [f2]").ok
    assert prover.apply(sid, "apply [f1]").ok
    assert prover.state(sid).qed
    restored = prover.restore(token)
    assert canonical_state(prover.state(restored)) == key_at_clone
    same = prover.restore(token, session=sid)
    assert same == sid
    assert canonical_state(prover.state(sid)) == key_at_clone


def test_apply_batch_matches_apply_and_stops_at_the_winner(chain_theory):
    prover = ToyProver()
    root, _ = prover.start(chain_theory, "t1")
    steps = ["apply [ghost]", "apply [f2]", "frobnicate hard", "simp", "auto", "intro"]
    [results] = prover.apply_batch([(root, steps)])
    assert len(results) == 5  # "intro" after the closing "auto" never runs
    for text, (result, token, verdict) in zip(steps, results):
        assert verdict is None  # no atom_limit, no verdict
        single = prover.restore(root)
        expected = prover.apply(single, text)
        assert result.ok == expected.ok
        if result.ok:
            assert canonical_state(result.state) == canonical_state(expected.state)
            state_at_token = prover.state(prover.restore(token))
            assert canonical_state(state_at_token) == canonical_state(result.state)
        else:
            assert token is None
            assert result.category == expected.category and result.detail == ""
    assert results[-1][0].state.qed
    # the addressed snapshot is immutable: the same batch gives the same results
    [again] = prover.apply_batch([(root, steps)])
    assert [(r.ok, r.category) for r, _, _ in again] \
        == [(r.ok, r.category) for r, _, _ in results]


def test_apply_batch_groups_are_independent_batches(chain_theory):
    """Each group gets what a batch of its own gets: its own snapshot, its
    own stop after the first zero-subgoal success."""
    prover = ToyProver()
    root, _ = prover.start(chain_theory, "t1")
    [(_, child, _)] = prover.apply_batch([(root, ["apply [f2]"])])[0]
    groups = [(root, ["apply [f1]", "apply [f2]"]), (child, ["apply [f1]", "intro"]),
              (root, []), (root, ["apply [f2]"])]
    grouped = prover.apply_batch(groups)
    alone = [prover.apply_batch([group])[0] for group in groups]
    assert [len(results) for results in grouped] == [2, 1, 0, 1]
    for got, want in zip(grouped, alone):
        assert [(r.ok, r.category, r.state and canonical_state(r.state))
                for r, _, _ in got] == [(r.ok, r.category, r.state and canonical_state(r.state))
                                        for r, _, _ in want]
    assert grouped[1][0][0].state.qed

def test_apply_batch_unknown_token_raises(chain_theory):
    from stepwise.prover import UnknownSessionError

    prover = ToyProver()
    with pytest.raises(UnknownSessionError):
        prover.apply_batch([("c404", ["intro"])])
    # an unknown token in any group fails the call before a step runs
    token, _ = prover.start(chain_theory, "t1")
    with pytest.raises(UnknownSessionError):
        prover.apply_batch([(token, ["apply [f2]"]), ("c404", ["intro"])])
    # so does an atom limit the truth table cannot take
    for atom_limit in (-1, MAX_ATOM_LIMIT + 1):
        with pytest.raises(ValueError, match="atom_limit"):
            prover.apply_batch([(token, ["apply [f2]"])], atom_limit=atom_limit)
    assert prover.stats()["snapshots"] == 1


def test_release_drops_named_objects_and_ignores_unknown_ids(chain_theory):
    """A ``start`` token goes with every snapshot derived from it; any other
    id, a session's included, goes alone."""
    prover = ToyProver()
    token, _ = prover.start(chain_theory, "t1")
    sid = prover.restore(token)
    [[(_, child, _)]] = prover.apply_batch([(token, ["apply [f2]"])])
    _, final = prover.replay(child, ["apply [f1]"])
    assert prover.stats() == {"sessions": 1, "snapshots": 3}
    prover.release([final, "no_such_id", sid, final])
    assert prover.stats() == {"sessions": 0, "snapshots": 2}
    assert prover.counterexample_at(child).kind == "none"
    prover.release([token, child, token])
    assert prover.stats() == {"sessions": 0, "snapshots": 0}


TREE_STEPS = ("intro", "assumption", "apply [f1]", "apply [f2]", "simp", "auto", "split")


def _live(prover, token) -> bool:
    """Whether ``token`` names a snapshot, asked without storing one."""
    from stepwise.prover import UnknownSessionError

    try:
        prover.apply_batch([(token, [])])
    except UnknownSessionError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_releasing_a_root_frees_its_tree_and_nothing_else(data):
    """Random ``apply_batch`` and ``replay`` trees grown from two ``start``s:
    releasing a snapshot that is not a root frees exactly it, and releasing
    one root frees all that is left of its tree and none of the other."""
    theory = load_theory(CHAIN_SRC)
    prover = ToyProver()
    tree_of = {}  # token -> the root it descends from
    roots = [prover.start(theory, name)[0] for name in ("t1", "t2")]
    tree_of.update({root: root for root in roots})
    steps = st.lists(st.sampled_from(TREE_STEPS), max_size=3)
    for _ in range(data.draw(st.integers(0, 12), label="calls")):
        live = sorted(tree_of)
        if data.draw(st.booleans(), label="batch"):
            groups = [(token, data.draw(steps, label="steps"))
                      for token in data.draw(st.lists(st.sampled_from(live), min_size=1,
                                                      max_size=3), label="tokens")]
            for (token, _), results in zip(groups, prover.apply_batch(groups)):
                tree_of.update((child, tree_of[token]) for _, child, _ in results if child)
        else:
            token = data.draw(st.sampled_from(live), label="token")
            _, final = prover.replay(token, data.draw(steps, label="steps"))
            if final is not None:
                tree_of[final] = tree_of[token]
    assert prover.stats()["snapshots"] == len(tree_of)
    children = sorted(t for t, root in tree_of.items() if t != root)
    if children:
        child = data.draw(st.sampled_from(children), label="child")
        prover.release([child])
        del tree_of[child]
        assert not _live(prover, child)
        assert all(_live(prover, token) for token in tree_of)
        assert prover.stats()["snapshots"] == len(tree_of)
    gone = data.draw(st.sampled_from(roots), label="released root")
    prover.release([gone])
    assert not any(_live(prover, t) for t, root in tree_of.items() if root == gone)
    kept = [t for t, root in tree_of.items() if root != gone]
    assert all(_live(prover, token) for token in kept)
    assert prover.stats() == {"sessions": 0, "snapshots": len(kept)}


COLLIDING = ("theory t\ntheorem g: p\nend\n", "theory t\ntheorem g: q -> q\nend\n")


def test_same_named_theories_start_from_their_own_goals():
    """Two different theories named ``t``, started in turn and then the
    first again: each start is from its own theory's goal."""
    first, second = (load_theory(source) for source in COLLIDING)
    prover = ToyProver()
    for theory, goal in ((first, "p"), (second, "q -> q"), (first, "p")):
        _, state = prover.start(theory, "g")
        assert render(state.subgoals[0].goal) == goal


@pytest.mark.parametrize("source,line,message", [
    ("", 1, "empty source"),
    ("  # only a comment\n\n", 1, "empty source"),
    ("# c\n\naxiom f: p\n", 3, "expected a theory header first"),
    ("theory\n", 1, "expected: theory <name>"),
    ("\ntheory a b\nend\n", 2, "expected: theory <name>"),
    # reports are named after the theory, so its name must not be a path
    ("theory ../escaped\nend\n", 1, "invalid theory name '../escaped'"),
    ("theory a.b\nend\n", 1, "invalid theory name 'a.b'"),
    ("theory 1abc\nend\n", 1, "invalid theory name '1abc'"),
])
def test_header_errors_keep_their_message_and_line(source, line, message):
    with pytest.raises(TheoryParseError) as error:
        load_theory(source)
    assert (str(error.value), error.value.line) == (f"line {line}: {message}", line)


@pytest.mark.parametrize("seed", [0, 11])
def test_rendered_bench_corpus_parses_back_to_itself(seed):
    """The in-process ``start`` takes the ``Theory`` as built; the wire
    ``start`` takes what its rendering parses to. They agree because
    rendering round-trips."""
    from stepwise.bench import generate_corpus

    for theory in generate_corpus(seed):
        assert load_theory(render_theory(theory)) == theory


def test_apply_parse_error_category(chain_theory):
    prover = ToyProver()
    token, _ = prover.start(chain_theory, "t1")
    [result], final = prover.replay(token, ["frobnicate hard"])
    assert result.category == "parse_error" and final is None


def test_replay_soundness_for_all_ground_truth(chain_theory):
    prover = ToyProver()
    for entry in chain_theory.provable_entries():
        assert entry.proof is not None
        token, _ = prover.start(chain_theory, entry.name)
        results, final = prover.replay(token, entry.proof)
        assert all(r.ok for r in results) and final is not None
        assert results[-1].state.qed


def test_replay_matches_session_apply_and_stores_only_the_final_state(chain_theory):
    """``replay`` gives what stepping a session gives, failure details
    included, stops after the first failure, and stores one snapshot."""
    prover = ToyProver()
    for steps in (["apply [f2]", "apply [f1]"], ["apply [f2]", "apply [f9]", "apply [f1]"],
                  ["simp", "apply [f2]"], [], ["apply [f2]", "apply [f1]", "intro"]):
        token, _ = prover.start(chain_theory, "t1")
        sid = prover.restore(token)
        expected = []
        for step in steps:
            expected.append(prover.apply(sid, step))
            if not expected[-1].ok:
                break
        results, final = prover.replay(token, steps)
        assert results == expected
        assert prover.stats()["snapshots"] == 1 + (final is not None)
        assert (final is not None) == all(r.ok for r in expected)
        if final is not None:
            assert prover.replay(final, [])[0] == []
            assert canonical_state(prover.state(prover.restore(final))) \
                == canonical_state(prover.state(sid))
        prover.close()


def test_filter_soundness_on_ground_truth_paths(chain_theory):
    prover = ToyProver()
    for entry in chain_theory.provable_entries():
        token, _ = prover.start(chain_theory, entry.name)
        assert prover.counterexample_at(token).kind == "none"
        for step in entry.proof:
            [result], token = prover.replay(token, [step])
            assert result.ok
            assert prover.counterexample_at(token).kind == "none"
