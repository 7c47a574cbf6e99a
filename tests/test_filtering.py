from stepwise.core import Candidate, FactContext, ProofState, ProofStep, Subgoal
from stepwise.filtering import SeenSet, filter_states, is_duplicate
from stepwise.formulas import parse_formula
from stepwise.prover import check_counterexample


def state_of(goal, hyps=(), ctx=None):
    sub = Subgoal(tuple(parse_formula(h) for h in hyps), parse_formula(goal))
    return ProofState((sub,), ctx if ctx is not None else FactContext({}))


def cand(n=0):
    return Candidate(ProofStep("intro"), -float(n + 1))


def test_is_duplicate_inserts_on_miss():
    seen = SeenSet()
    state = state_of("p")
    assert is_duplicate(state, seen) is False
    assert is_duplicate(state, seen) is True


def test_is_duplicate_catches_permuted_subgoals():
    seen = SeenSet()
    a = ProofState((Subgoal((), parse_formula("p")), Subgoal((), parse_formula("q"))))
    b = ProofState((Subgoal((), parse_formula("q")), Subgoal((), parse_formula("p"))))
    assert not is_duplicate(a, seen)
    assert is_duplicate(b, seen)


def test_is_duplicate_distinguishes_hypotheses():
    seen = SeenSet()
    assert not is_duplicate(state_of("r", ["p"]), seen)
    assert not is_duplicate(state_of("r", ["q"]), seen)


def verdicts(items, atom_limit=16):
    """Each ``(state, candidate)`` pair as a filter item, with the verdict
    ``apply_batch`` would return for the state."""
    return [(state, check_counterexample(state, atom_limit), c) for state, c in items]


def test_filter_drops_duplicates_then_counterexamples():
    seen = SeenSet()
    valid = state_of("p", ["p"])
    falsifiable = state_of("q")
    items = verdicts([(valid, cand(0)), (valid, cand(1)), (falsifiable, cand(2))])
    kept, stats = filter_states(items, seen)
    assert [c.log_prob for _, _, c in kept] == [-1.0]
    assert stats.duplicates_rejected == 1
    assert stats.counterexamples_rejected == 1
    assert stats.unknown_oracle == 0
    assert seen.stats.duplicates_rejected == 1


def test_filter_keeps_unknown_and_counts_it():
    seen = SeenSet()
    wide = state_of("y", [f"x{i}" for i in range(6)])
    kept, stats = filter_states(verdicts([(wide, cand())], atom_limit=3), seen)
    assert len(kept) == 1
    assert stats.unknown_oracle == 1


def test_filter_all_fresh_valid_kept_in_order():
    seen = SeenSet()
    items = verdicts([(state_of("p", ["p"]), cand(0)), (state_of("q", ["q"]), cand(1))])
    kept, stats = filter_states(items, seen)
    assert kept == items
    assert stats.duplicates_rejected == stats.counterexamples_rejected == 0


def test_filter_drop_is_order_monotone():
    falsifiable = state_of("q")
    for position in (0, 1, 2):
        seen = SeenSet()
        items = [(state_of(f"g{i}", [f"g{i}"]), cand(i)) for i in range(3)]
        items.insert(position, (falsifiable, cand(9)))
        kept, stats = filter_states(verdicts(items), seen)
        assert stats.counterexamples_rejected == 1
        assert all(s is not falsifiable for s, _, _ in kept)


def test_filter_reads_the_verdict_of_non_duplicates_only():
    """A duplicate is counted as one whatever its verdict says, and a
    falsified state is still seen: a later copy of it is a duplicate."""
    seen = SeenSet()
    valid, falsifiable = state_of("p", ["p"]), state_of("q")
    items = verdicts([(valid, cand(0)), (falsifiable, cand(1)), (valid, cand(2))])
    kept, stats = filter_states(items, seen)
    assert [c.log_prob for _, _, c in kept] == [-1.0]
    assert (stats.duplicates_rejected, stats.counterexamples_rejected) == (1, 1)
    kept, stats = filter_states(items, seen)
    assert kept == []
    assert (stats.duplicates_rejected, stats.counterexamples_rejected) == (3, 0)
