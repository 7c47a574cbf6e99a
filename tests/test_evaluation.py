from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepwise.evaluation import (
    CompletionCurve,
    RunRecord,
    aes,
    completion_experiment,
    coverage_lines,
    jaccard_similarity,
    length_bucket,
    sequence_similarity,
    success_rate,
)
from stepwise.prover import load_theory


def rec(theorem, proved, length, split="all", session=""):
    return RunRecord(theorem, split, length, proved,
                     ("auto",) if proved else None, session)


# -- success tables -------------------------------------------------------------

def test_success_rate_basic_percentage():
    rows = success_rate([rec(f"t{i}", i < 3, 1) for i in range(4)])
    assert rows[0].proved == 3 and rows[0].total == 4 and rows[0].rate == 75.0


def test_success_rate_empty_records():
    assert success_rate([]) == []


def test_success_rate_group_totals_sum_to_record_count():
    records = [rec(f"t{i}", i % 2 == 0, 1 + i % 7,
                   split=("val" if i % 3 else "test")) for i in range(20)]
    rows = success_rate(records, "split")
    assert sum(r.total for r in rows) == 20


def test_length_buckets():
    assert length_bucket(1) == "1"
    assert length_bucket(2) == "2"
    assert length_bucket(4) == "3-5"
    assert length_bucket(7) == "6-10"
    assert length_bucket(11) == ">10"


def test_success_by_length_bucket_assignment():
    rows = success_rate([rec("t", True, 7)], "length_bucket")
    assert rows[0].group == "6-10"


def test_success_by_session_tag():
    rows = success_rate([rec("t1", True, 1, session="chain"),
                         rec("t2", False, 1, session="case")], "session")
    assert {r.group for r in rows} == {"chain", "case"}


def test_rounding_to_tenth_percent():
    records = [rec(f"t{i}", i < 1, 1) for i in range(3)]  # 1/3 = 33.333...
    assert success_rate(records)[0].rate == 33.3


# -- coverage ---------------------------------------------------------------------

def test_coverage_five_of_ten_lines():
    records = [rec("a", True, 3), rec("b", True, 2), rec("c", False, 5)]
    assert coverage_lines(records) == (5, 50.0)


def test_coverage_extremes():
    nothing = [rec("a", False, 4)]
    assert coverage_lines(nothing) == (0, 0.0)
    everything = [rec("a", True, 4), rec("b", True, 6)]
    lines, percent = coverage_lines(everything)
    assert (lines, percent) == (10, 100.0)


def test_coverage_percent_bounds():
    records = [rec(f"t{i}", i % 2 == 0, 1 + i) for i in range(9)]
    _, percent = coverage_lines(records)
    assert 0.0 <= percent <= 100.0


# -- AES -------------------------------------------------------------------------

def aes_oracle(points):
    """Independent recomputation with exact rational arithmetic."""
    literal = Fraction(0)
    saved = Fraction(0)
    prev = Fraction(0)
    for i, (s, p) in enumerate(points):
        s, p = Fraction(s).limit_denominator(10**9), Fraction(p).limit_denominator(10**9)
        weight = p if i == 0 else p - prev
        literal += weight * s
        saved += weight * (1 - s)
        prev = p
    return float(literal), float(saved)


def test_aes_two_point_fixture_matches_oracle():
    curve = CompletionCurve(((0.1, 0.5), (0.5, 1.0)))
    literal, saved = aes(curve)
    oracle_literal, oracle_saved = aes_oracle(curve.points)
    assert literal == pytest.approx(0.30, abs=1e-9)
    assert saved == pytest.approx(0.70, abs=1e-9)
    assert literal == pytest.approx(oracle_literal, abs=1e-12)
    assert saved == pytest.approx(oracle_saved, abs=1e-12)


def test_aes_single_full_point():
    literal, saved = aes(CompletionCurve(((1.0, 1.0),)))
    assert literal == 1.0 and saved == 0.0


def test_aes_flat_curve_collapses_to_first_term():
    curve = CompletionCurve(((0.2, 0.4), (0.6, 0.4), (0.9, 0.4)))
    literal, _ = aes(curve)
    assert literal == pytest.approx(0.4 * 0.2, abs=1e-12)


def test_aes_rejects_non_ascending_sigma():
    with pytest.raises(ValueError):
        CompletionCurve(((0.5, 0.1), (0.5, 0.2)))
    with pytest.raises(ValueError):
        CompletionCurve(((0.7, 0.1), (0.2, 0.2)))


@settings(max_examples=100)
@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                min_size=1, max_size=6))
def test_aes_bounded_for_monotone_curves(raw):
    sigmas = sorted({round(s, 6) for s, _ in raw})
    if len(sigmas) < len(raw):
        raw = raw[:len(sigmas)]
    rates = sorted(round(p, 6) for _, p in raw)[:len(sigmas)]
    points = tuple(zip(sigmas, rates))
    if not points:
        return
    literal, saved = aes(CompletionCurve(points))
    assert -1e-9 <= literal <= 1 + 1e-9
    assert -1e-9 <= saved <= 1 + 1e-9
    oracle_literal, oracle_saved = aes_oracle(points)
    assert literal == pytest.approx(oracle_literal, abs=1e-9)
    assert saved == pytest.approx(oracle_saved, abs=1e-9)


# -- similarity --------------------------------------------------------------------

def test_sequence_similarity_values():
    assert sequence_similarity("abc", "abc") == 1.0
    assert sequence_similarity("abc", "abd") == pytest.approx(1 - 1 / 3)
    assert sequence_similarity("abc", "xyz") == 0.0
    assert sequence_similarity("", "") == 1.0


def test_jaccard_similarity_values():
    assert jaccard_similarity("a b", "b a") == 1.0
    assert jaccard_similarity("a b", "b c") == pytest.approx(1 / 3)
    assert jaccard_similarity("a b", "c d") == 0.0
    assert jaccard_similarity("", "") == 1.0


def test_jaccard_tokenizes_on_punctuation():
    assert jaccard_similarity("apply [f1, f2]", "apply [f2, f1]") == 1.0


@settings(max_examples=100)
@given(st.text(max_size=20), st.text(max_size=20))
def test_similarities_symmetric_and_bounded(a, b):
    for fn in (sequence_similarity, jaccard_similarity):
        assert fn(a, b) == pytest.approx(fn(b, a))
        assert 0.0 <= fn(a, b) <= 1.0
        assert fn(a, a) == 1.0


# -- completion experiment ------------------------------------------------------------

COMPLETION_THEORY = """theory comp
axiom f1: p
axiom f2: p -> q
theorem t1: q
  proof
    apply [f2]
    apply [f1]
  qed
theorem t2: p -> q -> p
  proof
    intro
    intro
    assumption
  qed
end
"""


def _prove_with_budget(budget_iterations):
    from stepwise.config import EngineConfig
    from stepwise.generator import MockGenerator
    from stepwise.prover import ToyProver
    from stepwise.search import best_first_search

    def prove(theory, name, prefix):
        outcome = best_first_search(
            theory, name, ToyProver(), MockGenerator(EngineConfig(seed=2)),
            EngineConfig(max_iterations=budget_iterations,
                         repair_rounds=0),
            prefix_steps=tuple(prefix))
        return outcome.proved

    return prove


def test_sigma_one_completes_everything():
    theory = load_theory(COMPLETION_THEORY)
    curve, skipped = completion_experiment([theory], [1.0], _prove_with_budget(0))
    assert skipped == []
    assert curve.points == ((1.0, 1.0),)


def test_sigma_zero_equals_plain_search():
    theory = load_theory(COMPLETION_THEORY)
    prove = _prove_with_budget(10)
    curve, _ = completion_experiment([theory], [0.0], prove)
    plain = sum(prove(theory, e.name, ()) for e in theory.provable_entries())
    assert curve.points[0][1] == plain / 2


def test_prefix_length_is_ceiling():
    theory = load_theory(COMPLETION_THEORY)
    seen = []

    def spy(th, name, prefix):
        seen.append((name, len(prefix)))
        return True

    completion_experiment([theory], [0.5], spy)
    assert ("t1", 1) in seen  # ceil(0.5 * 2)
    assert ("t2", 2) in seen  # ceil(0.5 * 3)


def test_curve_monotone_with_fixed_seeds():
    theory = load_theory(COMPLETION_THEORY)
    curve, _ = completion_experiment(
        [theory], [0.0, 0.5, 1.0], _prove_with_budget(10))
    rates = [p for _, p in curve.points]
    assert rates == sorted(rates)


def test_fractions_must_ascend():
    theory = load_theory(COMPLETION_THEORY)
    with pytest.raises(ValueError):
        completion_experiment([theory], [0.5, 0.5], _prove_with_budget(1))
