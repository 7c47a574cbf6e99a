"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
stream; the shared bench corpus fixtures are session-scoped, so the corpus
and the three-arm comparison run once.
"""

import hashlib
import threading

import numpy as np
import pytest

from conftest import BENCH_SEED, evaluate, naive_first_counterexample, replay_chain
from stepwise.bench import revision_recovery, run_bench
from stepwise.config import EngineConfig
from stepwise.core import canonical_state, parse_step, render_state
from stepwise.evaluation import (
    CompletionCurve,
    RunRecord,
    aes,
    coverage_lines,
    jaccard_similarity,
    sequence_similarity,
)
from stepwise.extraction import extract_pairs
from stepwise.filtering import filter_states
from stepwise.generator import mock_generate
from stepwise.prover import (
    ToyProver,
    apply_step,
    check_counterexample,
    init_goal,
)
from stepwise.protocol import RemoteProver, tcp_server
from stepwise.search import replay_steps, score_node


def verdict(number: int, name: str, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"\n[acceptance] criterion {number} ({name}): PASS{suffix}")


def test_criterion_1_baseline_ordering(bench_result):
    n = len(bench_result.reports)
    assert n >= 200
    auto = bench_result.solved("auto")
    hammer = bench_result.solved("hammer")
    full = bench_result.solved("full")
    assert full > hammer > auto, (full, hammer, auto)
    assert full / n >= 0.80
    assert bench_result.wall_time < 300.0
    verdict(1, "baseline ordering",
            f"full {full}/{n}, hammer {hammer}, auto {auto}, "
            f"wall {bench_result.wall_time:.1f}s")


def test_criterion_2_soundness_of_proved_outcomes(bench_result, bench_corpus):
    by_name = {t.name: t for t in bench_corpus}
    proved = [r for r in bench_result.reports if r["arms"]["full"]]
    assert proved
    for report in proved:
        assert report["steps"] is not None
        fresh = ToyProver()
        steps = [parse_step(s) for s in report["steps"]]
        assert replay_steps(by_name[report["theory"]], "goal", fresh, steps), report["theory"]
    verdict(2, "soundness suite", f"{len(proved)} proofs replayed to QED")


def test_criterion_3_filter_soundness(bench_corpus):
    on_path_states = 0
    for theory in bench_corpus:
        entry = theory.entry("goal")
        state = init_goal(theory, "goal")
        states = [state]
        for step in entry.proof:
            result = apply_step(state, step)
            assert result.ok, f"{theory.name}: ground truth broke at {step.text()}"
            state = result.state
            states.append(state)
        assert state.qed
        items = [(s, check_counterexample(s).kind, _dummy_candidate())
                 for s in states if not s.qed]
        kept, stats = filter_states(items, set())
        assert stats.counterexamples_rejected == 0, theory.name
        on_path_states += len(items)

    # every returned assignment must verify under the independent evaluator
    verified = 0
    for theory in bench_corpus[::7]:
        state = init_goal(theory, "goal")
        for cand in mock_generate(state, EngineConfig(seed=1)):
            result = apply_step(state, cand.step)
            if not result.ok:
                continue
            v = check_counterexample(result.state)
            assert (v.kind == "counterexample") == \
                (naive_first_counterexample(result.state) is not None)
            if v.kind != "counterexample":
                continue
            sub = result.state.subgoals[v.subgoal_index]
            ctx = result.state.context
            assert all(evaluate(f, v.assignment) for f in ctx.facts.values())
            assert all(evaluate(h, v.assignment) for h in sub.hypotheses)
            assert not evaluate(sub.goal, v.assignment)
            assert v.assignment == naive_first_counterexample(result.state)[0]
            verified += 1
    assert verified > 0
    verdict(3, "filter soundness",
            f"0 of {on_path_states} on-path states dropped, "
            f"{verified} assignments re-verified")


def _dummy_candidate():
    from stepwise.core import Candidate, ProofStep

    return Candidate(ProofStep("intro"), -1.0)


def test_criterion_4_revision_recovery(bench_result, bench_corpus):
    solved = [r["theory"] for r in bench_result.reports if r["arms"]["full"]]
    recovery = revision_recovery(bench_corpus, solved, BENCH_SEED, limit=100)
    assert len(recovery.attempted) == 100
    with_revision = len(recovery.solved_with_revision)
    without_revision = len(recovery.solved_without_revision)
    assert with_revision >= 80
    assert without_revision < with_revision
    verdict(4, "revision recovery",
            f"revision on: {with_revision}/100, off: {without_revision}/100")


def test_criterion_5_scoring_unit():
    assert score_node(-3.0, 2, 0.0) == -3.0
    assert score_node(-3.0, 2, 1.0) == -1.5
    rng = np.random.default_rng(BENCH_SEED)
    for _ in range(1000):
        k = int(rng.integers(2, 12))
        log_probs = -rng.random(k) * 6.0
        parent_lp = -float(rng.random() * 5.0)
        length = int(rng.integers(1, 8))
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        shift = -float(rng.random() * 4.0)
        base = [score_node(parent_lp + lp, length + 1, alpha) for lp in log_probs]
        moved = [score_node(parent_lp + lp + shift, length + 1, alpha)
                 for lp in log_probs]
        assert int(np.argmax(base)) == int(np.argmax(moved))
    verdict(5, "scoring", "formula exact; argmax stable on 1000 frontiers")


def test_criterion_6_metrics_exactness():
    literal, saved = aes(CompletionCurve(((0.1, 0.5), (0.5, 1.0))))
    assert abs(literal - 0.30) <= 1e-9
    assert abs(saved - 0.70) <= 1e-9
    # independent recomputation with exact rationals
    from fractions import Fraction

    p1, s1, p2, s2 = Fraction(1, 2), Fraction(1, 10), Fraction(1, 1), Fraction(1, 2)
    assert abs(literal - float(p1 * s1 + (p2 - p1) * s2)) <= 1e-9
    assert abs(saved - float(p1 * (1 - s1) + (p2 - p1) * (1 - s2))) <= 1e-9

    records = [RunRecord("a", "x", 3, True, ("auto",)),
               RunRecord("b", "x", 2, True, ("auto",)),
               RunRecord("c", "x", 5, False)]
    assert coverage_lines(records) == (5, 50.0)

    assert sequence_similarity("abc", "abc") == 1.0
    assert sequence_similarity("abc", "abd") == pytest.approx(2 / 3, abs=1e-9)
    assert sequence_similarity("abc", "xyz") == 0.0
    assert jaccard_similarity("a b", "b c") == pytest.approx(1 / 3, abs=1e-9)
    verdict(6, "metrics exactness", "aes 0.30/0.70, coverage 50.0%, similarities")


def test_criterion_7_extraction_law(bench_corpus):
    from stepwise.core import parse_state

    total_pairs = 0
    for theory in bench_corpus:
        entry = theory.entry("goal")
        result = extract_pairs(theory, ToyProver())
        assert result.failures == [], theory.name
        assert len(result.pairs) == len(entry.proof), theory.name
        context = theory.context_for("goal")
        for pair in result.pairs:
            state = parse_state(pair.state, context)
            outcome = apply_step(state, parse_step(pair.step))
            assert outcome.ok, f"{theory.name}[{pair.index}]"
        total_pairs += len(result.pairs)
    verdict(7, "extraction law", f"{total_pairs} pairs, 100% fidelity")


def test_criterion_8_protocol_differential(bench_corpus):
    tcp = tcp_server()
    threading.Thread(target=tcp.serve_forever, daemon=True).start()
    client = RemoteProver.connect_tcp("127.0.0.1", tcp.server_address[1])
    local = ToyProver()
    stride = max(1, len(bench_corpus) // 50)
    sample = bench_corpus[::stride][:50]
    assert len(sample) == 50
    compared = 0
    try:
        for theory in sample:
            remote_token, remote_root = client.start(theory, "goal")
            local_token, local_root = local.start(theory, "goal")
            assert canonical_state(remote_root) == canonical_state(local_root)
            assert render_state(remote_root) == render_state(local_root)
            steps = list(theory.entry("goal").proof)
            # also exercise failing steps mid-sequence
            probes = [parse_step("apply [no_such_fact]"), parse_step("simp")]
            remote_results, _ = replay_chain(
                client, remote_token, probes + steps, timeout_ms=10_000)
            local_results, _ = replay_chain(local, local_token, probes + steps)
            assert len(remote_results) == len(local_results) == len(probes + steps)
            for step, remote_result, local_result in zip(
                    probes + steps, remote_results, local_results):
                assert remote_result.ok == local_result.ok, (theory.name, step.text())
                if remote_result.ok:
                    assert render_state(remote_result.state) == \
                        render_state(local_result.state)
                else:
                    assert (remote_result.category, remote_result.detail) == \
                        (local_result.category, local_result.detail)
                compared += 1
            assert remote_results[-1].state.qed and local_results[-1].state.qed
            client.release([remote_token])  # the chain's snapshots go with it
        assert client.stats()["snapshots"] == 0
    finally:
        client.close()
        tcp.shutdown()
        tcp.server_close()

    # deadline misses on the token surface (fake server that answers late)
    from test_protocol import _SlowServer

    slow = _SlowServer(delay_s=0.5)
    late_client = RemoteProver.connect_tcp("127.0.0.1", slow.port, grace_ms=100)
    [[(missed_batch, none, _)]] = late_client.apply_batch([("c0", ["intro"])], timeout_ms=50)
    assert (missed_batch.category, none) == ("timeout", None)
    [missed_replay], none = late_client.replay("c0", ["intro"], timeout_ms=50)
    assert (missed_replay.category, none) == ("timeout", None)
    # the next call on the same token succeeds with no restore in between
    [[(result, token, _)]] = late_client.apply_batch([("c0", ["intro"])], timeout_ms=5000)
    assert result.ok and token == "r3.0.0"
    [result], final = late_client.replay("c0", ["intro"], timeout_ms=5000)
    assert result.ok and final == "r4"
    late_client.release(["c0"])
    late_client.init()
    # the third request reads both late replies and drops them unread: their
    # tokens, like the later ones, go with the root's release
    assert slow.releases() == [[], [], [], [], ["c0"]]
    assert slow.commands == ["apply_batch", "replay", "apply_batch", "replay", "init"]
    late_client.transport.close()
    slow.close()
    verdict(8, "protocol differential",
            f"50 theorems, {compared} step results identical; deadline misses verified")


def test_criterion_9_bench_determinism(bench_result):
    again = run_bench(BENCH_SEED)
    assert again.table_text().encode() == bench_result.table_text().encode()
    assert again.csv_text().encode() == bench_result.csv_text().encode()
    verdict(9, "determinism", "tables byte-identical across runs")


# sha256 of the bench table at each seed; a kernel change that alters what
# the pipeline proves, or how, fails here first
PINNED_TABLE_DIGESTS = {
    0: "d32ed4dfa596dedfc769e01b8b6845ddb2a78880c802f5062fd0244476d70cc4",
    BENCH_SEED: "cfb8dc983a725fe872616380111c84c61970c7e72ff96a4280909ffe241cf7da",
}


@pytest.fixture(scope="module")
def bench_by_seed(bench_result):
    return {BENCH_SEED: bench_result, 0: run_bench(0)}


@pytest.mark.parametrize("seed", sorted(PINNED_TABLE_DIGESTS))
def test_bench_tables_match_their_pinned_digests(seed, bench_by_seed):
    digest = hashlib.sha256(bench_by_seed[seed].table_text().encode()).hexdigest()
    assert digest == PINNED_TABLE_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(PINNED_TABLE_DIGESTS))
def test_each_report_counts_its_filter_drops_once(seed, bench_by_seed):
    """The filter counts live in the filtering section alone, on every report."""
    reports = bench_by_seed[seed].reports
    for report in reports:
        assert not any(key.startswith("nodes_filtered") for key in report["stats"])
    assert sum(r["filtering"]["duplicates_rejected"] for r in reports) > 0
    assert sum(r["filtering"]["counterexamples_rejected"] for r in reports) > 0


def test_criterion_10_hammer_complementarity(bench_result):
    complementary = [r for r in bench_result.reports
                     if not r["arms"]["hammer_root"] and r["arms"]["full"]]
    assert complementary
    via_fallback = [r for r in complementary if r["via"] == "fallback"]
    assert via_fallback, "expected at least one proof completed by the fallback"
    for report in via_fallback:
        assert not report["arms"]["auto"]
    verdict(10, "hammer complementarity",
            f"{len(complementary)} theorems beyond the root hammer, "
            f"{len(via_fallback)} closed by search+fallback")
