import numpy as np
import pytest

from stepwise.config import EngineConfig
from stepwise.core import EMPTY_CONTEXT, TACTICS, Candidate, ProofState, Subgoal, parse_step
from stepwise.formulas import parse_formula, render
from stepwise.generator import MockGenerator
from stepwise.prover import ToyProver, apply_step, init_goal, load_theory
from stepwise.search import (
    ReplayError,
    SearchNode,
    best_first_search,
    replay_steps,
    score_node,
    select_top_k,
)


class FixedPoolGenerator:
    """Deterministic generator over an explicit candidate pool."""

    def __init__(self, scored_texts):
        self.pool = [Candidate(parse_step(t), lp) for t, lp in scored_texts]

    def generate(self, state):
        return list(self.pool)


def _untimed(stats):
    """Search stats without the wall clock, which no two runs share."""
    return {k: v for k, v in stats.__dict__.items() if k != "wall_time"}


def node(score, order, length=1):
    state = ProofState((Subgoal((), parse_formula("p")),))
    return SearchNode(state, None, None, score, length, score, order=order, token="")


# -- scoring --------------------------------------------------------------------

def test_score_node_exact_formula():
    assert score_node(-1.0 + -2.0, 2, 1.0) == -1.5
    assert score_node(-3.0, 2, 0.0) == -3.0
    assert score_node(-3.0, 2, 1.0) == -1.5
    for alpha in (0.0, 0.5, 1.0, 2.0):
        assert score_node(-0.5, 1, alpha) == -0.5


def test_score_node_rejects_zero_length():
    with pytest.raises(ValueError):
        score_node(-1.0, 0, 1.0)


def test_select_top_k_order_and_marking():
    nodes = [node(-1.0, 0), node(-3.0, 1), node(-2.0, 2)]
    batch = select_top_k(nodes, 2)
    assert [n.score for n in batch] == [-1.0, -2.0]
    assert all(n.explored for n in batch)
    rest = select_top_k(nodes, 2)
    assert [n.score for n in rest] == [-3.0]


def test_select_top_k_tie_breaks_by_insertion():
    first, second = node(-1.0, 0), node(-1.0, 1)
    batch = select_top_k([second, first], 1)
    assert batch == [first]


def test_select_top_k_empty():
    assert select_top_k([], 3) == []


def test_argmax_stable_under_uniform_logprob_shift():
    rng = np.random.default_rng(12)
    for _ in range(200):
        lps = -rng.random(6) * 5
        shift = -float(rng.random() * 3)
        parent_lp = -float(rng.random() * 4)
        length = int(rng.integers(1, 6))
        alpha = float(rng.choice([0.0, 0.5, 1.0]))
        scores = [score_node(parent_lp + lp, length + 1, alpha) for lp in lps]
        shifted = [score_node(parent_lp + lp + shift, length + 1, alpha) for lp in lps]
        assert int(np.argmax(scores)) == int(np.argmax(shifted))


# -- the loop ---------------------------------------------------------------------

DEMO = """theory demo
axiom f1: p
axiom f2: p -> q
theorem t1: q
theorem t2: p -> p
theorem bad: false
end
"""


@pytest.fixture
def demo_theory():
    return load_theory(DEMO)


def test_search_intro_assumption_in_two_iterations(demo_theory):
    generator = FixedPoolGenerator([("intro", -0.1), ("assumption", -0.2)])
    outcome = best_first_search(
        demo_theory, "t2", ToyProver(), generator,
        EngineConfig(top_k=1, max_iterations=10, repair_rounds=0))
    assert outcome.proved
    assert [s.text() for s in outcome.steps] == ["intro", "assumption"]
    assert outcome.stats.iterations == 2


def test_search_false_goal_fails_with_root_counted(demo_theory):
    # derived check first: no tactic makes progress on a bare false goal
    state = init_goal(demo_theory, "bad")
    stuck = ProofState(state.subgoals, context=type(state.context)({}))
    for text in ("assumption", "intro", "split", "left", "right", "simp", "auto"):
        assert not apply_step(stuck, parse_step(text)).ok
    generator = MockGenerator(EngineConfig(seed=3))
    config = EngineConfig(max_iterations=5, node_budget=50)
    outcome = best_first_search(
        load_theory("theory lone\ntheorem bad: false\nend\n"), "bad",
        ToyProver(), generator, config)
    assert not outcome.proved
    assert outcome.stats.nodes_created > 0


def test_search_determinism_including_stats(demo_theory):
    config = EngineConfig(max_iterations=10)
    results = []
    for _ in range(2):
        generator = MockGenerator(EngineConfig(seed=21))
        outcome = best_first_search(demo_theory, "t1", ToyProver(), generator, config)
        results.append((
            outcome.proved,
            tuple(s.text() for s in outcome.steps),
            _untimed(outcome.stats),
            outcome.filter_stats.__dict__.copy(),
        ))
    assert results[0] == results[1]


def test_search_soundness_replay(demo_theory):
    generator = MockGenerator(EngineConfig(seed=1))
    outcome = best_first_search(demo_theory, "t1", ToyProver(), generator,
                                EngineConfig())
    assert outcome.proved
    assert replay_steps(demo_theory, "t1", ToyProver(), outcome.steps)


def test_child_scores_never_exceed_parent_at_alpha_zero(demo_theory):
    generator = MockGenerator(EngineConfig(seed=2))
    outcome = best_first_search(
        demo_theory, "bad", ToyProver(), generator,
        EngineConfig(alpha=0.0, max_iterations=4, filtering_enabled=False))
    for n in outcome.tree:
        if n.parent is not None:
            assert n.score <= n.parent.score + 1e-12


def test_node_budget_compliance():
    theory = load_theory(
        "theory wide\naxiom d1: a | b\naxiom d2: c | d\naxiom d3: e | f\n"
        "theorem hard: z\nend\n")
    generator = MockGenerator(EngineConfig(seed=5))
    config = EngineConfig(max_iterations=50, node_budget=7, filtering_enabled=False)
    outcome = best_first_search(theory, "hard", ToyProver(), generator, config)
    assert not outcome.proved
    assert outcome.stats.nodes_created <= 7


def test_time_limit_zero_returns_failed_fast(demo_theory):
    generator = MockGenerator(EngineConfig(seed=1))
    outcome = best_first_search(demo_theory, "t1", ToyProver(), generator,
                                EngineConfig(time_limit_s=0.0))
    assert not outcome.proved
    assert outcome.stats.iterations == 0


def test_reconstruct_proof_orders_root_to_leaf(demo_theory):
    generator = FixedPoolGenerator([("intro", -0.1), ("assumption", -0.2)])
    outcome = best_first_search(demo_theory, "t2", ToyProver(), generator,
                                EngineConfig(top_k=1, repair_rounds=0))
    assert [s.text() for s in outcome.steps] == ["intro", "assumption"]


def test_prefix_steps_shorten_the_obligation(demo_theory):
    generator = FixedPoolGenerator([("assumption", -0.2)])
    outcome = best_first_search(
        demo_theory, "t2", ToyProver(), generator, EngineConfig(top_k=1),
        prefix_steps=(parse_step("intro"),))
    assert outcome.proved
    assert [s.text() for s in outcome.steps] == ["assumption"]


def test_prefix_full_proof_is_immediately_proved(demo_theory):
    generator = FixedPoolGenerator([])
    outcome = best_first_search(
        demo_theory, "t2", ToyProver(), generator, EngineConfig(),
        prefix_steps=(parse_step("intro"), parse_step("assumption")))
    assert outcome.proved and outcome.steps == ()


def test_prefix_replay_failure_raises(demo_theory):
    with pytest.raises(ReplayError):
        best_first_search(
            demo_theory, "t2", ToyProver(), FixedPoolGenerator([]), EngineConfig(),
            prefix_steps=(parse_step("split"),))


def test_revision_flips_outcome_on_corrupted_scripts():
    from stepwise.bench import CorruptedScriptGenerator, _chain_theory

    theory = _chain_theory("chain", 6, 0)
    for enabled, expected in ((True, True), (False, False)):
        generator = CorruptedScriptGenerator(theory, "goal", seed=13)
        config = EngineConfig(max_iterations=12, repair_rounds=int(enabled),
                              tactic_set=TACTICS)
        outcome = best_first_search(theory, "goal", ToyProver(), generator, config)
        assert outcome.proved is expected


def test_duplicate_filtering_preserves_provability(demo_theory):
    for filtering in (True, False):
        generator = MockGenerator(EngineConfig(seed=8))
        config = EngineConfig(max_iterations=10, node_budget=500,
                              filtering_enabled=filtering)
        outcome = best_first_search(demo_theory, "t1", ToyProver(), generator, config)
        assert outcome.proved


def test_dedup_does_not_change_success_set_on_corpus_sample():
    from stepwise.bench import _case_theory, _chain_theory, _simp_theory, _tautology_theory

    sample = [
        _chain_theory("chain_a", 3, 0),
        _chain_theory("chain_b", 4, 1),
        _case_theory("case_a"),
        _simp_theory("simp_a", 0),
        _simp_theory("simp_b", 1),
        _tautology_theory("taut_a", 2),
    ]
    outcomes = {}
    for filtering in (True, False):
        generator = MockGenerator(EngineConfig(seed=6, temperature=0.3))
        # without dedup the frontier floods with near-duplicates; the node
        # budget caps it and the iteration allowance exhausts what remains
        config = EngineConfig(max_iterations=150, node_budget=400,
                              filtering_enabled=filtering)
        outcomes[filtering] = {
            t.name: best_first_search(t, "goal", ToyProver(), generator, config).proved
            for t in sample
        }
    assert outcomes[True] == outcomes[False]
    assert all(outcomes[True].values())


# -- the search behind the wire ------------------------------------------------

@pytest.fixture
def prover_server():
    """The port of a reference TCP server running in a thread."""
    import threading

    from stepwise.protocol import tcp_server

    tcp = tcp_server()
    threading.Thread(target=tcp.serve_forever, daemon=True).start()
    yield tcp.server_address[1]
    tcp.shutdown()
    tcp.server_close()


def _family(theory):
    return theory.name.rstrip("0123456789").rstrip("_")


def _stride_sample(corpus, n):
    """Every (len // n)-th theory; asserts that each corpus family is in."""
    from stepwise.bench import FAMILY_SIZES

    sample = corpus[::max(1, len(corpus) // n)]
    assert {_family(t) for t in sample} == set(FAMILY_SIZES)
    return sample


def test_prove_theorem_remote_equals_in_process(prover_server):
    from stepwise.bench import bench_engine_config, generate_corpus
    from stepwise.engine import prove_theorem
    from stepwise.protocol import RemoteProver

    config = bench_engine_config(0)
    local = ToyProver()
    remote = RemoteProver.connect_tcp("127.0.0.1", prover_server)
    try:
        sample = _stride_sample(generate_corpus(0), 30)
        via = set()
        for theory in sample:
            ours = prove_theorem(theory, "goal", config, backend=local,
                                 generator=config.make_generator())
            theirs = prove_theorem(theory, "goal", config, backend=remote,
                                   generator=config.make_generator())
            assert (theirs.proved, theirs.via) == (ours.proved, ours.via), theory.name
            assert theirs.report["steps"] == ours.report["steps"], theory.name
            assert _untimed(theirs.outcome.stats) \
                == _untimed(ours.outcome.stats), theory.name
            assert theirs.outcome.filter_stats == ours.outcome.filter_stats, theory.name
            via.add(ours.via)
        assert via == {"search", "fallback"}
    finally:
        remote.close()


def test_in_process_theorem_has_one_context_and_builds_one_index(monkeypatch):
    from stepwise import core
    from stepwise.bench import bench_engine_config, generate_corpus
    from stepwise.engine import prove_theorem

    built = []

    class CountingIndex(core.FactIndex):
        def __init__(self, context):
            built.append(context)
            super().__init__(context)

    monkeypatch.setattr(core, "FactIndex", CountingIndex)
    rewrapped = []
    with_context = core.ProofState.with_context
    monkeypatch.setattr(core.ProofState, "with_context",
                        lambda state, context: rewrapped.append(state) or with_context(state, context))
    config = bench_engine_config(0)
    backend = ToyProver()
    start = backend.start
    roots = []

    def recording_start(theory, theorem_id):
        token, state = start(theory, theorem_id)
        roots.append(state.context)
        return token, state

    backend.start = recording_start
    via = set()
    for theory in _stride_sample(generate_corpus(0), 30):
        built.clear()
        roots.clear()
        result = prove_theorem(theory, "goal", config, backend=backend,
                               generator=config.make_generator())
        via.add(result.via)
        [context] = roots
        assert all(node.state.context is context for node in result.outcome.tree), theory.name
        assert built == [context], theory.name
    assert via == {"search", "fallback"}
    assert rewrapped == []  # an in-process state already carries the context


def test_remote_tree_states_share_the_root_context(prover_server):
    """A state comes off the wire without a context; the search gives each
    the root's, so every node of a remote tree shares that one object."""
    from stepwise.bench import bench_engine_config, generate_corpus
    from stepwise.engine import prove_theorem
    from stepwise.protocol import RemoteProver

    config = bench_engine_config(0)
    remote = RemoteProver.connect_tcp("127.0.0.1", prover_server)
    try:
        sizes = []
        for theory in _stride_sample(generate_corpus(0), 30):
            tree = prove_theorem(theory, "goal", config, backend=remote,
                                 generator=config.make_generator()).outcome.tree
            context = tree[0].state.context
            assert context is not EMPTY_CONTEXT, theory.name
            assert all(node.state.context is context for node in tree), theory.name
            sizes.append(len(tree))
        assert max(sizes) > 1
    finally:
        remote.close()


def test_prove_theorem_leaves_no_backend_objects(prover_server):
    from stepwise.bench import bench_engine_config, generate_corpus
    from stepwise.engine import prove_theorem
    from stepwise.protocol import RemoteProver

    config = bench_engine_config(0)
    by_family: dict = {}
    for theory in generate_corpus(0):
        by_family.setdefault(_family(theory), []).append(theory)
    sample = [family[0] for family in by_family.values()]
    local = ToyProver()
    remote = RemoteProver.connect_tcp("127.0.0.1", prover_server)
    try:
        via = set()
        for theory in sample:
            for backend in (local, remote):
                via.add(prove_theorem(theory, "goal", config, backend=backend,
                                      generator=config.make_generator()).via)
                assert local.stats() == {"sessions": 0, "snapshots": 0}
        assert {"search", "fallback"} <= via
        # the root's release rides on this request, which sees none alive
        stats = remote.stats()
        assert stats["snapshots"] == 0
        assert "release" not in stats["commands"]
    finally:
        remote.close()


class _DownOnSecondCall(FixedPoolGenerator):
    calls = 0

    def generate(self, state):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("generator down")
        return super().generate(state)


class _HammerDown(ToyProver):
    def hammer_at(self, token, config, premises):
        raise RuntimeError("hammer down")


@pytest.mark.parametrize("broken", ["generator", "fallback"])
def test_a_raising_search_or_fallback_leaves_no_snapshots(demo_theory, broken):
    """``intro`` opens a child of the root of ``p -> p`` that is not closed;
    then the generator's second call, or the fallback's hammer, raises. The
    error reaches the caller and the backend holds nothing, so a run that
    goes on with the same backend does not pile up snapshots."""
    from stepwise.engine import prove_theorem

    config = EngineConfig(top_k=1, repair_rounds=0,
                          max_iterations=1 if broken == "fallback" else 100)
    prover = _HammerDown() if broken == "fallback" else ToyProver()
    generator = (FixedPoolGenerator if broken == "fallback" else _DownOnSecondCall)(
        [("intro", -0.1)])
    with pytest.raises(RuntimeError, match="down"):
        prove_theorem(demo_theory, "t2", config, backend=prover, generator=generator)
    assert prover.stats() == {"sessions": 0, "snapshots": 0}


def _timeless(report):
    return {**report, "stats": {k: v for k, v in report["stats"].items() if k != "wall_time"}}


@pytest.mark.parametrize("top_k", [1, 5])
@pytest.mark.parametrize("filtering", [True, False])
@pytest.mark.parametrize("repair_rounds", [1, 2])
def test_prove_theorem_remote_equals_in_process_across_configs(
        prover_server, repair_rounds, filtering, top_k):
    """A second repair round tries the factless ``apply``/``elim`` steps
    that tactic repair builds, so it compares how both paths judge them."""
    from dataclasses import replace

    from stepwise.bench import bench_engine_config, generate_corpus
    from stepwise.engine import prove_theorem
    from stepwise.protocol import RemoteProver

    config = replace(bench_engine_config(0), repair_rounds=repair_rounds,
                     filtering_enabled=filtering, top_k=top_k)
    local = ToyProver()
    remote = RemoteProver.connect_tcp("127.0.0.1", prover_server)
    try:
        for theory in _stride_sample(generate_corpus(0), 22):
            ours = prove_theorem(theory, "goal", config, backend=local,
                                 generator=config.make_generator())
            theirs = prove_theorem(theory, "goal", config, backend=remote,
                                   generator=config.make_generator())
            assert _timeless(theirs.report) == _timeless(ours.report), theory.name
    finally:
        remote.close()


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_replay_and_extraction_leave_no_backend_objects(prover_server, transport):
    from stepwise.bench import generate_corpus
    from stepwise.extraction import extract_pairs
    from stepwise.protocol import RemoteProver

    if transport == "tcp":
        backend = RemoteProver.connect_tcp("127.0.0.1", prover_server)
    else:
        backend = ToyProver()

    def live():
        return backend.stats()["snapshots"]

    def replays():
        if transport == "in_process":
            return 0
        return backend.stats()["commands"].get("replay", {"count": 0})["count"]

    try:
        theory = generate_corpus(0)[0]
        proof = theory.entry("goal").proof
        assert replay_steps(theory, "goal", backend, proof)
        assert live() == 0
        assert not replay_steps(theory, "goal", backend, proof[:1] + proof[:1])
        assert live() == 0
        before = replays()
        assert len(extract_pairs(theory, backend).pairs) == len(proof)
        assert live() == 0
        if transport == "tcp":  # one replay per theorem, and per entry with a proof
            assert (before, replays()) == (2, 3)
    finally:
        if transport == "tcp":
            backend.close()


def test_prefix_replay_opens_only_what_the_search_releases(prover_server):
    from stepwise.protocol import RemoteProver

    remote = RemoteProver.connect_tcp("127.0.0.1", prover_server)
    theory = load_theory(DEMO)
    try:
        for backend in (ToyProver(), remote):
            outcome = best_first_search(
                theory, "t2", backend, FixedPoolGenerator([("assumption", -0.2)]),
                EngineConfig(top_k=1), prefix_steps=(parse_step("intro"),))
            assert outcome.proved
            assert backend.stats()["snapshots"] == 3  # root, prefix, winner
            backend.release([outcome.root])
            with pytest.raises(ReplayError, match="tactic_failure"):
                best_first_search(theory, "t2", backend, FixedPoolGenerator([]),
                                  EngineConfig(), prefix_steps=(parse_step("split"),))
            assert backend.stats()["snapshots"] == 0
    finally:
        remote.close()


def test_search_alone_keeps_its_tree_tokens(demo_theory):
    """The search releases nothing itself; its root's release frees the tree."""
    prover = ToyProver()
    generator = FixedPoolGenerator([("apply [f2]", -0.1), ("intro", -0.2)])
    outcome = best_first_search(demo_theory, "t1", prover, generator,
                                EngineConfig(max_iterations=1, repair_rounds=0))
    assert outcome.root == outcome.tree[0].token and len(outcome.tree) > 1
    for n in outcome.tree:
        assert prover.counterexample_at(n.token).kind == "none"
    prover.release([outcome.root])
    assert prover.stats() == {"sessions": 0, "snapshots": 0}


# -- each distinct step and oracle query crosses once per expansion -------------

class _RecordingProver(ToyProver):
    """Records every (token, step text) pair an ``apply_batch`` carries, and
    each call's groups."""

    def __init__(self):
        super().__init__()
        self.applied = []
        self.calls = []

    def apply_batch(self, groups, timeout_ms=None, atom_limit=None):
        self.calls.append(groups)
        self.applied.extend((token, s.text()) for token, steps in groups for s in steps)
        return super().apply_batch(groups, timeout_ms, atom_limit)


def test_expansion_applies_each_step_to_a_token_once():
    from collections import Counter

    from stepwise.bench import bench_engine_config, generate_corpus
    from stepwise.engine import prove_theorem

    config = bench_engine_config(0)
    prover = _RecordingProver()
    for theory in _stride_sample(generate_corpus(0), 30):
        prove_theorem(theory, "goal", config, backend=prover,
                      generator=config.make_generator())
    assert len(prover.applied) > 1000
    repeats = [pair for pair, n in Counter(prover.applied).items() if n > 1]
    assert repeats == []


def test_a_repeated_candidate_reuses_the_first_result(demo_theory):
    prover = _RecordingProver()
    generator = FixedPoolGenerator([("apply [f2]", -0.1), ("intro", -0.2), ("apply [f2]", -0.3)])
    outcome = best_first_search(demo_theory, "t1", prover, generator,
                                EngineConfig(max_iterations=1, repair_rounds=0))
    assert [step for _, step in prover.applied] == ["apply [f2]", "intro"]
    assert outcome.filter_stats.duplicates_rejected == 1
    assert [n.producing_step.log_prob for n in outcome.tree[1:]] == [-0.1]


@pytest.mark.parametrize("repair_rounds", [0, 1, 2])
def test_only_failures_that_revise_reads_become_failed_attempts(
        monkeypatch, demo_theory, repair_rounds):
    """A node's last round is never repaired, so on a goal no round closes
    the search builds exactly the attempts ``revise`` is handed."""
    from stepwise import search

    built, revised = [], []
    attempt_cls, revise_fn = search.FailedAttempt, search.revise

    def counting_attempt(*args):
        built.append(args)
        return attempt_cls(*args)

    def counting_revise(failures, *args):
        revised.extend(failures)
        return revise_fn(failures, *args)

    monkeypatch.setattr(search, "FailedAttempt", counting_attempt)
    monkeypatch.setattr(search, "revise", counting_revise)
    config = EngineConfig(max_iterations=4, top_k=2, repair_rounds=repair_rounds,
                          tactic_set=TACTICS)
    outcome = best_first_search(demo_theory, "bad", ToyProver(), MockGenerator(config), config)
    assert not outcome.proved
    assert len(built) == len(revised)
    assert (len(revised) > 0) == (repair_rounds > 0)


def test_prove_theorem_over_tcp_sends_no_oracle_or_root_fetch_requests(prover_server):
    """The oracle verdicts ride on ``apply_batch``, ``start`` carries the
    theory and returns the root, and releases ride on the next request, so
    a remote search sends no ``counterexample``, ``state``, ``clone``,
    ``load_theory`` or ``release`` request, one ``apply_batch`` per search
    round at most, and at most 7 requests per theorem."""
    from collections import Counter

    from stepwise.bench import bench_engine_config, generate_corpus
    from stepwise.engine import prove_theorem
    from stepwise.protocol import RemoteProver

    def requests():
        commands = remote.stats()["commands"]
        return Counter({cmd: entry["count"] for cmd, entry in commands.items()
                        if cmd != "stats"})

    config = bench_engine_config(0)
    remote = RemoteProver.connect_tcp("127.0.0.1", prover_server)
    try:
        sample = _stride_sample(generate_corpus(0), 30)
        sent = Counter()
        for theory in sample:
            before = requests()
            result = prove_theorem(theory, "goal", config, backend=remote,
                                   generator=config.make_generator())
            these = requests() - before
            rounds = result.outcome.stats.iterations * (1 + config.repair_rounds)
            assert these["apply_batch"] <= rounds, theory.name
            sent += these
        assert sent["apply_batch"] > len(sample)
        assert sent["start"] == len(sample)
        for cmd in ("counterexample", "state", "clone", "load_theory", "release"):
            assert sent[cmd] == 0, cmd
        assert sum(sent.values()) <= 7 * len(sample)
    finally:
        remote.close()


# -- the round order against a node-by-node reference ---------------------------

def _node_by_node_search(theory, theorem_id, backend, generator, config=EngineConfig(),
                         prefix_steps=()):
    """The search loop as it ran before rounds were batched across nodes:
    each selected node is generated, applied, revised, filtered and
    inserted before the next one is generated. One ``apply_batch`` group
    per node and round. Kept here as the reference the batched loop must
    match."""
    import time

    from stepwise.core import canonical_state
    from stepwise.filtering import FilterStats, filter_states
    from stepwise.revision import FailedAttempt, revise, tactic_frequencies
    from stepwise.search import SearchOutcome, SearchStats, reconstruct_proof

    assert not prefix_steps
    start_time = time.monotonic()
    deadline = start_time + config.time_limit_s
    stats = SearchStats()
    context = theory.context_for(theorem_id)
    tactic_set = config.tactic_set or tactic_frequencies(theory)
    token, root_state = backend.start(theory, theorem_id)
    root_token = token
    root_state = root_state.with_context(context)
    tree = [SearchNode(root_state, None, None, 0.0, 0, 0.0, order=0, token=token)]
    stats.nodes_created = 1
    seen, filtered = {canonical_state(root_state)}, FilterStats()
    oracle_limit = config.atom_limit if config.filtering_enabled else None
    if root_state.qed:
        return SearchOutcome(True, (), stats, tree, filtered, root_token)

    def expand(node, cands, memo, successes, failures):
        fresh = list(dict.fromkeys(c.step for c in cands if c.step not in memo))
        if fresh:
            [results] = backend.apply_batch([(node.token, fresh)], config.step_timeout_ms,
                                            atom_limit=oracle_limit)
            memo.update(zip(fresh, results))
        for cand in cands:
            result, token, verdict = memo[cand.step]
            if not result.ok:
                failures.append(FailedAttempt(node.state, cand.step, cand.log_prob,
                                              result.category))
                continue
            new_state = result.state.with_context(context)
            if new_state.qed:
                return SearchNode(new_state, node, cand, node.path_log_prob + cand.log_prob,
                                  node.length + 1, 0.0, order=-1, token=token)
            successes.append((new_state, verdict, cand, token))
        return None

    while stats.iterations < config.max_iterations and time.monotonic() < deadline:
        batch = select_top_k(tree, config.top_k)
        if not batch:
            break
        stats.iterations += 1
        for node in batch:
            candidates = generator.generate(node.state)[:config.candidates_per_state]
            stats.generator_calls += 1
            memo, successes, failures = {}, [], []
            winner = expand(node, candidates, memo, successes, failures)
            if winner is None:
                round_failures = failures
                for _ in range(config.repair_rounds):
                    repaired = revise(round_failures, tactic_set, config)
                    if not repaired:
                        break
                    stats.revisions_tried += len(repaired)
                    round_failures = []
                    winner = expand(node, repaired, memo, successes, round_failures)
                    if winner is not None:
                        break
            if winner is not None:
                return SearchOutcome(True, tuple(reconstruct_proof(winner)), stats, tree,
                                     filtered, root_token)
            if config.filtering_enabled:
                kept, delta = filter_states(successes, seen)
                filtered.merge(delta)
            else:
                kept = successes
            for state, _, cand, token in kept:
                if stats.nodes_created >= config.node_budget:
                    break
                length = node.length + 1
                path_lp = node.path_log_prob + cand.log_prob
                tree.append(SearchNode(state, node, cand, path_lp, length,
                                       score_node(path_lp, length, config.alpha),
                                       order=stats.nodes_created, token=token))
                stats.nodes_created += 1
    return SearchOutcome(False, (), stats, tree, filtered, root_token)


@pytest.mark.parametrize("top_k", [1, 5])
@pytest.mark.parametrize("filtering", [True, False])
@pytest.mark.parametrize("repair_rounds", [1, 2])
def test_round_order_matches_the_node_by_node_reference(
        monkeypatch, repair_rounds, filtering, top_k):
    from dataclasses import replace

    from stepwise import engine
    from stepwise.bench import bench_engine_config, generate_corpus

    config = replace(bench_engine_config(0), repair_rounds=repair_rounds,
                     filtering_enabled=filtering, top_k=top_k)
    prover = ToyProver()
    sample = _stride_sample(generate_corpus(0), 30)
    ours = [engine.prove_theorem(theory, "goal", config, backend=prover,
                                 generator=config.make_generator()).report
            for theory in sample]
    monkeypatch.setattr(engine, "best_first_search", _node_by_node_search)
    reference = [engine.prove_theorem(theory, "goal", config, backend=prover,
                                      generator=config.make_generator()).report
                 for theory in sample]
    assert [_timeless(r) for r in ours] == [_timeless(r) for r in reference]
    assert prover.stats()["snapshots"] == 0


CROSSED = """theory crossed
axiom fa: a
axiom fb: b
axiom ga: a -> c
axiom gb: b -> c
theorem goal: c
end
"""


class _CrossedGenerator:
    """At the root, ``apply [ga]`` (goal ``a``, the better child) and
    ``apply [gb]`` (goal ``b``). Under ``a`` only a misspelt ``apply [fx]``,
    which premise repair mends; under ``b`` the closing ``apply [fb]``."""

    def generate(self, state):
        goal = render(state.subgoals[0].goal)
        if goal == "c":
            return [Candidate(parse_step("apply [ga]"), -0.1),
                    Candidate(parse_step("apply [gb]"), -0.2)]
        return [Candidate(parse_step("apply [fx]" if goal == "a" else "apply [fb]"), -0.1)]


def test_a_node_winning_in_repair_beats_a_later_node_winning_at_once():
    """In one iteration node 1 closes the goal only in its repair round and
    node 2 closes it in round 0: the proof is node 1's, and node 2 is never
    committed, so that iteration adds one generator call to the root's."""
    theory = load_theory(CROSSED)
    config = EngineConfig(top_k=2, repair_rounds=1)
    outcomes = {}
    for search in (best_first_search, _node_by_node_search):
        prover = _RecordingProver()
        outcome = outcomes[search] = search(theory, "goal", prover, _CrossedGenerator(), config)
        assert outcome.proved, search
        assert [s.text() for s in outcome.steps] == ["apply [ga]", "apply [fa]"]
        assert outcome.stats.iterations == 2
        assert outcome.stats.generator_calls == 2  # the root, then node 1 alone
        prover.release([outcome.root])
        assert prover.stats()["snapshots"] == 0
        if search is best_first_search:
            # node 2's closing step went in the same request as node 1's
            # failing one; node 1's repairs went alone after it
            a_node, b_node = outcome.tree[1:3]
            assert [[(token, [s.text() for s in steps]) for token, steps in groups]
                    for groups in prover.calls[1:]] == [
                [(a_node.token, ["apply [fx]"]), (b_node.token, ["apply [fb]"])],
                [(a_node.token, ["apply [fa]", "apply [fb]", "apply [ga]"])]]
    batched, reference = outcomes.values()
    assert _untimed(batched.stats) == _untimed(reference.stats)


def test_seed_0_bench_totals_are_pinned():
    from stepwise.bench import bench_engine_config, generate_corpus
    from stepwise.engine import prove_theorem

    config = bench_engine_config(0)
    prover = ToyProver()
    totals = dict.fromkeys(("iterations", "nodes_created", "generator_calls",
                            "duplicates_rejected", "counterexamples_rejected",
                            "revisions_tried"), 0)
    for theory in generate_corpus(0):
        report = prove_theorem(theory, "goal", config, backend=prover,
                               generator=config.make_generator()).report
        counts = {**report["stats"], **report["filtering"]}
        for key in totals:
            totals[key] += counts[key]
    assert totals == {"iterations": 596, "nodes_created": 1771, "generator_calls": 1026,
                      "duplicates_rejected": 1853, "counterexamples_rejected": 75,
                      "revisions_tried": 15010}
