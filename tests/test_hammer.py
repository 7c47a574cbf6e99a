from stepwise.core import FactContext, ProofState, Subgoal
from stepwise.filtering import FilterStats
from stepwise.formulas import parse_formula
from stepwise.config import ConfigError, EngineConfig
from stepwise.hammer import hammer_fallback, mesh_rank
from stepwise.prover import ToyProver, load_theory
from stepwise.revision import relevance_filter
from stepwise.search import SearchNode, SearchOutcome, SearchStats


def ctx_of(facts, usage=None):
    return FactContext({k: parse_formula(v) for k, v in facts.items()}, usage)


def state_of(goal, ctx):
    return ProofState((Subgoal((), parse_formula(goal)),), ctx)


# -- mesh ranking ----------------------------------------------------------------

def test_mesh_weight_one_matches_relevance_order():
    ctx = ctx_of({"f1": "p -> q", "f2": "q", "f3": "zz"}, {"f3": 10})
    state = state_of("p", ctx)
    overlap_order = relevance_filter(state, ctx, len(ctx.facts))
    ranked = mesh_rank(state, ctx, len(overlap_order), 1.0)
    assert ranked == overlap_order


def test_mesh_weight_zero_is_usage_frequency_order():
    ctx = ctx_of({"f1": "p", "f2": "p"}, {"f1": 4, "f2": 1})
    ranked = mesh_rank(state_of("p", ctx), ctx, 2, 0.0)
    assert ranked == ["f1", "f2"]


def test_mesh_half_weight_tie_breaks_by_id():
    # f1: overlap rank 1 (score 1.0), never used; f2: no overlap, max usage.
    # combined scores are both 0.5, so the id order decides.
    ctx = ctx_of({"f1": "p", "f2": "zz"}, {"f2": 7})
    ranked = mesh_rank(state_of("p", ctx), ctx, 2, 0.5)
    assert ranked == ["f1", "f2"]


def test_mesh_empty_usage_corpus_scores_zero():
    ctx = ctx_of({"f1": "p", "f2": "q"})
    ranked = mesh_rank(state_of("p", ctx), ctx, 2, 0.0)
    assert ranked == ["f1", "f2"]  # all usage scores 0, id order


# -- fallback ----------------------------------------------------------------------

THEORY = """theory fb
axiom f1: p
axiom f2: p -> q
theorem t1: q
end
"""


def _failed_tree_one_apply_away():
    """A search tree whose best non-root state closes in one hammer step."""
    prover = ToyProver()
    theory = load_theory(THEORY)
    context = theory.context_for("t1")
    token, root_state = prover.start(theory, "t1")
    root = SearchNode(root_state.with_context(context), None, None, 0.0, 0, 0.0, order=0,
                      token=token)
    [[(step, child_token, _)]] = prover.apply_batch([(token, ["apply [f2]"])])
    assert step.ok
    from stepwise.core import Candidate, parse_step

    child = SearchNode(step.state.with_context(context), root,
                       Candidate(parse_step("apply [f2]"), -0.5), -0.5, 1, -0.5,
                       order=1, token=child_token)
    outcome = SearchOutcome(False, (), SearchStats(), [root, child], FilterStats())
    return prover, theory, outcome


def test_fallback_returns_full_replayable_proof():
    prover, theory, outcome = _failed_tree_one_apply_away()
    steps = hammer_fallback(outcome, prover, EngineConfig(hammer_timeout_s=5))
    assert steps is not None
    from stepwise.search import replay_steps

    assert replay_steps(theory, "t1", prover, steps)


def test_fallback_dead_tree_returns_none():
    prover = ToyProver()
    theory = load_theory("theory dead\ntheorem bad: false\nend\n")
    token, state = prover.start(theory, "bad")
    root = SearchNode(state.with_context(theory.context_for("bad")), None, None, 0.0, 0, 0.0,
                      order=0, token=token)
    outcome = SearchOutcome(False, (), SearchStats(), [root], FilterStats())
    assert hammer_fallback(outcome, prover,
                           EngineConfig(hammer_timeout_s=2)) is None


class _RecordingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.tokens = []

    def hammer_at(self, token, config, pool=None):
        self.tokens.append(token)
        return self.inner.hammer_at(token, config, pool)


def test_fallback_m_states_one_tries_only_best():
    prover, theory, outcome = _failed_tree_one_apply_away()
    recorder = _RecordingBackend(prover)
    steps = hammer_fallback(outcome, recorder,
                            EngineConfig(hammer_states=1, hammer_timeout_s=5))
    # the root scores 0.0 and outranks the child; only it may be attempted
    assert recorder.tokens == [outcome.tree[0].token]
    assert steps is not None  # root is itself hammer-closable here (depth 2)


def test_fallback_attempts_in_score_order_and_stops_at_first_hit():
    prover, theory, outcome = _failed_tree_one_apply_away()
    recorder = _RecordingBackend(prover)
    hammer_fallback(outcome, recorder,
                    EngineConfig(hammer_states=2, hammer_depth=1, hammer_timeout_s=5))
    # depth 1 cannot close the root (needs 2 steps) but closes the child
    assert recorder.tokens == [outcome.tree[0].token, outcome.tree[1].token]


def test_fallback_config_validation():
    import pytest

    # the fallback's fields are checked where the one config is built
    with pytest.raises(ConfigError):
        EngineConfig(hammer_states=0)
    with pytest.raises(ConfigError):
        EngineConfig(mesh_weight=1.5)


def test_fallback_only_consulted_after_search_failure():
    from stepwise.engine import prove_theorem

    class _Spy(ToyProver):
        def __init__(self):
            super().__init__()
            self.hammer_calls = 0

        def hammer_at(self, token, config, pool=None):
            self.hammer_calls += 1
            return super().hammer_at(token, config, pool)

    theory = load_theory(THEORY)
    spy = _Spy()
    result = prove_theorem(theory, "t1", EngineConfig(seed=2), backend=spy)
    assert result.proved and result.via == "search"
    assert spy.hammer_calls == 0

    hard = load_theory("theory hard\ntheorem bad: false\nend\n")
    spy2 = _Spy()
    result2 = prove_theorem(hard, "bad",
                            EngineConfig(seed=2, max_iterations=3,
                                         hammer_timeout_s=2.0),
                            backend=spy2)
    assert not result2.proved
    assert spy2.hammer_calls >= 1
