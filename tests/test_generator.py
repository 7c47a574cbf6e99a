import hashlib
import http.server
import io
import json
import math
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepwise.config import ConfigError, EngineConfig
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
from stepwise.formulas import FALSE, TRUE, And, Atom, Implies, Not, Or, atoms, parse_formula
from stepwise.generator import (
    GeneratorError,
    HttpGenerator,
    MockGenerator,
    build_prompt,
    llm_generate,
    mock_generate,
)


def state_of(goal, ctx=None, extra_subgoals=()):
    subs = (Subgoal((), parse_formula(goal)),) + tuple(
        Subgoal((), parse_formula(g)) for g in extra_subgoals)
    return ProofState(subs, ctx if ctx is not None else FactContext({}))


def ctx_of(**facts):
    return FactContext({k: parse_formula(v) for k, v in facts.items()})


# -- prompt ---------------------------------------------------------------------

def test_prompt_contains_markers_and_state():
    prompt = build_prompt(state_of("p"))
    assert "### Input:" in prompt
    assert "⊢ p" in prompt
    assert prompt.rstrip().endswith("### Response:")
    assert prompt.index("### Input:") < prompt.index("⊢ p") < prompt.index("### Response:")


def test_prompt_byte_stable_for_equal_states():
    a = build_prompt(state_of("p -> q"))
    b = build_prompt(state_of("p -> q"))
    assert a.encode() == b.encode()


def test_prompt_renders_all_subgoals_in_order():
    prompt = build_prompt(state_of("p", extra_subgoals=("q",)))
    assert prompt.index("⊢ p") < prompt.index("⊢ q")


# -- mock generator ----------------------------------------------------------------

def test_mock_deterministic_for_state_and_seed():
    ctx = ctx_of(f1="p -> q", f2="r")
    config = EngineConfig(seed=9)
    a = mock_generate(state_of("q", ctx), config)
    b = mock_generate(state_of("q", ctx), config)
    assert [(c.step.text(), c.log_prob) for c in a] == \
        [(c.step.text(), c.log_prob) for c in b]


def test_mock_overlap_weighting_without_perturbation():
    # weights: apply[f1] = 1 + |{p,q} & {q}| = 2, apply[f2] = 1 + 0 = 1
    ctx = ctx_of(f1="p -> q", f2="r")
    out = mock_generate(state_of("q", ctx), EngineConfig(seed=0, temperature=0.0))
    scores = {c.step.text(): c.log_prob for c in out}
    assert scores["apply [f1]"] > scores["apply [f2]"]
    assert math.isclose(scores["apply [f1]"] - scores["apply [f2]"], math.log(2))


def test_mock_top1_is_max_weight():
    ctx = ctx_of(f1="p -> q", f2="r")
    out = mock_generate(state_of("q", ctx),
                        EngineConfig(seed=0, temperature=0.0, candidates_per_state=1))
    assert len(out) == 1
    assert out[0].step.text() in ("apply [f1]", "elim [f1]")


def test_mock_pool_composition_and_dedup():
    ctx = ctx_of(f1="p")
    out = mock_generate(state_of("p", ctx), EngineConfig(seed=1))
    texts = [c.step.text() for c in out]
    assert len(texts) == len(set(texts))
    assert {"assumption", "intro", "split", "left", "right", "simp", "auto",
            "apply [f1]", "elim [f1]"} == set(texts)


def test_mock_candidates_parse_and_score_nonpositive():
    ctx = ctx_of(f1="p -> q", f2="q | r")
    for cand in mock_generate(state_of("q", ctx), EngineConfig(seed=4)):
        assert parse_step(cand.step.text()).tactic == cand.step.tactic
        assert cand.log_prob <= 0


def test_mock_sorted_descending_with_text_ties():
    ctx = ctx_of()
    out = mock_generate(state_of("p", ctx), EngineConfig(seed=0, temperature=0.0))
    # all weights equal at temperature 0: pure text ordering
    assert [c.step.text() for c in out] == sorted(c.step.text() for c in out)
    scores = [c.log_prob for c in out]
    assert scores == sorted(scores, reverse=True)


def test_mock_empty_for_qed_state():
    assert mock_generate(ProofState((), FactContext({})), EngineConfig(seed=0)) == []


def test_mock_is_function_of_canonical_state():
    ctx = ctx_of(f1="p")
    a = ProofState((Subgoal((parse_formula("a"), parse_formula("b")), parse_formula("p")),), ctx)
    b = ProofState((Subgoal((parse_formula("b"), parse_formula("a")), parse_formula("p")),), ctx)
    config = EngineConfig(seed=5)
    assert [(c.step.text(), c.log_prob) for c in mock_generate(a, config)] == \
        [(c.step.text(), c.log_prob) for c in mock_generate(b, config)]


def naive_mock_generate(state, config):
    """The per-call reference: rebuild the pool and hash each entry's whole
    ``"{seed}|{state key}|{step text}"``."""
    if state.qed:
        return []
    context = state.context
    goal_atoms = atoms(state.subgoals[0].goal)
    pool = [(ProofStep(tactic), 1.0) for tactic in TACTICS if tactic not in FACT_REQUIRED]
    for name in sorted(context.facts):
        overlap = len(atoms(context.facts[name]) & goal_atoms)
        pool.append((ProofStep("apply", (name,)), 1.0 + overlap))
        pool.append((ProofStep("elim", (name,)), 1.0 + overlap))
    key = canonical_state(state)
    weighted = []
    for step, w in pool:
        text = step.text()
        digest = hashlib.sha256(f"{config.seed}|{key}|{text}".encode()).digest()
        u = int.from_bytes(digest[:8], "big") / 2.0**64
        w *= 2.0 ** (config.temperature * (2.0 * u - 1.0))
        weighted.append((text, step, w))
    total = sum(w for _, _, w in weighted)
    scored = [(math.log(w / total), text, step) for text, step, w in weighted]
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [(text, min(lp, 0.0)) for lp, text, _ in scored[:config.candidates_per_state]]


mock_formulas = st.recursive(
    st.one_of(st.sampled_from("pqrs").map(Atom), st.sampled_from((TRUE, FALSE))),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda lr: And(*lr)),
        st.tuples(sub, sub).map(lambda lr: Or(*lr)),
        st.tuples(sub, sub).map(lambda lr: Implies(*lr))),
    max_leaves=4)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text("abxy", min_size=1, max_size=3), mock_formulas, max_size=10),
       st.lists(st.lists(st.tuples(st.lists(mock_formulas, max_size=2), mock_formulas),
                         min_size=1, max_size=3), min_size=1, max_size=4),
       st.integers(0, 2**32), st.floats(0.0, 2.0), st.integers(1, 40))
def test_mock_matches_the_per_call_reference(facts, states, seed, temperature, k):
    """Many states, each of one or more subgoals, over one context whose
    pool is kept after the first: the same texts and scores, in order."""
    context = FactContext(facts)
    config = EngineConfig(seed=seed, temperature=temperature, candidates_per_state=k)
    for subgoals in states:
        state = ProofState(tuple(Subgoal(tuple(h), g) for h, g in subgoals), context)
        got = [(c.step.text(), c.log_prob) for c in mock_generate(state, config)]
        assert got == naive_mock_generate(state, config)


def test_mock_builds_one_pool_per_context():
    ctx = ctx_of(f1="p -> q", f2="r", f3="q & s")
    config = EngineConfig(seed=3)
    pool = None
    for goal in ("q", "r", "p -> q", "s & r", "p | s"):
        for extra in ((), ("q",)):
            state = state_of(goal, ctx, extra)
            assert [(c.step.text(), c.log_prob) for c in mock_generate(state, config)] == \
                naive_mock_generate(state, config)
            pool = pool or ctx.index().mock_pool
            assert ctx.index().mock_pool is pool
    assert [text for _, text, _, _ in pool] == [
        "assumption", "intro", "split", "left", "right", "simp", "auto",
        "apply [f1]", "elim [f1]", "apply [f2]", "elim [f2]", "apply [f3]", "elim [f3]"]


def test_generator_config_validation():
    # the generator's fields are checked where the one config is built
    with pytest.raises(ConfigError):
        EngineConfig(candidates_per_state=0)
    with pytest.raises(ConfigError):
        EngineConfig(top_p=0.0)


# -- remote generator -----------------------------------------------------------------

class _FakeCompletionHandler(http.server.BaseHTTPRequestHandler):
    choices = []
    requests = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _FakeCompletionHandler.requests.append(json.loads(self.rfile.read(length)))
        body = json.dumps({"choices": _FakeCompletionHandler.choices}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def fake_llm():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _FakeCompletionHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _FakeCompletionHandler.requests = []
    yield server, f"http://127.0.0.1:{server.server_address[1]}/v1/completions"
    server.shutdown()
    server.server_close()


def test_llm_dedup_keeps_max_logprob(fake_llm):
    _, endpoint = fake_llm
    _FakeCompletionHandler.choices = [
        {"text": "intro", "token_logprobs": [-0.7, -0.5]},
        {"text": "intro", "token_logprobs": [-1.5]},
        {"text": "split", "token_logprobs": [-2.0]},
    ]
    out = llm_generate(state_of("p"), EngineConfig(endpoint=endpoint))
    assert [(c.step.text(), round(c.log_prob, 6)) for c in out] == [
        ("intro", -1.2), ("split", -2.0)]


def test_llm_first_line_parsing_and_drops(fake_llm):
    _, endpoint = fake_llm
    _FakeCompletionHandler.choices = [
        {"text": "\n  apply [f1]\nauto", "token_logprobs": [-1.0]},
        {"text": "total gibberish here", "token_logprobs": [-0.1]},
    ]
    out = llm_generate(state_of("p"), EngineConfig(endpoint=endpoint))
    assert [c.step.text() for c in out] == ["apply [f1]"]


def test_llm_all_unparseable_raises(fake_llm):
    _, endpoint = fake_llm
    _FakeCompletionHandler.choices = [{"text": "???", "token_logprobs": [-1.0]}]
    with pytest.raises(GeneratorError, match="no sample parsed as a proof step"):
        llm_generate(state_of("p"), EngineConfig(endpoint=endpoint))


def test_llm_rank_fallback_without_logprobs(fake_llm):
    _, endpoint = fake_llm
    _FakeCompletionHandler.choices = [
        {"text": "intro"}, {"text": "split"}, {"text": "auto"}]
    out = llm_generate(state_of("p"), EngineConfig(endpoint=endpoint))
    assert [(c.step.text(), c.log_prob) for c in out] == [
        ("intro", -1.0), ("split", -2.0), ("auto", -3.0)]


def test_llm_sends_sampling_parameters(fake_llm):
    _, endpoint = fake_llm
    _FakeCompletionHandler.choices = [{"text": "intro", "token_logprobs": [-1.0]}]
    config = EngineConfig(endpoint=endpoint, candidates_per_state=32,
                          temperature=0.7, top_p=0.9, max_tokens=512)
    llm_generate(state_of("p"), config)
    sent = _FakeCompletionHandler.requests[-1]
    assert sent["n"] == 32 and sent["temperature"] == 0.7
    assert sent["top_p"] == 0.9 and sent["max_tokens"] == 512
    assert sent["logprobs"] is True
    assert "### Input:" in sent["prompt"]


def test_llm_no_endpoint_error():
    with pytest.raises(GeneratorError):
        llm_generate(state_of("p"), EngineConfig())


def test_an_endpoint_picks_the_http_generator(fake_llm, monkeypatch):
    """The ``endpoint`` key is the one place for the completion URL: set,
    it picks the HTTP generator; unset, the mock, whatever the environment."""
    _, endpoint = fake_llm
    _FakeCompletionHandler.choices = [{"text": "intro", "token_logprobs": [-1.0]}]
    generator = EngineConfig(endpoint=endpoint).make_generator()
    assert isinstance(generator, HttpGenerator)
    assert [c.step.text() for c in generator.generate(state_of("p"))] == ["intro"]
    monkeypatch.setenv("STEPWISE_GENERATOR_ENDPOINT", endpoint)
    assert isinstance(EngineConfig().make_generator(), MockGenerator)
    assert len(_FakeCompletionHandler.requests) == 1


class _Reply(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.mark.parametrize("payload,fault", [
    ([1, 2], "list of choices"),
    ({"choices": "abc"}, "list of choices"),
    ({"choices": [5]}, "no text string"),
    ({"choices": [{"text": 7, "token_logprobs": [-1.0]}]}, "no text string"),
    ({"choices": [{"text": "intro", "token_logprobs": [None, -0.1]}]}, "not a list of numbers"),
    ({"choices": [{"text": "intro", "token_logprobs": "x"}]}, "not a list of numbers"),
    ({"choices": [{"text": "intro", "token_logprobs": [-0.5, float("nan")]}]}, "sum to nan"),
    ({"choices": [{"text": "intro", "token_logprobs": [float("-inf")]}]}, "sum to -inf"),
])
def test_llm_malformed_reply_raises_generator_error(monkeypatch, payload, fault):
    body = json.dumps(payload).encode()
    monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: _Reply(body))
    with pytest.raises(GeneratorError, match=fault) as raised:
        llm_generate(state_of("p"), EngineConfig(endpoint="http://127.0.0.1:9/v1/completions"))
    assert type(raised.value) is GeneratorError


def test_llm_positive_infinite_sum_clamps_to_zero(monkeypatch):
    body = json.dumps({"choices": [{"text": "intro", "token_logprobs": [1e308, 1e308]}]})
    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda request, timeout: _Reply(body.encode()))
    out = llm_generate(state_of("p"), EngineConfig(endpoint="http://127.0.0.1:9/v1/completions"))
    assert [(c.step.text(), c.log_prob) for c in out] == [("intro", 0.0)]


def test_mock_generator_wrapper_applies_config():
    gen = MockGenerator(EngineConfig(seed=2, candidates_per_state=3))
    out = gen.generate(state_of("p"))
    assert len(out) == 3
