import http.server
import json
import math
import threading

import pytest

from stepwise.core import FactContext, ProofState, Subgoal, parse_step
from stepwise.formulas import parse_formula
from stepwise.generator import (
    EmptyGenerationError,
    GeneratorConfig,
    GeneratorError,
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
    config = GeneratorConfig(seed=9)
    a = mock_generate(state_of("q", ctx), config)
    b = mock_generate(state_of("q", ctx), config)
    assert [(c.step.text(), c.log_prob) for c in a] == \
        [(c.step.text(), c.log_prob) for c in b]


def test_mock_overlap_weighting_without_perturbation():
    # weights: apply[f1] = 1 + |{p,q} & {q}| = 2, apply[f2] = 1 + 0 = 1
    ctx = ctx_of(f1="p -> q", f2="r")
    out = mock_generate(state_of("q", ctx), GeneratorConfig(seed=0, temperature=0.0))
    scores = {c.step.text(): c.log_prob for c in out}
    assert scores["apply [f1]"] > scores["apply [f2]"]
    assert math.isclose(scores["apply [f1]"] - scores["apply [f2]"], math.log(2))


def test_mock_top1_is_max_weight():
    ctx = ctx_of(f1="p -> q", f2="r")
    out = mock_generate(state_of("q", ctx),
                        GeneratorConfig(seed=0, temperature=0.0, n_candidates=1))
    assert len(out) == 1
    assert out[0].step.text() in ("apply [f1]", "elim [f1]")


def test_mock_pool_composition_and_dedup():
    ctx = ctx_of(f1="p")
    out = mock_generate(state_of("p", ctx), GeneratorConfig(seed=1))
    texts = [c.step.text() for c in out]
    assert len(texts) == len(set(texts))
    assert {"assumption", "intro", "split", "left", "right", "simp", "auto",
            "apply [f1]", "elim [f1]"} == set(texts)


def test_mock_candidates_parse_and_score_nonpositive():
    ctx = ctx_of(f1="p -> q", f2="q | r")
    for cand in mock_generate(state_of("q", ctx), GeneratorConfig(seed=4)):
        assert parse_step(cand.step.text()).tactic == cand.step.tactic
        assert cand.log_prob <= 0


def test_mock_sorted_descending_with_text_ties():
    ctx = ctx_of()
    out = mock_generate(state_of("p", ctx), GeneratorConfig(seed=0, temperature=0.0))
    # all weights equal at temperature 0: pure text ordering
    assert [c.step.text() for c in out] == sorted(c.step.text() for c in out)
    scores = [c.log_prob for c in out]
    assert scores == sorted(scores, reverse=True)


def test_mock_empty_for_qed_state():
    assert mock_generate(ProofState((), FactContext({})), GeneratorConfig(seed=0)) == []


def test_mock_is_function_of_canonical_state():
    ctx = ctx_of(f1="p")
    a = ProofState((Subgoal((parse_formula("a"), parse_formula("b")), parse_formula("p")),), ctx)
    b = ProofState((Subgoal((parse_formula("b"), parse_formula("a")), parse_formula("p")),), ctx)
    config = GeneratorConfig(seed=5)
    assert [(c.step.text(), c.log_prob) for c in mock_generate(a, config)] == \
        [(c.step.text(), c.log_prob) for c in mock_generate(b, config)]


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n_candidates=0)
    with pytest.raises(ValueError):
        GeneratorConfig(top_p=0.0)


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
    out = llm_generate(state_of("p"), GeneratorConfig(endpoint=endpoint))
    assert [(c.step.text(), round(c.log_prob, 6)) for c in out] == [
        ("intro", -1.2), ("split", -2.0)]


def test_llm_first_line_parsing_and_drops(fake_llm):
    _, endpoint = fake_llm
    _FakeCompletionHandler.choices = [
        {"text": "\n  apply [f1]\nauto", "token_logprobs": [-1.0]},
        {"text": "total gibberish here", "token_logprobs": [-0.1]},
    ]
    out = llm_generate(state_of("p"), GeneratorConfig(endpoint=endpoint))
    assert [c.step.text() for c in out] == ["apply [f1]"]


def test_llm_all_unparseable_raises(fake_llm):
    _, endpoint = fake_llm
    _FakeCompletionHandler.choices = [{"text": "???", "token_logprobs": [-1.0]}]
    with pytest.raises(EmptyGenerationError):
        llm_generate(state_of("p"), GeneratorConfig(endpoint=endpoint))


def test_llm_rank_fallback_without_logprobs(fake_llm):
    _, endpoint = fake_llm
    _FakeCompletionHandler.choices = [
        {"text": "intro"}, {"text": "split"}, {"text": "auto"}]
    out = llm_generate(state_of("p"), GeneratorConfig(endpoint=endpoint))
    assert [(c.step.text(), c.log_prob) for c in out] == [
        ("intro", -1.0), ("split", -2.0), ("auto", -3.0)]


def test_llm_sends_sampling_parameters(fake_llm):
    _, endpoint = fake_llm
    _FakeCompletionHandler.choices = [{"text": "intro", "token_logprobs": [-1.0]}]
    config = GeneratorConfig(endpoint=endpoint, n_candidates=32,
                             temperature=0.7, top_p=0.9, max_tokens=512)
    llm_generate(state_of("p"), config)
    sent = _FakeCompletionHandler.requests[-1]
    assert sent["n"] == 32 and sent["temperature"] == 0.7
    assert sent["top_p"] == 0.9 and sent["max_tokens"] == 512
    assert sent["logprobs"] is True
    assert "### Input:" in sent["prompt"]


def test_llm_no_endpoint_error(monkeypatch):
    monkeypatch.delenv("STEPWISE_GENERATOR_ENDPOINT", raising=False)
    with pytest.raises(GeneratorError):
        llm_generate(state_of("p"), GeneratorConfig())


def test_llm_endpoint_from_environment(fake_llm, monkeypatch):
    _, endpoint = fake_llm
    _FakeCompletionHandler.choices = [{"text": "intro", "token_logprobs": [-1.0]}]
    monkeypatch.setenv("STEPWISE_GENERATOR_ENDPOINT", endpoint)
    out = llm_generate(state_of("p"), GeneratorConfig())
    assert out[0].step.text() == "intro"


def test_mock_generator_wrapper_applies_config():
    gen = MockGenerator(GeneratorConfig(seed=2, n_candidates=3))
    out = gen.generate(state_of("p"))
    assert len(out) == 3
