import gc
import inspect
import io
import json
import random
import re
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import naive_first_counterexample, random_formula, replay_chain
from stepwise.core import ERROR_CATEGORIES, ProofStep, Theory, canonical_state
from stepwise.formulas import render
from stepwise.prover import (
    CexResult,
    ToyProver,
    TheoryParseError,
    check_counterexample,
    load_theory,
)
from stepwise.protocol import (
    COMMANDS,
    PROTOCOL_VERSION,
    BackendError,
    ProtocolError,
    ProverServer,
    RemoteProver,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

THEORY = """theory proto
axiom f1: p
axiom f2: p -> q
axiom d: a | q
theorem t1: q
theorem t2: p -> p
end
"""
PROTO = load_theory(THEORY)


@pytest.fixture
def tcp_server():
    server = ProverServer(trace=False)
    tcp = server.tcp_server(port=0)
    thread = threading.Thread(target=tcp.serve_forever, daemon=True)
    thread.start()
    yield tcp.server_address[1]
    tcp.shutdown()
    tcp.server_close()


@pytest.fixture
def client(tcp_server):
    remote = RemoteProver.connect_tcp("127.0.0.1", tcp_server)
    yield remote
    remote.close()


# -- codec ---------------------------------------------------------------------

json_scalars = st.one_of(st.integers(), st.booleans(),
                         st.text(max_size=20), st.none())
payloads = st.dictionaries(st.text(min_size=1, max_size=8), json_scalars, max_size=4)


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=10**9),
       st.sampled_from(("init", "apply_batch", "replay", "hammer")),
       payloads,
       st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
       st.lists(st.text(max_size=8), max_size=3).map(tuple))
def test_request_codec_round_trip(rid, cmd, payload, timeout_ms, release):
    req = Request(rid, cmd, payload, timeout_ms, release)
    line = encode_request(req)
    assert "\n" not in line
    assert decode_request(line) == req


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=10**9), st.booleans(), payloads,
       st.text(max_size=30))
def test_response_codec_round_trip(rid, ok, payload, detail):
    if ok:
        resp = Response(rid, True, payload)
    else:
        resp = Response(rid, False, None, {"category": "tactic_failure", "detail": detail})
    line = encode_response(resp)
    assert "\n" not in line
    assert decode_response(line) == resp


def test_encode_escapes_embedded_newlines():
    req = Request(1, "replay", {"token": "c0", "steps": ["intro\nassumption"]})
    line = encode_request(req)
    assert "\n" not in line
    assert decode_request(line).payload["steps"] == ["intro\nassumption"]


def test_response_exactly_one_of_payload_error():
    with pytest.raises(ValueError):
        Response(1, True, None)
    with pytest.raises(ValueError):
        Response(1, True, {"a": 1}, {"category": "x", "detail": ""})
    with pytest.raises(ValueError):
        Response(1, False, {"a": 1}, None)


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError):
        decode_request("not json at all")
    with pytest.raises(ProtocolError):
        decode_response('{"ok": true}')


@pytest.mark.parametrize("timeout_ms", [0, -1])
def test_timeout_below_one_ms_is_protocol_error(timeout_ms):
    """A budget of 0 would read as the 10 s default and -1 as a budget
    already spent; neither is a budget, so the request names its id."""
    line = json.dumps({"id": 7, "cmd": "replay", "payload": {"token": "c0", "steps": ["auto"]},
                       "timeout_ms": timeout_ms})
    with pytest.raises(ProtocolError) as err:
        decode_request(line)
    assert err.value.offending_id == 7 and "timeout_ms" in str(err.value)
    server = ProverServer(trace=False)
    token, _ = server.prover.start(PROTO, "t2")
    response, _ = server.handle_line(line.replace('"c0"', json.dumps(token)))
    assert (response.id, response.ok) == (7, False)
    assert response.error["category"] == "protocol_error"
    assert server.prover.stats()["snapshots"] == 1


@pytest.mark.parametrize("release", ["c0", [1], ["c0", None], {"c0": 1}])
def test_malformed_release_field_is_protocol_error(release):
    line = json.dumps({"id": 3, "cmd": "init", "payload": {}, "release": release})
    with pytest.raises(ProtocolError) as err:
        decode_request(line)
    assert err.value.offending_id == 3


def test_deeply_nested_lines_are_protocol_errors_both_ways():
    """The JSON decoder recurses per nesting level; a reply nested past the
    interpreter's limit is a malformed line, as a request is."""
    for nested in ("[" * 200_000, "[" * 200_000 + "]" * 200_000):
        with pytest.raises(ProtocolError):
            decode_response('{"id": 1, "ok": true, "payload": ' + nested + "}")
        with pytest.raises(ProtocolError):
            decode_request('{"id": 1, "cmd": "init", "payload": ' + nested + "}")


# -- server behaviour over TCP ---------------------------------------------------

def test_apply_matches_in_process_results(client):
    """Steps chained one ``replay`` at a time give the same results, with
    the same failure details, on both paths."""
    local = ToyProver()
    texts = ("intro", "apply [f2]", "apply [ghost]", "elim [d]", "simp")
    remote, _ = replay_chain(client, client.start(PROTO, "t1")[0], texts, 3000)
    here, _ = replay_chain(local, local.start(PROTO, "t1")[0], texts)
    assert [r.ok for r in here] == [False, True, False, True, False]
    for remote_result, local_result in zip(remote, here):
        assert remote_result.ok == local_result.ok
        if remote_result.ok:
            assert canonical_state(remote_result.state) \
                == canonical_state(local_result.state)
        else:
            assert (remote_result.category, remote_result.detail) \
                == (local_result.category, local_result.detail)


def test_undefined_fact_error_echoes_the_name(client):
    token, _ = client.start(PROTO, "t1")
    [result], final = client.replay(token, ["apply [missing_lemma]"], timeout_ms=3000)
    assert result.category == "undefined_fact" and final is None
    assert "missing_lemma" in result.detail


def test_replay_tokens_round_trip(client):
    """``replay`` leaves the addressed snapshot as it was, and its token
    addresses the chain's final state."""
    root, root_state = client.start(PROTO, "t1")
    first, mid = client.replay(root, ["apply [f2]"], timeout_ms=3000)
    again, other = client.replay(root, ["apply [f2]"], timeout_ms=3000)
    assert canonical_state(first[0].state) == canonical_state(again[0].state) \
        != canonical_state(root_state)
    assert mid != other
    [closed], final = client.replay(mid, ["apply [f1]"], timeout_ms=3000)
    assert closed.state.qed and final is not None
    assert client.replay(final, [], timeout_ms=3000)[0] == []
    client.release([root, mid, other, final])
    assert client.stats()["snapshots"] == 1  # the empty replay's


def test_counterexample_and_hammer_over_wire(client):
    token, _ = client.start(PROTO, "t1")
    [[(_, child, verdict)]] = client.apply_batch([(token, ["apply [f2]"])], timeout_ms=3000,
                                                  atom_limit=16)
    assert verdict.kind == "none"  # p follows from f1
    client.release([child])
    result = client.hammer_at(token)
    assert result.found
    replayed, final = client.replay(token, result.steps, timeout_ms=3000)
    assert all(r.ok for r in replayed) and replayed[-1].state.qed and final is not None


def test_counterexample_atom_limit_out_of_range_is_protocol_error(client):
    token, _ = client.start(load_theory("theory tiny\naxiom f: p\ntheorem t: p -> q\nend\n"), "t")
    with pytest.raises(BackendError) as err:
        client.apply_batch([(token, ["intro"])], timeout_ms=3000, atom_limit=1_000_000)
    assert err.value.category == "protocol_error"
    assert "atom_limit" in str(err.value)
    # the connection and the snapshot still work
    [[(_, _, verdict)]] = client.apply_batch([(token, ["intro"])], timeout_ms=3000,
                                             atom_limit=16)
    assert verdict.kind == "counterexample" and verdict.assignment == {"p": True, "q": False}


def _counts(client):
    """Requests per command the server has answered before this ``stats``."""
    return {cmd: entry["count"] for cmd, entry in client.stats()["commands"].items()}


def test_malformed_start_source_is_a_parse_error_naming_its_line(client):
    """The server parses what ``start`` carries, header and body alike, and
    answers a bad source with the parser's message and line."""
    for source, detail in (
            ("theory a b\ntheorem g: p\nend\n", "line 1: expected: theory <name>"),
            ("theory broken\ntheorem g: p ->\nend\n", "line 2: ")):
        with pytest.raises(TheoryParseError) as want:
            load_theory(source)
        with pytest.raises(BackendError) as err:
            client._expect(client._call("start", payload={"source": source, "theorem": "g"}))
        assert (err.value.category, err.value.detail) == ("parse_error", str(want.value))
        assert err.value.detail.startswith(detail)
    with pytest.raises(BackendError) as err:
        client.start(PROTO, "nowhere")
    assert err.value.category == "unknown_theorem"
    assert _counts(client) == {"start": 3}
    assert client.stats()["snapshots"] == 0


def test_theory_names_do_not_collide_across_connections(tcp_server):
    """Two clients start from different theories both named ``t``, the
    first again after the second: each starts from its own theory's goal.
    ``stats`` counts the requests of both connections."""
    from test_prover import COLLIDING

    clients = [RemoteProver.connect_tcp("127.0.0.1", tcp_server) for _ in COLLIDING]
    try:
        for _ in range(2):
            for client, source, goal in zip(clients, COLLIDING, ("p", "q -> q")):
                token, state = client.start(load_theory(source), "g")
                assert render(state.subgoals[0].goal) == goal
                # the server's snapshot holds the same goal: only q -> q takes intro
                [[(result, child, verdict)]] = client.apply_batch(
                    [(token, ["intro"])], timeout_ms=3000, atom_limit=16)
                assert (result.ok, verdict) == ((False, None) if goal == "p"
                                                else (True, CexResult.none()))
                client.release([t for t in (token, child) if t is not None])
        assert _counts(clients[0]) == {"start": 4, "apply_batch": 4}
    finally:
        for client in clients:
            client.close()


def test_unknown_session_is_backend_error(client):
    """An unknown token fails the whole command with ``unknown_session``."""
    for call in (lambda: client.replay("nonexistent", ["intro"], timeout_ms=3000),
                 lambda: client.hammer_at("nonexistent")):
        with pytest.raises(BackendError) as err:
            call()
        assert err.value.category == "unknown_session"


def test_stats_command_reports_live_objects_and_commands(client):
    before = client.stats()
    assert (before["sessions"], before["snapshots"]) == (0, 0)
    token, _ = client.start(PROTO, "t1")
    client.apply_batch([(token, ["intro", "apply [f2]"])], timeout_ms=3000)
    stats = client.stats()
    assert (stats["sessions"], stats["snapshots"]) == (0, 2)
    commands = stats["commands"]
    for cmd in ("start", "apply_batch"):
        assert commands[cmd]["count"] == 1 and commands[cmd]["ms"] >= 0.0
    assert commands["stats"]["count"] == 1  # the earlier call, not this one
    assert "restore" not in commands and "load_theory" not in commands


def test_apply_batch_over_wire_matches_in_process(client):
    local = ToyProver()
    steps = ["intro", "apply [ghost]", "elim [d]", "simp", "apply [f2]", "apply [f1]"]
    [remote] = client.apply_batch([(client.start(PROTO, "t1")[0], steps)], timeout_ms=3000)
    [here] = local.apply_batch([(local.start(PROTO, "t1")[0], steps)], 3000)
    assert len(remote) == len(here) == len(steps)
    for (r, r_token, _), (h, h_token, _) in zip(remote, here):
        assert r.ok == h.ok and (r_token is None) == (h_token is None)
        if r.ok:
            assert canonical_state(r.state) == canonical_state(h.state)
        else:
            assert r.category == h.category and r.detail == h.detail == ""
    # a success token addresses its state, and a zero-subgoal success ends the batch
    [[(closed, closed_token, _)]] = client.apply_batch(
        [(remote[4][1], ["apply [f1]", "intro"])], timeout_ms=3000)
    assert closed.state.qed and closed_token is not None
    with pytest.raises(BackendError) as err:
        client.apply_batch([(remote[4][1], ["intro"]), ("c404", ["intro"])], timeout_ms=3000)
    assert err.value.category == "unknown_session"


def test_grouped_apply_batch_over_wire_matches_in_process(client):
    """One request for several snapshots gives each group what in-process
    gives it, and an empty group an empty list."""
    local = ToyProver()
    remote_roots = [client.start(PROTO, t)[0] for t in ("t1", "t2")]
    local_roots = [local.start(PROTO, t)[0] for t in ("t1", "t2")]
    steps = (["apply [f2]", "intro", "apply [f1]"], ["intro", "auto", "simp"], [])
    remote = client.apply_batch(list(zip(remote_roots + remote_roots[:1], steps)),
                                timeout_ms=3000, atom_limit=16)
    here = local.apply_batch(list(zip(local_roots + local_roots[:1], steps)), 3000, 16)
    assert [len(group) for group in remote] == [len(group) for group in here] == [3, 2, 0]
    for remote_group, local_group in zip(remote, here):
        for (r, r_token, r_verdict), (h, h_token, h_verdict) in zip(remote_group, local_group):
            assert (r.ok, r.category, r_verdict) == (h.ok, h.category, h_verdict)
            assert (r_token is None) == (h_token is None)
            if r.ok:
                assert canonical_state(r.state) == canonical_state(h.state)
    assert _counts(client)["apply_batch"] == 1


def test_token_addressed_oracles_open_no_session(client):
    token, _ = client.start(PROTO, "t1")
    result = client.hammer_at(token)
    assert result.found
    stats = client.stats()
    assert (stats["sessions"], stats["snapshots"]) == (0, 1)
    assert "restore" not in stats["commands"]
    client.release([token, "never_issued"])
    assert (client.stats()["snapshots"]) == 0


def test_counterexample_batch_over_wire_matches_in_process(client):
    """On the successes of random theories, the verdicts ``apply_batch``
    returns are the same on both paths and agree with the naive oracle."""
    rng = random.Random(5)
    local = ToyProver()
    steps = ["intro", "split", "elim [f0]", "left", "right", "simp"]
    kinds = set()
    for i in range(25):
        axioms = [f"axiom f{k}: {render(random_formula(rng, rng.randint(1, 3)))}"
                  for k in range(rng.randint(0, 3))]
        goal = render(random_formula(rng, rng.randint(1, 5)))
        source = "\n".join([f"theory rand{i}", *axioms, f"theorem t: {goal}", "end"]) + "\n"
        theory = load_theory(source)
        here, _ = local.start(theory, "t")
        there, _ = client.start(theory, "t")
        for atom_limit in (2, 16):
            [local_results] = local.apply_batch([(here, steps)], 3000, atom_limit)
            [remote_results] = client.apply_batch([(there, steps)], timeout_ms=3000,
                                                  atom_limit=atom_limit)
            assert [v for _, _, v in remote_results] == [v for _, _, v in local_results]
            for result, _, verdict in local_results:
                if verdict is None:
                    continue
                kinds.add(verdict.kind)
                if verdict.kind == "counterexample":
                    assert (verdict.assignment, verdict.subgoal_index) \
                        == naive_first_counterexample(result.state)
                elif verdict.kind == "none":
                    assert naive_first_counterexample(result.state) is None
            local.release([t for _, t, _ in local_results if t is not None])
            client.release([t for _, t, _ in remote_results if t is not None])
    assert kinds == {"none", "counterexample", "unknown"}
    assert "counterexample" not in client.stats()["commands"]


def test_unknown_command_rejected(client):
    with pytest.raises(BackendError):
        client._expect(client._call("frobnicate"))


def test_malformed_request_line_gets_protocol_error():
    server = ProverServer(trace=False)
    response, shutdown = server.handle_line("this is not json")
    assert not shutdown
    assert response.ok is False
    assert response.error["category"] == "protocol_error"


def test_replay_reply_carries_states_and_failure_details(client):
    token, _ = client.start(PROTO, "t1")
    reply = client._expect(client._call("replay", payload={
        "token": token, "steps": ["apply [f2]", "apply [ghost]", "apply [f1]"]}))
    opened, failed = reply["results"]  # the step after the failure never runs
    assert opened == {"subgoals": [{"hyps": [], "goal": "p"}], "depth": 1}
    assert failed["category"] == "undefined_fact" and "ghost" in failed["detail"]
    assert "token" not in reply
    done = client._expect(client._call("replay", payload={
        "token": token, "steps": ["apply [f2]", "apply [f1]"]}))
    assert done["results"][-1]["subgoals"] == [] and isinstance(done["token"], str)
    # only the final state is stored
    assert client.stats()["snapshots"] == 2


def test_factless_apply_and_elim_text_fail_as_the_step_does(client):
    """``parse_step`` rejects a bare ``apply``/``elim``, but tactic repair
    builds such steps directly; their text gets the same verdict."""
    local = ToyProver()
    local_token, _ = local.start(PROTO, "t1")
    token, _ = client.start(PROTO, "t1")
    for tactic in ("apply", "elim"):
        [expected], _ = local.replay(local_token, [ProofStep(tactic)])
        assert expected.category == "tactic_failure"
        for text in (tactic, f" {tactic} "):
            assert local.replay(local_token, [text]) == ([expected], None)
            assert client.replay(token, [text], timeout_ms=3000) == ([expected], None)
        [[(batched, _, _)]] = client.apply_batch([(token, [ProofStep(tactic)])], timeout_ms=3000)
        assert batched.category == "tactic_failure"
    # every other text the parser rejects stays a parse error
    for text in ("apply []", "apply [f2", "elim [,]"):
        [result], _ = client.replay(token, [text], timeout_ms=3000)
        assert result.category == "parse_error"


@pytest.fixture(scope="module")
def both_paths():
    """Every tenth bench-corpus theory, an in-process prover and a client of
    a TCP server."""
    from stepwise.bench import generate_corpus

    tcp = ProverServer(trace=False).tcp_server(port=0)
    threading.Thread(target=tcp.serve_forever, daemon=True).start()
    remote = RemoteProver.connect_tcp("127.0.0.1", tcp.server_address[1])
    local = ToyProver()
    theories = generate_corpus(0)[::10]
    yield theories, local, remote
    remote.close()
    tcp.shutdown()
    tcp.server_close()


TACTICS = ("assumption", "intro", "split", "left", "right", "simp", "auto", "apply", "elim")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_built_steps_round_trip_or_get_the_same_verdict_on_both_paths(both_paths, data):
    """Each step the mock generator, premise repair or tactic repair builds
    on a state of a bench-corpus proof either comes back from its text
    (``parse_step(step.text()) == step``) or gets the same verdict from the
    in-process ``replay``, which takes the step itself, as from
    ``RemoteProver.replay``, which sends its text."""
    from stepwise.config import EngineConfig
    from stepwise.core import parse_step
    from stepwise.formulas import ParseError
    from stepwise.generator import mock_generate
    from stepwise.revision import FailedAttempt, premise_repair, relevance_filter, tactic_repair

    theories, local, remote = both_paths
    theory = data.draw(st.sampled_from(theories))
    proof = theory.entry("goal").proof
    prefix = proof[:data.draw(st.integers(0, len(proof) - 1))]
    local_token, state = local.start(theory, "goal")
    remote_token, _ = remote.start(theory, "goal")
    opened = {local: [local_token], remote: [remote_token]}
    try:
        if prefix:
            results, local_token = local.replay(local_token, prefix)
            remote_token = remote.replay(remote_token, prefix, timeout_ms=10_000)[1]
            opened[local].append(local_token)
            opened[remote].append(remote_token)
            state = results[-1].state
        config = EngineConfig(seed=data.draw(st.integers(0, 9)))
        generated = [cand.step for cand in mock_generate(state, config)]
        source = data.draw(st.sampled_from(("generator", "premise_repair", "tactic_repair")))
        if source == "generator":
            steps = generated
        elif source == "premise_repair":
            with_facts = [step for step in generated if step.facts]
            assume(with_facts)
            base = data.draw(st.sampled_from(with_facts))
            name = base.facts[0]
            cut = data.draw(st.integers(0, len(name)))
            typo = data.draw(st.sampled_from((name[:cut] + name[cut + 1:],
                                              name[:cut] + "x" + name[cut:])))
            assume(typo.isidentifier() and typo not in state.context)
            attempt = FailedAttempt(state, ProofStep(base.tactic, (typo,) + base.facts[1:]),
                                    -1.0, "undefined_fact")
            pool = relevance_filter(state, state.context, config.premise_pool_size)
            steps = [cand.step for cand in premise_repair(attempt, pool, config)]
        else:
            category = data.draw(st.sampled_from(("tactic_failure", "no_progress")))
            attempt = FailedAttempt(state, data.draw(st.sampled_from(generated)), -1.0, category)
            tactic_set = tuple(data.draw(st.lists(st.sampled_from(TACTICS), unique=True)))
            steps = [cand.step for cand in tactic_repair(attempt, tactic_set)]
        for step in steps:
            try:
                if parse_step(step.text()) == step:
                    continue
            except ParseError:
                pass
            [here], here_token = local.replay(local_token, [step])
            [there], there_token = remote.replay(remote_token, [step], timeout_ms=10_000)
            opened[local].append(here_token)
            opened[remote].append(there_token)
            assert here.ok == there.ok, step
            if here.ok:
                assert canonical_state(here.state) == canonical_state(there.state), step
            else:
                assert (here.category, here.detail) == (there.category, there.detail), step
    finally:
        for backend, tokens in opened.items():
            backend.release([token for token in tokens if token is not None])
    assert local.stats()["snapshots"] == remote.stats()["snapshots"] == 0


@pytest.mark.parametrize("cmd", ["apply", "state", "clone", "restore", "load_theory", "release",
                                 "counterexample"])
def test_removed_session_commands_are_errors_that_keep_the_connection(client, cmd):
    token, _ = client.start(PROTO, "t1")
    with pytest.raises(BackendError) as err:
        client._expect(client._call(cmd, payload={"token": token, "step": "intro",
                                                  "tokens": [token], "atom_limit": 16}))
    assert err.value.category == "prover_error" and cmd in err.value.detail
    # the session form of the hammer is gone: it needs its token
    with pytest.raises(BackendError) as err:
        client._expect(client._call("hammer", payload={"atom_limit": 16}))
    assert err.value.category == "protocol_error"
    assert client.init()["protocol"] == 7
    assert client.stats()["snapshots"] == 1


# -- oracle verdicts on apply_batch ---------------------------------------------------

VERDICTS = """theory verdicts
axiom d: a | b
theorem g: c -> a | c
end
"""


def test_apply_batch_verdicts_agree_in_process_and_over_tcp(client):
    """Both paths return the same verdict for each step: for an open
    success, given ``atom_limit``, ``check_counterexample`` on its state;
    for a failure, a closed success or a batch without ``atom_limit``,
    None. The search reads these verdicts; no other request asks."""
    theory = load_theory(VERDICTS)
    local = ToyProver()
    kinds = set()
    for atom_limit in (None, 2, 3):
        paths = []
        for backend, kwargs in ((local, {}), (client, {"timeout_ms": 3000})):
            root, _ = backend.start(theory, "g")
            [first] = backend.apply_batch([(root, ["split", "intro"])],
                                          atom_limit=atom_limit, **kwargs)
            child = first[1][1]
            # "intro" after the closing "auto" never runs
            second = backend.apply_batch(
                [(child, ["left", "right", "apply [ghost]", "auto", "intro"]), (root, ["simp"])],
                atom_limit=atom_limit, **kwargs)
            results = first + [item for group in second for item in group]
            backend.release([root] + [token for _, token, _ in results if token is not None])
            paths.append(results)
        here, there = paths
        assert [v for _, _, v in here] == [v for _, _, v in there]
        assert [r.ok for r, _, _ in here] == [False, True, True, True, False, True, False]
        for result, _, verdict in here:
            if atom_limit is None or not result.ok or result.state.qed:
                assert verdict is None
            else:
                assert verdict == check_counterexample(result.state, atom_limit)
                kinds.add(verdict.kind)
    assert kinds == {"none", "counterexample", "unknown"}
    assert local.stats()["snapshots"] == client.stats()["snapshots"] == 0
    assert "counterexample" not in client.stats()["commands"]


def test_apply_batch_reply_carries_categories_and_open_verdicts_only(client):
    token, _ = client.start(PROTO, "t2")
    reply = client._expect(client._call("apply_batch", payload={
        "groups": [{"token": token, "steps": ["apply [ghost]", "simp", "intro", "auto"]},
                   {"token": token, "steps": []}],
        "atom_limit": 16}))
    [failure, no_progress, opened, closed], empty = reply["results"]
    assert (failure, no_progress, empty) == ("undefined_fact", "no_progress", [])
    assert opened["cex"] == {"result": "none"} and "cex" not in closed
    assert closed["state"]["subgoals"] == []
    without = client._expect(client._call("apply_batch", payload={
        "groups": [{"token": token, "steps": ["intro"]}]}))
    assert "cex" not in without["results"][0][0]


def test_bad_atom_limit_in_apply_batch_is_protocol_error_and_opens_nothing(client):
    token, _ = client.start(PROTO, "t1")
    for atom_limit in (-1, 21, 10**30, "16", 16.0, True, None, [16]):
        with pytest.raises(BackendError) as err:
            client._expect(client._call("apply_batch", payload={
                "groups": [{"token": token, "steps": ["apply [f2]"]}],
                "atom_limit": atom_limit}))
        assert err.value.category == "protocol_error", atom_limit
    assert client.stats()["snapshots"] == 1


def test_malformed_payload_keeps_the_connection(client):
    for cmd, payload in (("start", {"source": 5, "theorem": "t1"}),
                         ("start", {"source": THEORY}), ("start", {"theory": "proto"}),
                         ("apply_batch", {"groups": [{"token": "c0", "steps": ["intro", 5]}]}),
                         ("apply_batch", {"groups": {"token": "c0", "steps": ["intro"]}}),
                         ("apply_batch", {"groups": ["c0"]}),
                         ("apply_batch", {"token": "c0", "steps": ["intro"]}),
                         ("replay", {"token": "c0", "steps": "intro"}),
                         ("hammer", {"token": "c0", "max_depth": -3}),
                         ("hammer", {"token": "c0", "premise_limit": -1}),
                         ("hammer", {"token": "c0", "budget_ms": 0})):
        with pytest.raises(BackendError) as err:
            client._expect(client._call(cmd, payload=payload))
        assert err.value.category == "protocol_error", (cmd, payload)
    assert client.init()["protocol"] == 7


@pytest.mark.parametrize("key,value", [("max_depth", -3), ("premise_limit", -1),
                                       ("budget_ms", -5), ("budget_ms", 0)])
def test_out_of_range_hammer_integers_are_protocol_errors(key, value):
    """A negative premise limit would drop the pool's last facts, and a
    negative depth or a budget below 1 ms would answer ``notfound`` or
    ``timeout`` without searching; none of them is a hammer setting."""
    server = ProverServer(trace=False)
    token, _ = server.prover.start(PROTO, "t1")
    payload = {"token": token, "max_depth": 2, "premise_limit": 8, "budget_ms": 1000,
               "pool": ["f1", "f2"], key: value}
    response, _ = server.handle_line(json.dumps({"id": 4, "cmd": "hammer", "payload": payload}))
    assert (response.id, response.ok) == (4, False)
    assert response.error["category"] == "protocol_error" and key in response.error["detail"]


@pytest.mark.parametrize("key,value,kinds", [("max_depth", 0, ("notfound",)),
                                             ("premise_limit", 0, ("notfound",)),
                                             ("budget_ms", 1, ("found", "timeout"))])
def test_least_hammer_integers_are_accepted(key, value, kinds):
    """No depth, or no premises for a goal that needs ``apply [f2]``, finds
    nothing; a 1 ms budget runs."""
    server = ProverServer(trace=False)
    token, _ = server.prover.start(PROTO, "t1")
    payload = {"token": token, "max_depth": 2, "premise_limit": 8, "budget_ms": 1000,
               "pool": ["f1", "f2"], key: value}
    response, _ = server.handle_line(json.dumps({"id": 5, "cmd": "hammer", "payload": payload}))
    assert response.ok and response.payload["result"] in kinds


@pytest.mark.parametrize("line", ['{"id": true, "cmd": "init"}',
                                  '{"id": false, "cmd": "init", "payload": {}}'])
def test_boolean_request_id_is_protocol_error(line):
    with pytest.raises(ProtocolError):
        decode_request(line)
    response, _ = ProverServer(trace=False).handle_line(line)
    assert (response.id, response.ok) == (0, False)
    assert response.error["category"] == "protocol_error"


def test_boolean_response_id_does_not_answer_request_1():
    """``True == 1`` in Python, so a reply with id ``true`` must not be
    taken for the reply to request 1."""
    class OneLine:
        def send_line(self, line):
            pass

        def recv_line(self, deadline):
            return '{"id": true, "ok": true, "payload": {"protocol": 6}}'

        def close(self):
            pass

    with pytest.raises(ProtocolError):
        decode_response('{"id": true, "ok": true, "payload": {}}')
    with pytest.raises(ProtocolError):
        RemoteProver(OneLine()).init()


# -- fuzzed requests -------------------------------------------------------------------

RESPONSE_CATEGORIES = set(ERROR_CATEGORIES) | {
    "protocol_error", "prover_error", "unknown_theorem", "unknown_session"}
PAYLOAD_KEYS = ("source", "theory", "theorem", "groups", "token", "steps", "atom_limit",
                "ids", "tokens", "max_depth", "premise_limit", "budget_ms", "pool")
REMOVED_COMMANDS = ("load_theory", "release", "apply", "state", "clone", "restore",
                    "counterexample")


def _json_values(live):
    deep = st.integers(1, 3000).map(lambda n: "(" * n + "p" + ")" * n)
    huge = st.integers(1, 5000).map(lambda n: "theory big\ntheorem t: " + "p & " * n
                                      + "p\nend\n")
    scalars = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                        st.floats(allow_nan=False), st.text(max_size=12),
                        st.sampled_from(live), deep, huge)
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
        max_leaves=8)


def _named_ids(payload):
    """The snapshot ids a success reply names: a ``start`` or ``replay``
    token, and the success tokens of each ``apply_batch`` group."""
    names = {payload.get("token")}
    for group in payload.get("results", ()):
        if isinstance(group, list):
            names.update(item.get("token") for item in group if isinstance(item, dict))
    return {name for name in names if isinstance(name, str)}


def _well_formed_payload(cmd, token):
    """A payload ``cmd`` accepts; the hammer's names no live snapshot."""
    return {
        "load_theory": {"source": THEORY},
        "start": {"source": THEORY, "theorem": "t1"},
        "apply_batch": {"groups": [{"token": token, "steps": ["intro", "apply [f2]", "apply"]},
                                   {"token": token, "steps": ["auto"]}],
                        "atom_limit": 16},
        "replay": {"token": token, "steps": ["apply [f2]", "apply [f1]"]},
        "release": {"ids": [token]},
        "counterexample": {"tokens": [token], "atom_limit": 16},
        "hammer": {"token": "c404", "max_depth": 2, "premise_limit": 8, "budget_ms": 1000,
                   "pool": ["f2"]},
    }.get(cmd, {})


@pytest.mark.parametrize("cmd", COMMANDS + REMOVED_COMMANDS + ("frobnicate",))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_requests_get_categorised_answers_and_leak_nothing(cmd, data):
    """Every command, from a well-formed payload with keys dropped, list
    entries or values set to wrong types, nulls, and huge or deeply nested
    texts, or with no object payload at all: a categorised answer comes
    back, and once the ids a success names are released, no live object
    count has grown. No hammer request names a live snapshot: a hammer's run
    time is bounded by its own budget, which the fuzzer picks. A request may
    carry a fuzzed ``release`` field, or the ``session`` field of older
    versions, which is ignored."""
    server = ProverServer(ToyProver(), trace=False)
    token, _ = server.prover.start(PROTO, "t1")
    live = ["proto", "t1", "intro", "apply", "elim", "auto", "apply [f2]", THEORY, -1, 0]
    if cmd != "hammer":
        live += [token]
    values = _json_values(live)
    payload = _well_formed_payload(cmd, token)
    own_keys = st.sampled_from(tuple(payload) or PAYLOAD_KEYS)
    for key in data.draw(st.lists(own_keys | st.sampled_from(PAYLOAD_KEYS), max_size=3)):
        action = data.draw(st.sampled_from(("drop", "set", "set entry")))
        if action == "drop":
            payload.pop(key, None)
        elif action == "set entry" and isinstance(payload.get(key), list) and payload[key]:
            entries = payload[key] = list(payload[key])
            entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(values)
        else:
            payload[key] = data.draw(values)
    if data.draw(st.integers(0, 9)) == 0:
        payload = data.draw(values)
    request = {"id": 1, "cmd": cmd, "payload": payload}
    for key in ("session", "timeout_ms", "release"):
        if data.draw(st.integers(0, 3)) == 0:
            request[key] = data.draw(values)
    before = server.prover.stats()
    response, _ = server.handle_line(json.dumps(request))
    assert response.id == 1
    if response.ok:
        server.prover.release(_named_ids(response.payload) - {token})
    else:
        assert response.error["category"] in RESPONSE_CATEGORIES, response.error
    after = server.prover.stats()
    assert after["sessions"] <= before["sessions"]
    assert after["snapshots"] <= before["snapshots"]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(max_size=40), st.integers(1, 200_000).map(lambda n: "[" * n)))
def test_fuzzed_request_lines_get_protocol_errors(line):
    response, shutdown = ProverServer(trace=False).handle_line(line)
    assert not shutdown
    assert response.ok is False and response.error["category"] == "protocol_error"


def test_non_string_theory_source_is_protocol_error():
    server = ProverServer(trace=False)
    response, _ = server.handle_line(
        '{"id":1,"cmd":"start","payload":{"source":5,"theorem":"t1"}}')
    assert (response.id, response.ok) == (1, False)
    assert response.error["category"] == "protocol_error"


# -- deadline misses ----------------------------------------------------------------

LATE_STATE = {"subgoals": [{"hyps": [], "goal": "p"}], "depth": 1}


class _SlowServer:
    """Accepts one connection; delays the response to any apply_batch or
    replay command and records every request it receives. Each success
    token names its request: ``r<id>.<group>.<step>`` in a batch, ``r<id>``
    for a replay."""

    def __init__(self, delay_s=1.5):
        self.delay_s = delay_s
        self.commands = []
        self.requests = []
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def releases(self):
        """Each request's ``release`` field, empty where it has none."""
        return [r.get("release", []) for r in self.requests]

    def _run(self):
        conn, _ = self.sock.accept()
        buffer = b""
        with conn:
            while True:
                try:
                    chunk = conn.recv(65536)
                except OSError:
                    return
                if not chunk:
                    return
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    request = json.loads(line)
                    self.commands.append(request["cmd"])
                    self.requests.append(request)
                    rid = request["id"]
                    if request["cmd"] == "apply_batch":
                        time.sleep(self.delay_s)
                        payload = {"results": [
                            [{"token": f"r{rid}.{g}.{i}", "state": LATE_STATE}
                             for i, _ in enumerate(group["steps"])]
                            for g, group in enumerate(request["payload"]["groups"])]}
                    elif request["cmd"] == "replay":
                        time.sleep(self.delay_s)
                        steps = request["payload"]["steps"]
                        payload = {"results": [LATE_STATE] * len(steps), "token": f"r{rid}"}
                    else:
                        payload = {}
                    out = {"id": rid, "ok": True, "payload": payload}
                    try:
                        conn.sendall((json.dumps(out) + "\n").encode())
                    except OSError:
                        return

    def close(self):
        self.sock.close()


def test_replay_deadline_miss_gives_one_timeout_and_needs_no_recovery():
    slow = _SlowServer(delay_s=0.6)
    client = RemoteProver.connect_tcp("127.0.0.1", slow.port, grace_ms=100)
    # a budget of 50 ms per step: the reply is awaited 3 * 50 + 100 ms
    results, token = client.replay("c0", ["intro", "split", "simp"], timeout_ms=50)
    assert [r.category for r in results] == ["timeout"] and token is None
    assert "150 ms" in results[0].detail
    # the next replay on the same token gets its own reply; the late reply
    # to the missed request (id 1) is skipped by its id, its token kept
    results, token = client.replay("c0", ["intro"], timeout_ms=5000)
    assert [r.ok for r in results] == [True] and token == "r2"
    client.release(["c0", token])
    client.init()
    assert slow.releases() == [[], [], ["r1", "c0", "r2"]]
    assert slow.commands == ["replay", "replay", "init"]
    client.transport.close()
    slow.close()


def test_batch_deadline_miss_times_out_every_step_and_needs_no_restore():
    slow = _SlowServer(delay_s=0.6)
    client = RemoteProver.connect_tcp("127.0.0.1", slow.port, grace_ms=100)
    # a budget of 50 ms per step: the reply is awaited 3 * 50 + 100 ms
    missed = client.apply_batch([("c0", ["intro", "split"]), ("c1", ["simp"]), ("c2", [])],
                                timeout_ms=50)
    assert [[(r.category, token) for r, token, _ in group] for group in missed] \
        == [[("timeout", None)] * 2, [("timeout", None)], []]
    # the next batch on the same tokens gets its own reply; the late reply to
    # the missed request (id 1) is skipped by its id
    results = client.apply_batch([("c0", ["intro"]), ("c1", ["simp"])], timeout_ms=5000)
    assert [[(r.ok, token) for r, token, _ in group] for group in results] \
        == [[(True, "r2.0.0")], [(True, "r2.1.0")]]
    assert slow.commands == ["apply_batch", "apply_batch"]
    client.transport.close()
    slow.close()


def test_missed_batch_snapshots_ride_on_the_next_request():
    """The late reply's tokens, read while the next request waits, go with
    the request after it, ahead of what ``release`` queued since."""
    slow = _SlowServer(delay_s=0.6)
    client = RemoteProver.connect_tcp("127.0.0.1", slow.port, grace_ms=100)
    client.apply_batch([("c0", ["intro", "split"]), ("c1", ["simp"])],
                       timeout_ms=50)  # request 1 misses
    client.apply_batch([("c0", ["intro"])], timeout_ms=5000)  # reads the late reply to 1
    client.release(["c0", "r2.0.0"])
    client.stats()
    client.close()
    assert slow.releases() == [[], [], ["r1.0.0", "r1.0.1", "r1.1.0", "c0", "r2.0.0"], []]
    assert slow.commands == ["apply_batch", "apply_batch", "stats", "shutdown"]
    slow.close()


def test_pending_releases_ride_on_shutdown():
    slow = _SlowServer()
    client = RemoteProver.connect_tcp("127.0.0.1", slow.port, grace_ms=100)
    client.release(["c0"])
    client.release(["c1", "c2"])
    client.close()
    assert (slow.commands, slow.releases()) == (["shutdown"], [["c0", "c1", "c2"]])
    slow.close()


def test_release_field_applies_before_the_command_even_one_that_fails():
    server = ProverServer(trace=False)
    root, _ = server.prover.start(PROTO, "t1")
    other, _ = server.prover.start(PROTO, "t2")
    response, _ = server.handle_line(json.dumps(
        {"id": 1, "cmd": "replay", "payload": {"token": root, "steps": ["intro"]},
         "release": [root, "never_issued"]}))
    assert response.error["category"] == "unknown_session"
    response, _ = server.handle_line(json.dumps(
        {"id": 2, "cmd": "frobnicate", "payload": {}, "release": [other]}))
    assert response.error["category"] == "prover_error"
    assert server.prover.stats()["snapshots"] == 0


class _SlowBatchProver(ToyProver):
    delay_s = 0.0

    def apply_batch(self, groups, timeout_ms=None, atom_limit=None):
        time.sleep(self.delay_s)
        return super().apply_batch(groups, timeout_ms, atom_limit)

    def replay(self, token, steps, timeout_ms=None):
        time.sleep(self.delay_s)
        return super().replay(token, steps, timeout_ms)


def test_missed_batch_leaves_no_server_objects_once_its_reply_is_read():
    prover = _SlowBatchProver()
    tcp = ProverServer(prover, trace=False).tcp_server(port=0)
    threading.Thread(target=tcp.serve_forever, daemon=True).start()
    client = RemoteProver.connect_tcp("127.0.0.1", tcp.server_address[1], grace_ms=100)
    try:
        token, _ = client.start(PROTO, "t1")
        prover.delay_s = 0.5
        [missed] = client.apply_batch([(token, ["intro", "apply [f2]"])], timeout_ms=1)
        assert [r.category for r, _, _ in missed] == ["timeout", "timeout"]
        prover.delay_s = 0.0
        client.init()  # reads the late reply
        # this request frees the missed success, which leaves the token
        assert client.stats()["snapshots"] == 1
        client.release([token])
        stats = client.stats()
        assert (stats["sessions"], stats["snapshots"]) == (0, 0)
    finally:
        client.close()
        tcp.shutdown()
        tcp.server_close()


def test_missed_batch_stores_no_verdicts_and_release_frees_its_snapshots():
    prover = _SlowBatchProver()
    tcp = ProverServer(prover, trace=False).tcp_server(port=0)
    threading.Thread(target=tcp.serve_forever, daemon=True).start()
    client = RemoteProver.connect_tcp("127.0.0.1", tcp.server_address[1], grace_ms=100)
    try:
        token, _ = client.start(PROTO, "t1")
        prover.delay_s = 0.5
        [missed] = client.apply_batch([(token, ["intro", "apply [f2]"])], timeout_ms=1,
                                      atom_limit=16)
        assert [r.category for r, _, _ in missed] == ["timeout", "timeout"]
        prover.delay_s = 0.0
        # the late reply, with the verdict of its success, is read and dropped
        # here; this batch's verdict comes with its own reply
        [[(_, child, verdict)]] = client.apply_batch([(token, ["apply [f2]"])],
                                                     timeout_ms=3000, atom_limit=16)
        assert verdict.kind == "none"
        assert "counterexample" not in client.stats()["commands"]
        client.release([token, child])
        stats = client.stats()
        assert (stats["sessions"], stats["snapshots"]) == (0, 0)
    finally:
        client.close()
        tcp.shutdown()
        tcp.server_close()


def test_missed_replay_leaves_no_server_objects_once_its_reply_is_read():
    prover = _SlowBatchProver()
    tcp = ProverServer(prover, trace=False).tcp_server(port=0)
    threading.Thread(target=tcp.serve_forever, daemon=True).start()
    client = RemoteProver.connect_tcp("127.0.0.1", tcp.server_address[1], grace_ms=100)
    try:
        token, _ = client.start(PROTO, "t1")
        prover.delay_s = 0.5
        assert client.replay(token, ["apply [f2]"], timeout_ms=1)[1] is None
        prover.delay_s = 0.0
        results, final = client.replay(token, ["apply [f2]", "apply [f1]"], timeout_ms=3000)
        assert results[-1].state.qed
        # this request frees the missed replay's final state
        assert client.stats()["snapshots"] == 2  # the token and this final
        client.release([token, final])
        stats = client.stats()
        assert (stats["sessions"], stats["snapshots"]) == (0, 0)
    finally:
        client.close()
        tcp.shutdown()
        tcp.server_close()


class _GarbageServer:
    """Accepts one connection and answers its requests, in order, with the
    given raw bytes (``b""`` answers nothing), then closes it."""

    def __init__(self, *replies: bytes):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.replies = replies
        threading.Thread(target=self._run, daemon=True).start()

    def _run(self):
        conn, _ = self.sock.accept()
        with conn:
            for reply in self.replies:
                conn.recv(65536)
                conn.sendall(reply)

    def close(self):
        self.sock.close()


@pytest.fixture
def garbage_client():
    """Connects a client to a ``_GarbageServer`` sending ``replies``."""
    opened = []

    def connect(*replies, **kwargs):
        garbage = _GarbageServer(*replies)
        client = RemoteProver.connect_tcp("127.0.0.1", garbage.port, **kwargs)
        opened.append((garbage, client))
        return client

    yield connect
    for garbage, client in opened:
        client.transport.close()
        garbage.close()


def test_malformed_response_line_is_protocol_error(garbage_client):
    client = garbage_client(b"!!not json!!\n")
    with pytest.raises(ProtocolError):
        client.init()


def test_mismatched_future_id_names_the_offender(garbage_client):
    client = garbage_client(b'{"id": 99, "ok": true, "payload": {}}\n')
    with pytest.raises(ProtocolError) as err:
        client.init()
    assert err.value.offending_id == 99


def test_reply_that_is_not_utf8_is_protocol_error_naming_the_request(garbage_client):
    client = garbage_client(b'{"id": 1, "ok": true, "payload": {"server": "\xff"}}\n')
    with pytest.raises(ProtocolError) as err:
        client.init()
    assert err.value.offending_id == 1 and "request 1" in str(err.value)


def test_start_reply_without_token_is_protocol_error_naming_the_request(garbage_client):
    state = json.dumps({"subgoals": [{"hyps": [], "goal": "q"}], "depth": 0})
    client = garbage_client(b'{"id": 1, "ok": true, "payload": {"state": %s}}\n'
                            % state.encode())
    with pytest.raises(ProtocolError) as err:
        client.start(PROTO, "t1")
    assert err.value.offending_id == 1 and "request 1" in str(err.value)


@pytest.mark.parametrize("results", [
    None,  # no results at all
    [[]],  # one result list for two groups
    [["timeout", "timeout"], []],  # two results for a group of one step
])
def test_malformed_apply_batch_reply_is_protocol_error_naming_the_request(
        garbage_client, results):
    payload = {} if results is None else {"results": results}
    client = garbage_client(json.dumps({"id": 1, "ok": True, "payload": payload}).encode()
                            + b"\n")
    with pytest.raises(ProtocolError) as err:
        client.apply_batch([("c0", ["intro"]), ("c1", ["simp"])])
    assert err.value.offending_id == 1 and "request 1" in str(err.value)


def test_stale_batch_reply_without_results_is_protocol_error_naming_it(garbage_client):
    client = garbage_client(b"", b'{"id": 1, "ok": true, "payload": {}}\n'
                                 b'{"id": 2, "ok": true, "payload": {}}\n', grace_ms=100)
    [[(missed, _, _)]] = client.apply_batch([("c0", ["intro"])], timeout_ms=1)
    assert missed.category == "timeout"
    with pytest.raises(ProtocolError) as err:
        client.init()  # reads the late reply to request 1 first
    assert err.value.offending_id == 1 and "request 1" in str(err.value)


def _batch_reply(rid, *items):
    return json.dumps({"id": rid, "ok": True, "payload": {"results": [list(items)]}}).encode() \
        + b"\n"


OPEN = {"token": "c1", "state": LATE_STATE}
CLOSED = {"token": "c2", "state": {"subgoals": [], "depth": 2}}


def test_counterexample_reply_short_of_verdicts_is_protocol_error(garbage_client):
    """An ``apply_batch`` sent with ``atom_limit`` must get a verdict on
    each open success; a closed success, or a batch sent without
    ``atom_limit``, needs none."""
    client = garbage_client(_batch_reply(1, OPEN, CLOSED), _batch_reply(2, OPEN, CLOSED))
    with pytest.raises(ProtocolError) as err:
        client.apply_batch([("c0", ["intro", "auto"])], atom_limit=16)
    assert err.value.offending_id == 1 and "request 1" in str(err.value)
    [[(_, _, none), (_, _, closed)]] = client.apply_batch([("c0", ["intro", "auto"])])
    assert none is closed is None


def test_unknown_verdict_kind_is_protocol_error_naming_the_request(garbage_client):
    client = garbage_client(_batch_reply(1, {**OPEN, "cex": {"result": "bogus"}}),
                            _batch_reply(2, {**OPEN, "cex": {"result": "none"}}))
    with pytest.raises(ProtocolError) as err:
        client.apply_batch([("c0", ["intro"])], atom_limit=16)
    assert err.value.offending_id == 1 and "bogus" in str(err.value)
    [[(_, _, verdict)]] = client.apply_batch([("c0", ["intro"])], atom_limit=16)
    assert verdict == CexResult.none()


def test_unknown_hammer_result_is_protocol_error_naming_the_request(garbage_client):
    client = garbage_client(b'{"id": 1, "ok": true, "payload": {"result": "timeout"}}\n',
                            b'{"id": 2, "ok": true, "payload": {"result": "maybe"}}\n')
    assert client.hammer_at("c0").kind == "timeout"
    with pytest.raises(ProtocolError) as err:
        client.hammer_at("c0")
    assert err.value.offending_id == 2 and "maybe" in str(err.value)


def test_request_line_that_is_not_utf8_is_protocol_error_and_is_not_run():
    """A ``start`` whose source holds byte 0xff in a fact name is answered
    like an undecodable line (id 0), and the stream goes on."""
    start = json.dumps({"id": 1, "cmd": "start", "payload": {
        "source": THEORY.replace("axiom f1:", "axiom f1@@:"), "theorem": "t1"}})
    lines = [start.encode().replace(b"@@", b"\xff"),
             json.dumps({"id": 2, "cmd": "stats"}).encode()]
    server = ProverServer(trace=False)
    out = io.BytesIO()
    server.handle_stream(io.BytesIO(b"\n".join(lines) + b"\n"), out)
    bad, stats = [json.loads(line) for line in out.getvalue().splitlines()]
    assert (bad["id"], bad["ok"], bad["error"]["category"]) == (0, False, "protocol_error")
    assert "UTF-8" in bad["error"]["detail"]
    assert (stats["id"], stats["ok"]) == (2, True)
    assert stats["payload"]["snapshots"] == 0 and "start" not in stats["payload"]["commands"]


def test_both_backends_expose_the_same_surface():
    """``ToyProver`` and ``RemoteProver`` take the same parameters, with the
    same defaults, on every call the product makes, and the remote side has
    no counterexample call: a verdict comes only with ``apply_batch``."""
    for name in ("start", "apply_batch", "replay", "hammer_at", "release", "stats", "close"):
        here, there = (inspect.signature(getattr(cls, name)).parameters.values()
                       for cls in (ToyProver, RemoteProver))
        assert [(p.name, p.default) for p in here] == [(p.name, p.default) for p in there], name
    assert [name for name in dir(RemoteProver) if name.startswith("counterexample")] == []


# -- stdio transport ------------------------------------------------------------------

SERVE_STDIO = [sys.executable, "-m", "stepwise.cli", "serve", "--stdio"]


def test_stdio_subprocess_server_round_trip():
    client = RemoteProver.spawn_stdio(SERVE_STDIO)
    try:
        token, _ = client.start(PROTO, "t2")
        [result], token = client.replay(token, ["intro"], timeout_ms=10_000)
        assert result.ok
        [result], token = client.replay(token, ["assumption"], timeout_ms=10_000)
        assert result.state.qed and token is not None
    finally:
        client.close()


def test_stdio_close_closes_the_socket_and_the_child():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        client = RemoteProver.spawn_stdio(SERVE_STDIO)
        proc, sock = client._proc, client.transport._sock
        assert client.init()["protocol"] == PROTOCOL_VERSION
        client.close()
        assert sock.fileno() == -1 and proc.returncode == 0
        del client, proc, sock
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_stdio_server_over_os_pipes():
    """``serve --stdio`` answers on plain pipes, not only on a socket pair."""
    requests = [{"id": 1, "cmd": "init"},
                {"id": 2, "cmd": "start", "payload": {"source": THEORY, "theorem": "t2"}},
                {"id": 3, "cmd": "shutdown"}]
    done = subprocess.run(SERVE_STDIO, capture_output=True, timeout=60,
                          input="".join(json.dumps(r) + "\n" for r in requests).encode())
    assert done.returncode == 0
    replies = [json.loads(line) for line in done.stdout.decode().splitlines()]
    assert [(r["id"], r["ok"]) for r in replies] == [(1, True), (2, True), (3, True)]
    assert replies[0]["payload"]["protocol"] == PROTOCOL_VERSION
    assert replies[1]["payload"]["state"]["subgoals"] == [{"hyps": [], "goal": "p -> p"}]
    assert replies[2]["payload"] == {}


def test_started_theories_are_freed_once_their_tokens_are_released():
    """The server keeps no parsed theory: once the snapshots of 50
    distinct sources are released, none of their theories is alive."""
    server = ProverServer(trace=False)
    names = {f"proto{i}" for i in range(50)}
    tokens = []
    for rid, name in enumerate(sorted(names), 1):
        source = THEORY.replace("theory proto", f"theory {name}")
        response, _ = server.handle_line(json.dumps(
            {"id": rid, "cmd": "start", "payload": {"source": source, "theorem": "t1"}}))
        tokens.append(response.payload["token"])
    response, _ = server.handle_line(json.dumps(
        {"id": 51, "cmd": "stats", "payload": {}, "release": tokens}))
    assert response.payload["snapshots"] == 0
    gc.collect()
    assert [t for t in gc.get_objects() if isinstance(t, Theory) and t.name in names] == []


def test_protocol_doc_covers_every_command_and_the_version():
    """docs/protocol.md has one section per command, no other, and names
    the current version first."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "protocol.md").read_text()
    assert sorted(re.findall(r"^### `([^`]*)`", doc, re.MULTILINE)) == sorted(COMMANDS)
    assert re.search(r"\bversion (\d+)\b", doc).group(1) == str(PROTOCOL_VERSION)


def test_trace_env_dumps_frames(tcp_server, monkeypatch, capsys):
    monkeypatch.setenv("STEPWISE_PROTOCOL_TRACE", "1")
    client = RemoteProver.connect_tcp("127.0.0.1", tcp_server)
    client.init()
    client.close()
    err = capsys.readouterr().err
    assert "[protocol send]" in err and '"cmd": "init"' in err
