import contextlib
import gc
import inspect
import io
import itertools
import json
import random
import re
import socket
import subprocess
import sys
import threading
import time
import types
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import CHAIN_SRC, naive_first_counterexample, random_formula, replay_chain
from stepwise.core import ERROR_CATEGORIES, ProofStep, Theory, canonical_state, parse_step
from stepwise.formulas import render
from stepwise.prover import (
    HammerConfig,
    PremiseSelection,
    ToyProver,
    TheoryParseError,
    apply_step,
    check_counterexample,
    load_theory,
)
from stepwise.protocol import (
    COMMANDS,
    PROTOCOL_VERSION,
    BackendError,
    DeadlineMiss,
    ProtocolError,
    ProverServer,
    RemoteProver,
    Request,
    Response,
    SocketTransport,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    tcp_server,
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
HAMMER = HammerConfig(4, 60_000)
PREMISES = PremiseSelection(2048, 0.5)


@pytest.fixture
def server_port():
    """The port of a reference TCP server running in a thread."""
    tcp = tcp_server()
    thread = threading.Thread(target=tcp.serve_forever, daemon=True)
    thread.start()
    yield tcp.server_address[1]
    tcp.shutdown()
    tcp.server_close()


@pytest.fixture
def client(server_port):
    remote = RemoteProver.connect_tcp("127.0.0.1", server_port)
    yield remote
    remote.close()


@contextlib.contextmanager
def _connection(prover, tcp=False, **kwargs):
    """A client of ``ProverServer(prover).handle_stream`` over a socket
    pair, or a TCP connection, served on a thread. On exit the client's
    socket is closed and the thread is joined."""
    if tcp:
        with socket.create_server(("127.0.0.1", 0)) as listener:
            ours = socket.create_connection(listener.getsockname())
            theirs, _ = listener.accept()
    else:
        ours, theirs = socket.socketpair()

    def serve():
        with theirs, theirs.makefile("rb") as rfile, theirs.makefile("wb") as wfile:
            with contextlib.suppress(BrokenPipeError, ConnectionResetError):
                ProverServer(prover).handle_stream(rfile, wfile)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client = RemoteProver(SocketTransport(ours), **kwargs)
    try:
        yield client
    finally:
        client.transport.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


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
    server = ProverServer()
    token, _ = server.prover.start(PROTO, "t2")
    response = server.handle_line(line.replace('"c0"', json.dumps(token)))
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
    addresses the chain's final state. Releasing a snapshot that is not a
    root frees it alone; releasing the root frees what is left of its tree."""
    root, root_state = client.start(PROTO, "t1")
    first, mid = client.replay(root, ["apply [f2]"], timeout_ms=3000)
    again, other = client.replay(root, ["apply [f2]"], timeout_ms=3000)
    assert canonical_state(first[0].state) == canonical_state(again[0].state) \
        != canonical_state(root_state)
    assert mid != other
    [closed], final = client.replay(mid, ["apply [f1]"], timeout_ms=3000)
    assert closed.state.qed and final is not None
    assert client.replay(final, [], timeout_ms=3000)[0] == []
    client.release([mid, other, final])
    assert client.stats()["snapshots"] == 2  # the root and the empty replay's
    client.release([root])
    assert client.stats()["snapshots"] == 0


def test_counterexample_and_hammer_over_wire(client):
    token, _ = client.start(PROTO, "t1")
    [[(_, child, verdict)]] = client.apply_batch([(token, ["apply [f2]"])], timeout_ms=3000,
                                                  atom_limit=16)
    assert verdict == "none"  # p follows from f1
    client.release([child])
    result = client.hammer_at(token, HAMMER, PREMISES)
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
    assert verdict == "counterexample"


def _counts(client):
    """Requests per command the server has answered before this ``stats``."""
    return {cmd: entry["count"] for cmd, entry in client.stats()["commands"].items()}


def test_remote_start_root_carries_the_theorys_context(client):
    theory = load_theory(CHAIN_SRC)
    token, root = client.start(theory, "t2")
    expected = theory.context_for("t2")
    assert root.context.facts == expected.facts
    assert root.context.usage_counts == expected.usage_counts == {"f1": 1, "f2": 1}
    client.release([token])


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


def test_theory_names_do_not_collide_across_connections(server_port):
    """Two clients start from different theories both named ``t``, the
    first again after the second: each starts from its own theory's goal.
    ``stats`` counts each connection's own requests."""
    from test_prover import COLLIDING

    clients = [RemoteProver.connect_tcp("127.0.0.1", server_port) for _ in COLLIDING]
    try:
        for _ in range(2):
            for client, source, goal in zip(clients, COLLIDING, ("p", "q -> q")):
                token, state = client.start(load_theory(source), "g")
                assert render(state.subgoals[0].goal) == goal
                # the server's snapshot holds the same goal: only q -> q takes intro
                [[(result, child, verdict)]] = client.apply_batch(
                    [(token, ["intro"])], timeout_ms=3000, atom_limit=16)
                assert (result.ok, verdict) == ((False, None) if goal == "p"
                                                else (True, "none"))
                client.release([t for t in (token, child) if t is not None])
        for client in clients:
            assert _counts(client) == {"start": 2, "apply_batch": 2}
    finally:
        for client in clients:
            client.close()


def test_unknown_session_is_backend_error(client):
    """An unknown token fails the whole command with ``unknown_session``."""
    for call in (lambda: client.replay("nonexistent", ["intro"], timeout_ms=3000),
                 lambda: client.hammer_at("nonexistent", HAMMER, PREMISES)):
        with pytest.raises(BackendError) as err:
            call()
        assert err.value.category == "unknown_session"


def test_stats_command_reports_live_objects_and_commands(client):
    before = client.stats()
    assert before == {"snapshots": 0, "commands": {}}
    token, _ = client.start(PROTO, "t1")
    client.apply_batch([(token, ["intro", "apply [f2]"])], timeout_ms=3000)
    stats = client.stats()
    assert set(stats) == {"snapshots", "commands"} and stats["snapshots"] == 2
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


USED = """theory used
axiom f1: p -> q
axiom f2: p -> q
lemma l1: p -> q
  proof
    intro
    apply [f2]
    assumption
  qed
theorem goal: p -> r -> q
end
"""


@pytest.mark.parametrize("weight,fact", [(0.0, "f2"), (1.0, "f1")])
def test_the_servers_ranking_reads_usage_from_the_rendered_proofs(client, weight, fact):
    """Three facts conclude ``q``; only usage, which the server counts in
    the proofs of the source ``start`` sends, puts ``f2`` first at weight
    0, and overlap ties at weight 1 go to ``f1`` by id. Both backends agree."""
    theory = load_theory(USED)
    premises = PremiseSelection(2048, weight)
    local = ToyProver()
    results = [backend.hammer_at(backend.start(theory, "goal")[0], HAMMER, premises)
               for backend in (local, client)]
    assert [[s.text() for s in r.steps] for r in results] == [
        ["intro", "intro", f"apply [{fact}]", "assumption"]] * 2


class _HammerLog:
    """A backend that records the kind and steps of each hammer call."""

    def __init__(self, inner):
        self.inner, self.calls, self.theory = inner, [], None

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def hammer_at(self, token, config, premises):
        result = self.inner.hammer_at(token, config, premises)
        self.calls.append((self.theory, result.kind, result.steps))
        return result


def test_every_hammer_call_of_a_bench_pass_agrees_over_tcp(server_port):
    """Each fallback hammer call of a seed-0 bench pass gives the same kind
    and steps over TCP as in process, where the server ranks the premises
    of the context it parsed from the rendered theory."""
    from stepwise.bench import bench_engine_config, generate_corpus
    from stepwise.engine import prove_theorem

    theories = generate_corpus(0)
    config = bench_engine_config(0)
    logs = []
    for backend in (ToyProver(), RemoteProver.connect_tcp("127.0.0.1", server_port)):
        log = _HammerLog(backend)
        for theory in theories:
            log.theory = theory.name
            prove_theorem(theory, "goal", config, backend=log)
        backend.close()
        logs.append(log.calls)
    assert logs[0] == logs[1]
    assert len(logs[0]) == 93 and sum(kind == "found" for _, kind, _ in logs[0]) == 15


def test_token_addressed_oracles_open_no_session(client):
    token, _ = client.start(PROTO, "t1")
    result = client.hammer_at(token, HAMMER, PREMISES)
    assert result.found
    stats = client.stats()
    assert stats["snapshots"] == 1
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
            for result, _, kind in local_results:
                if kind is None:
                    continue
                kinds.add(kind)
                verdict = check_counterexample(result.state, atom_limit)
                assert verdict.kind == kind
                if kind == "counterexample":
                    assert (verdict.assignment, verdict.subgoal_index) \
                        == naive_first_counterexample(result.state)
                elif kind == "none":
                    assert naive_first_counterexample(result.state) is None
            local.release([t for _, t, _ in local_results if t is not None])
            client.release([t for _, t, _ in remote_results if t is not None])
    assert kinds == {"none", "counterexample", "unknown"}
    assert "counterexample" not in client.stats()["commands"]


def test_unknown_command_rejected(client):
    with pytest.raises(BackendError):
        client._expect(client._call("frobnicate"))


def test_malformed_request_line_gets_protocol_error():
    server = ProverServer()
    response = server.handle_line("this is not json")
    assert response.ok is False
    assert response.error["category"] == "protocol_error"


def test_replay_reply_carries_states_and_failure_details(client):
    token, _ = client.start(PROTO, "t1")
    reply = client._expect(client._call("replay", payload={
        "token": token, "steps": ["apply [f2]", "apply [ghost]", "apply [f1]"]}))
    opened, failed = reply["results"]  # the step after the failure never runs
    assert opened == "⊢ p"
    assert failed["category"] == "undefined_fact" and "ghost" in failed["detail"]
    assert "token" not in reply
    done = client._expect(client._call("replay", payload={
        "token": token, "steps": ["apply [f2]", "apply [f1]"]}))
    assert done["results"][-1] == "QED" and isinstance(done["token"], str)
    # only the final state is stored
    assert client.stats()["snapshots"] == 2


BRANCHES = load_theory("""theory branches
axiom f1: p
axiom f2: p -> q
axiom loop: p -> p
theorem goal_p: p
theorem goal_r: r
end
""")

# every failure branch of ``apply_step``: (theorem, steps that succeed
# first, the failing step's text, its category and detail); ``extract_pairs``
# quotes the detail, so each text is pinned
FAILURE_BRANCHES = [
    ("goal_p", ["assumption"], "intro", "tactic_failure", "no open subgoals"),
    ("goal_r", [], "assumption", "tactic_failure", "goal is not an assumption or fact"),
    ("goal_r", [], "intro", "tactic_failure", "goal is not an implication or negation"),
    ("goal_r", [], "split", "tactic_failure", "goal is not a conjunction"),
    ("goal_r", [], "left", "tactic_failure", "goal is not a disjunction"),
    ("goal_r", [], "right", "tactic_failure", "goal is not a disjunction"),
    ("goal_r", [], "elim", "tactic_failure", "elim requires a fact argument"),
    ("goal_r", [], "elim [ghost]", "undefined_fact", "ghost"),
    ("goal_r", [], "elim [f1, f2]", "tactic_failure", "f1 is not a disjunction"),
    ("goal_r", [], "apply", "tactic_failure", "apply requires a fact argument"),
    ("goal_r", [], "apply [ghost, f1]", "undefined_fact", "ghost"),
    ("goal_r", [], "apply [f2]", "tactic_failure", "f2 does not conclude the goal"),
    ("goal_r", [], "simp", "no_progress", "goal has no constant redexes"),
    ("goal_r", [], "auto", "tactic_failure", "auto could not close the first subgoal"),
    ("goal_p", [], "apply [loop]", "no_progress", "state unchanged"),
    # texts the parser rejects never reach apply_step
    ("goal_r", [], "bogus [f1]", "parse_error", "unknown tactic 'bogus' at position 1"),
    ("goal_r", [], "apply [", "parse_error",
     "malformed step 'apply [' at position 1 (expected tactic [facts])"),
]


def _failure_on_every_path(client, theorem, before, text, timeout_ms=3000):
    """The failing step's ``(category, detail)`` from ``RemoteProver.replay``
    and ``ToyProver.replay`` of its text, and from ``apply_step`` and
    ``ToyProver.replay`` of the built step where the text builds one."""
    local = ToyProver()
    pairs = []
    for backend in (client, local):
        token, _ = backend.start(BRANCHES, theorem)
        results, final = backend.replay(token, before + [text], timeout_ms)
        assert final is None and all(r.ok for r in results[:-1])
        assert len(results) == len(before) + 1
        pairs.append((results[-1].category, results[-1].detail))
    try:
        step = parse_step(text) if text.strip() not in ("apply", "elim") else ProofStep(text)
    except ValueError:
        return pairs
    token, _ = local.start(BRANCHES, theorem)
    results, _ = local.replay(token, [parse_step(t) for t in before] + [step], timeout_ms)
    pairs.append((results[-1].category, results[-1].detail))
    state = results[-2].state if before else local.start(BRANCHES, theorem)[1]
    result = apply_step(state, step, timeout_ms)
    pairs.append((result.category, result.detail))
    return pairs


@pytest.mark.parametrize("theorem, before, text, category, detail", FAILURE_BRANCHES)
def test_each_failure_branch_keeps_its_category_and_detail_on_both_paths(
        client, theorem, before, text, category, detail):
    pairs = _failure_on_every_path(client, theorem, before, text)
    assert pairs == [(category, detail)] * len(pairs)


def test_auto_timeout_and_an_unknown_built_tactic_keep_their_details(client, monkeypatch):
    """The two branches the table cannot reach: ``auto`` past its deadline
    (a clock that jumps a second per reading; the TCP server runs in this
    process), and a built step with an unknown tactic, which only the
    in-process path can send (its text fails the parser)."""
    import stepwise.prover as prover

    clock = itertools.count(0.0, 1.0)
    monkeypatch.setattr(prover, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    pairs = _failure_on_every_path(client, "goal_r", [], "auto", timeout_ms=500)
    assert pairs == [("timeout", "auto exceeded its budget")] * 4
    monkeypatch.undo()
    state = ToyProver().start(BRANCHES, "goal_r")[1]
    result = apply_step(state, ProofStep("bogus"))
    assert (result.category, result.detail) == ("parse_error", "unknown tactic 'bogus'")


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

    tcp = tcp_server()
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
    from stepwise.prover import relevance_filter
    from stepwise.revision import FailedAttempt, premise_repair, tactic_repair

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
            pool = relevance_filter(state, config.premise_pool_size)
            steps = premise_repair(attempt, pool, config)
        else:
            category = data.draw(st.sampled_from(("tactic_failure", "no_progress")))
            attempt = FailedAttempt(state, data.draw(st.sampled_from(generated)), -1.0, category)
            tactic_set = tuple(data.draw(st.lists(st.sampled_from(TACTICS), unique=True)))
            steps = tactic_repair(attempt, tactic_set)
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
    assert client.init()["protocol"] == PROTOCOL_VERSION
    assert client.stats()["snapshots"] == 1


# -- oracle verdicts on apply_batch ---------------------------------------------------

VERDICTS = """theory verdicts
axiom d: a | b
theorem g: c -> a | c
end
"""


def test_apply_batch_verdicts_agree_in_process_and_over_tcp(client):
    """Both paths return the same verdict kind for each step: for an open
    success, given ``atom_limit``, the kind of ``check_counterexample`` on
    its state; for a failure, a closed success or a batch without
    ``atom_limit``, None. The search reads these kinds; no other request
    asks. The oracle's own verdict names the first counterexample."""
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
        for result, _, kind in here:
            if atom_limit is None or not result.ok or result.state.qed:
                assert kind is None
                continue
            verdict = check_counterexample(result.state, atom_limit)
            assert kind == verdict.kind
            kinds.add(kind)
            if kind == "counterexample":
                assert (verdict.assignment, verdict.subgoal_index) \
                    == naive_first_counterexample(result.state)
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
    assert opened["cex"] == "none" and "cex" not in closed
    assert closed["state"] == "QED"
    without = client._expect(client._call("apply_batch", payload={
        "groups": [{"token": token, "steps": ["intro"]}]}))
    assert "cex" not in without["results"][0][0]


def test_apply_batch_reply_verdicts_are_bare_kinds(client):
    """On the wire an open success's ``cex`` is its verdict's kind alone:
    no assignment, subgoal index or reason travels with it."""
    root, _ = client.start(load_theory(VERDICTS), "g")
    [[(_, child, _)]] = client.apply_batch([(root, ["intro"])], timeout_ms=3000)
    kinds = []
    for atom_limit in (2, 3):
        reply = client._expect(client._call("apply_batch", payload={
            "groups": [{"token": child, "steps": ["left", "right"]}], "atom_limit": atom_limit}))
        [items] = reply["results"]
        kinds += [item["cex"] for item in items]
        client.release([item["token"] for item in items])
    assert kinds == ["unknown", "unknown", "counterexample", "none"]
    client.release([root, child])
    assert client.stats()["snapshots"] == 0


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
                         ("hammer", {"token": "c0", "budget_ms": 0}),
                         ("hammer", {"token": "c0", "max_depth": 2, "budget_ms": 1000,
                                     "premise_limit": None, "mesh_weight": 0.5}),
                         ("hammer", {"token": "c0", "max_depth": 2.0, "budget_ms": 1000,
                                     "premise_limit": 8, "mesh_weight": 0.5}),
                         ("hammer", {"token": "c0", "max_depth": 2, "budget_ms": 1000,
                                     "premise_limit": 8, "mesh_weight": "0.5"})):
        with pytest.raises(BackendError) as err:
            client._expect(client._call(cmd, payload=payload))
        assert err.value.category == "protocol_error", (cmd, payload)
    assert client.init()["protocol"] == PROTOCOL_VERSION


HAMMER_PAYLOAD = {"max_depth": 2, "budget_ms": 1000, "premise_limit": 8, "mesh_weight": 0.5}


@pytest.mark.parametrize("key,value", [
    ("max_depth", -3), ("budget_ms", -5), ("budget_ms", 0), ("premise_limit", -1),
    ("premise_limit", True), ("premise_limit", 2.0), ("mesh_weight", -0.25),
    ("mesh_weight", 1.5), ("mesh_weight", float("nan")), ("mesh_weight", float("inf")),
    ("mesh_weight", float("-inf")), ("mesh_weight", True), ("mesh_weight", None)])
def test_out_of_range_hammer_integers_are_protocol_errors(key, value):
    """A negative depth or a budget below 1 ms would answer ``notfound`` or
    ``timeout`` without searching, and a negative limit or a weight outside
    [0, 1] selects no ranking; none is a hammer setting. ``json.loads``
    reads ``NaN`` and ``Infinity``, which fail the range too. None of them
    runs the hammer."""
    server = ProverServer()
    token, _ = server.prover.start(PROTO, "t1")
    payload = {"token": token, **HAMMER_PAYLOAD, key: value}
    with mock.patch.object(server.prover, "hammer_at") as hammer_at:
        response = server.handle_line(
            json.dumps({"id": 4, "cmd": "hammer", "payload": payload}))
    assert (response.id, response.ok) == (4, False)
    assert response.error["category"] == "protocol_error" and key in response.error["detail"]
    assert not hammer_at.called


@pytest.mark.parametrize("missing", ["premise_limit", "mesh_weight", "max_depth", "budget_ms"])
def test_hammer_without_its_premises_or_budgets_is_protocol_error(client, missing):
    """The engine sets the hammer's premise selection and budgets, so
    ``hammer`` requires all four; a request that lacks one runs nothing and
    keeps the connection."""
    token, _ = client.start(PROTO, "t1")
    payload = {"token": token, **HAMMER_PAYLOAD}
    del payload[missing]
    with pytest.raises(BackendError) as err:
        client._expect(client._call("hammer", payload=payload))
    assert err.value.category == "protocol_error" and missing in err.value.detail
    assert client.hammer_at(token, HAMMER, PREMISES).found
    assert _counts(client) == {"start": 1, "hammer": 2}


@pytest.mark.parametrize("key,value,kinds", [("max_depth", 0, ("notfound",)),
                                             ("premise_limit", 0, ("notfound",)),
                                             ("mesh_weight", 0, ("found",)),
                                             ("mesh_weight", 1, ("found",)),
                                             ("budget_ms", 1, ("found", "timeout"))])
def test_least_hammer_integers_are_accepted(key, value, kinds):
    """No depth, or a limit of 0, whose pool is empty and leaves only the
    fact-free moves for a goal that needs ``apply [f2]``, finds nothing;
    either end of the weight's range and a 1 ms budget run."""
    server = ProverServer()
    token, _ = server.prover.start(PROTO, "t1")
    payload = {"token": token, **HAMMER_PAYLOAD, key: value}
    response = server.handle_line(json.dumps({"id": 5, "cmd": "hammer", "payload": payload}))
    assert response.ok and response.payload["result"] in kinds


@pytest.mark.parametrize("line", ['{"id": true, "cmd": "init"}',
                                  '{"id": false, "cmd": "init", "payload": {}}'])
def test_boolean_request_id_is_protocol_error(line):
    with pytest.raises(ProtocolError):
        decode_request(line)
    response = ProverServer().handle_line(line)
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
                "ids", "tokens", "max_depth", "premise_limit", "mesh_weight", "budget_ms",
                "pool")
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
        "hammer": {"token": "c404", **HAMMER_PAYLOAD},
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
    server = ProverServer(ToyProver())
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
    response = server.handle_line(json.dumps(request))
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
    response = ProverServer().handle_line(line)
    assert response.ok is False and response.error["category"] == "protocol_error"


def test_non_string_theory_source_is_protocol_error():
    server = ProverServer()
    response = server.handle_line(
        '{"id":1,"cmd":"start","payload":{"source":5,"theorem":"t1"}}')
    assert (response.id, response.ok) == (1, False)
    assert response.error["category"] == "protocol_error"


# -- deadline misses ----------------------------------------------------------------

LATE_STATE = "⊢ p"


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
    # to the missed request (id 1) is skipped by its id, unread: its token
    # goes with the root it descends from
    results, token = client.replay("c0", ["intro"], timeout_ms=5000)
    assert [r.ok for r in results] == [True] and token == "r2"
    client.release(["c0"])
    client.init()
    assert slow.releases() == [[], [], ["c0"]]
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


def test_a_late_batch_reply_is_dropped_unread():
    """The late reply, read while the next request waits, is thrown away:
    its tokens go with the root they descend from, so the request after it
    carries only what ``release`` queued."""
    slow = _SlowServer(delay_s=0.6)
    client = RemoteProver.connect_tcp("127.0.0.1", slow.port, grace_ms=100)
    client.apply_batch([("c0", ["intro", "split"]), ("c1", ["simp"])],
                       timeout_ms=50)  # request 1 misses
    client.apply_batch([("c0", ["intro"])], timeout_ms=5000)  # reads the late reply to 1
    client.release(["c0"])
    client.stats()
    client.close()
    assert slow.releases() == [[], [], ["c0"]]
    assert slow.commands == ["apply_batch", "apply_batch", "stats"]
    slow.close()


def test_silent_server_cannot_hang_control_commands_or_close(monkeypatch):
    """``init`` and ``stats`` carry no budget, and each waits
    ``CONTROL_WAIT_MS`` plus grace: against a server that takes the
    connection and never answers, each ends in ``DeadlineMiss``, and
    ``close`` closes the socket without waiting."""
    monkeypatch.setattr("stepwise.protocol.CONTROL_WAIT_MS", 200)
    silent = socket.create_server(("127.0.0.1", 0))  # never accepts or answers
    outcomes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        client = RemoteProver.connect_tcp("127.0.0.1", silent.getsockname()[1], grace_ms=100)
        sock = client.transport._sock

        def run():
            for call in (client.init, client.stats):
                try:
                    call()
                except DeadlineMiss:
                    outcomes.append(call.__name__)
            client.close()
            outcomes.append("closed")

        thread = threading.Thread(target=run, daemon=True)
        started = time.monotonic()
        thread.start()
        thread.join(timeout=5)
        elapsed = time.monotonic() - started
        silent.close()  # resets the connection of a call still waiting
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcomes == ["init", "stats", "closed"]
        assert elapsed < 2 * 0.3 + 1.0  # two waits of 200 ms plus 100 ms grace
        assert sock.fileno() == -1
        del client, sock, run, thread
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_close_after_a_missed_reply_returns_at_once_and_sends_nothing():
    """``close`` neither awaits the missed reply nor sends a request, so the
    server reads one request and then the end of the stream."""
    slow = _SlowServer(delay_s=1.5)
    client = RemoteProver.connect_tcp("127.0.0.1", slow.port, grace_ms=300)
    [[(missed, _, _)]] = client.apply_batch([("c0", ["intro"])], timeout_ms=50)
    assert missed.category == "timeout"
    client.release(["c0"])
    started = time.monotonic()
    client.close()
    assert time.monotonic() - started < 0.2  # less than the grace
    assert client.transport._sock.fileno() == -1
    slow.thread.join(timeout=5)
    assert not slow.thread.is_alive()
    assert slow.commands == ["apply_batch"]
    slow.close()


def test_release_field_applies_before_the_command_even_one_that_fails():
    server = ProverServer()
    root, _ = server.prover.start(PROTO, "t1")
    other, _ = server.prover.start(PROTO, "t2")
    response = server.handle_line(json.dumps(
        {"id": 1, "cmd": "replay", "payload": {"token": root, "steps": ["intro"]},
         "release": [root, "never_issued"]}))
    assert response.error["category"] == "unknown_session"
    response = server.handle_line(json.dumps(
        {"id": 2, "cmd": "frobnicate", "payload": {}, "release": [other]}))
    assert response.error["category"] == "prover_error"
    assert server.prover.stats()["snapshots"] == 0


class _SlowProver(ToyProver):
    delay_s = 0.0

    def start(self, theory, theorem_id):
        time.sleep(self.delay_s)
        return super().start(theory, theorem_id)

    def apply_batch(self, groups, timeout_ms=None, atom_limit=None):
        time.sleep(self.delay_s)
        return super().apply_batch(groups, timeout_ms, atom_limit)

    def replay(self, token, steps, timeout_ms=None):
        time.sleep(self.delay_s)
        return super().replay(token, steps, timeout_ms)


def test_missed_batch_snapshots_go_with_their_root():
    prover = _SlowProver()
    with _connection(prover, grace_ms=100) as client:
        token, _ = client.start(PROTO, "t1")
        prover.delay_s = 0.5
        [missed] = client.apply_batch([(token, ["intro", "apply [f2]"])], timeout_ms=1)
        assert [r.category for r, _, _ in missed] == ["timeout", "timeout"]
        prover.delay_s = 0.0
        client.init()  # reads the late reply and drops it
        # the missed success lives on under the token
        assert client.stats()["snapshots"] == 2
        client.release([token])
        assert client.stats()["snapshots"] == 0


def test_missed_batch_stores_no_verdicts_and_release_frees_its_snapshots():
    prover = _SlowProver()
    with _connection(prover, grace_ms=100) as client:
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
        assert verdict == "none"
        assert "counterexample" not in client.stats()["commands"]
        client.release([token])
        assert client.stats()["snapshots"] == 0


def test_missed_replay_snapshot_goes_with_its_root():
    prover = _SlowProver()
    with _connection(prover, grace_ms=100) as client:
        token, _ = client.start(PROTO, "t1")
        prover.delay_s = 0.5
        assert client.replay(token, ["apply [f2]"], timeout_ms=1)[1] is None
        prover.delay_s = 0.0
        results, final = client.replay(token, ["apply [f2]", "apply [f1]"], timeout_ms=3000)
        assert results[-1].state.qed
        # the token, the missed replay's final state and this final
        assert client.stats()["snapshots"] == 3
        client.release([token])
        assert client.stats()["snapshots"] == 0


class _LateProver(_SlowProver):
    """Counts the snapshots its ``apply_batch`` and ``replay`` store."""
    stored = 0

    def apply_batch(self, groups, timeout_ms=None, atom_limit=None):
        out = super().apply_batch(groups, timeout_ms, atom_limit)
        self.stored += sum(token is not None for results in out for _, token, _ in results)
        return out

    def replay(self, token, steps, timeout_ms=None):
        results, final = super().replay(token, steps, timeout_ms)
        self.stored += final is not None
        return results, final


def test_a_prove_whose_replies_arrive_late_leaves_no_snapshots():
    """Over TCP, a search's ``apply_batch`` and a prefix's ``replay`` are
    answered after the client gave up on them. The client drops the late
    replies unread, and the root's release, which the next request carries,
    frees every snapshot they made."""
    from stepwise.config import EngineConfig
    from stepwise.engine import prove_theorem
    from stepwise.search import ReplayError
    from test_search import FixedPoolGenerator

    prover = _LateProver()
    prover.delay_s = 0.3
    config = EngineConfig(max_iterations=2, repair_rounds=0, step_timeout_ms=1)
    generator = FixedPoolGenerator([("intro", -0.1), ("apply [f1]", -0.2)])
    with _connection(prover, tcp=True, grace_ms=100) as client:
        result = prove_theorem(PROTO, "t2", config, backend=client, generator=generator)
        assert result.via == "fallback"  # the search saw only timeouts
        with pytest.raises(ReplayError, match="timeout"):
            prove_theorem(PROTO, "t2", config, backend=client, generator=generator,
                          prefix_steps=(parse_step("intro"),))
        stats = client.stats()
    assert prover.stored == 2  # the late batch's success and the late replay's final
    assert {cmd: stats["commands"][cmd]["count"] for cmd in ("apply_batch", "replay")} \
        == {"apply_batch": 1, "replay": 1}
    assert stats["snapshots"] == 0


def test_missed_start_leaves_no_server_objects_once_its_reply_is_read(monkeypatch):
    """``start`` waits ``CONTROL_WAIT_MS`` plus grace; the root of a reply
    that comes later is released with the request after the one that reads
    it."""
    monkeypatch.setattr("stepwise.protocol.CONTROL_WAIT_MS", 100)
    prover = _SlowProver()
    with _connection(prover, grace_ms=100) as client:
        prover.delay_s = 0.5
        with pytest.raises(DeadlineMiss):
            client.start(PROTO, "t1")
        prover.delay_s = 0.0
        monkeypatch.setattr("stepwise.protocol.CONTROL_WAIT_MS", 5000)
        client.init()  # reads the late reply
        stats = client.stats()
        assert (stats["commands"]["start"]["count"], stats["snapshots"]) == (1, 0)


def test_start_and_replay_without_a_budget_cannot_hang_on_a_silent_server(
        garbage_client, monkeypatch):
    """Against a server that reads requests and never answers, ``start``
    ends in ``DeadlineMiss`` after ``CONTROL_WAIT_MS`` plus grace, and a
    ``replay`` sent without ``timeout_ms`` gives one ``timeout`` after the
    server's default budget per step plus grace."""
    monkeypatch.setattr("stepwise.protocol.CONTROL_WAIT_MS", 200)
    monkeypatch.setattr("stepwise.protocol.DEFAULT_STEP_BUDGET_MS", 100)
    client = garbage_client(b"", b"", b"", grace_ms=100)
    outcomes = []

    def run():
        started = time.monotonic()
        try:
            client.start(PROTO, "t1")
        except DeadlineMiss as e:
            outcomes.append((str(e), time.monotonic() - started))
        started = time.monotonic()
        [result], token = client.replay("c0", ["intro", "split"])
        outcomes.append((result.category, token, result.detail,
                         time.monotonic() - started))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=5)
    if thread.is_alive():  # unblock the call still waiting
        client.transport._sock.shutdown(socket.SHUT_RDWR)
        thread.join(timeout=5)
    [(miss, start_s), (category, token, detail, replay_s)] = outcomes
    assert miss == "no reply to start request 1 within 200 ms plus 100 ms grace"
    assert (category, token) == ("timeout", None)
    assert "200 ms" in detail  # two steps of 100 ms
    assert 0.3 <= start_s < 0.3 + 1.0 and 0.3 <= replay_s < 0.3 + 1.0


def test_dropped_connection_leaves_no_snapshots():
    """``close`` only drops the socket. Snapshots the client holds, and the
    ones it queued for release but never sent, are freed once the stream
    ends."""
    prover = ToyProver()
    with _connection(prover) as client:
        token, _ = client.start(PROTO, "t1")
        [[(_, child, _)]] = client.apply_batch([(token, ["apply [f2]"])], timeout_ms=3000)
        assert client.stats()["snapshots"] == 2
        client.release([child])
        client.close()
    assert prover.stats()["snapshots"] == 0


def test_connections_cannot_reach_each_others_snapshots(server_port):
    """On one TCP server, a second connection's ``replay`` or ``hammer`` of
    the first one's token is ``unknown_session``, and its ``release`` of
    the first one's tokens leaves them live."""
    a = RemoteProver.connect_tcp("127.0.0.1", server_port)
    b = RemoteProver.connect_tcp("127.0.0.1", server_port)
    try:
        root, _ = a.start(PROTO, "t1")
        [[(_, child, _)]] = a.apply_batch([(root, ["apply [f2]"])], timeout_ms=3000)
        before = a.stats()["snapshots"]
        assert before == 2
        for call in (lambda: b.replay(root, ["apply [f1]"], timeout_ms=3000),
                     lambda: b.hammer_at(child, HAMMER, PREMISES)):
            with pytest.raises(BackendError) as err:
                call()
            assert err.value.category == "unknown_session"
        b.release([root, child])
        assert b.stats()["snapshots"] == 0
        assert a.stats()["snapshots"] == before
        assert a.replay(child, ["apply [f1]"], timeout_ms=3000)[0][-1].state.qed
    finally:
        a.close()
        b.close()


def _padded(request: dict, size: int) -> bytes:
    """``request`` as a line of exactly ``size`` bytes, its newline included."""
    line = json.dumps(request).encode()
    return line + b" " * (size - 1 - len(line)) + b"\n"


def test_over_long_request_line_is_protocol_error_and_ends_the_stream(monkeypatch):
    """A line of ``MAX_LINE_BYTES`` is served; one byte more gets
    ``protocol_error`` naming the cap, and nothing after it is read."""
    monkeypatch.setattr("stepwise.protocol.MAX_LINE_BYTES", 64)
    prover = ToyProver()
    stream = io.BytesIO(_padded({"id": 1, "cmd": "init"}, 64)
                        + _padded({"id": 2, "cmd": "init"}, 65)
                        + _padded({"id": 3, "cmd": "init"}, 20))
    out = io.BytesIO()
    ProverServer(prover).handle_stream(stream, out)
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [(r["id"], r["ok"]) for r in replies] == [(1, True), (0, False)]
    assert replies[1]["error"]["category"] == "protocol_error"
    assert "MAX_LINE_BYTES (64 bytes)" in replies[1]["error"]["detail"]


class _GarbageServer:
    """Accepts one connection and answers its requests, in order, with the
    given raw bytes (``b""`` answers nothing), then closes it."""

    def __init__(self, *replies: bytes):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.replies = replies
        threading.Thread(target=self._run, daemon=True).start()

    def _run(self):
        try:
            conn, _ = self.sock.accept()
            with conn:
                for reply in self.replies:
                    conn.recv(65536)
                    conn.sendall(reply)
        except OSError:  # the client or the test closed first
            return

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
    client = garbage_client(_reply(1, {"state": "⊢ q"}))
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


def test_a_stale_reply_is_read_only_for_a_missed_starts_root(garbage_client, monkeypatch):
    """A late batch reply is thrown away unread, malformed or not. A late
    ``start`` reply is read for its root, so one without a token names its
    request."""
    client = garbage_client(b"", b'{"id": 1, "ok": true, "payload": {}}\n'
                                 b'{"id": 2, "ok": true, "payload": {}}\n', grace_ms=100)
    [[(missed, _, _)]] = client.apply_batch([("c0", ["intro"])], timeout_ms=1)
    assert missed.category == "timeout"
    assert client.init() == {}  # reads the late reply to request 1 first
    monkeypatch.setattr("stepwise.protocol.CONTROL_WAIT_MS", 1)
    client = garbage_client(b"", _reply(1, {"state": "⊢ q"}) + _reply(2, {}), grace_ms=100)
    with pytest.raises(DeadlineMiss):
        client.start(PROTO, "t1")
    with pytest.raises(ProtocolError) as err:
        client.init()
    assert err.value.offending_id == 1 and "request 1" in str(err.value)


def _reply(rid, payload):
    return json.dumps({"id": rid, "ok": True, "payload": payload}).encode() + b"\n"


def _batch_reply(rid, *items):
    return _reply(rid, {"results": [list(items)]})


@pytest.mark.parametrize("state", [
    "p",
    "⊢ p q",
    "",
    {"subgoals": [{"hyps": [], "goal": "q"}], "depth": 0},
], ids=["no_turnstile", "two_goals", "empty", "version_8_object"])
def test_state_that_does_not_parse_is_protocol_error_naming_the_request(
        garbage_client, state):
    """Every state on the wire is its ``render_state`` text: one that
    ``parse_state`` rejects, or a version-8 state object, in a ``start``,
    ``apply_batch`` or ``replay`` reply names that request."""
    client = garbage_client(_reply(1, {"token": "c0", "state": state}),
                            _batch_reply(2, {"token": "c1", "state": state}),
                            _reply(3, {"results": [state], "token": "c2"}))
    calls = (lambda: client.start(PROTO, "t1"),
             lambda: client.apply_batch([("c0", ["intro"])]),
             lambda: client.replay("c0", ["intro"]))
    for rid, call in enumerate(calls, 1):
        with pytest.raises(ProtocolError) as err:
            call()
        assert err.value.offending_id == rid and f"request {rid}" in str(err.value)


@pytest.mark.parametrize("entry", [5, None, ["⊢ p"], {"detail": "no category"}])
def test_replay_entry_neither_state_nor_failure_is_protocol_error(garbage_client, entry):
    client = garbage_client(_reply(1, {"results": ["⊢ p", entry]}))
    with pytest.raises(ProtocolError) as err:
        client.replay("c0", ["intro", "intro"])
    assert err.value.offending_id == 1 and "request 1" in str(err.value)


OPEN = {"token": "c1", "state": LATE_STATE}
CLOSED = {"token": "c2", "state": "QED"}


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
    """A ``cex`` is one of three bare strings; another string, or a
    version-7 verdict object, is not a verdict."""
    client = garbage_client(_batch_reply(1, {**OPEN, "cex": "bogus"}),
                            _batch_reply(2, {**OPEN, "cex": {"result": "none"}}),
                            _batch_reply(3, {**OPEN, "cex": "none"}))
    for rid, shown in ((1, "bogus"), (2, "result")):
        with pytest.raises(ProtocolError) as err:
            client.apply_batch([("c0", ["intro"])], atom_limit=16)
        assert err.value.offending_id == rid and shown in str(err.value)
    [[(_, _, verdict)]] = client.apply_batch([("c0", ["intro"])], atom_limit=16)
    assert verdict == "none"


def test_unknown_hammer_result_is_protocol_error_naming_the_request(garbage_client):
    client = garbage_client(b'{"id": 1, "ok": true, "payload": {"result": "timeout"}}\n',
                            b'{"id": 2, "ok": true, "payload": {"result": "maybe"}}\n')
    assert client.hammer_at("c0", HAMMER, PREMISES).kind == "timeout"
    with pytest.raises(ProtocolError) as err:
        client.hammer_at("c0", HAMMER, PREMISES)
    assert err.value.offending_id == 2 and "maybe" in str(err.value)


def test_request_line_that_is_not_utf8_is_protocol_error_and_is_not_run():
    """A ``start`` whose source holds byte 0xff in a fact name is answered
    like an undecodable line (id 0), and the stream goes on."""
    start = json.dumps({"id": 1, "cmd": "start", "payload": {
        "source": THEORY.replace("axiom f1:", "axiom f1@@:"), "theorem": "t1"}})
    lines = [start.encode().replace(b"@@", b"\xff"),
             json.dumps({"id": 2, "cmd": "stats"}).encode()]
    server = ProverServer()
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


def test_stdio_server_over_os_pipes():
    """``serve --stdio`` answers on plain pipes, not only on a socket pair,
    and exits at the end of its input. No command ends the connection: a
    ``shutdown`` is an unknown command, and the next request is served."""
    requests = [{"id": 1, "cmd": "init"},
                {"id": 2, "cmd": "start", "payload": {"source": THEORY, "theorem": "t2"}},
                {"id": 3, "cmd": "shutdown"},
                {"id": 4, "cmd": "stats"}]
    done = subprocess.run(SERVE_STDIO, capture_output=True, timeout=60,
                          input="".join(json.dumps(r) + "\n" for r in requests).encode())
    assert done.returncode == 0
    replies = [json.loads(line) for line in done.stdout.decode().splitlines()]
    assert [(r["id"], r["ok"]) for r in replies] == [(1, True), (2, True), (3, False), (4, True)]
    assert replies[0]["payload"]["protocol"] == PROTOCOL_VERSION
    assert "shutdown" not in replies[0]["payload"]["commands"]
    assert replies[1]["payload"]["state"] == "⊢ p -> p"
    assert replies[2]["error"] == {"category": "prover_error",
                                   "detail": "unknown command 'shutdown'"}
    assert replies[3]["payload"]["snapshots"] == 1


def test_started_theories_are_freed_once_their_tokens_are_released():
    """The server keeps no parsed theory: once the snapshots of 50
    distinct sources are released, none of their theories is alive."""
    server = ProverServer()
    names = {f"proto{i}" for i in range(50)}
    tokens = []
    for rid, name in enumerate(sorted(names), 1):
        source = THEORY.replace("theory proto", f"theory {name}")
        response = server.handle_line(json.dumps(
            {"id": rid, "cmd": "start", "payload": {"source": source, "theorem": "t1"}}))
        tokens.append(response.payload["token"])
    response = server.handle_line(json.dumps(
        {"id": 51, "cmd": "stats", "payload": {}, "release": tokens}))
    assert response.payload["snapshots"] == 0
    gc.collect()
    assert [t for t in gc.get_objects() if isinstance(t, Theory) and t.name in names] == []


class _ReadKeys(dict):
    """A payload that records which keys the server reads by subscript."""

    read: set = set()

    def __getitem__(self, key):
        self.read = self.read | {key}
        return super().__getitem__(key)


def test_protocol_doc_covers_every_command_and_the_version():
    """docs/protocol.md has one section per command, no other, names the
    current version first and in the ``init`` section, and lists exactly
    the ``hammer`` request fields the server reads."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "protocol.md").read_text()
    assert sorted(re.findall(r"^### `([^`]*)`", doc, re.MULTILINE)) == sorted(COMMANDS)
    assert re.search(r"\bversion (\d+)\b", doc).group(1) == str(PROTOCOL_VERSION)
    section = doc.split("### `init`", 1)[1].split("\n### ", 1)[0]
    assert re.findall(r"`protocol` is `(\d+)`", section) == [str(PROTOCOL_VERSION)]
    server = ProverServer()
    token, _ = server.prover.start(PROTO, "t1")
    payload = _ReadKeys({"token": token, **HAMMER_PAYLOAD,
                         "pool": ["f1"]})  # the last is not a field: nothing reads it
    server.dispatch(Request(1, "hammer", payload))
    section = doc.split("### `hammer`", 1)[1].split("\n### ", 1)[0]
    fields = re.search(r"In: `?\{([^}]*)\}", section).group(1)
    assert {f.strip() for f in fields.split(",")} == payload.read == {
        "token", "max_depth", "budget_ms", "premise_limit", "mesh_weight"}


def test_trace_env_dumps_frames(server_port, monkeypatch, capsys):
    monkeypatch.setenv("STEPWISE_PROTOCOL_TRACE", "1")
    client = RemoteProver.connect_tcp("127.0.0.1", server_port)
    client.init()
    client.close()
    err = capsys.readouterr().err
    assert "[protocol send]" in err and '"cmd": "init"' in err


@pytest.mark.parametrize("setting", ["1", None], ids=["set", "unset"])
def test_trace_env_dumps_the_servers_frames(setting, monkeypatch, capsys):
    """The environment variable is the server's one trace switch too: set,
    one request dumps the line received and the line sent; unset, nothing."""
    if setting is None:
        monkeypatch.delenv("STEPWISE_PROTOCOL_TRACE", raising=False)
    else:
        monkeypatch.setenv("STEPWISE_PROTOCOL_TRACE", setting)
    request = json.dumps({"id": 1, "cmd": "init"})
    out = io.BytesIO()
    ProverServer().handle_stream(io.BytesIO((request + "\n").encode()), out)
    reply = out.getvalue().decode().rstrip("\n")
    err = capsys.readouterr().err
    if setting is None:
        assert err == ""
    else:
        assert err == f"[protocol recv] {request}\n[protocol send] {reply}\n"
