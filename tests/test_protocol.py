import gc
import json
import os
import random
import socket
import sys
import threading
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_first_counterexample, random_formula
from stepwise.core import canonical_state
from stepwise.formulas import render
from stepwise.prover import ToyProver, load_theory
from stepwise.protocol import (
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
       st.sampled_from(("init", "apply", "clone", "hammer")),
       st.one_of(st.none(), st.text(min_size=1, max_size=8)),
       payloads,
       st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)))
def test_request_codec_round_trip(rid, cmd, session, payload, timeout_ms):
    req = Request(rid, cmd, session, payload, timeout_ms)
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
    req = Request(1, "apply", "s0", {"step": "intro\nassumption"})
    line = encode_request(req)
    assert "\n" not in line
    assert decode_request(line).payload["step"] == "intro\nassumption"


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


# -- server behaviour over TCP ---------------------------------------------------

def test_apply_matches_in_process_results(client):
    local = ToyProver()
    local.load_theory(THEORY)
    name = client.load_theory(THEORY)
    assert name == "proto"

    remote_sid = client.start("proto", "t1")
    local_sid = local.start("proto", "t1")
    for text in ("intro", "apply [f2]", "apply [ghost]", "elim [d]", "simp"):
        remote_result = client.apply(remote_sid, text, timeout_ms=3000)
        local_result = local.apply(local_sid, text)
        assert remote_result.ok == local_result.ok
        if remote_result.ok:
            assert canonical_state(remote_result.state) \
                == canonical_state(local_result.state)
        else:
            assert (remote_result.category, remote_result.detail) \
                == (local_result.category, local_result.detail)


def test_undefined_fact_error_echoes_the_name(client):
    client.load_theory(THEORY)
    sid = client.start("proto", "t1")
    result = client.apply(sid, "apply [missing_lemma]", timeout_ms=3000)
    assert result.category == "undefined_fact"
    assert "missing_lemma" in result.detail


def test_clone_restore_and_state_round_trip(client):
    client.load_theory(THEORY)
    sid = client.start("proto", "t1")
    token = client.clone(sid)
    before = canonical_state(client.state(sid))
    assert client.apply(sid, "apply [f2]", timeout_ms=3000).ok
    restored = client.restore(token)
    assert canonical_state(client.state(restored)) == before


def test_counterexample_and_hammer_over_wire(client):
    client.load_theory(THEORY)
    sid = client.start("proto", "t1")
    verdict = client.counterexample(sid)
    assert verdict.kind == "none"  # q follows from f1, f2
    result = client.hammer(sid)
    assert result.found
    replayed = client.restore(client.clone(sid))
    for step in result.steps:
        assert client.apply(replayed, step, timeout_ms=3000).ok
    assert client.state(replayed).qed


def test_counterexample_atom_limit_out_of_range_is_protocol_error(client):
    client.load_theory("theory tiny\naxiom f: p\ntheorem t: p -> q\nend\n")
    sid = client.start("tiny", "t")
    with pytest.raises(BackendError) as err:
        client._expect(client._call(
            "counterexample", session=sid, payload={"atom_limit": 1_000_000}))
    assert err.value.category == "protocol_error"
    assert "atom_limit" in str(err.value)
    # the connection and the session still work
    verdict = client.counterexample(sid)
    assert verdict.kind == "counterexample" and verdict.assignment == {"p": True, "q": False}


def test_theory_cache_reported(tcp_server):
    client = RemoteProver.connect_tcp("127.0.0.1", tcp_server)
    first = client._expect(client._call("load_theory", payload={"source": THEORY}))
    second = client._expect(client._call("load_theory", payload={"source": THEORY}))
    assert first["cached"] is False
    assert second["cached"] is True
    client.close()


def test_unknown_session_is_backend_error(client):
    with pytest.raises(BackendError):
        client.state("nonexistent")


def test_stats_command_reports_live_objects_and_commands(client):
    before = client.stats()
    assert (before["sessions"], before["snapshots"]) == (0, 0)
    client.load_theory(THEORY)
    sid = client.start("proto", "t1")
    token = client.clone(sid)
    client.apply_batch(token, ["intro", "apply [f2]"], timeout_ms=3000)
    stats = client.stats()
    assert (stats["sessions"], stats["snapshots"]) == (1, 2)
    commands = stats["commands"]
    for cmd in ("load_theory", "start", "clone", "apply_batch"):
        assert commands[cmd]["count"] == 1 and commands[cmd]["ms"] >= 0.0
    assert commands["stats"]["count"] == 1  # the earlier call, not this one
    assert "restore" not in commands


def test_apply_batch_over_wire_matches_in_process(client):
    local = ToyProver()
    local.load_theory(THEORY)
    client.load_theory(THEORY)
    steps = ["intro", "apply [ghost]", "elim [d]", "simp", "apply [f2]", "apply [f1]"]
    remote = client.apply_batch(client.clone(client.start("proto", "t1")), steps,
                                timeout_ms=3000)
    here = local.apply_batch(local.clone(local.start("proto", "t1")), steps, 3000)
    assert len(remote) == len(here) == len(steps)
    for (r, r_token), (h, h_token) in zip(remote, here):
        assert r.ok == h.ok and (r_token is None) == (h_token is None)
        if r.ok:
            assert canonical_state(r.state) == canonical_state(h.state)
        else:
            assert (r.category, r.detail) == (h.category, h.detail)
    # a success token addresses its state, and a zero-subgoal success ends the batch
    [(closed, closed_token)] = client.apply_batch(remote[4][1], ["apply [f1]", "intro"],
                                                  timeout_ms=3000)
    assert closed.state.qed and closed_token is not None
    with pytest.raises(BackendError) as err:
        client.apply_batch("c404", ["intro"], timeout_ms=3000)
    assert err.value.category == "unknown_session"


def test_token_addressed_oracles_open_no_session(client):
    client.load_theory(THEORY)
    sid = client.start("proto", "t1")
    token = client.clone(sid)
    client.release([sid])
    assert client.counterexample_at(token).kind == "none"
    result = client.hammer_at(token)
    assert result.found
    stats = client.stats()
    assert (stats["sessions"], stats["snapshots"]) == (0, 1)
    assert "restore" not in stats["commands"]
    client.release([token, "never_issued"])
    assert (client.stats()["snapshots"]) == 0


def test_counterexample_batch_over_wire_matches_in_process(client):
    rng = random.Random(5)
    local = ToyProver()
    local_tokens, remote_tokens, states = [], [], []
    for i in range(25):
        axioms = [f"axiom f{k}: {render(random_formula(rng, rng.randint(1, 3)))}"
                  for k in range(rng.randint(0, 3))]
        goal = render(random_formula(rng, rng.randint(1, 5)))
        source = "\n".join([f"theory rand{i}", *axioms, f"theorem t: {goal}", "end"]) + "\n"
        local.load_theory(source)
        client.load_theory(source)
        sid = local.start(f"rand{i}", "t")
        here, there = local.clone(sid), client.clone(client.start(f"rand{i}", "t"))
        local_tokens.append(here)
        remote_tokens.append(there)
        states.append(local.state(sid))
        steps = ["intro", "split", "elim [f0]", "left", "right", "simp"]
        for (h, h_token), (_, t_token) in zip(local.apply_batch(here, steps, 3000),
                                              client.apply_batch(there, steps, timeout_ms=3000)):
            if h_token is not None:
                local_tokens.append(h_token)
                remote_tokens.append(t_token)
                states.append(h.state)
    kinds = set()
    for atom_limit in (2, 16):
        verdicts = client.counterexamples_at(remote_tokens, atom_limit)
        assert verdicts == [local.counterexample_at(t, atom_limit) for t in local_tokens]
        for state, verdict in zip(states, verdicts):
            kinds.add(verdict.kind)
            if verdict.kind == "counterexample":
                assert (verdict.assignment, verdict.subgoal_index) \
                    == naive_first_counterexample(state)
    assert kinds == {"none", "counterexample", "unknown"}
    assert client.stats()["commands"]["counterexample"]["count"] == 2


def test_counterexample_batch_with_an_unknown_token_fails_whole(client):
    client.load_theory(THEORY)
    token = client.clone(client.start("proto", "t1"))
    with pytest.raises(BackendError) as err:
        client.counterexamples_at([token, "c404", token])
    assert err.value.category == "unknown_session"
    with pytest.raises(BackendError) as err:
        client._expect(client._call("counterexample", payload={"tokens": token}))
    assert err.value.category == "protocol_error"
    assert client.counterexamples_at([token, token])[1].kind == "none"


def test_unknown_command_rejected(client):
    with pytest.raises(BackendError):
        client._expect(client._call("frobnicate"))


def test_malformed_request_line_gets_protocol_error():
    server = ProverServer(trace=False)
    response, shutdown = server.handle_line("this is not json")
    assert not shutdown
    assert response.ok is False
    assert response.error["category"] == "protocol_error"


def test_full_state_flag_controls_apply_payload(client):
    client.load_theory(THEORY)
    sid = client.start("proto", "t1")
    slim = client._expect(client._call(
        "apply", session=sid, payload={"step": "apply [f2]"}, timeout_ms=3000))
    assert "state" not in slim and "key" in slim and slim["subgoals"] == 1
    full = client._expect(client._call(
        "apply", session=sid, payload={"step": "apply [f1]", "full_state": True},
        timeout_ms=3000))
    assert "state" in full


# -- deadline misses and poisoning --------------------------------------------------

class _SlowServer:
    """Accepts one connection; delays the response to any apply or
    apply_batch command and records every request it receives."""

    def __init__(self, delay_s=1.5):
        self.delay_s = delay_s
        self.commands = []
        self.requests = []
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

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
                    if request["cmd"] == "apply_batch":
                        time.sleep(self.delay_s)
                        # one success per step, each token naming its request
                        payload = {"results": [
                            {"token": f"r{request['id']}.{i}",
                             "state": {"subgoals": [{"hyps": [], "goal": "p"}], "depth": 1}}
                            for i, _ in enumerate(request["payload"]["steps"])]}
                    elif request["cmd"] == "apply":
                        time.sleep(self.delay_s)
                        payload = {"subgoals": 1, "key": "late", "depth": 1,
                                   "state": {"subgoals": [{"hyps": [], "goal": "p"}],
                                             "depth": 1}}
                    elif request["cmd"] == "restore":
                        payload = {"session": request.get("session") or "s0"}
                    else:
                        payload = {"session": "s0", "subgoals": 1, "key": "k",
                                   "token": "c0", "theory": "proto", "entries": 0,
                                   "cached": False}
                    out = {"id": request["id"], "ok": True, "payload": payload}
                    try:
                        conn.sendall((json.dumps(out) + "\n").encode())
                    except OSError:
                        return

    def close(self):
        self.sock.close()


def test_deadline_miss_poisons_session_until_restore():
    slow = _SlowServer(delay_s=1.2)
    client = RemoteProver(transport=None, grace_ms=100)
    from stepwise.protocol import TcpTransport

    client.transport = TcpTransport("127.0.0.1", slow.port)
    result = client.apply("s0", "intro", timeout_ms=50)
    assert result.category == "timeout"
    # poisoned: rejected locally, no wire round trip
    rejected = client.apply("s0", "intro", timeout_ms=5000)
    assert rejected.category == "timeout"
    assert "poisoned" in rejected.detail
    # restore clears the poison; the stale late reply is skipped transparently
    sid = client.restore("c0", session="s0")
    assert sid == "s0"
    recovered = client.apply("s0", "intro", timeout_ms=5000)
    assert recovered.ok
    client.transport.close()
    slow.close()


def test_batch_deadline_miss_times_out_every_step_and_needs_no_restore():
    from stepwise.protocol import TcpTransport

    slow = _SlowServer(delay_s=0.6)
    client = RemoteProver(TcpTransport("127.0.0.1", slow.port), grace_ms=100)
    # a budget of 50 ms per step: the reply is awaited 2 * 50 + 100 ms
    missed = client.apply_batch("c0", ["intro", "split"], timeout_ms=50)
    assert [(r.category, token) for r, token in missed] == [("timeout", None)] * 2
    # the next batch on the same token gets its own reply; the late reply to
    # the missed request (id 1) is skipped by its id
    results = client.apply_batch("c0", ["intro"], timeout_ms=5000)
    assert [(r.ok, token) for r, token in results] == [(True, "r2.0")]
    assert slow.commands == ["apply_batch", "apply_batch"]
    client.transport.close()
    slow.close()


def test_missed_batch_snapshots_are_named_by_the_next_release():
    from stepwise.protocol import TcpTransport

    slow = _SlowServer(delay_s=0.6)
    client = RemoteProver(TcpTransport("127.0.0.1", slow.port), grace_ms=100)
    client.apply_batch("c0", ["intro", "split"], timeout_ms=50)  # request 1 misses
    client.apply_batch("c0", ["intro"], timeout_ms=5000)  # reads the late reply to 1
    client.release(["c0", "r2.0"])
    client.release([])
    releases = [r["payload"]["ids"] for r in slow.requests if r["cmd"] == "release"]
    assert releases == [["c0", "r2.0", "r1.0", "r1.1"], []]
    client.transport.close()
    slow.close()


class _SlowBatchProver(ToyProver):
    delay_s = 0.0

    def apply_batch(self, token, steps, timeout_ms=None):
        time.sleep(self.delay_s)
        return super().apply_batch(token, steps, timeout_ms)


def test_missed_batch_leaves_no_server_objects_once_its_reply_is_read():
    prover = _SlowBatchProver()
    tcp = ProverServer(prover, trace=False).tcp_server(port=0)
    threading.Thread(target=tcp.serve_forever, daemon=True).start()
    client = RemoteProver.connect_tcp("127.0.0.1", tcp.server_address[1], grace_ms=100)
    try:
        client.load_theory(THEORY)
        sid = client.start("proto", "t1")
        token = client.clone(sid)
        prover.delay_s = 0.5
        missed = client.apply_batch(token, ["intro", "apply [f2]"], timeout_ms=1)
        assert [r.category for r, _ in missed] == ["timeout", "timeout"]
        prover.delay_s = 0.0
        assert client.counterexample_at(token).kind == "none"  # reads the late reply
        assert client.stats()["snapshots"] == 2  # the token and the missed success
        client.release([sid, token])
        stats = client.stats()
        assert (stats["sessions"], stats["snapshots"]) == (0, 0)
    finally:
        client.close()
        tcp.shutdown()
        tcp.server_close()


class _GarbageServer:
    def __init__(self, line: bytes):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.line = line
        threading.Thread(target=self._run, daemon=True).start()

    def _run(self):
        conn, _ = self.sock.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(self.line)

    def close(self):
        self.sock.close()


def test_malformed_response_line_is_protocol_error():
    garbage = _GarbageServer(b"!!not json!!\n")
    from stepwise.protocol import TcpTransport

    client = RemoteProver(TcpTransport("127.0.0.1", garbage.port))
    with pytest.raises(ProtocolError):
        client.init()
    client.transport.close()
    garbage.close()


def test_mismatched_future_id_names_the_offender():
    garbage = _GarbageServer(b'{"id": 99, "ok": true, "payload": {}}\n')
    from stepwise.protocol import TcpTransport

    client = RemoteProver(TcpTransport("127.0.0.1", garbage.port))
    with pytest.raises(ProtocolError) as err:
        client.init()
    assert err.value.offending_id == 99
    client.transport.close()
    garbage.close()


# -- stdio transport ------------------------------------------------------------------

def test_stdio_subprocess_server_round_trip():
    client = RemoteProver.spawn_stdio(
        [sys.executable, "-m", "stepwise.cli", "serve", "--stdio"])
    try:
        name = client.load_theory(THEORY)
        sid = client.start(name, "t2")
        result = client.apply(sid, "intro", timeout_ms=10_000)
        assert result.ok
        assert client.apply(sid, "assumption", timeout_ms=10_000).state.qed
    finally:
        client.close()


def test_stdio_close_closes_each_pipe_once():
    client = RemoteProver.spawn_stdio(
        [sys.executable, "-m", "stepwise.cli", "serve", "--stdio"])
    proc, transport = client._proc, client.transport
    assert client.init()["protocol"] == 3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        client.close()
        assert proc.stdin.closed and proc.stdout.closed
        for fd in (transport._read_fd, transport._write_fd):
            with pytest.raises(OSError):
                os.fstat(fd)
        del client, proc, transport
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_trace_env_dumps_frames(tcp_server, monkeypatch, capsys):
    monkeypatch.setenv("STEPWISE_PROTOCOL_TRACE", "1")
    client = RemoteProver.connect_tcp("127.0.0.1", tcp_server)
    client.init()
    client.close()
    err = capsys.readouterr().err
    assert "[protocol send]" in err and '"cmd": "init"' in err
