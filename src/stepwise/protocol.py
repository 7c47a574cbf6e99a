"""Wire protocol between the search engine and a prover.

Framing is newline-delimited JSON over a byte stream (a TCP connection,
or the stdio of ``stepwise serve --stdio``): one request object per
line of at most ``MAX_LINE_BYTES``, one response per line, in order. Each
request carries an increasing ``id`` echoed by the response, ``timeout_ms``
bounds the command, and ``release`` names snapshots to drop before it
runs. Set ``STEPWISE_PROTOCOL_TRACE=1`` to dump every frame to stderr.

The toy prover is the reference server; ``RemoteProver`` exposes the same
token surface as the in-process backend, so either can sit behind the
engine. A connection owns the snapshots it opens, and they end with it:
the client ends a connection by closing its stream, and no command does.
Every command addresses immutable snapshot tokens: ``start`` carries the
theory source, which the server parses on each call, and returns the
root's, ``apply_batch`` one per success in each of its ``(token, steps)``
groups and ``replay`` the end of a step chain, and ``hammer`` takes one
with the engine's budgets and premise selection, which the server ranks
itself. Releasing a ``start`` token drops every snapshot derived from it,
so the engine releases one root per theorem. A missed deadline loses only
that reply, which the client drops unread, except a late ``start``'s: its
root rides, like every release, on the next request. An ``apply_batch``
that carries an ``atom_limit`` gets the kind of each open success's
counterexample verdict with it,
which is the only way a verdict crosses the wire. A state crosses it as
its ``render_state`` text, which the client reads back with
``parse_state``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import socket
import socketserver
import sys
import time
from dataclasses import dataclass, field

from .core import (
    BARE_FAILURES,
    ERROR_CATEGORIES,
    ProofState,
    StepResult,
    Theory,
    parse_state,
    parse_step,
    render_state,
)
from .prover import (
    DEFAULT_STEP_BUDGET_MS,
    HammerConfig,
    HammerResult,
    PremiseSelection,
    ProverError,
    ToyProver,
    load_theory,
    render_theory,
)
from .formulas import ParseError

TRACE_ENV = "STEPWISE_PROTOCOL_TRACE"

COMMANDS = ("init", "start", "apply_batch", "replay", "hammer", "stats")

PROTOCOL_VERSION = 13

# the wait, before grace, of a request that carries no budget
CONTROL_WAIT_MS = 10_000

MAX_LINE_BYTES = 16 << 20  # the longest request line served, its newline included


class ProtocolError(Exception):
    """Malformed frame or a response that cannot belong to the pending request."""

    def __init__(self, message: str, offending_id: int | None = None):
        super().__init__(message)
        self.offending_id = offending_id


class TransportError(Exception):
    pass


class DeadlineMiss(Exception):
    pass


class BackendError(Exception):
    """Server-side error outside the step-failure categories."""

    def __init__(self, category: str, detail: str):
        super().__init__(f"{category}: {detail}")
        self.category = category
        self.detail = detail


@dataclass(frozen=True)
class Request:
    id: int
    cmd: str
    payload: dict = field(default_factory=dict)
    timeout_ms: int | None = None
    release: tuple[str, ...] = ()  # snapshots to drop before the command runs


@dataclass(frozen=True)
class Response:
    id: int
    ok: bool
    payload: dict | None = None
    error: dict | None = None

    def __post_init__(self):
        if self.ok and (self.payload is None or self.error is not None):
            raise ValueError("a success response carries exactly a payload")
        if not self.ok and (self.error is None or self.payload is not None):
            raise ValueError("a failure response carries exactly an error")


def encode_request(req: Request) -> str:
    obj: dict = {"id": req.id, "cmd": req.cmd, "payload": req.payload}
    if req.timeout_ms is not None:
        obj["timeout_ms"] = req.timeout_ms
    if req.release:
        obj["release"] = list(req.release)
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def decode_request(line: str) -> Request:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as e:
        raise ProtocolError(f"malformed request line: {e}") from e
    if not isinstance(obj, dict) or not _is_int(obj.get("id")):
        raise ProtocolError("request must be an object with an integer id")
    cmd = obj.get("cmd")
    if not isinstance(cmd, str):
        raise ProtocolError("request must name a cmd", offending_id=obj["id"])
    payload = obj.get("payload", {})
    if not isinstance(payload, dict):
        raise ProtocolError("payload must be an object", offending_id=obj["id"])
    timeout_ms = obj.get("timeout_ms")
    if timeout_ms is not None and not (_is_int(timeout_ms) and timeout_ms >= 1):
        raise ProtocolError("timeout_ms must be an integer of at least 1",
                            offending_id=obj["id"])
    release = obj.get("release", [])
    if not isinstance(release, list) or not all(isinstance(r, str) for r in release):
        raise ProtocolError("release must be a list of strings", offending_id=obj["id"])
    return Request(obj["id"], cmd, payload, timeout_ms, tuple(release))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _text(payload: dict, key: str) -> str:
    value = payload[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string")
    return value


def _texts(payload: dict, key: str) -> list[str]:
    value = payload[key]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{key} must be a list of strings")
    return value


def _dicts(payload: dict, key: str) -> list[dict]:
    value = payload[key]
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise TypeError(f"{key} must be a list of objects")
    return value


def _int(payload: dict, key: str, least: int) -> int:
    value = payload[key]
    if not _is_int(value):
        raise TypeError(f"{key} must be an integer")
    if value < least:
        raise ValueError(f"{key} must be at least {least}, got {value}")
    return value


def _share(payload: dict, key: str) -> float:
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number")
    if not 0 <= value <= 1:  # NaN and the infinities, which json.loads reads, fail too
        raise ValueError(f"{key} must be in [0, 1], got {value}")
    return float(value)


def encode_response(resp: Response) -> str:
    obj: dict = {"id": resp.id, "ok": resp.ok}
    if resp.ok:
        obj["payload"] = resp.payload
    else:
        obj["error"] = resp.error
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def decode_response(line: str) -> Response:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as e:
        raise ProtocolError(f"malformed response line: {line[:80]!r} ({e})") from e
    if not isinstance(obj, dict) or not _is_int(obj.get("id")):
        raise ProtocolError(f"response without an integer id: {line[:80]!r}")
    rid = obj["id"]
    ok = obj.get("ok")
    if ok is True:
        payload = obj.get("payload")
        if not isinstance(payload, dict):
            raise ProtocolError("success response without payload", offending_id=rid)
        return Response(rid, True, payload)
    if ok is False:
        error = obj.get("error")
        if not isinstance(error, dict):
            raise ProtocolError("failure response without error", offending_id=rid)
        return Response(rid, False, None, error)
    raise ProtocolError("response without a boolean ok", offending_id=rid)


def _trace(direction: str, line: str) -> None:
    sys.stderr.write(f"[protocol {direction}] {line}\n")
    sys.stderr.flush()


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

class ProverServer:
    """Reference protocol server for one connection, over its own toy prover.

    A connection is one serial request stream, so nothing here is shared or
    locked, and the prover is closed, its snapshots with it, when the stream
    ends. Each ``start`` parses its own source; the server keeps no theory.
    It counts each known command and its dispatch time for ``stats``.
    """

    def __init__(self, prover: ToyProver | None = None):
        self.prover = prover or ToyProver()
        self.trace = os.environ.get(TRACE_ENV) == "1"
        self._commands: dict[str, list] = {}  # cmd -> [count, seconds]

    # -- stream handling -----------------------------------------------------

    def handle_stream(self, rfile, wfile) -> None:
        """Serve until the end of the stream, or until an over-long line has
        been answered, since the rest of that line is never read."""
        try:
            while raw := rfile.readline(MAX_LINE_BYTES + 1):
                over_long = len(raw) > MAX_LINE_BYTES
                if over_long:
                    response = _protocol_error(
                        0, f"request line exceeds MAX_LINE_BYTES ({MAX_LINE_BYTES} bytes)")
                else:
                    try:
                        line = raw.decode("utf-8").rstrip("\r\n")
                    except UnicodeDecodeError as e:  # answered as undecodable, never run
                        response = _protocol_error(0, f"request line is not UTF-8: {e}")
                    else:
                        if not line.strip():
                            continue
                        if self.trace:
                            _trace("recv", line)
                        response = self.handle_line(line)
                out = encode_response(response)
                if self.trace:
                    _trace("send", out)
                wfile.write((out + "\n").encode("utf-8"))
                wfile.flush()
                if over_long:
                    break
        finally:
            self.prover.close()

    def handle_line(self, line: str) -> Response:
        try:
            req = decode_request(line)
        except ProtocolError as e:
            rid = e.offending_id if e.offending_id is not None else 0
            return _protocol_error(rid, str(e))
        started = time.perf_counter()
        try:
            # released first, so the ids go even when the command then fails
            self.prover.release(req.release)
            return Response(req.id, True, self.dispatch(req))
        except ProverError as e:
            return Response(req.id, False, None,
                            {"category": e.category, "detail": str(e)})
        except ParseError as e:
            return Response(req.id, False, None,
                            {"category": "parse_error", "detail": str(e)})
        except (KeyError, TypeError, ValueError, RecursionError) as e:
            return _protocol_error(req.id, f"bad payload for {req.cmd}: {e}")
        finally:
            if req.cmd in COMMANDS:
                entry = self._commands.setdefault(req.cmd, [0, 0.0])
                entry[0] += 1
                entry[1] += time.perf_counter() - started

    # -- command dispatch ------------------------------------------------------

    def dispatch(self, req: Request) -> dict:
        cmd = req.cmd
        payload = req.payload
        prover = self.prover
        if cmd == "init":
            return {"protocol": PROTOCOL_VERSION, "server": "stepwise-toy-prover",
                    "commands": list(COMMANDS)}
        if cmd == "start":
            token, state = prover.start(load_theory(_text(payload, "source")),
                                        _text(payload, "theorem"))
            return {"token": token, "state": render_state(state)}
        if cmd == "apply_batch":
            groups = [(_text(group, "token"), _texts(group, "steps"))
                      for group in _dicts(payload, "groups")]
            atom_limit = _int(payload, "atom_limit", 0) if "atom_limit" in payload else None
            return {"results": [[_batch_item(*item) for item in results] for results
                                in prover.apply_batch(groups, req.timeout_ms, atom_limit)]}
        if cmd == "replay":
            results, token = prover.replay(_text(payload, "token"), _texts(payload, "steps"),
                                           req.timeout_ms)
            reply: dict = {"results": [render_state(r.state) if r.ok else
                                       {"category": r.category, "detail": r.detail}
                                       for r in results]}
            if token is not None:
                reply["token"] = token
            return reply
        if cmd == "hammer":
            config = HammerConfig(_int(payload, "max_depth", 0), _int(payload, "budget_ms", 1))
            premises = PremiseSelection(_int(payload, "premise_limit", 0),
                                        _share(payload, "mesh_weight"))
            result = prover.hammer_at(_text(payload, "token"), config, premises)
            reply = {"result": result.kind}
            if result.found:
                reply["steps"] = [s.text() for s in result.steps]
            return reply
        if cmd == "stats":
            commands = {name: {"count": count, "ms": seconds * 1000.0}
                        for name, (count, seconds) in sorted(self._commands.items())}
            return {"snapshots": prover.stats()["snapshots"], "commands": commands}
        raise ProverError(f"unknown command {cmd!r}")

    # -- entry points ----------------------------------------------------------

    def serve_stdio(self) -> None:
        self.handle_stream(sys.stdin.buffer, sys.stdout.buffer)


def tcp_server(host: str = "127.0.0.1", port: int = 0) -> socketserver.ThreadingTCPServer:
    """Serves each TCP connection on its own thread with a fresh ``ProverServer``."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            try:
                ProverServer().handle_stream(self.rfile, self.wfile)
            except (BrokenPipeError, ConnectionResetError):
                pass

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    return Server((host, port), Handler)


def _protocol_error(rid: int, detail: str) -> Response:
    return Response(rid, False, None, {"category": "protocol_error", "detail": detail})


def _batch_item(result: StepResult, token: str | None, kind: str | None):
    """One ``apply_batch`` result on the wire: a failure's bare category, or
    a success's token and state, with its verdict kind when it has one."""
    if not result.ok:
        return result.category
    item = {"token": token, "state": render_state(result.state)}
    if kind is not None:
        item["cex"] = kind
    return item


def _step_texts(steps) -> list[str]:
    return [s if isinstance(s, str) else s.text() for s in steps]


# ---------------------------------------------------------------------------
# Client transport
# ---------------------------------------------------------------------------

class SocketTransport:
    """Line transport over a connected stream socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = bytearray()

    def send_line(self, line: str) -> None:
        try:
            self._sock.sendall((line + "\n").encode("utf-8"))
        except OSError as e:
            raise TransportError(f"send failed: {e}") from e

    def recv_line(self, deadline: float) -> str:
        """The next line, by the ``time.monotonic()`` deadline; a line that
        is not UTF-8 raises ``UnicodeDecodeError`` and is dropped."""
        while True:
            nl = self._buffer.find(b"\n")
            if nl >= 0:
                line = bytes(self._buffer[:nl])
                del self._buffer[:nl + 1]
                return line.decode("utf-8")
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise DeadlineMiss
            self._sock.settimeout(timeout)
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                raise DeadlineMiss from None
            except OSError as e:
                raise TransportError(f"recv failed: {e}") from e
            if not chunk:
                raise TransportError("connection lost")
            self._buffer.extend(chunk)

    def close(self) -> None:
        self._sock.close()


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class RemoteProver:
    """Protocol client with the token surface of the in-process backend.

    ``start`` sends the theory's rendered source with the theorem id, and
    the server parses it; the root it returns carries the theorem's fact
    context, as the in-process backend's does, while the states of later
    replies carry none. ``release`` sends nothing: the ids wait for the
    next request, which carries them in its ``release`` field.
    No request waits without a deadline: ``init``, ``start`` and ``stats``
    wait ``CONTROL_WAIT_MS`` plus grace, and a step without a
    ``timeout_ms`` is awaited for the server's ``DEFAULT_STEP_BUDGET_MS``.
    A missed deadline loses only that reply: the addressed tokens are
    immutable, so the next call on them needs no recovery. Stale frames
    (ids below the pending request) are discarded, anything else out of
    order is a protocol error naming the offending id. A discarded reply
    is not read, except a late ``start``'s, whose root is released like any
    other. A reply that is not UTF-8, lacks what its command promises or
    holds a state text that does not parse raises ``ProtocolError`` naming
    its request.
    """

    def __init__(self, transport, grace_ms: int = 1000):
        self.transport = transport
        self.grace_ms = grace_ms
        self.trace = os.environ.get(TRACE_ENV) == "1"
        self._ids = itertools.count(1)
        self._missed_starts: set[int] = set()  # ids of the starts given up on
        self._release: list[str] = []  # ids for the next request to release

    @classmethod
    def connect_tcp(cls, host: str, port: int, **kwargs) -> "RemoteProver":
        return cls(SocketTransport(socket.create_connection((host, port))), **kwargs)

    # -- plumbing --------------------------------------------------------------

    def _call(self, cmd: str, payload: dict | None = None,
              timeout_ms: int | None = None, wait_ms: int | None = None) -> Response:
        """One round trip, carrying every pending release. The reply must
        arrive within ``wait_ms`` (default ``timeout_ms``, else
        ``CONTROL_WAIT_MS``) plus the grace interval, else ``DeadlineMiss``."""
        rid = next(self._ids)
        release, self._release = tuple(self._release), []
        line = encode_request(Request(rid, cmd, payload or {}, timeout_ms, release))
        if self.trace:
            _trace("send", line)
        self.transport.send_line(line)
        if wait_ms is None:
            wait_ms = CONTROL_WAIT_MS if timeout_ms is None else timeout_ms
        deadline = time.monotonic() + (wait_ms + self.grace_ms) / 1000.0
        while True:
            try:
                raw = self.transport.recv_line(deadline)
            except DeadlineMiss:
                if cmd == "start":
                    self._missed_starts.add(rid)
                raise DeadlineMiss(f"no reply to {cmd} request {rid} within {wait_ms} ms "
                                   f"plus {self.grace_ms} ms grace") from None
            except UnicodeDecodeError as e:
                raise ProtocolError(f"reply to request {rid} is not UTF-8: {e}",
                                    offending_id=rid) from e
            if self.trace:
                _trace("recv", raw)
            resp = decode_response(raw)
            if resp.id == rid:
                return resp
            if resp.id < rid:  # stale, unread unless it names a root never learned
                if resp.ok and resp.id in self._missed_starts:
                    with _reply_to(resp.id):
                        self._release.append(_text(resp.payload, "token"))
                self._missed_starts.discard(resp.id)
                continue
            raise ProtocolError(
                f"response id {resp.id} arrived while waiting for {rid}",
                offending_id=resp.id)

    def _expect(self, resp: Response) -> dict:
        if resp.ok:
            assert resp.payload is not None
            return resp.payload
        error = resp.error or {}
        raise BackendError(error.get("category", "protocol_error"),
                           error.get("detail", ""))

    # -- backend surface ---------------------------------------------------------

    def init(self) -> dict:
        return self._expect(self._call("init"))

    def start(self, theory: Theory, theorem_id: str) -> tuple[str, ProofState]:
        resp = self._call(
            "start", payload={"source": render_theory(theory), "theorem": theorem_id})
        payload = self._expect(resp)
        with _reply_to(resp.id):
            return payload["token"], parse_state(payload["state"], theory.context_for(theorem_id))

    def apply_batch(self, groups, timeout_ms: int | None = None, atom_limit: int | None = None
                    ) -> list[list[tuple[StepResult, str | None, str | None]]]:
        """One round trip for every ``(token, steps)`` group (see
        ``ToyProver.apply_batch``). With ``atom_limit`` the reply must carry
        the verdict kind of each success with open subgoals. The
        reply is awaited for the sum of all the step budgets plus grace; on
        a miss every step reports ``timeout``."""
        wire = [{"token": token, "steps": _step_texts(steps)} for token, steps in groups]
        request: dict = {"groups": wire}
        if atom_limit is not None:
            request["atom_limit"] = atom_limit
        wait_ms = (timeout_ms or DEFAULT_STEP_BUDGET_MS) * sum(len(g["steps"]) for g in wire)
        try:
            resp = self._call(
                "apply_batch", payload=request, timeout_ms=timeout_ms, wait_ms=wait_ms)
        except DeadlineMiss:
            return [[(BARE_FAILURES["timeout"], None, None)] * len(group["steps"])
                    for group in wire]
        payload = self._expect(resp)
        out: list[list[tuple[StepResult, str | None, str | None]]] = []
        with _reply_to(resp.id):
            groups = payload["results"]
            if len(groups) != len(wire) or any(
                    len(items) > len(group["steps"]) for items, group in zip(groups, wire)):
                raise ValueError("results do not match the groups sent")
            for items in groups:
                results: list[tuple[StepResult, str | None, str | None]] = []
                for item in items:
                    if isinstance(item, str):
                        results.append((BARE_FAILURES[item], None, None))
                        continue
                    state = parse_state(item["state"])
                    kind = None
                    if atom_limit is not None and not state.qed:
                        kind = item["cex"]
                        if kind not in ("none", "counterexample", "unknown"):
                            raise ValueError(f"unknown verdict {kind!r}")
                    results.append((StepResult.success(state), item["token"], kind))
                out.append(results)
        return out

    def replay(self, token: str, steps, timeout_ms: int | None = None
               ) -> tuple[list[StepResult], str | None]:
        """One round trip for ``steps`` chained from snapshot ``token`` (see
        ``ToyProver.replay``). The reply is awaited for the sum of the step
        budgets plus grace; a miss gives one ``timeout`` result and no
        token."""
        texts = _step_texts(steps)
        wait_ms = (timeout_ms or DEFAULT_STEP_BUDGET_MS) * len(texts)
        try:
            resp = self._call("replay", payload={"token": token, "steps": texts},
                              timeout_ms=timeout_ms, wait_ms=wait_ms)
        except DeadlineMiss:
            return [StepResult.failure("timeout", f"no response within {wait_ms} ms")], None
        payload = self._expect(resp)
        results = []
        with _reply_to(resp.id):
            for item in payload["results"]:
                if isinstance(item, str):
                    results.append(StepResult.success(parse_state(item)))
                elif item["category"] in ERROR_CATEGORIES:
                    results.append(StepResult.failure(item["category"], item["detail"]))
                else:
                    raise ValueError(f"unknown failure category {item['category']!r}")
        return results, payload.get("token")

    def release(self, ids) -> None:
        """Queue ``ids`` for the next request to release."""
        self._release.extend(ids)

    def stats(self) -> dict:
        return self._expect(self._call("stats"))

    def hammer_at(self, token: str, config: HammerConfig,
                  premises: PremiseSelection) -> HammerResult:
        limit, weight = premises
        payload = {"token": token, "max_depth": config.max_depth, "budget_ms": config.budget_ms,
                   "premise_limit": limit, "mesh_weight": weight}
        resp = self._call("hammer", payload=payload, timeout_ms=config.budget_ms + 5000)
        reply = self._expect(resp)
        with _reply_to(resp.id):
            kind = reply["result"]
            if kind == "found":
                return HammerResult("found", tuple(parse_step(s) for s in reply["steps"]))
            if kind not in ("notfound", "timeout"):
                raise ValueError(f"unknown hammer result {kind!r}")
            return HammerResult(kind)

    def close(self) -> None:
        """Close the transport, sending nothing: the server frees every
        snapshot of the connection when it ends, pending releases included."""
        self.transport.close()


@contextlib.contextmanager
def _reply_to(rid: int):
    """Reading the payload of the reply to request ``rid``: a reply without
    the shape its command promises raises ``ProtocolError`` naming ``rid``."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as e:
        raise ProtocolError(f"malformed reply to request {rid}: {e!r}",
                            offending_id=rid) from e
