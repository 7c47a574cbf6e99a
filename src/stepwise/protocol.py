"""Wire protocol between the search engine and a prover.

Framing is newline-delimited JSON over a byte stream (a TCP connection, or
a socket pair to a child serving on its stdio): one request object per
line, one response per line, ordered per connection. Requests carry a
monotonically increasing ``id`` echoed by the response, ``timeout_ms``
bounds the command, and ``release`` names snapshots to drop before it
runs. Set ``STEPWISE_PROTOCOL_TRACE=1`` to dump every frame to stderr.

The toy prover is the reference server; ``RemoteProver`` exposes the same
token surface as the in-process backend, so either can sit behind the
engine. Every command addresses immutable snapshot tokens: ``start``
carries the theory source, which the server parses on each call, and
returns the root's, ``apply_batch`` one per success in each of its
``(token, steps)`` groups and ``replay`` the end of a step chain, and
``hammer`` takes one. So a missed deadline loses only that reply; the
snapshots a late ``apply_batch`` or ``replay`` reply names ride, like every
release, on the client's next request. An ``apply_batch`` that carries an
``atom_limit`` gets each open success's counterexample verdict with it,
which is the only way a verdict crosses the wire.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import socket
import socketserver
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from .core import (
    BARE_FAILURES,
    ERROR_CATEGORIES,
    EMPTY_CONTEXT,
    ProofState,
    StepResult,
    Theory,
    parse_step,
    state_from_wire,
    state_to_wire,
)
from .prover import (
    CexResult,
    HammerConfig,
    HammerResult,
    ProverError,
    ToyProver,
    load_theory,
    render_theory,
)
from .formulas import ParseError

TRACE_ENV = "STEPWISE_PROTOCOL_TRACE"

COMMANDS = ("init", "start", "apply_batch", "replay", "hammer", "stats", "shutdown")

PROTOCOL_VERSION = 7


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


def _int(payload: dict, key: str, default: int, least: int) -> int:
    value = payload.get(key, default)
    if not _is_int(value):
        raise TypeError(f"{key} must be an integer")
    if value < least:
        raise ValueError(f"{key} must be at least {least}, got {value}")
    return value


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


def _trace_enabled(explicit: bool | None) -> bool:
    if explicit is not None:
        return explicit
    return os.environ.get(TRACE_ENV, "") == "1"


def _trace(direction: str, line: str) -> None:
    sys.stderr.write(f"[protocol {direction}] {line}\n")
    sys.stderr.flush()


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

class ProverServer:
    """Reference protocol server over a shared in-process toy prover.

    One connection is one serial request stream; parallel clients use
    separate connections. Each ``start`` parses its own source and starts
    from that theory; the server keeps no theory, so one lives only as long
    as something refers to it. It counts each known command and its
    cumulative dispatch time for ``stats``.
    """

    def __init__(self, prover: ToyProver | None = None, trace: bool | None = None):
        self.prover = prover or ToyProver()
        self.trace = _trace_enabled(trace)
        self._commands: dict[str, list] = {}  # cmd -> [count, seconds]
        self._commands_lock = threading.Lock()

    # -- stream handling -----------------------------------------------------

    def handle_stream(self, rfile, wfile) -> None:
        for raw in rfile:
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as e:  # answered as an undecodable line, never run
                response, shutdown = _protocol_error(0, f"request line is not UTF-8: {e}"), False
            else:
                if not line.strip():
                    continue
                if self.trace:
                    _trace("recv", line)
                response, shutdown = self.handle_line(line)
            out = encode_response(response)
            if self.trace:
                _trace("send", out)
            wfile.write((out + "\n").encode("utf-8"))
            wfile.flush()
            if shutdown:
                break

    def handle_line(self, line: str) -> tuple[Response, bool]:
        try:
            req = decode_request(line)
        except ProtocolError as e:
            rid = e.offending_id if e.offending_id is not None else 0
            return _protocol_error(rid, str(e)), False
        started = time.perf_counter()
        try:
            # released first, so the ids go even when the command then fails
            self.prover.release(req.release)
            payload, shutdown = self.dispatch(req)
            return Response(req.id, True, payload), shutdown
        except ProverError as e:
            return Response(req.id, False, None,
                            {"category": e.category, "detail": str(e)}), False
        except ParseError as e:
            return Response(req.id, False, None,
                            {"category": "parse_error", "detail": str(e)}), False
        except (KeyError, TypeError, ValueError, RecursionError) as e:
            return _protocol_error(req.id, f"bad payload for {req.cmd}: {e}"), False
        finally:
            if req.cmd in COMMANDS:
                elapsed = time.perf_counter() - started
                with self._commands_lock:
                    entry = self._commands.setdefault(req.cmd, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed

    # -- command dispatch ------------------------------------------------------

    def dispatch(self, req: Request) -> tuple[dict, bool]:
        cmd = req.cmd
        payload = req.payload
        prover = self.prover
        if cmd == "init":
            return {"protocol": PROTOCOL_VERSION, "server": "stepwise-toy-prover",
                    "commands": list(COMMANDS)}, False
        if cmd == "start":
            token, state = prover.start(load_theory(_text(payload, "source")),
                                        _text(payload, "theorem"))
            return {"token": token, "state": state_to_wire(state)}, False
        if cmd == "apply_batch":
            groups = [(_text(group, "token"), _texts(group, "steps"))
                      for group in _dicts(payload, "groups")]
            atom_limit = _int(payload, "atom_limit", 0, 0) if "atom_limit" in payload else None
            return {"results": [[_batch_item(*item) for item in results] for results
                                in prover.apply_batch(groups, req.timeout_ms, atom_limit)]
                    }, False
        if cmd == "replay":
            results, token = prover.replay(_text(payload, "token"), _texts(payload, "steps"),
                                           req.timeout_ms)
            reply: dict = {"results": [state_to_wire(r.state) if r.ok else
                                       {"category": r.category, "detail": r.detail}
                                       for r in results]}
            if token is not None:
                reply["token"] = token
            return reply, False
        if cmd == "hammer":
            config = HammerConfig(
                max_depth=_int(payload, "max_depth", HammerConfig.max_depth, 0),
                premise_limit=_int(payload, "premise_limit", HammerConfig.premise_limit, 0),
                budget_ms=_int(payload, "budget_ms", HammerConfig.budget_ms, 1),
            )
            pool = _texts(payload, "pool") if payload.get("pool") is not None else None
            result = prover.hammer_at(_text(payload, "token"), config, pool)
            reply = {"result": result.kind}
            if result.found:
                reply["steps"] = [s.text() for s in result.steps]
            return reply, False
        if cmd == "stats":
            with self._commands_lock:
                commands = {name: {"count": count, "ms": seconds * 1000.0}
                            for name, (count, seconds) in sorted(self._commands.items())}
            return {**prover.stats(), "commands": commands}, False
        if cmd == "shutdown":
            return {}, True
        raise ProverError(f"unknown command {cmd!r}")

    # -- entry points ----------------------------------------------------------

    def serve_stdio(self) -> None:
        self.handle_stream(sys.stdin.buffer, sys.stdout.buffer)

    def tcp_server(self, host: str = "127.0.0.1", port: int = 0) -> socketserver.ThreadingTCPServer:
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                try:
                    outer.handle_stream(self.rfile, self.wfile)
                except (BrokenPipeError, ConnectionResetError):
                    pass

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        return Server((host, port), Handler)


def _protocol_error(rid: int, detail: str) -> Response:
    return Response(rid, False, None, {"category": "protocol_error", "detail": detail})


def _batch_item(result: StepResult, token: str | None, verdict: CexResult | None):
    """One ``apply_batch`` result on the wire: a failure's bare category, or
    a success's token and state, with its verdict when it has one."""
    if not result.ok:
        return result.category
    item = {"token": token, "state": state_to_wire(result.state)}
    if verdict is not None:
        item["cex"] = _cex_to_wire(verdict)
    return item


def _step_texts(steps) -> list[str]:
    return [s if isinstance(s, str) else (s.raw or s.text()) for s in steps]


def _cex_to_wire(verdict: CexResult) -> dict:
    if verdict.kind == "counterexample":
        return {"result": "counterexample", "assignment": verdict.assignment,
                "subgoal_index": verdict.subgoal_index}
    if verdict.kind == "unknown":
        return {"result": "unknown", "reason": verdict.reason}
    return {"result": "none"}


def _cex_from_wire(obj: dict) -> CexResult:
    kind = obj["result"]
    if kind == "counterexample":
        return CexResult.found({k: bool(v) for k, v in obj["assignment"].items()},
                               int(obj["subgoal_index"]))
    if kind == "unknown":
        return CexResult.unknown(obj.get("reason", ""))
    if kind == "none":
        return CexResult.none()
    raise ValueError(f"unknown verdict {kind!r}")


# ---------------------------------------------------------------------------
# Client transport
# ---------------------------------------------------------------------------

class SocketTransport:
    """Line transport over a connected stream socket: a TCP connection or
    one end of a socket pair whose other end is a child's stdin and stdout."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = bytearray()

    def send_line(self, line: str) -> None:
        try:
            self._sock.sendall((line + "\n").encode("utf-8"))
        except OSError as e:
            raise TransportError(f"send failed: {e}") from e

    def recv_line(self, deadline: float | None) -> str:
        """The next line; a line that is not UTF-8 raises
        ``UnicodeDecodeError`` and is dropped."""
        while True:
            nl = self._buffer.find(b"\n")
            if nl >= 0:
                line = bytes(self._buffer[:nl])
                del self._buffer[:nl + 1]
                return line.decode("utf-8")
            timeout = None
            if deadline is not None:
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
    the server parses it. ``release`` sends nothing: the ids wait for the
    next request, which carries them in its ``release`` field.
    A missed ``apply_batch`` or ``replay`` deadline loses only that reply:
    the addressed tokens are immutable, so the next call on them needs no
    recovery. Stale frames (ids below the pending request) are discarded,
    anything else out of order is a protocol error naming the offending id.
    The tokens in a discarded ``apply_batch`` or ``replay`` reply are
    released like any others. A reply that is not UTF-8 or lacks what its
    command promises raises ``ProtocolError`` naming its request.
    """

    def __init__(self, transport, grace_ms: int = 1000, trace: bool | None = None):
        self.transport = transport
        self.grace_ms = grace_ms
        self.trace = _trace_enabled(trace)
        self._ids = itertools.count(1)
        self._missed: dict[int, str] = {}  # id -> cmd of apply_batch and replay requests given up on
        self._release: list[str] = []  # ids for the next request to release
        self._proc: subprocess.Popen | None = None

    @classmethod
    def connect_tcp(cls, host: str, port: int, **kwargs) -> "RemoteProver":
        return cls(SocketTransport(socket.create_connection((host, port))), **kwargs)

    @classmethod
    def spawn_stdio(cls, argv: list[str], **kwargs) -> "RemoteProver":
        """Run ``argv`` with one end of a socket pair as its stdin and
        stdout, and talk over the other."""
        ours, theirs = socket.socketpair()
        try:
            with theirs:  # the child has its own copy
                proc = subprocess.Popen(argv, stdin=theirs, stdout=theirs)
        except BaseException:
            ours.close()
            raise
        client = cls(SocketTransport(ours), **kwargs)
        client._proc = proc
        return client

    # -- plumbing --------------------------------------------------------------

    def _call(self, cmd: str, payload: dict | None = None,
              timeout_ms: int | None = None, wait_ms: int | None = None) -> Response:
        """One round trip, carrying every pending release. The reply must
        arrive within ``wait_ms`` (default ``timeout_ms``) plus the grace
        interval, else ``DeadlineMiss``."""
        rid = next(self._ids)
        release, self._release = tuple(self._release), []
        line = encode_request(Request(rid, cmd, payload or {}, timeout_ms, release))
        if self.trace:
            _trace("send", line)
        self.transport.send_line(line)
        if wait_ms is None:
            wait_ms = timeout_ms
        deadline = None
        if wait_ms is not None:
            deadline = time.monotonic() + (wait_ms + self.grace_ms) / 1000.0
        while True:
            try:
                raw = self.transport.recv_line(deadline)
            except DeadlineMiss:
                if cmd in ("apply_batch", "replay"):
                    self._missed[rid] = cmd
                raise
            except UnicodeDecodeError as e:
                raise ProtocolError(f"reply to request {rid} is not UTF-8: {e}",
                                    offending_id=rid) from e
            if self.trace:
                _trace("recv", raw)
            resp = decode_response(raw)
            if resp.id == rid:
                return resp
            if resp.id < rid:  # stale reply from an abandoned exchange
                missed = self._missed.pop(resp.id, None)
                if resp.ok and missed is not None:
                    with _reply_to(resp.id):
                        self._release.extend(_reply_tokens(missed, resp.payload))
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
            return payload["token"], state_from_wire(payload["state"], EMPTY_CONTEXT)

    def apply_batch(self, groups, timeout_ms: int | None = None, atom_limit: int | None = None
                    ) -> list[list[tuple[StepResult, str | None, CexResult | None]]]:
        """One round trip for every ``(token, steps)`` group (see
        ``ToyProver.apply_batch``). With ``atom_limit`` the reply must carry
        the counterexample verdict of each success with open subgoals. The
        reply is awaited for the sum of all the step budgets plus grace; on
        a miss every step reports ``timeout``."""
        wire = [{"token": token, "steps": _step_texts(steps)} for token, steps in groups]
        request: dict = {"groups": wire}
        if atom_limit is not None:
            request["atom_limit"] = atom_limit
        wait_ms = None
        if timeout_ms is not None:
            wait_ms = timeout_ms * sum(len(group["steps"]) for group in wire)
        try:
            resp = self._call(
                "apply_batch", payload=request, timeout_ms=timeout_ms, wait_ms=wait_ms)
        except DeadlineMiss:
            return [[(BARE_FAILURES["timeout"], None, None)] * len(group["steps"])
                    for group in wire]
        payload = self._expect(resp)
        out: list[list[tuple[StepResult, str | None, CexResult | None]]] = []
        with _reply_to(resp.id):
            groups = payload["results"]
            if len(groups) != len(wire) or any(
                    len(items) > len(group["steps"]) for items, group in zip(groups, wire)):
                raise ValueError("results do not match the groups sent")
            for items in groups:
                results: list[tuple[StepResult, str | None, CexResult | None]] = []
                for item in items:
                    if isinstance(item, str):
                        results.append((BARE_FAILURES[item], None, None))
                        continue
                    state = state_from_wire(item["state"], EMPTY_CONTEXT)
                    verdict = None
                    if atom_limit is not None and not state.qed:
                        verdict = _cex_from_wire(item["cex"])
                    results.append((StepResult.success(state), item["token"], verdict))
                out.append(results)
        return out

    def replay(self, token: str, steps, timeout_ms: int | None = None
               ) -> tuple[list[StepResult], str | None]:
        """One round trip for ``steps`` chained from snapshot ``token`` (see
        ``ToyProver.replay``). The reply is awaited for the sum of the step
        budgets plus grace; a miss gives one ``timeout`` result and no
        token."""
        texts = _step_texts(steps)
        wait_ms = None if timeout_ms is None else timeout_ms * len(texts)
        try:
            resp = self._call("replay", payload={"token": token, "steps": texts},
                              timeout_ms=timeout_ms, wait_ms=wait_ms)
        except DeadlineMiss:
            return [StepResult.failure("timeout", f"no response within {wait_ms} ms")], None
        payload = self._expect(resp)
        results = []
        with _reply_to(resp.id):
            for item in payload["results"]:
                if "category" not in item:
                    results.append(StepResult.success(state_from_wire(item, EMPTY_CONTEXT)))
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

    def hammer_at(self, token: str, config: HammerConfig = HammerConfig(),
                  pool: list[str] | None = None) -> HammerResult:
        payload: dict = {"token": token, "max_depth": config.max_depth,
                         "premise_limit": config.premise_limit,
                         "budget_ms": config.budget_ms}
        if pool is not None:
            payload["pool"] = list(pool)
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
        """Send ``shutdown``, which carries any release still pending, and
        close the transport."""
        try:
            self._call("shutdown")
        except (TransportError, DeadlineMiss, ProtocolError):
            pass
        self.transport.close()
        if self._proc is not None:
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()


@contextlib.contextmanager
def _reply_to(rid: int):
    """Reading the payload of the reply to request ``rid``: a reply without
    the shape its command promises raises ``ProtocolError`` naming ``rid``."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as e:
        raise ProtocolError(f"malformed reply to request {rid}: {e!r}",
                            offending_id=rid) from e


def _reply_tokens(cmd: str, payload: dict) -> list[str]:
    """The snapshots a successful ``apply_batch`` or ``replay`` reply names."""
    if cmd == "replay":
        named = [payload.get("token")]
    else:
        named = [item.get("token") for items in payload["results"]
                 for item in items if isinstance(item, dict)]
    return [token for token in named if token is not None]
