"""Wire protocol between the search engine and a prover.

Framing is newline-delimited JSON over a byte stream (pipe or TCP): one
request object per line, one response per line, ordered per connection.
Requests carry a monotonically increasing ``id`` echoed by the response;
``session`` addresses a server-side session and ``timeout_ms`` bounds the
command. Set ``STEPWISE_PROTOCOL_TRACE=1`` to dump every frame to stderr.

The toy prover is the reference server; ``RemoteProver`` exposes the same
method surface as the in-process backend, so either can sit behind the
engine. The search addresses immutable snapshot tokens (``apply_batch``,
token-addressed ``counterexample`` and ``hammer``), so a missed deadline
there loses only that reply; the snapshots a late ``apply_batch`` reply
names are released with the client's next ``release``. A missed ``apply``
deadline marks the session poisoned: further ``apply`` calls are rejected
locally until a ``restore`` names the session.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import socket
import socketserver
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from .core import (
    ERROR_CATEGORIES,
    EMPTY_CONTEXT,
    ProofState,
    ProofStep,
    StepResult,
    canonical_state,
    state_from_wire,
    state_to_wire,
)
from .prover import CexResult, HammerConfig, HammerResult, ProverError, ToyProver
from .formulas import ParseError

TRACE_ENV = "STEPWISE_PROTOCOL_TRACE"

COMMANDS = ("init", "load_theory", "start", "apply", "apply_batch", "state",
            "clone", "restore", "release", "counterexample", "hammer", "stats",
            "shutdown")

PROTOCOL_VERSION = 3


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
    session: str | None = None
    payload: dict = field(default_factory=dict)
    timeout_ms: int | None = None


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
    if req.session is not None:
        obj["session"] = req.session
    if req.timeout_ms is not None:
        obj["timeout_ms"] = req.timeout_ms
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def decode_request(line: str) -> Request:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ProtocolError(f"malformed request line: {e}") from e
    if not isinstance(obj, dict) or not isinstance(obj.get("id"), int):
        raise ProtocolError("request must be an object with an integer id")
    cmd = obj.get("cmd")
    if not isinstance(cmd, str):
        raise ProtocolError("request must name a cmd", offending_id=obj["id"])
    payload = obj.get("payload", {})
    if not isinstance(payload, dict):
        raise ProtocolError("payload must be an object", offending_id=obj["id"])
    session = obj.get("session")
    timeout_ms = obj.get("timeout_ms")
    return Request(obj["id"], cmd, session, payload, timeout_ms)


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
    except json.JSONDecodeError as e:
        raise ProtocolError(f"malformed response line: {line[:80]!r} ({e})") from e
    if not isinstance(obj, dict) or not isinstance(obj.get("id"), int):
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
    separate connections. Theory loading is cached by content digest. The
    server counts each known command and its cumulative dispatch time for
    ``stats``.
    """

    def __init__(self, prover: ToyProver | None = None, trace: bool | None = None):
        self.prover = prover or ToyProver()
        self.trace = _trace_enabled(trace)
        self._commands: dict[str, list] = {}  # cmd -> [count, seconds]
        self._commands_lock = threading.Lock()

    # -- stream handling -----------------------------------------------------

    def handle_stream(self, rfile, wfile) -> None:
        for raw in rfile:
            line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
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
            return Response(rid, False, None,
                            {"category": "protocol_error", "detail": str(e)}), False
        started = time.perf_counter()
        try:
            payload, shutdown = self.dispatch(req)
            return Response(req.id, True, payload), shutdown
        except ProverError as e:
            return Response(req.id, False, None,
                            {"category": e.category, "detail": str(e)}), False
        except ParseError as e:
            return Response(req.id, False, None,
                            {"category": "parse_error", "detail": str(e)}), False
        except (KeyError, TypeError, ValueError) as e:
            return Response(req.id, False, None,
                            {"category": "protocol_error",
                             "detail": f"bad payload for {req.cmd}: {e}"}), False
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
        if cmd == "load_theory":
            source = payload["source"]
            cached = prover.has_theory_digest(source)
            name = prover.load_theory(source)
            return {"theory": name, "entries": len(prover.theory(name).entries),
                    "cached": cached}, False
        if cmd == "start":
            sid = prover.start(payload["theory"], payload["theorem"])
            state = prover.state(sid)
            return {"session": sid, "subgoals": len(state.subgoals),
                    "key": canonical_state(state)}, False
        if cmd == "apply":
            sid = self._require_session(req)
            result = prover.apply(sid, payload["step"], req.timeout_ms)
            if not result.ok:
                raise _StepFailure(result)
            reply = {"subgoals": len(result.state.subgoals),
                     "key": canonical_state(result.state),
                     "depth": result.state.depth}
            if payload.get("full_state"):
                reply["state"] = state_to_wire(result.state)
            return reply, False
        if cmd == "apply_batch":
            results = []
            for result, token in prover.apply_batch(
                    payload["token"], list(payload["steps"]), req.timeout_ms):
                if result.ok:
                    results.append({"token": token, "state": state_to_wire(result.state)})
                else:
                    results.append({"category": result.category, "detail": result.detail})
            return {"results": results}, False
        if cmd == "state":
            sid = self._require_session(req)
            state = prover.state(sid)
            return {"state": state_to_wire(state), "key": canonical_state(state),
                    "subgoals": len(state.subgoals)}, False
        if cmd == "clone":
            sid = self._require_session(req)
            return {"token": prover.clone(sid)}, False
        if cmd == "restore":
            sid = prover.restore(payload["token"], req.session)
            return {"session": sid}, False
        if cmd == "release":
            prover.release([str(name) for name in payload["ids"]])
            return {}, False
        if cmd == "counterexample":
            atom_limit = int(payload.get("atom_limit", 16))
            if "tokens" in payload:
                tokens = payload["tokens"]
                if not isinstance(tokens, list):
                    raise TypeError("tokens must be a list")
                verdicts = prover.counterexamples_at([str(t) for t in tokens], atom_limit)
                return {"results": [_cex_to_wire(v) for v in verdicts]}, False
            verdict = prover.counterexample(self._require_session(req), atom_limit)
            return _cex_to_wire(verdict), False
        if cmd == "hammer":
            config = HammerConfig(
                max_depth=int(payload.get("max_depth", HammerConfig.max_depth)),
                premise_limit=int(payload.get("premise_limit", HammerConfig.premise_limit)),
                budget_ms=int(payload.get("budget_ms", HammerConfig.budget_ms)),
            )
            pool = payload.get("pool")
            if "token" in payload:
                result = prover.hammer_at(payload["token"], config, pool)
            else:
                result = prover.hammer(self._require_session(req), config, pool)
            reply: dict = {"result": result.kind}
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

    def _require_session(self, req: Request) -> str:
        if req.session is None:
            raise ProverError(f"{req.cmd} requires a session")
        return req.session

    # -- entry points ----------------------------------------------------------

    def serve_stdio(self) -> None:
        self.handle_stream(sys.stdin.buffer, sys.stdout.buffer)

    def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Blocking TCP loop; returns only when shut down externally."""
        server = self.tcp_server(host, port)
        with server:
            server.serve_forever()

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


class _StepFailure(ProverError):
    def __init__(self, result: StepResult):
        super().__init__(result.detail)
        self.category = result.category


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
    return CexResult.none()


# ---------------------------------------------------------------------------
# Client transports
# ---------------------------------------------------------------------------

class TcpTransport:
    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port))
        self._buffer = bytearray()

    def send_line(self, line: str) -> None:
        try:
            self._sock.sendall((line + "\n").encode("utf-8"))
        except OSError as e:
            raise TransportError(f"send failed: {e}") from e

    def recv_line(self, deadline: float | None) -> str:
        while True:
            nl = self._buffer.find(b"\n")
            if nl >= 0:
                line = self._buffer[:nl].decode("utf-8")
                del self._buffer[:nl + 1]
                return line
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlineMiss
                self._sock.settimeout(remaining)
            else:
                self._sock.settimeout(None)
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
        try:
            self._sock.close()
        except OSError:
            pass


class PipeTransport:
    """Line transport over a pair of file descriptors (e.g. a subprocess)."""

    def __init__(self, read_fd: int, write_fd: int):
        self._read_fd = read_fd
        self._write_fd = write_fd
        self._buffer = bytearray()

    def send_line(self, line: str) -> None:
        data = (line + "\n").encode("utf-8")
        try:
            while data:
                written = os.write(self._write_fd, data)
                data = data[written:]
        except OSError as e:
            raise TransportError(f"send failed: {e}") from e

    def recv_line(self, deadline: float | None) -> str:
        while True:
            nl = self._buffer.find(b"\n")
            if nl >= 0:
                line = self._buffer[:nl].decode("utf-8")
                del self._buffer[:nl + 1]
                return line
            timeout = None
            if deadline is not None:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    raise DeadlineMiss
            ready, _, _ = select.select([self._read_fd], [], [], timeout)
            if not ready:
                raise DeadlineMiss
            chunk = os.read(self._read_fd, 65536)
            if not chunk:
                raise TransportError("connection lost")
            self._buffer.extend(chunk)

    def close(self) -> None:
        for fd in (self._read_fd, self._write_fd):
            try:
                os.close(fd)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class RemoteProver:
    """Protocol client with the same surface as the in-process backend.

    A missed ``apply`` deadline poisons the session the request addressed;
    poisoned sessions reject ``apply`` locally until a restore names them.
    A missed ``apply_batch`` deadline poisons nothing: its token is
    immutable, so only that batch's results are lost. Stale frames (ids
    below the pending request) are discarded, anything else out of order is
    a protocol error naming the offending id. The tokens in a discarded
    ``apply_batch`` reply are kept and named by the next ``release``.
    """

    def __init__(self, transport, grace_ms: int = 1000, trace: bool | None = None):
        self.transport = transport
        self.grace_ms = grace_ms
        self.trace = _trace_enabled(trace)
        self._ids = itertools.count(1)
        self._poisoned: set[str] = set()
        self._missed_batches: set[int] = set()  # ids of apply_batch requests given up on
        self._orphans: list[str] = []  # tokens from their late replies
        self._proc: subprocess.Popen | None = None

    @classmethod
    def connect_tcp(cls, host: str, port: int, **kwargs) -> "RemoteProver":
        return cls(TcpTransport(host, port), **kwargs)

    @classmethod
    def spawn_stdio(cls, argv: list[str], **kwargs) -> "RemoteProver":
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        # the transport closes its own copies of the pipe fds; the file
        # objects close theirs here, so each fd is closed exactly once
        with proc.stdout, proc.stdin:
            transport = PipeTransport(os.dup(proc.stdout.fileno()),
                                      os.dup(proc.stdin.fileno()))
        client = cls(transport, **kwargs)
        client._proc = proc
        return client

    # -- plumbing --------------------------------------------------------------

    def _call(self, cmd: str, session: str | None = None, payload: dict | None = None,
              timeout_ms: int | None = None, wait_ms: int | None = None) -> Response:
        """One round trip. The reply must arrive within ``wait_ms`` (default
        ``timeout_ms``) plus the grace interval, else ``DeadlineMiss``."""
        rid = next(self._ids)
        req = Request(rid, cmd, session, payload or {}, timeout_ms)
        line = encode_request(req)
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
                if cmd == "apply_batch":
                    self._missed_batches.add(rid)
                raise
            if self.trace:
                _trace("recv", raw)
            resp = decode_response(raw)
            if resp.id == rid:
                return resp
            if resp.id < rid:  # stale reply from an abandoned exchange
                if resp.ok and resp.id in self._missed_batches:
                    self._orphans.extend(item["token"] for item in resp.payload["results"]
                                         if "token" in item)
                self._missed_batches.discard(resp.id)
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

    def load_theory(self, source: str) -> str:
        return self._expect(self._call("load_theory", payload={"source": source}))["theory"]

    def start(self, theory_name: str, theorem_id: str) -> str:
        payload = self._expect(self._call(
            "start", payload={"theory": theory_name, "theorem": theorem_id}))
        return payload["session"]

    def state(self, sid: str) -> ProofState:
        payload = self._expect(self._call("state", session=sid))
        return state_from_wire(payload["state"], EMPTY_CONTEXT)

    def apply(self, sid: str, step: ProofStep | str,
              timeout_ms: int | None = None) -> StepResult:
        if sid in self._poisoned:
            return StepResult.failure(
                "timeout", "session poisoned by a missed deadline; restore it first")
        step_text = step if isinstance(step, str) else (step.raw or step.text())
        try:
            resp = self._call("apply", session=sid,
                              payload={"step": step_text, "full_state": True},
                              timeout_ms=timeout_ms)
        except DeadlineMiss:
            self._poisoned.add(sid)
            return StepResult.failure("timeout", f"no response within {timeout_ms} ms")
        if resp.ok:
            assert resp.payload is not None
            return StepResult.success(
                state_from_wire(resp.payload["state"], EMPTY_CONTEXT))
        error = resp.error or {}
        category = error.get("category", "")
        if category in ERROR_CATEGORIES:
            return StepResult.failure(category, error.get("detail", ""))
        raise BackendError(category or "protocol_error", error.get("detail", ""))

    def apply_batch(self, token: str, steps, timeout_ms: int | None = None
                    ) -> list[tuple[StepResult, str | None]]:
        """One round trip for ``steps`` on snapshot ``token`` (see
        ``ToyProver.apply_batch``). The reply is awaited for the sum of the
        step budgets plus grace; on a miss every step reports ``timeout``."""
        texts = [s if isinstance(s, str) else (s.raw or s.text()) for s in steps]
        wait_ms = None if timeout_ms is None else timeout_ms * len(texts)
        try:
            payload = self._expect(self._call(
                "apply_batch", payload={"token": token, "steps": texts},
                timeout_ms=timeout_ms, wait_ms=wait_ms))
        except DeadlineMiss:
            miss = StepResult.failure("timeout", f"no response within {wait_ms} ms")
            return [(miss, None)] * len(texts)
        out: list[tuple[StepResult, str | None]] = []
        for item in payload["results"]:
            if "token" in item:
                out.append((StepResult.success(state_from_wire(item["state"], EMPTY_CONTEXT)),
                            item["token"]))
            else:
                out.append((StepResult.failure(item["category"], item["detail"]), None))
        return out

    def clone(self, sid: str) -> str:
        return self._expect(self._call("clone", session=sid))["token"]

    def restore(self, token: str, session: str | None = None) -> str:
        payload = self._expect(self._call(
            "restore", session=session, payload={"token": token}))
        sid = payload["session"]
        self._poisoned.discard(sid)
        return sid

    def release(self, ids) -> None:
        """Release ``ids`` and every snapshot a late ``apply_batch`` reply
        has named since the last release."""
        ids = list(ids)
        orphans, self._orphans = self._orphans, []
        self._expect(self._call("release", payload={"ids": ids + orphans}))
        self._poisoned.difference_update(ids)

    def stats(self) -> dict:
        return self._expect(self._call("stats"))

    def counterexample(self, sid: str, atom_limit: int = 16) -> CexResult:
        return _cex_from_wire(self._expect(self._call(
            "counterexample", session=sid, payload={"atom_limit": atom_limit})))

    def counterexample_at(self, token: str, atom_limit: int = 16) -> CexResult:
        return self.counterexamples_at([token], atom_limit)[0]

    def counterexamples_at(self, tokens, atom_limit: int = 16) -> list[CexResult]:
        """One round trip for the verdicts on every snapshot in ``tokens``."""
        reply = self._expect(self._call(
            "counterexample", payload={"tokens": list(tokens), "atom_limit": atom_limit}))
        return [_cex_from_wire(item) for item in reply["results"]]

    def hammer(self, sid: str, config: HammerConfig = HammerConfig(),
               pool: list[str] | None = None) -> HammerResult:
        return self._hammer({}, config, pool, session=sid)

    def hammer_at(self, token: str, config: HammerConfig = HammerConfig(),
                  pool: list[str] | None = None) -> HammerResult:
        return self._hammer({"token": token}, config, pool)

    def _hammer(self, payload: dict, config: HammerConfig, pool: list[str] | None,
                session: str | None = None) -> HammerResult:
        payload.update(max_depth=config.max_depth, premise_limit=config.premise_limit,
                       budget_ms=config.budget_ms)
        if pool is not None:
            payload["pool"] = list(pool)
        reply = self._expect(self._call(
            "hammer", session=session, payload=payload,
            timeout_ms=config.budget_ms + 5000))
        if reply["result"] == "found":
            from .core import parse_step

            return HammerResult("found", tuple(parse_step(s) for s in reply["steps"]))
        return HammerResult(reply["result"])

    def close(self) -> None:
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
