"""Spans and counts around each layer's public functions, recorded from the
benchmark's side of the call.

A span is ``[name, start, end, parent, theorem]``: ``parent`` indexes the
enclosing span (-1 for none) and ``theorem`` is the position of the theorem
in its pass. Spans stay in memory until the benchmark writes them out.

``instrument`` rebinds the layer functions where their callers look them up
(``engine.best_first_search``, ``search.revise`` and so on) and restores them
on exit; ``TracedBackend`` and ``TracedGenerator`` wrap the objects the
benchmark hands to ``prove_theorem``. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.theorem = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.theorem]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = clock()
            stack.pop()

    def layer_times(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (the span
        minus the part of it its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return dict(out)


class TracedGenerator:
    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def generate(self, state):
        out = self._tracer.call("generator.generate", self._generator.generate, state)
        self._tracer.counts["generator.candidates"] += len(out)
        return out


class TracedBackend:
    """The backend surface ``prove_theorem`` drives, one span per call.

    ``repaired`` maps ``id(step)`` to the step for every candidate the
    revision layer returned, so applies of repaired steps can be told apart
    from applies of generated ones.
    """

    def __init__(self, backend, tracer: Tracer, repaired: dict):
        self._backend = backend
        self._tracer = tracer
        self._repaired = repaired

    def __getattr__(self, name):
        # any other backend method passes through untraced
        return getattr(self._backend, name)

    def _call(self, name, *args, **kwargs):
        return self._tracer.call("prover." + name, getattr(self._backend, name), *args, **kwargs)

    def load_theory(self, source):
        return self._call("load_theory", source)

    def start(self, theory_name, theorem_id):
        return self._call("start", theory_name, theorem_id)

    def state(self, sid):
        return self._call("state", sid)

    def clone(self, sid):
        return self._call("clone", sid)

    def restore(self, token, session=None):
        return self._call("restore", token, session=session)

    def apply(self, sid, step, timeout_ms=None):
        result = self._call("apply", sid, step, timeout_ms)
        counts = self._tracer.counts
        counts["prover.apply.ok"] += result.ok
        if id(step) in self._repaired:
            counts["revision.repairs_applied"] += 1
            counts["revision.repairs_ok"] += result.ok
        return result

    def counterexample_at(self, token, atom_limit=16):
        verdict = self._call("counterexample_at", token, atom_limit)
        self._tracer.counts["prover.counterexample_at.unknown"] += verdict.kind == "unknown"
        return verdict

    def hammer_at(self, token, config, pool=None):
        result = self._call("hammer_at", token, config, pool)
        self._tracer.counts["prover.hammer_at.timeout"] += result.kind == "timeout"
        return result


def count_prover_objects(prover, counts: Counter) -> None:
    """Count the sessions and snapshots a ``ToyProver`` instance creates;
    nothing in the program releases them before the prover is closed."""
    start, clone, restore = prover.start, prover.clone, prover.restore

    def counted_start(*args, **kwargs):
        counts["sessions_opened"] += 1
        return start(*args, **kwargs)

    def counted_clone(*args, **kwargs):
        counts["snapshots_opened"] += 1
        return clone(*args, **kwargs)

    def counted_restore(token, session=None):
        counts["sessions_opened"] += session is None
        return restore(token, session)

    prover.start, prover.clone, prover.restore = counted_start, counted_clone, counted_restore


def time_prover_methods(prover, counts: Counter) -> None:
    """Accumulate the seconds spent inside an in-process prover's backend
    surface into ``counts["dispatch_s"]``."""
    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts["dispatch_s"] += clock() - t0
        return wrapper

    for name in ("load_theory", "start", "state", "apply", "clone", "restore",
                 "counterexample_at", "hammer_at"):
        setattr(prover, name, timed(getattr(prover, name)))


class TracedTransport:
    """Counts the bytes a line transport moves and the client-observed time
    from sending a request to receiving its reply."""

    def __init__(self, transport, counts: Counter):
        self._transport = transport
        self._counts = counts
        self._sent_at: float | None = None

    def send_line(self, line: str) -> None:
        self._counts["bytes_sent"] += len(line.encode("utf-8")) + 1
        self._sent_at = clock()
        self._transport.send_line(line)

    def recv_line(self, deadline):
        line = self._transport.recv_line(deadline)
        if self._sent_at is not None:
            self._counts["rpc_s"] += clock() - self._sent_at
            self._sent_at = None
        self._counts["bytes_recv"] += len(line.encode("utf-8")) + 1
        return line

    def close(self) -> None:
        self._transport.close()


@contextlib.contextmanager
def rebound(*targets):
    """Temporarily set ``module.name = value`` for each (module, name, value)."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
    try:
        for module, name, value in targets:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def count_rpcs(counts: Counter):
    """Rebinding that counts client requests per command at the encoder."""
    from stepwise import protocol

    encode = protocol.encode_request

    def counted(req):
        counts["rpc." + req.cmd] += 1
        return encode(req)

    return (protocol, "encode_request", counted)


def instrument(tracer: Tracer, repaired: dict):
    """Rebindings that put the search, revision, filtering and hammer layers
    and every ``canonical_state`` lookup under the tracer."""
    from stepwise import core, engine, search

    counts = tracer.counts

    def traced_search(*args, **kwargs):
        return tracer.call("search.best_first_search", search_fn, *args, **kwargs)

    def traced_revise(*args, **kwargs):
        out = tracer.call("revision.revise", revise_fn, *args, **kwargs)
        counts["revision.repairs"] += len(out)
        for cand in out:
            repaired[id(cand.step)] = cand.step
        return out

    def traced_filter(candidates, *args, **kwargs):
        kept, delta = tracer.call("filtering.filter_states", filter_fn, candidates, *args, **kwargs)
        counts["filtering.states_in"] += len(candidates)
        counts["filtering.kept"] += len(kept)
        counts["filtering.dup_rejected"] += delta.duplicates_rejected
        counts["filtering.cex_rejected"] += delta.counterexamples_rejected
        return kept, delta

    def traced_hammer(*args, **kwargs):
        steps = tracer.call("hammer.hammer_fallback", hammer_fn, *args, **kwargs)
        counts["hammer.found"] += steps is not None
        return steps

    def counted_canonical_state(state):
        counts["core.canonical_state.calls"] += 1
        return canonical_fn(state)

    search_fn, hammer_fn = engine.best_first_search, engine.hammer_fallback
    revise_fn, filter_fn = search.revise, search.filter_states
    canonical_fn = core.canonical_state
    importers = [m for name, m in sorted(sys.modules.items())
                 if name.startswith("stepwise") and m is not None
                 and getattr(m, "canonical_state", None) is canonical_fn]
    return rebound(
        (engine, "best_first_search", traced_search),
        (engine, "hammer_fallback", traced_hammer),
        (search, "revise", traced_revise),
        (search, "filter_states", traced_filter),
        *[(m, "canonical_state", counted_canonical_state) for m in importers])
