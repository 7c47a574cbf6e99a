"""End-to-end benchmark of the stepwise pipeline, with an optional traced run
that splits the time across layers.

Usage (from the repository root):
    python3 pipebench/run.py --workload corpus_inproc --seed 0 --seconds 35 --trace 0

Workloads are ``corpus_inproc``, ``corpus_tcp`` and ``repair_wide`` (see
``pipebench/README.md``). Each is closed-loop: one client proves one theorem
at a time. A run repeats passes over the seeded inputs until ``--seconds``
are spent; every pass builds its inputs and its backend (or server child)
afresh, so no cache carries over. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs one untraced reference pass and then traced
passes, checks that tracing changed no result, and reports the per-layer
metrics. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from speed import speed_scale
from tracing import Tracer, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

IMPORT_PROBE = ("import time; t = time.perf_counter(); import stepwise.cli; "
                "print(time.perf_counter() - t)")
IMPORT_PROBES = 9
SETUP_REPEATS = 5        # set-ups without proving, besides each pass's own
MIN_SAMPLES = 200        # distinct theorems, so that >= 10 lie beyond the p95
SERVER_START_TIMEOUT_S = 60
SERVER_EXIT_TIMEOUT_S = 10
MAX_SELF_GAP = 0.10      # layer self times must cover engine time within 10%
PROBE_INTERVAL_S = 0.05  # longest gap between two speed_scale() probes

RPC_COMMANDS = ("load_theory", "start", "state", "apply", "clone", "restore",
                "counterexample", "hammer", "shutdown")


class BenchmarkError(Exception):
    pass


@dataclass
class PassResult:
    setup_s: float           # reference seconds
    wall_s: float = 0.0      # wall seconds of the proving loop
    times: list[float] = field(default_factory=list)    # wall seconds per theorem
    scales: list[float] = field(default_factory=list)   # speed_scale() per theorem
    outcomes: list[tuple] = field(default_factory=list)
    failed: int = 0
    counts: Counter = field(default_factory=Counter)   # client-side rpc counts
    server: Counter = field(default_factory=Counter)   # prover-side counts
    server_rss_mb: float = 0.0
    tracer: Tracer | None = None

    @property
    def proved(self) -> int:
        return sum(1 for o in self.outcomes if o[1])

    @property
    def scaled_times(self) -> list[float]:
        return [t * s for t, s in zip(self.times, self.scales)]


def ratio(num, den):
    return num / den if den else 0.0


def vm_hwm_mb(pid: int | str = "self") -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for process {pid}")


def import_seconds() -> float:
    """Median time, in reference seconds, to import the whole package, each
    in a fresh interpreter and scaled by the speed measured around it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_PROBES):
        before = speed_scale()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip()) * (before + speed_scale()) / 2)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# The reference server child
# ---------------------------------------------------------------------------

class ServerChild:
    """One reference server process on an ephemeral port. ``stepwise serve``
    keeps listening after a client's ``shutdown``, so ``stop`` terminates it
    and fails if it does not exit."""

    def __init__(self, traced: bool):
        argv = ([sys.executable, str(HERE / "server.py")] if traced else
                [sys.executable, "-m", "stepwise.cli", "serve", "--port", "0"])
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.traced = traced
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            self.port = self._read_port()
        except BaseException:
            self.terminate()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("listening on "):
            raise BenchmarkError(f"server did not start: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def terminate(self) -> str:
        """Terminate and reap the child; what it printed."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=SERVER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchmarkError("server child outlived its run") from None
        return out

    def stop(self) -> Counter:
        """Terminate and reap the child; the traced launcher's totals."""
        out = self.terminate()
        if self.traced:
            lines = out.strip().splitlines()
            if not lines:
                raise BenchmarkError("traced server printed no totals")
            return Counter(json.loads(lines[-1]))
        return Counter()


# ---------------------------------------------------------------------------
# One pass over a workload's inputs
# ---------------------------------------------------------------------------

def set_up(workload, seed: int, traced: bool):
    """What a pass does before its first theorem: the engine budgets, the
    inputs and a fresh backend, over TCP to a fresh server child."""
    from stepwise.prover import ToyProver
    from stepwise.protocol import RemoteProver
    from workloads import engine_config

    config = engine_config()
    items = workload.build(seed)
    if not workload.remote:
        return config, items, None, ToyProver()
    server = ServerChild(traced)
    try:
        return config, items, server, RemoteProver.connect_tcp("127.0.0.1", server.port)
    except BaseException:
        server.terminate()
        raise


def setup_seconds(workload, seed: int) -> list[float]:
    """SETUP_REPEATS set-ups without proving, each torn down again, in
    reference seconds scaled by the speed measured around them."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = speed_scale()
        t0 = clock()
        _, _, server, backend = set_up(workload, seed, traced=False)
        samples.append((clock() - t0) * (before + speed_scale()) / 2)
        try:
            backend.close()
        finally:
            if server:
                server.stop()
    return samples


def run_pass(workload, seed: int, mode: str) -> PassResult:
    """Build the inputs and a backend, prove every theorem, then replay the
    proofs. ``mode`` is ``plain`` (no instrumentation), ``reference``
    (untraced, client requests counted per command) or ``traced``."""
    scale = speed_scale()
    t0 = clock()
    config, items, server, backend = set_up(workload, seed, traced=mode == "traced")
    result = PassResult(setup_s=(clock() - t0) * scale)
    try:
        try:
            prove_all(items, config, backend, mode, result)
        finally:
            backend.close()
        result.server_rss_mb = vm_hwm_mb(server.proc.pid if server else "self")
    finally:
        totals = server.stop() if server else Counter()
    result.server.update(totals)
    result.failed += unsound_proofs(items, result.outcomes)
    return result


def prove_all(items, config, backend, mode: str, result: PassResult) -> None:
    from stepwise.engine import prove_theorem
    from stepwise.protocol import RemoteProver

    mock = config.make_generator()
    rpcs = tracing.count_rpcs(result.counts)
    if mode != "traced":
        with tracing.rebound(rpcs) if mode == "reference" else tracing.rebound():
            prove_loop(items, result, lambda index, item: prove_theorem(
                item.theory, "goal", config, backend=backend, generator=item.generator or mock))
        return

    tracer = result.tracer = Tracer()
    repaired: dict = {}
    if isinstance(backend, RemoteProver):
        backend.transport = tracing.TracedTransport(backend.transport, result.counts)
    else:
        tracing.count_prover_objects(backend, result.server)
        tracing.time_prover_methods(backend, result.server)
    traced_backend = tracing.TracedBackend(backend, tracer, repaired)

    def prove(index, item):
        tracer.theorem = index
        repaired.clear()
        return tracer.call("engine.prove_theorem", prove_theorem, item.theory, "goal", config,
                           backend=traced_backend,
                           generator=tracing.TracedGenerator(item.generator or mock, tracer))

    with tracing.rebound(rpcs), tracing.instrument(tracer, repaired):
        prove_loop(items, result, prove)


def prove_loop(items, result: PassResult, prove) -> None:
    """Closed loop: each theorem starts when the previous one is done. An
    error raised by the program fails that theorem and the run."""
    loop_start = clock()
    scale, probed_at = speed_scale(), clock()
    for index, item in enumerate(items):
        if clock() - probed_at > PROBE_INTERVAL_S:
            scale, probed_at = speed_scale(), clock()
        result.scales.append(scale)
        start = clock()
        try:
            proved = prove(index, item)
        except Exception:
            result.times.append(clock() - start)
            traceback.print_exc()
            result.failed += 1
            result.outcomes.append((item.theory.name, False, "error", 0, 0, 0, None))
            continue
        result.times.append(clock() - start)
        stats = proved.outcome.stats
        result.outcomes.append((item.theory.name, proved.proved, proved.via, stats.iterations,
                                stats.nodes_created, stats.generator_calls, proved.steps))
    result.wall_s = clock() - loop_start


def unsound_proofs(items, outcomes) -> int:
    """Replay every returned proof on a fresh in-process prover."""
    from stepwise.prover import ToyProver
    from stepwise.search import replay_steps

    bad = 0
    for item, (name, proved, via, *_, steps) in zip(items, outcomes):
        if proved and not replay_steps(item.theory, "goal", ToyProver(), steps):
            print(f"unsound proof of {name} via {via}: {[s.text() for s in steps]}",
                  file=sys.stderr)
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def theorem_times(passes: list[PassResult]) -> list[float]:
    """Each theorem's median time over the run's passes, in reference
    seconds. Every pass proves the same inputs from scratch."""
    return [statistics.median(times) for times in zip(*(p.scaled_times for p in passes))]


def end_to_end(passes: list[PassResult], import_s: float, setups: list[float]) -> dict:
    times = theorem_times(passes)
    if len(times) < MIN_SAMPLES:
        raise BenchmarkError(f"{len(times)} theorems are too few for a p95")
    return {
        "theorems_per_s": (len(times) / sum(times), "1/s"),
        "theorem_p50_ms": (statistics.median(times) * 1000.0, "ms"),
        "theorem_p95_ms": (statistics.quantiles(times, n=20, method="inclusive")[18] * 1000.0, "ms"),
        "solved_frac": (sum(p.proved for p in passes) / sum(len(p.outcomes) for p in passes),
                        "ratio"),
        "setup_s": (import_s + statistics.median(setups + [p.setup_s for p in passes]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "server_peak_rss_mb": (max(p.server_rss_mb for p in passes), "MB"),
    }


def layer_metrics(p: PassResult, remote: bool) -> dict:
    """Per-layer totals of one traced pass."""
    layers = p.tracer.layer_times()
    counts = p.tracer.counts

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def secs(name, key="s"):
        return layers.get(name, {}).get(key, 0.0)

    engine_s = secs("engine.prove_theorem")
    prover_s = sum(v["s"] for k, v in layers.items() if k.startswith("prover."))
    if remote:
        rpcs = {cmd: p.server.get("rpc." + cmd, 0) for cmd in RPC_COMMANDS}
        rpcs["other"] = sum(v for k, v in p.server.items() if k.startswith("rpc.")) - sum(rpcs.values())
        client_rpc_s = p.counts["rpc_s"]
    else:
        rpcs = dict.fromkeys(RPC_COMMANDS + ("other",), 0)
        client_rpc_s = prover_s
    theorems = len(p.outcomes)
    m = {
        "engine.prove_theorem.s": (engine_s, "s"),
        "engine.self_s": (secs("engine.prove_theorem", "self_s"), "s"),
        "search.self_s": (secs("search.best_first_search", "self_s"), "s"),
        "search.iterations": (sum(o[3] for o in p.outcomes), "count"),
        "search.nodes_created": (sum(o[4] for o in p.outcomes), "count"),
        "search.expansions": (sum(o[5] for o in p.outcomes), "count"),
        "core.canonical_state.calls": (counts["core.canonical_state.calls"], "count"),
        "generator.generate.calls": (calls("generator.generate"), "count"),
        "generator.generate.s": (secs("generator.generate"), "s"),
        "generator.candidates": (counts["generator.candidates"], "count"),
    }
    for op in ("apply", "clone", "restore", "counterexample_at", "hammer_at"):
        m[f"prover.{op}.calls"] = (calls(f"prover.{op}"), "count")
        m[f"prover.{op}.s"] = (secs(f"prover.{op}"), "s")
    m.update({
        "prover.apply.ok_ratio": (ratio(counts["prover.apply.ok"], calls("prover.apply")), "ratio"),
        "prover.counterexample_at.unknown_ratio": (ratio(
            counts["prover.counterexample_at.unknown"], calls("prover.counterexample_at")), "ratio"),
        "prover.hammer_at.timeout_ratio": (ratio(
            counts["prover.hammer_at.timeout"], calls("prover.hammer_at")), "ratio"),
        "filtering.self_s": (secs("filtering.filter_states", "self_s"), "s"),
        "filtering.states_in": (counts["filtering.states_in"], "count"),
        "filtering.dup_rejected": (counts["filtering.dup_rejected"], "count"),
        "filtering.cex_rejected": (counts["filtering.cex_rejected"], "count"),
        "filtering.kept_ratio": (ratio(counts["filtering.kept"], counts["filtering.states_in"]), "ratio"),
        "revision.revise.calls": (calls("revision.revise"), "count"),
        "revision.revise.s": (secs("revision.revise"), "s"),
        "revision.repairs": (counts["revision.repairs"], "count"),
        "revision.repair_ok_ratio": (ratio(counts["revision.repairs_ok"],
                                           counts["revision.repairs_applied"]), "ratio"),
        "hammer.self_s": (secs("hammer.hammer_fallback", "self_s"), "s"),
        "hammer.found_ratio": (ratio(counts["hammer.found"], calls("hammer.hammer_fallback")), "ratio"),
        "protocol.rpcs_per_theorem": (ratio(sum(rpcs.values()), theorems), "rpc/theorem"),
    })
    for cmd, n in rpcs.items():
        m[f"protocol.rpcs.{cmd}"] = (n, "count")
    m.update({
        "protocol.server_dispatch_s": (p.server["dispatch_s"], "s"),
        "protocol.transport_s": (client_rpc_s - p.server["dispatch_s"], "s"),
        "protocol.bytes_sent": (p.counts["bytes_sent"], "B"),
        "protocol.bytes_recv": (p.counts["bytes_recv"], "B"),
        "protocol.sessions_opened": (p.server["sessions_opened"], "count"),
        "protocol.snapshots_opened": (p.server["snapshots_opened"], "count"),
        "trace.self_coverage": (ratio(engine_s - secs("engine.prove_theorem", "self_s"),
                                      engine_s), "ratio"),
    })
    return m


def deterministic_view(p: PassResult) -> tuple:
    """What tracing must not change: per theorem the result, ``via``,
    iterations, nodes created and expansions, and client requests per command."""
    return ([o[:6] for o in p.outcomes],
            sorted((k, v) for k, v in p.counts.items() if k.startswith("rpc.")))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def repeat_passes(workload, seed: int, mode: str, start: float, seconds: float) -> list[PassResult]:
    """Passes, at least one, while another would end within ``seconds`` of ``start``."""
    passes: list[PassResult] = []
    longest = 0.0
    while True:
        pass_start = clock()
        passes.append(run_pass(workload, seed, mode))
        longest = max(longest, clock() - pass_start)
        if clock() - start + longest > seconds:
            return passes


def untraced_run(workload, seed: int, seconds: float) -> tuple[dict, list[PassResult]]:
    """The set-up probes, then passes for ``seconds``."""
    import_s = import_seconds()
    setups = setup_seconds(workload, seed)
    passes = repeat_passes(workload, seed, "plain", clock(), seconds)
    return end_to_end(passes, import_s, setups), passes


def traced_run(workload, seed: int, seconds: float) -> tuple[dict, list[PassResult]]:
    """One reference pass, then traced passes until ``seconds`` are spent.
    Fails unless every traced pass reproduces the reference exactly and the
    layers' self times cover the engine time."""
    start = clock()
    reference = run_pass(workload, seed, "reference")
    traced = repeat_passes(workload, seed, "traced", start, seconds)

    expected = deterministic_view(reference)
    for p in traced:
        check_same(expected, deterministic_view(p))
        if workload.remote:
            client = {k: v for k, v in p.counts.items() if k.startswith("rpc.")}
            server = {k: v for k, v in p.server.items()
                      if k.startswith("rpc.") and k != "rpc.shutdown"}
            if client != server:
                raise BenchmarkError(f"client sent {client} but the server saw {server}")
    per_pass = [layer_metrics(p, workload.remote) for p in traced]
    metrics = {name: (statistics.median_low([m[name][0] for m in per_pass]), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median([sum(p.scaled_times) for p in traced]) / sum(reference.scaled_times), "ratio")
    coverage = metrics["trace.self_coverage"][0]
    if abs(1.0 - coverage) > MAX_SELF_GAP:
        raise BenchmarkError(f"layer self times cover {coverage:.1%} of engine.prove_theorem.s")
    write_spans(workload.name, seed, traced[0])
    return metrics, [reference] + traced


def check_same(expected, actual) -> None:
    (want, want_rpcs), (got, got_rpcs) = expected, actual
    for a, b in zip(want, got):
        if a != b:
            raise BenchmarkError(f"tracing changed a result: untraced {a}, traced {b}")
    if len(want) != len(got) or want_rpcs != got_rpcs:
        raise BenchmarkError(f"tracing changed the requests: untraced {want_rpcs}, traced {got_rpcs}")


def write_spans(workload: str, seed: int, p: PassResult) -> Path:
    """Spans of one traced pass, times in seconds from its first span."""
    spans = p.tracer.spans
    origin = spans[0][1] if spans else 0.0
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.json"
    with path.open("w") as f:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "theorem"],
                   "theorems": [o[0] for o in p.outcomes],
                   "spans": [[n, round(s - origin, 7), round(e - origin, 7), parent, theorem]
                             for n, s, e, parent, theorem in spans]}, f)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus_inproc", "corpus_tcp", "repair_wide"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stepwise" / "__init__.py").is_file():
        print(f"error: no stepwise sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, check_ground_truth, check_pinned_inputs

    # One CPU for the benchmark and every process it starts: the closed loop
    # never runs client and server at once, and speed_scale() then measures
    # the CPU that the server's work runs on too.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload]
    try:
        check_pinned_inputs(workload)
        check_ground_truth(workload.build(args.seed))
    except ValueError as e:
        print(f"error: invalid inputs: {e}", file=sys.stderr)
        return 1
    try:
        run = traced_run if args.trace else untraced_run
        metrics, passes = run(workload, args.seed, args.seconds)
    except BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    scales = [s for p in passes for s in p.scales]
    print(f"# unscaled: {attempted / sum(p.wall_s for p in passes):.6g} theorems per wall second; "
          f"speed scale median {statistics.median(scales):.4g}, range {min(scales):.4g}-{max(scales):.4g}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes of "
          f"{len(passes[0].times)} theorems (the p95's samples), {attempted} proofs attempted, "
          f"failed_frac={failed / attempted:.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
