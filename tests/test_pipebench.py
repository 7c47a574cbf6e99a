"""The benchmark in ``pipebench/`` drives the product through its public
surface and, in traced mode, wraps parts of it by name. These runs keep a
product change that breaks either mode from going unnoticed. Each is a
one-second run that writes only under the ignored ``pipebench/out/``.
The benchmark's inputs also pin what the program proves, and how."""

import hashlib
import importlib
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark_for_a_second(workload: str, trace: str) -> None:
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0


@pytest.mark.parametrize("workload", ["corpus_inproc", "corpus_tcp", "repair_wide"])
def test_traced_benchmark_run_passes_its_checks(workload):
    run_benchmark_for_a_second(workload, "1")


@pytest.mark.parametrize("workload", ["corpus_inproc", "corpus_tcp", "repair_wide"])
def test_untraced_benchmark_run_passes_its_checks(workload):
    """The mode the benchmark's timed runs use."""
    run_benchmark_for_a_second(workload, "0")


# sha256 of every seed-0 report, wall time left out; a change to the search,
# premise repair, the oracle or the hammer that alters any search or fallback
# fails here
PINNED_REPORTS = {
    "corpus_inproc": "c1e3ce8449704ac814d2c7f09b60e4a3bc48be1d1b6ffc48a46f88ca3c8bc505",
    "repair_wide": "d27882a654a94d52b82330df1b51ada1bdcc178e198baa30c3f02cfaaae9918e",
}


def seed_zero_report_digest(monkeypatch, workload: str, backend=None) -> str:
    from stepwise.engine import prove_theorem

    monkeypatch.syspath_prepend(str(ROOT / "pipebench"))
    workloads = importlib.import_module("workloads")
    config = workloads.engine_config()
    backend, mock = backend or config.make_backend(), config.make_generator()
    lines = []
    for item in workloads.WORKLOADS[workload].build(0):
        report = prove_theorem(item.theory, "goal", config, backend=backend,
                               generator=item.generator or mock).report
        report["stats"] = {k: v for k, v in report["stats"].items() if k != "wall_time"}
        lines.append(json.dumps(report, sort_keys=True))
    # each theorem released its root; over TCP this request carries the last
    assert backend.stats()["snapshots"] == 0
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_repair_wide_reports_match_their_pinned_digest(monkeypatch):
    assert seed_zero_report_digest(monkeypatch, "repair_wide") == PINNED_REPORTS["repair_wide"]


def test_corpus_inproc_reports_match_their_pinned_digest(monkeypatch):
    assert (seed_zero_report_digest(monkeypatch, "corpus_inproc")
            == PINNED_REPORTS["corpus_inproc"])


@pytest.mark.parametrize("workload", ["corpus_inproc", "repair_wide"])
def test_reports_proved_over_tcp_match_their_pinned_digest(monkeypatch, workload):
    from stepwise.protocol import RemoteProver, tcp_server

    tcp = tcp_server()
    threading.Thread(target=tcp.serve_forever, daemon=True).start()
    try:
        remote = RemoteProver.connect_tcp(*tcp.server_address)
        try:
            digest = seed_zero_report_digest(monkeypatch, workload, remote)
        finally:
            remote.close()
    finally:
        tcp.shutdown()
        tcp.server_close()
    assert digest == PINNED_REPORTS[workload]
