"""The benchmark in ``pipebench/`` drives the product through its public
surface and, in traced mode, wraps parts of it by name. These runs keep a
product change that breaks either mode from going unnoticed. Each is a
one-second run that writes only under the ignored ``pipebench/out/``.
The benchmark's inputs also pin what the program proves, and how."""

import functools
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

# sha256 of every ``revise`` output (step text, log-prob, origin), call by
# call, over one ``repair_wide`` pass per seed. Premise repair does nearly
# all of that workload's revising, so a change to it, or to the relevance
# ranking it reads, that alters any repaired step or score fails here, even
# where no report shows it.
PINNED_REVISE = {
    0: "91c3edae6746a6dc5dae19e2091d351315bac6c29ff65123a25775daa02c249c",
    7: "5663a24d784986fee22ca73399ce03461d520117e5bcd950c3757f14c5f6697a",
    11: "027a0b30eb1501744aa250ade0ddf9a8e18b9d9a04b406236914d33dafa781ac",
}


def pass_digests(workload: str, seed: int, backend=None) -> tuple[str, str]:
    """The sha256 of every report of one pass of ``workload`` at ``seed``,
    wall time left out, and of every ``revise`` output, proved on
    ``backend`` (a fresh in-process prover by default)."""
    from stepwise import search
    from stepwise.engine import prove_theorem

    revised, revise = hashlib.sha256(), search.revise

    def recording_revise(*args, **kwargs):
        out = revise(*args, **kwargs)
        for cand in out:
            revised.update(f"{cand.step.text()}\t{cand.log_prob!r}\t{cand.origin}\n".encode())
        revised.update(b"\n")
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "pipebench"))
        patch.setattr(search, "revise", recording_revise)
        workloads = importlib.import_module("workloads")
        config = workloads.engine_config()
        backend, mock = backend or config.make_backend(), config.make_generator()
        lines = []
        for item in workloads.WORKLOADS[workload].build(seed):
            report = prove_theorem(item.theory, "goal", config, backend=backend,
                                   generator=item.generator or mock).report
            report["stats"] = {k: v for k, v in report["stats"].items() if k != "wall_time"}
            lines.append(json.dumps(report, sort_keys=True))
    # each theorem released its root; over TCP this request carries the last
    assert backend.stats()["snapshots"] == 0
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), revised.hexdigest()


@pytest.fixture(scope="module")
def digests():
    """``digests(workload, seed, remote)``: ``pass_digests`` in process or
    over TCP to a reference server thread, each pass run once per module."""
    from stepwise.protocol import RemoteProver, tcp_server

    def run(workload: str, seed: int = 0, remote: bool = False) -> tuple[str, str]:
        return once(workload, seed, remote)

    @functools.cache
    def once(workload: str, seed: int, remote: bool) -> tuple[str, str]:
        if not remote:
            return pass_digests(workload, seed)
        tcp = tcp_server()
        threading.Thread(target=tcp.serve_forever, daemon=True).start()
        try:
            backend = RemoteProver.connect_tcp(*tcp.server_address)
            try:
                return pass_digests(workload, seed, backend)
            finally:
                backend.close()
        finally:
            tcp.shutdown()
            tcp.server_close()

    return run


def test_repair_wide_reports_match_their_pinned_digest(digests):
    assert digests("repair_wide")[0] == PINNED_REPORTS["repair_wide"]


def test_corpus_inproc_reports_match_their_pinned_digest(digests):
    assert digests("corpus_inproc")[0] == PINNED_REPORTS["corpus_inproc"]


@pytest.mark.parametrize("workload", ["corpus_inproc", "repair_wide"])
def test_reports_proved_over_tcp_match_their_pinned_digest(digests, workload):
    assert digests(workload, remote=True)[0] == PINNED_REPORTS[workload]


@pytest.mark.parametrize("seed", sorted(PINNED_REVISE))
def test_repair_wide_revise_outputs_match_their_pinned_digest(digests, seed):
    assert digests("repair_wide", seed)[1] == PINNED_REVISE[seed]


def test_repair_wide_revise_outputs_over_tcp_match_their_pinned_digest(digests):
    assert digests("repair_wide", remote=True)[1] == PINNED_REVISE[0]
