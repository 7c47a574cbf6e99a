"""The benchmark in ``pipebench/`` drives the product through its public
surface and, in traced mode, wraps parts of it by name. These runs keep a
product change that breaks the traced mode from going unnoticed. Each is a
one-second run that writes only under the ignored ``pipebench/out/``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["corpus_inproc", "corpus_tcp"])
def test_traced_benchmark_run_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
