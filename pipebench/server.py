"""Traced launcher of the reference prover server, for the traced run of
``corpus_tcp``; the untraced run starts the plain ``stepwise serve``.

Usage: python3 pipebench/server.py

Serves like ``stepwise serve --port 0`` (the first line of standard output
names the port) while timing ``ProverServer.dispatch`` and counting requests
per command and the sessions and snapshots the prover creates. On SIGTERM
it stops listening and prints those totals as one JSON line.
"""

import json
import signal
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stepwise import cli  # noqa: E402
from stepwise.protocol import ProverServer  # noqa: E402
from tracing import clock, count_prover_objects  # noqa: E402


def main() -> int:
    counts: Counter = Counter()
    init, dispatch = ProverServer.__init__, ProverServer.dispatch

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        count_prover_objects(self.prover, counts)

    def timed_dispatch(self, req):
        counts["rpc." + req.cmd] += 1
        t0 = clock()
        try:
            return dispatch(self, req)
        finally:
            counts["dispatch_s"] += clock() - t0

    def stop(signum, frame):
        raise KeyboardInterrupt

    ProverServer.__init__, ProverServer.dispatch = counted_init, timed_dispatch
    signal.signal(signal.SIGTERM, stop)
    code = cli.main(["serve", "--port", "0"])
    print(json.dumps(counts), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
