"""One racekit command in a fresh interpreter.

    python3 -m racebench.measure <argv.json> <result.json> [<spans.json.gz>]

run.py starts this once per command, so every command pays the same cold
start a user's does and its peak memory is its own. The command runs
in-process through `racekit.cli.main(argv)`; its wall time covers the
import of racekit.cli and main. With a spans path, the layers are traced
(racebench/tracing.py) and the spans are written there at exit.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from racebench.tracing import Tracer  # imports numpy outside the timed region


def main(argv_path: str, result_path: str, spans_path: str | None = None) -> int:
    argv = json.loads(Path(argv_path).read_text())
    tracer = Tracer() if spans_path else None
    t0 = time.perf_counter()
    from racekit import cli
    with tracer.installed() if tracer else contextlib.nullcontext():
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
    wall = time.perf_counter() - t0
    if tracer:
        tracer.write(Path(spans_path))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(
        {"rc": rc, "wall_s": wall, "rss_mb": own, "worker_rss_mb": worker}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
