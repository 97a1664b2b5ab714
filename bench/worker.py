"""Benchmark worker: executes ops in an interpreter of its own.

    python3 bench/worker.py SRC_DIR [--trace]

Imports `jcokernel` from SRC_DIR, prints one JSON line once it is ready,
then reads ops (see workloads.py) as JSON lines on stdin and answers each
with one JSON line: exit code, exact output text, op seconds, peak live
terms and the worker's peak RSS.  With --trace it first installs the
tracer from tracer.py and adds each op's spans and counts to its answer.
An untraced worker imports nothing else from the benchmark.
"""

import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path


def execute(jcokernel, op: dict) -> tuple[int, str]:
    """Run one op through the library; return (exit code, output text)."""
    kind = op["kind"]
    if kind == "cli":
        out = io.StringIO()
        code = jcokernel.cli.main(op["argv"], out=out)
        return code, out.getvalue()
    if kind == "check_relations":
        rng = random.Random(op["rng_seed"])
        return 0, json.dumps(jcokernel.brauer.check_relations(op["k"], op["g"], rng=rng))
    if kind == "uniqueness":
        found = jcokernel.detector.uniqueness_context(op["family"], op["k"], op["g"])
        return 0, json.dumps(list(found))
    raise ValueError(f"unknown op kind {kind!r}")


def main(argv: list[str]) -> int:
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import jcokernel
    import jcokernel.cli

    if not Path(jcokernel.__file__).resolve().is_relative_to(src):
        print(f"worker: imported jcokernel from {jcokernel.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if "--trace" in argv[1:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("jcokernel")
    tensorspace = getattr(jcokernel, "tensorspace", None)
    reset_peak = getattr(tensorspace, "reset_peak_terms", None)
    read_peak = getattr(tensorspace, "peak_terms", None)
    print(json.dumps({"ready": True, "absent": tracer.absent if tracer else []}), flush=True)

    for line in sys.stdin:
        op = json.loads(line)
        if reset_peak:
            reset_peak()
        if tracer:
            tracer.begin_op()
        error = None
        start = time.perf_counter()
        try:
            code, output = execute(jcokernel, op)
        except Exception:  # one failing op is reported, and the worker goes on
            code, output, error = None, "", traceback.format_exc(limit=4)
        seconds = time.perf_counter() - start
        reply = {
            "exit": code,
            "output": output,
            "error": error,
            "seconds": seconds,
            "peak_terms": read_peak() if read_peak else None,
            "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer:
            reply["trace"] = tracer.end_op()
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
