"""jcokernel benchmark: closed loop, one client, one worker process at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the program is imported from its `src/` directory.
Workloads are defined in workloads.py and listed in BENCHMARK.json.

Untraced (--trace 0): ops from the seeded sequence run until S seconds have
passed.  Cold workloads start a fresh interpreter per op; the warm workload
runs every op in one long-lived interpreter, after an untimed warm-up that
runs each distinct op once.  Reports the BENCHMARK.json end-to-end metrics.

Traced (--trace 1): a fixed number of whole cycles (set by S only, so counts
repeat exactly) runs once with the tracer installed and once without; reports
the BENCHMARK.json per-layer metrics plus the tracing overhead.

Every answer is checked by oracle.py.  The last stdout line is the result
JSON; the line before it is the run record (commit, Python, nproc, tail
percentile, failures).  Details and spans go to .bench_results/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from itertools import islice
from pathlib import Path

import oracle
import tracer
from workloads import WORKLOADS, all_variants, op_key, op_sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
PYCACHE = ROOT / ".bench_build" / "pycache"

OP_TIMEOUT_S = 60.0  # a hung op is killed and counted as failed
SETUP_PROBES = 24  # interpreter starts for setup_s, spread through a warm window
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it

SPECIAL_LAYER_METRICS = (
    "tensorspace.peak_live_terms",
    "trace.ops_per_s",
    "trace.untraced_ops_per_s",
    "trace.slowdown",
)


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker interpreter; `setup_s` is spawn-to-ready time."""

    def __init__(self, traced: bool = False):
        # Bytecode is always cached, and kept out of src/, so that setup_s and
        # peak RSS do not depend on whether the checkout holds valid .pyc
        # files or the caller's environment forbids writing them.
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(PYCACHE))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(SRC)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd + (["--trace"] if traced else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        line = self._readline()
        self.setup_s = time.perf_counter() - start
        if not line:
            self.close()
            raise WorkerError(f"worker exited with code {self.proc.returncode} before ready")
        self.absent = json.loads(line)["absent"]

    def _readline(self) -> str:
        timer = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            return self.proc.stdout.readline()
        finally:
            timer.cancel()

    def run(self, op: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(op) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return {"error": "worker died", "exit": None}
        line = self._readline()
        return json.loads(line) if line else {"error": "worker died or timed out", "exit": None}

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None and exc[0] is not None:
            self.proc.kill()
        self.close()


def run_ops(workload, ops, traced: bool, deadline: float | None = None):
    """Run (class, op) pairs in order; stop at `deadline` (perf_counter) if given.

    Returns (rows, wall seconds, setup samples, absent targets).
    """
    rows, setups, absent = [], [], []
    session = None
    start = time.perf_counter()
    try:
        for cls, op in ops:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if workload.cold or session is None:
                worker = Worker(traced)
                setups.append(worker.setup_s)
                absent = worker.absent
            if workload.cold:
                with worker:
                    reply = worker.run(op)
            else:
                session = worker
                reply = session.run(op)
            rows.append({"class": cls, "op": op, "reply": reply})
    finally:
        if session is not None:
            session.close()
    return rows, time.perf_counter() - start, setups, absent


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    leaves TAIL_BEYOND samples above it; the maximum if that percentile
    would not lie above the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def check_rows(rows, expected) -> list[str]:
    failures = []
    for i, row in enumerate(rows):
        reason = oracle.check(row["op"], row["reply"], expected)
        row["ok"] = reason is None
        if reason:
            failures.append(f"op {i} {op_key(row['op'])}: {reason}")
    return failures


def setup_probes(count: int) -> list[float]:
    setups = []
    for _ in range(count):
        with Worker() as probe:
            setups.append(probe.setup_s)
    return setups


def untraced_run(workload, seed: int, seconds: float):
    """Returns (window rows, warm-up rows, window seconds, setup samples)."""
    ops = op_sequence(workload, seed)
    if workload.cold:
        rows, wall, setups, _ = run_ops(workload, ops, False, time.perf_counter() + seconds)
        return rows, [], wall, setups
    return warm_window(workload, ops, seconds)


def warm_window(workload, ops, seconds: float):
    """The warm workload's untraced run, in one session worker.

    Each distinct op runs once before the window, so that the window sees
    warm caches only: a handful of cold first ops would otherwise sit at the
    seam of the tail percentile.  The session starts once, so setup_s needs
    more starts: SETUP_PROBES - 1 probe interpreters start at even steps of
    the window while the session is idle, and their time is left out of it.
    """
    with Worker() as session:
        setups = [session.setup_s]
        warmup = [{"class": cls, "op": op, "reply": session.run(op)}
                  for cls, op in all_variants(workload)]
        rows, paused = [], 0.0
        start = time.perf_counter()
        for cls, op in ops:
            elapsed = time.perf_counter() - start - paused
            if elapsed >= seconds:
                break
            if len(setups) <= SETUP_PROBES * elapsed / seconds:
                probe_start = time.perf_counter()
                setups += setup_probes(1)
                paused += time.perf_counter() - probe_start
            rows.append({"class": cls, "op": op, "reply": session.run(op)})
        wall = time.perf_counter() - start - paused
    return rows, warmup, wall, setups


def traced_run(workload, seed: int, seconds: float):
    cycles = max(1, round(seconds / workload.trace_pair_s))
    ops = list(islice(op_sequence(workload, seed), cycles * workload.cycle_ops))
    traced_rows, traced_wall, _, absent = run_ops(workload, ops, True)
    plain_rows, plain_wall, _, _ = run_ops(workload, ops, False)
    return traced_rows, traced_wall, plain_rows, plain_wall, absent, cycles


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # else git would answer for an enclosing repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metric_block(values: dict, specs: list[dict]) -> dict:
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs if s["name"] in values}


def traced_values(traced_rows, traced_wall, plain_rows, plain_wall, absent):
    """Per-layer values from the traced pass, and the tracing overhead."""
    traces = [r["reply"].get("trace", {"spans": [], "counts": {}}) for r in traced_rows]
    values = tracer.layer_metrics(traces, absent=absent)
    peaks = [r["reply"].get("peak_terms") for r in traced_rows]
    class_peaks = {}
    if all(p is not None for p in peaks):
        values["tensorspace.peak_live_terms"] = max(peaks)
        for r, peak in zip(traced_rows, peaks):
            class_peaks[r["class"]] = max(class_peaks.get(r["class"], 0), peak)
    else:
        absent.append("tensorspace.peak_live_terms")
    values["trace.ops_per_s"] = len(traced_rows) / traced_wall
    values["trace.untraced_ops_per_s"] = len(plain_rows) / plain_wall
    values["trace.slowdown"] = traced_wall / plain_wall
    return values, {"absent": absent, "class_peak_terms": class_peaks, "layer_values": values}


def untraced_values(rows, wall, setups):
    """End-to-end values over the ops that passed the oracle."""
    passed = [(i, r) for i, r in enumerate(rows) if r["ok"]]
    times = [r["reply"]["seconds"] for _, r in passed]
    if not times:
        return None, {}
    tail_value, tail_pct, beyond = tail(times)
    tail_op, tail_row = next((i, r) for i, r in passed if r["reply"]["seconds"] == tail_value)
    by_class = {}
    for r in rows:
        if r["ok"]:
            by_class.setdefault(r["class"], []).append(r["reply"]["seconds"])
    values = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "ops_per_s": len(times) / wall,
        "peak_rss_mib": max(r["reply"].get("maxrss_kib", 0) for r in rows) / 1024,
        "setup_s": statistics.median(setups),
    }
    return values, {
        "ops": len(rows),
        "tail_percentile": tail_pct,
        "tail_samples": len(times),
        "tail_samples_beyond": beyond,
        "tail_class": tail_row["class"],
        "tail_op": tail_op,
        "setup_samples": len(setups),
        "class_p50_s": {c: statistics.median(v) for c, v in sorted(by_class.items())},
        "class_ops": {c: len(v) for c, v in sorted(by_class.items())},
    }


def write_results(stem: Path, record: dict, result: dict, rows: list[dict]) -> None:
    """Per-op rows to <stem>.json and spans, if any, to <stem>-spans.jsonl.gz."""
    spans = []
    for i, r in enumerate(rows):
        r["reply"].pop("output", None)
        trace = r["reply"].pop("trace", None)
        if trace is not None:
            spans.append({"op": i, "class": r["class"], "spans": trace["spans"]})
    if spans:
        with gzip.open(f"{stem}-spans.jsonl.gz", "wt") as f:
            f.writelines(json.dumps(s) + "\n" for s in spans)
    Path(f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result, "ops": rows}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jcokernel" / "__init__.py").is_file():
        print(f"error: no jcokernel sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {m for t in tracer.TARGETS for m in tracer.metric_names(t)}
    known |= set(SPECIAL_LAYER_METRICS)
    unknown = [m["name"] for m in spec["per_layer"] if m["name"] not in known]
    if unknown:
        print(f"error: BENCHMARK.json names unknown layer metrics {unknown}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    workload = WORKLOADS[args.workload]

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }
    try:
        with Worker(traced=True):  # untimed: fills the bytecode cache on first use
            pass
        if args.trace:
            traced_rows, traced_wall, rows, wall, absent, cycles = traced_run(
                workload, args.seed, args.seconds)
            all_rows = traced_rows + rows
            record["cycles"] = cycles
        else:
            rows, warmup, wall, setups = untraced_run(workload, args.seed, args.seconds)
            all_rows = warmup + rows
            record["warmup_ops"] = len(warmup)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = check_rows(all_rows, expected)
    if args.trace:
        values, details = traced_values(traced_rows, traced_wall, rows, wall, absent)
        metrics = metric_block(values, spec["per_layer"])
    else:
        values, details = untraced_values(rows, wall, setups)
        if values is None:
            print(f"error: no op passed; first failures: {failures[:3]}", file=sys.stderr)
            return 1
        metrics = metric_block(values, spec["end_to_end"])
    failed = len(failures)
    record.update(details, fail_ratio=failed / len(all_rows), failures=failures[:10])
    result = {"correct": failed == 0, "attempted": len(all_rows), "failed": failed,
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    write_results(RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}",
                  record, result, all_rows)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
