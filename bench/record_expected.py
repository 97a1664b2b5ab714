"""Record the exact output digest of every distinct benchmark op.

    python3 bench/record_expected.py

Runs each op once in a fresh worker, requires its answer to pass the
mathematical checks in oracle.py, and writes bench/expected.json.  The
uniqueness_context values have no closed form here; they are recorded as
computed.  Re-record only when an output change is intended.
"""

import json
import sys

import oracle
from run import BENCH_DIR, Worker
from workloads import WORKLOADS, all_variants, op_key


def main() -> int:
    expected = {}
    for workload in WORKLOADS.values():
        for _, op in all_variants(workload):
            with Worker() as worker:
                reply = worker.run(op)
            key = op_key(op)
            entry = {"sha256": oracle.digest(reply.get("output", ""))}
            if op["kind"] == "uniqueness" and not reply.get("error"):
                entry["value"] = json.loads(reply["output"])
            expected[key] = entry
            reason = oracle.answer_problem(op, reply, expected)
            if reason:
                print(f"{key}: {reason}", file=sys.stderr)
                return 1
            print(key, entry, file=sys.stderr)
    (BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
