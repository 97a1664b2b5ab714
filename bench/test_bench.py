"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
import types
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import oracle
import run
import tracer
from tracer import GEN, COUNT, Target, Tracer, layer_metrics, span_times
from workloads import WORKLOADS, op_sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = json.loads((BENCH / "expected.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def detect_reply():
    op = {"kind": "cli", "argv": ["detect", "--family", "[1^k]", "--k", "5", "--g", "7"]}
    with run.Worker() as worker:
        return op, worker.run(op)


# --- oracle -----------------------------------------------------------------


def test_oracle_accepts_the_recorded_answer(detect_reply):
    op, reply = detect_reply
    assert oracle.check(op, reply, EXPECTED) is None


def test_oracle_rejects_a_scalar_off_by_one(detect_reply):
    op, reply = detect_reply
    tampered = dict(reply, output=reply["output"].replace('"scalar": "-32/1"', '"scalar": "-31/1"'))
    assert tampered["output"] != reply["output"]
    assert "scalar" in oracle.check(op, tampered, EXPECTED)
    rows = [{"op": op, "reply": reply}, {"op": op, "reply": tampered}]
    assert len(run.check_rows(rows, EXPECTED)) == 1
    assert [r["ok"] for r in rows] == [True, False]


def test_oracle_rejects_changed_bytes(detect_reply):
    op, reply = detect_reply
    tampered = dict(reply, output=reply["output"] + " ")
    assert oracle.answer_problem(op, tampered, EXPECTED) is None
    assert "digest" in oracle.check(op, tampered, EXPECTED)


def test_oracle_counts_errors_and_exit_codes(detect_reply):
    op, reply = detect_reply
    assert oracle.check(op, dict(reply, exit=1), EXPECTED) == "exit code 1"
    assert oracle.check(op, dict(reply, error="Traceback\nValueError: boom\n"),
                        EXPECTED) == "ValueError: boom"


def test_oracle_closed_forms():
    assert oracle.witt(2, 4) == 3
    assert oracle.necklaces(2, 4) == 6
    assert oracle.sp_dim((1,), 3) == 6
    assert oracle.sp_dim((1, 1), 3) == 14
    assert oracle.syt((3, 2)) == 5
    assert oracle.brauer_cell_dim((), 4) == 3


def test_oracle_checks_decompose_dimension():
    op = {"kind": "cli", "argv": ["--format", "json", "decompose", "--source", "cyclic",
                                  "--k", "2", "--g", "4"]}
    # H^(x)2 / rotation = Sym^2 H: the Sp(8) module [2] of dimension 36.
    good = json.dumps({"source": "cyclic", "k": 2, "g": 4,
                       "components": [{"weight": [2], "multiplicity": 1}]})
    bad = good.replace('"multiplicity": 1', '"multiplicity": 2')
    assert oracle.answer_problem(op, {"exit": 0, "output": good}, {}) is None
    assert "dimension" in oracle.answer_problem(op, {"exit": 0, "output": bad}, {})


# --- tracer -----------------------------------------------------------------


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        # id, parent, name, start, end, busy
        (1, None, "a", 0.0, 10.0, 10.0),
        (2, 1, "b", 1.0, 4.0, 3.0),
        (3, 1, "c", 5.0, 8.0, 3.0),
        (4, 2, "a", 2.0, 3.0, 1.0),  # recursion: not counted twice inclusively
        # generator resumed inside c: busy 1.5 of its 2.5 s interval; the
        # second between resumes is c's own work
        (5, 3, "gen", 5.5, 8.0, 1.5),
        (6, 99, "orphan", 8.5, 9.5, 1.0),  # parent span never recorded
    ]
    inclusive, self_time = span_times(spans)
    assert inclusive == Counter({"a": 10.0, "b": 3.0, "c": 3.0, "gen": 1.5, "orphan": 1.0})
    assert self_time["a"] == pytest.approx((10.0 - 3.0 - 3.0) + 1.0)
    assert self_time["b"] == pytest.approx(3.0 - 1.0)
    assert self_time["c"] == pytest.approx(3.0 - 1.5)
    assert self_time["gen"] == pytest.approx(1.5)
    assert self_time["orphan"] == pytest.approx(1.0)


def _fake_package():
    base = types.ModuleType("fakepkg.base")
    user = types.ModuleType("fakepkg.user")

    class Vec(tuple):
        def __new__(cls, parts=()):
            return super().__new__(cls, parts)

        def __add__(self, other):
            return Vec(a + b for a, b in zip(self, other))

        __radd__ = __add__

    def double(v):
        return v + v

    def items(n):
        yield from range(n)

    base.Vec, base.double, base.items = Vec, double, items
    user.double = double  # as after `from .base import double`
    return {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.base": base, "fakepkg.user": user}


def test_tracer_wraps_every_namespace_and_reports_missing_names(monkeypatch):
    modules = _fake_package()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    targets = (
        Target("base", "double"),
        Target("base", "Vec.__add__"),
        Target("base", "Vec.__new__", kind=COUNT),
        Target("base", "items", kind=GEN),
        Target("base", "renamed_away"),
        Target("gone", "f"),
    )
    t = Tracer()
    t.install("fakepkg", targets)
    assert t.absent == ["base.renamed_away", "gone.f"]
    base, user = modules["fakepkg.base"], modules["fakepkg.user"]
    assert user.double is base.double  # the importing namespace is patched too
    t.begin_op()
    assert user.double(base.Vec((1, 2))) == (2, 4)
    assert list(base.items(3)) == [0, 1, 2]
    trace = json.loads(json.dumps(t.end_op()))
    values = layer_metrics([trace], targets, absent=t.absent)
    assert values["base.double.calls"] == 1
    assert values["base.Vec.add.calls"] == 1
    assert values["base.Vec.new.calls"] == 2
    assert values["base.items.items"] == 3
    assert values["base.double.s"] >= values["base.Vec.add.s"] > 0
    assert not any(k.startswith(("base.renamed_away", "gone.f")) for k in values)


def test_every_layer_metric_in_the_spec_is_produced():
    known = {m for t in tracer.TARGETS for m in tracer.metric_names(t)}
    known |= set(run.SPECIAL_LAYER_METRICS)
    assert {m["name"] for m in SPEC["per_layer"]} <= known


# --- workloads and statistics -----------------------------------------------


def test_op_sequence_is_seeded_and_cycles_hold_one_multiset():
    w = WORKLOADS["session_warm"]
    n = w.cycle_ops
    first = list(islice(op_sequence(w, 5), 3 * n))
    assert first == list(islice(op_sequence(w, 5), 3 * n))
    other = list(islice(op_sequence(w, 6), n))

    def multiset(ops):
        return Counter(json.dumps({k: v for k, v in op.items() if k != "rng_seed"},
                                  sort_keys=True) for _, op in ops)

    assert multiset(first[:n]) == multiset(first[n:2 * n]) == multiset(other)
    for r in range(0, len(first), 3):
        assert len({cls for cls, _ in first[r:r + 3]}) == 3


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(40)]
    assert run.tail(samples) == (29.0, 75.0, 10)
    assert run.tail(samples[:21]) == (10.0, 100.0 * 11 / 21, 10)
    assert run.tail(samples[:20]) == (19.0, 100.0, 0)


# --- end to end -------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_untraced(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    record, result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert record["nproc"] and record["python"] and record["source_sha256"]


def test_traced_counts_repeat_exactly_across_seeds():
    counts = []
    for seed in ("1", "2"):
        proc = bench("--workload", "detect_cold", "--seed", seed, "--seconds", "0.01",
                     "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        record, result = result_of(proc)
        assert result["correct"] and record["absent"] == []
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert record["class_peak_terms"]["alt5_g7"] == 18960
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["tensorspace.peak_live_terms"] == 18960
    assert counts[0]["tensorspace.act_perm.calls"] > 0


@pytest.mark.parametrize("workload, busy", [
    ("session_warm", "brauer.ram_character.calls"),
    ("decompose_cold", "partitions.standard_tableaux.items"),
])
def test_traced_run_reports_every_layer_metric(workload, busy):
    proc = bench("--workload", workload, "--seed", "4", "--seconds", "0.01", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    record, result = result_of(proc)
    assert result["correct"] and record["absent"] == []
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"][busy]["value"] > 0
    assert result["metrics"]["trace.slowdown"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "detect_cold", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
