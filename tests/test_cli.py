import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jcokernel import selftest
from jcokernel.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_witt_table():
    code, text = run_cli("witt", "--n", "2", "--k-max", "4")
    assert code == 0
    assert [line.split("\t")[1] for line in text.strip().splitlines()] == ["2", "1", "2", "3"]
    code, text = run_cli("witt", "--n", "1", "--k-max", "3")
    assert code == 0 and [l.split("\t")[1] for l in text.strip().splitlines()] == ["1", "0", "0"]
    code, text = run_cli("witt", "--n", "4", "--k-max", "2")
    assert text.strip().splitlines()[-1].endswith("6")


def test_witt_json_deterministic():
    _, first = run_cli("--format", "json", "witt", "--n", "3", "--k-max", "5")
    _, second = run_cli("--format", "json", "witt", "--n", "3", "--k-max", "5")
    assert first == second
    assert json.loads(first)["ranks"]["5"] == 48


def test_decompose_h():
    code, text = run_cli("decompose", "--source", "h", "--k", "3", "--g", "5")
    assert code == 0
    rows = dict(line.split("\t") for line in text.strip().splitlines())
    assert rows == {"[3,1,1]": "1", "[3]": "1", "[2,1]": "1"}


def test_decompose_cyclic_contains_alternating_weight():
    code, text = run_cli(
        "--format", "json", "decompose", "--source", "cyclic", "--k", "5", "--g", "7"
    )
    assert code == 0
    components = json.loads(text)["components"]
    assert {"weight": [1, 1, 1, 1, 1], "multiplicity": 1} in components


def test_decompose_rejects_unstable_range():
    code, _ = run_cli("decompose", "--source", "h", "--k", "4", "--g", "5")
    assert code == 2


def test_detect_json():
    code, text = run_cli("detect", "--family", "[1^k]", "--k", "5", "--g", "7")
    assert code == 0
    data = json.loads(text)
    assert data["verdict"] == "detected"
    assert data["scalar"] == "-32/1"


def test_detect_precondition_message_names_congruence():
    code, _ = run_cli("detect", "--family", "[1^k]", "--k", "7", "--g", "9")
    assert code == 2


def test_detect_forced_negative_control():
    code, text = run_cli("detect", "--family", "[1^k]", "--k", "4", "--g", "6", "--force")
    assert code == 0
    data = json.loads(text)
    assert data["out_of_theorem_range"] is True
    assert data["verdict"] == "not_detected"


def test_brauer_char_table():
    import csv as _csv

    code, text = run_cli("brauer-char", "--k", "2", "--g", "4")
    assert code == 0
    rows = list(_csv.reader(io.StringIO(text)))
    assert len(rows) == 4  # header + three shapes
    idx = rows[0].index("[1,1]")  # identity column carries the dimensions
    dims = {row[0]: row[idx] for row in rows[1:]}
    assert dims == {"[2]": "1", "[1,1]": "1", "[]": "1"}


def test_brauer_char_identity_column_matches_dimensions():
    from jcokernel.combinatorics import brauer_dim
    from jcokernel.partitions import Partition

    code, text = run_cli("brauer-char", "--k", "3", "--g", "5")
    assert code == 0
    import csv as _csv

    rows = list(_csv.reader(io.StringIO(text)))
    header = rows[0]
    idx = header.index("[1,1,1]")
    for row in rows[1:]:
        label = row[0].strip("[]")
        lam = Partition(int(x) for x in label.split(",") if x)
        assert int(row[idx]) == brauer_dim(lam, 3, 5)


def test_selftest_fast():
    code, text = run_cli("selftest", "--level", "fast")
    assert code == 0
    assert "FAIL" not in text


def test_selftest_fault_injection_fails(monkeypatch):
    real = selftest.run_selftest
    monkeypatch.setattr(
        selftest, "run_selftest", lambda *a, **kw: real(*a, **kw) + [("injected fault", False)]
    )
    code, text = run_cli("selftest")
    assert code == 1
    assert "FAIL  injected fault" in text


def test_watermark_flag_aborts_cleanly():
    code, _ = run_cli("--watermark", "10", "detect", "--family", "[k]", "--k", "3", "--g", "5")
    assert code == 3
    # Restore a workable limit for later tests in this process.
    from jcokernel.tensorspace import set_term_limit

    set_term_limit(5_000_000)
    code, _ = run_cli("detect", "--family", "[k]", "--k", "3", "--g", "5")
    assert code == 0


def test_watermark_flag_does_not_leak_into_later_calls():
    from jcokernel.tensorspace import get_term_limit

    before = get_term_limit()
    code, _ = run_cli("--watermark", "10", "detect", "--family", "[k]", "--k", "3", "--g", "5")
    assert code == 3
    assert get_term_limit() == before
    # The same detect trips a watermark of 10, so success means the limit is back.
    code, _ = run_cli("detect", "--family", "[k]", "--k", "3", "--g", "5")
    assert code == 0
    assert get_term_limit() == before


def test_nonpositive_watermark_is_a_usage_error():
    from jcokernel.tensorspace import get_term_limit

    before = get_term_limit()
    code, _ = run_cli("--watermark", "0", "witt", "--n", "2", "--k-max", "2")
    assert code == 2
    assert get_term_limit() == before


@pytest.mark.parametrize("value", ["abc", "1e6"])
def test_unparsable_watermark_variable_is_a_usage_error(value, monkeypatch, capsys):
    monkeypatch.setenv("JCOKERNEL_WATERMARK", value)
    with pytest.raises(SystemExit) as exc:
        run_cli("witt", "--n", "2", "--k-max", "2")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid int value" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_watermark_variable_is_a_usage_error(value, monkeypatch, capsys):
    from jcokernel.tensorspace import get_term_limit

    before = get_term_limit()
    monkeypatch.setenv("JCOKERNEL_WATERMARK", value)
    code, text = run_cli("witt", "--n", "2", "--k-max", "2")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: watermark must be positive\n"
    assert get_term_limit() == before


def test_watermark_variable_is_the_flag_default(monkeypatch):
    monkeypatch.setenv("JCOKERNEL_WATERMARK", "7")
    code, _ = run_cli("detect", "--family", "[k]", "--k", "3", "--g", "5")
    assert code == 3
    monkeypatch.delenv("JCOKERNEL_WATERMARK")
    code, _ = run_cli("detect", "--family", "[k]", "--k", "3", "--g", "5")
    assert code == 0


def test_detect_refuses_the_seed_wedge_before_building_it(monkeypatch, capsys):
    # The [1^13] seed wedge would hold 13! = 6227020800 words; the default
    # watermark refuses it from that count alone, before any is built.
    monkeypatch.delenv("JCOKERNEL_WATERMARK", raising=False)
    code, text = run_cli("detect", "--force", "--family", "[1^k]", "--k", "13", "--g", "15")
    assert code == 3 and text == ""
    assert "live term count 6227020800 exceeds watermark" in capsys.readouterr().err


def test_import_ignores_a_bad_watermark_variable():
    # The child imports the package from this checkout's src/, installed or not.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, JCOKERNEL_WATERMARK="abc", PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", "import jcokernel"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("family, k", [("[k]", 3), ("[1^k]", 5)])
def test_detect_rejects_genus_beyond_byte_letters(family, k, capsys):
    code, text = run_cli("detect", "--family", family, "--k", str(k), "--g", "200")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        "error: genus 200 out of range: the 2g letters are bytes, so g <= 127\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("brauer-char", "--k", "2", "--g", "0"),
        ("brauer-char", "--k", "-1", "--g", "2"),
        ("witt", "--n", "2", "--k-max", "0"),
    ],
)
def test_empty_ranges_are_usage_errors(argv, capsys):
    code, text = run_cli(*argv)
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("source", ["h", "cyclic"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_decompose_degree_below_one_is_usage_error(source, k, capsys):
    code, text = run_cli("decompose", "--source", source, "--k", k, "--g", "3")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        f"error: k must be at least 1 for source '{source}', got k = {k}\n"
    )
