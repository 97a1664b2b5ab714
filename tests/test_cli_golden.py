"""Pinned `cli.main` runs: (exit code, sha256 of stdout, stderr).

Every command is covered in each format it writes and refused in one it
does not write (exit 2, nothing on stdout), together with a forced run,
a precondition failure and watermark trips at several stages of `detect`
(the seed wedge, the seed tensor product, the `theta_P` fold and the orbit
sum).  A refactor that is meant to keep every output byte must keep these.
"""

import hashlib
import io

import pytest

from jcokernel.cli import main

RERUN = "; raise the limit with set_term_limit() or --watermark and rerun\n"

GOLDEN = [
    ("witt --n 2 --k-max 6", 0,
     "c301413a364c5dfa192f2284d7f3301fa22831ac30ae12f6e78ebf8ce9aaefac",
     ""),
    ("--format json witt --n 3 --k-max 5", 0,
     "5695d3b397e2a0763953feee41c2079f8b722ca9f43a174738f0873de0df41a7",
     ""),
    ("--format csv witt --n 4 --k-max 4", 0,
     "17f2b2e9ae859700aafca0024ee67b0e247fc7c2b3786f0c43121a5aa4d80403",
     ""),
    ("decompose --source h --k 5 --g 7", 0,
     "33380e1789da34f93aa3b5cb9fd30411e71173aff2e3ef16946d9a0e069dd671",
     ""),
    ("--format json decompose --source cyclic --k 6 --g 8", 0,
     "5fdafa2063ce16688f3b1fd0f9ec69e56e59078b6b22c8baa1630bc4d2138d09",
     ""),
    ("--format csv decompose --source h --k 4 --g 6", 0,
     "da5f315ab6edbbeac40214bc9ea7213b96ddcae76289709f34f91e4b7dbc27f2",
     ""),
    ("detect --family [k] --k 5 --g 7", 0,
     "c5db1506e08460d5f0e3d0178f748d9352fe5ab0acd997fd136c0fb10ff1c65b",
     ""),
    ("--format json detect --family [1^k] --k 5 --g 7", 0,
     "14e7e20034715d2017a09e95c52290f80e98cfa63bfb30c4a6c0d954c6492fca",
     ""),
    ("--format text detect --family [1^k] --k 5 --g 7", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: detect writes json, not --format text\n"),
    ("detect --family [k] --k 3 --g 6", 0,
     "a07219c8034027418a28ceae131abc45f7934c63a08fd16fdbfa8763b8a31214",
     ""),
    ("--format csv detect --family [k] --k 3 --g 6", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: detect writes json, not --format csv\n"),
    ("detect --family [1^k] --k 4 --g 6 --force", 0,
     "25fcb663019d4505e940257095f154b54dfbae847c6377da941c32bfe158777d",
     ""),
    ("detect --family [1^k] --k 7 --g 9", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: family [1^k] requires k = 1 (mod 4) and k >= 5, got k = 7\n"),
    ("brauer-char --k 4 --g 3", 0,
     "dc01f393bd03e9357d613d159c74010382dec490f386801d44b492ca2a7079fd",
     ""),
    ("--format csv brauer-char --k 3 --g 5", 0,
     "659871eb8966f3d8e098aba8f468e0a119022f807967a0381d55682aa1dfb983",
     ""),
    ("--format json brauer-char --k 3 --g 5", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: brauer-char writes csv, not --format json\n"),
    ("brauer-char --k 2 --g 4", 0,
     "d710f1877a58b4c26bc198ab945c8231ad075cf43721a400999a58d6169b9fef",
     ""),
    ("--format text brauer-char --k 2 --g 4", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: brauer-char writes csv, not --format text\n"),
    # The table class of the long-session benchmark, a small-g table whose
    # rows stop at length 3, and a larger table.
    ("brauer-char --k 9 --g 11", 0,
     "856dfdd4403ed1d15cd8f3a29bc3788b9336e42562516185da5b4f744678d28a",
     ""),
    ("brauer-char --k 12 --g 3", 0,
     "6797d2efcf5926c86cf2cee0fea7c9657582eb591d09678a9c60628e46c3ea05",
     ""),
    ("brauer-char --k 12 --g 14", 0,
     "4de388c90f02d8780205975bf39d85d8f42f9d0b972a27f0923e29cb4820ec49",
     ""),
    ("selftest", 0,
     "7c7eb277bb3e74619551f66bf983d76c29e06bfd66b55ca337fe574bd4b4be3f",
     ""),
    ("--format text --seed 3 selftest --level fast", 0,
     "7c7eb277bb3e74619551f66bf983d76c29e06bfd66b55ca337fe574bd4b4be3f",
     ""),
    ("--format json --seed 3 selftest --level fast", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: selftest writes text, not --format json\n"),
    ("selftest --level full", 0,
     "feb099ea775218525891a5611c82a3d1fe118630ef9779e00ec1233e1bafaf11",
     ""),
    ("--format csv selftest --level full", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: selftest writes text, not --format csv\n"),
    ("--watermark 2000 detect --family [1^k] --k 5 --g 7", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: add: live term count 2016 exceeds watermark 2000" + RERUN),
    ("--watermark 10 detect --family [k] --k 3 --g 5", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: add: live term count 14 exceeds watermark 10" + RERUN),
    # detect builds [k] on a window of 3 pairs and never assembles it, so
    # its peak at k=5 is the 42 terms of a rep's orbit sum.
    ("--watermark 100 detect --family [k] --k 5 --g 7", 0,
     "c5db1506e08460d5f0e3d0178f748d9352fe5ab0acd997fd136c0fb10ff1c65b",
     ""),
    ("--watermark 50 detect --family [k] --k 5 --g 7", 0,
     "c5db1506e08460d5f0e3d0178f748d9352fe5ab0acd997fd136c0fb10ff1c65b",
     ""),
    ("--watermark 30 detect --family [k] --k 5 --g 7", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: add: live term count 36 exceeds watermark 30" + RERUN),
    ("--watermark 11 detect --family [k] --k 5 --g 7", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: add: live term count 12 exceeds watermark 11" + RERUN),
    ("--watermark 10 detect --family [1^k] --k 5 --g 7", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: SparseTensor: live term count 120 exceeds watermark 10" + RERUN),
    ("--watermark 1000 detect --family [1^k] --k 5 --g 7", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: tensor: live term count 1680 exceeds watermark 1000" + RERUN),
    # Each letter block is folded on its own and the vector is never
    # assembled, so the peak is the 5,040 terms of the largest folded block.
    ("--watermark 5000 detect --family [1^k] --k 5 --g 7", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: add: live term count 5040 exceeds watermark 5000" + RERUN),
    ("--watermark 16000 detect --family [1^k] --k 5 --g 7", 0,
     "14e7e20034715d2017a09e95c52290f80e98cfa63bfb30c4a6c0d954c6492fca",
     ""),
    ("--watermark 18000 detect --family [1^k] --k 5 --g 7", 0,
     "14e7e20034715d2017a09e95c52290f80e98cfa63bfb30c4a6c0d954c6492fca",
     ""),
    ("--watermark 5000 detect --family [k] --k 7 --g 9", 0,
     "9e824f275b6559035899c2b9e67285e9b1c7f02cd85834f436fe3b59c7eef443",
     ""),
]


@pytest.mark.parametrize("command, code, digest, stderr", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_cli_run_is_pinned(command, code, digest, stderr, capsys):
    out = io.StringIO()
    assert main(command.split(), out=out) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    assert capsys.readouterr().err == stderr
