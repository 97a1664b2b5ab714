"""Exact answer checks for every benchmark op.

The closed forms here are written independently of `jcokernel`, so that a
change to the library's own dimension or rank formulas cannot make a wrong
answer look right.  On top of the mathematical checks, every op's exact
output bytes must hash to the digest recorded in expected.json.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from math import comb, factorial, gcd

from workloads import op_key


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def witt(n: int, k: int) -> int:
    """Rank of the degree-k free Lie algebra on n letters (necklace formula)."""
    return sum(_mobius(d) * n ** (k // d) for d in _divisors(k)) // k


def necklaces(n: int, k: int) -> int:
    """Rotation orbits of length-k words on n letters."""
    return sum(_phi(d) * n ** (k // d) for d in _divisors(k)) // k


def sp_dim(shape, g: int) -> int:
    """Weyl dimension formula for the Sp(2g) irreducible of a partition."""
    lam = list(shape) + [0] * (g - len(shape))
    rho = [g - i for i in range(g)]
    num = den = 1
    for i in range(g):
        a, b = lam[i] + rho[i], rho[i]
        num *= a
        den *= b
        for j in range(i + 1, g):
            aj, bj = lam[j] + rho[j], rho[j]
            num *= (a - aj) * (a + aj)
            den *= (b - bj) * (b + bj)
    value = Fraction(num, den)
    if value.denominator != 1:
        raise ArithmeticError("non-integral Weyl dimension")
    return value.numerator


def syt(shape) -> int:
    """Standard tableaux of a shape, by the hook length formula."""
    conj = [sum(1 for p in shape if p > c) for c in range(shape[0])] if shape else []
    hooks = 1
    for r, part in enumerate(shape):
        for c in range(part):
            hooks *= part - c + conj[c] - r - 1
    return factorial(sum(shape)) // hooks


def brauer_cell_dim(shape, k: int) -> int:
    """C(k, 2j) (2j-1)!! f^shape, with 2j = k - |shape|."""
    j = (k - sum(shape)) // 2
    double_factorial = 1
    for i in range(1, 2 * j, 2):
        double_factorial *= i
    return comb(k, 2 * j) * double_factorial * syt(shape)


def _label(text: str) -> tuple[int, ...]:
    inner = text.strip("[]")
    return tuple(int(x) for x in inner.split(",")) if inner else ()


def _check_detect(argv: list[str], output: str) -> str | None:
    report = json.loads(output)
    family = argv[argv.index("--family") + 1]
    g = int(argv[argv.index("--g") + 1])
    if report["verdict"] != "detected":
        return f"verdict {report['verdict']!r}"
    for field in ("in_h", "maximal", "closed_form_agrees"):
        if report[field] is not True:
            return f"{field} is {report[field]!r}"
    want = -4 * (g + 1) if family == "[1^k]" else 2 * (2 - 2 * g)
    if report["scalar"] != f"{want}/1":
        return f"scalar {report['scalar']} != {want}/1"
    return None


def _check_decompose(argv: list[str], output: str) -> str | None:
    table = json.loads(output)
    source, k, g = table["source"], table["k"], table["g"]
    n = 2 * g
    total = 0
    for row in table["components"]:
        if row["multiplicity"] < 1 or len(row["weight"]) > g:
            return f"bad component {row}"
        total += row["multiplicity"] * sp_dim(row["weight"], g)
    want = n * witt(n, k + 1) - witt(n, k + 2) if source == "h" else necklaces(n, k)
    if total != want:
        return f"dimension {total} != {want}"
    return None


def _check_brauer_char(argv: list[str], output: str) -> str | None:
    rows = list(csv.reader(io.StringIO(output)))
    k = int(argv[argv.index("--k") + 1])
    identity = rows[0].index("[" + ",".join(["1"] * k) + "]")
    for row in rows[1:]:
        shape = _label(row[0])
        if int(row[identity]) != brauer_cell_dim(shape, k):
            return f"identity character of {row[0]} is {row[identity]}"
    return None


def answer_problem(op: dict, reply: dict, expected: dict) -> str | None:
    """None when the op's answer is mathematically right, else the reason."""
    if reply.get("error"):
        return reply["error"].strip().splitlines()[-1]
    if reply["exit"] != 0:
        return f"exit code {reply['exit']}"
    output = reply["output"]
    try:
        if op["kind"] == "cli":
            command = next(a for a in op["argv"] if not a.startswith("-") and a != "json")
            checker = {
                "detect": _check_detect,
                "decompose": _check_decompose,
                "brauer-char": _check_brauer_char,
            }[command]
            return checker(op["argv"], output)
        if op["kind"] == "check_relations":
            return None if output == "true" else f"check_relations gave {output}"
        want = expected.get(op_key(op), {}).get("value")
        return None if json.loads(output) == want else f"{output} != recorded {want}"
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparseable output: {exc!r}"


def check(op: dict, reply: dict, expected: dict) -> str | None:
    """None when the answer is right and its bytes match the recorded digest."""
    reason = answer_problem(op, reply, expected)
    if reason:
        return reason
    key = op_key(op)
    if key not in expected:
        return f"no recorded digest for {key!r}"
    if digest(reply["output"]) != expected[key]["sha256"]:
        return "output bytes differ from the recorded digest"
    return None
