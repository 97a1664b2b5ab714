"""Command-line front end.

Every command is deterministic given its arguments (including --seed), and
all rationals in machine-readable output are exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache

from . import selftest
from .brauer import ram_character
from .combinatorics import sp_decomposition, witt_rank
from .detector import VERDICT_INCONSISTENT, detect
from .freelie import FAMILIES
from .partitions import CycleType, Partition, partitions_of
from .tensorspace import TermLimitError, get_term_limit, set_term_limit

FORMATS = ("text", "json", "csv")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused; the
    --watermark default is set by `main` on every call."""
    parser = argparse.ArgumentParser(
        prog="jcokernel",
        description="Exact symplectic representation-theory computations.",
    )
    parser.add_argument("--format", choices=FORMATS, default=None, dest="fmt")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--watermark",
        type=int,
        help="abort tensor computations whose live term count exceeds this "
        "(default: $JCOKERNEL_WATERMARK, else the library limit)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    witt = sub.add_parser("witt", help="free Lie ranks by degree")
    witt.add_argument("--n", type=int, required=True)
    witt.add_argument("--k-max", type=int, required=True, dest="k_max")
    witt.set_defaults(handler=cmd_witt, formats=FORMATS)

    dec = sub.add_parser("decompose", help="Sp decomposition of a named module")
    dec.add_argument("--source", choices=("h", "cyclic"), required=True)
    dec.add_argument("--k", type=int, required=True)
    dec.add_argument("--g", type=int, required=True)
    dec.set_defaults(handler=cmd_decompose, formats=FORMATS)

    det = sub.add_parser("detect", help="run the cokernel detection pipeline")
    det.add_argument("--family", choices=FAMILIES, required=True)
    det.add_argument("--k", type=int, required=True)
    det.add_argument("--g", type=int, required=True)
    det.add_argument("--force", action="store_true",
                     help="run outside the theorem range; flags the report")
    det.set_defaults(handler=cmd_detect, formats=("json",))

    bc = sub.add_parser("brauer-char", help="character table of the diagram algebra")
    bc.add_argument("--k", type=int, required=True)
    bc.add_argument("--g", type=int, required=True)
    bc.set_defaults(handler=cmd_brauer_char, formats=("csv",))

    st = sub.add_parser("selftest", help="run the invariant panels")
    st.add_argument("--level", choices=("fast", "full"), default="fast")
    st.set_defaults(handler=cmd_selftest, formats=("text",))
    return parser


def _partition_label(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def cmd_witt(args: argparse.Namespace, out) -> int:
    if args.k_max < 1:
        raise ValueError(f"--k-max must be positive, got {args.k_max}")
    rows = [(k, witt_rank(args.n, k)) for k in range(1, args.k_max + 1)]
    if args.fmt == "json":
        out.write(json.dumps({"n": args.n, "ranks": {str(k): r for k, r in rows}},
                             sort_keys=True) + "\n")
    elif args.fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["k", "rank"])
        writer.writerows(rows)
    else:
        for k, r in rows:
            out.write(f"k={k}\t{r}\n")
    return 0


def cmd_decompose(args: argparse.Namespace, out) -> int:
    table = sp_decomposition(args.source, args.k, args.g)
    if args.fmt == "json":
        payload = {
            "source": args.source,
            "k": args.k,
            "g": args.g,
            "components": [
                {"weight": list(p), "multiplicity": m} for p, m in table.items()
            ],
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    elif args.fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["weight", "multiplicity"])
        for p, m in table.items():
            writer.writerow([_partition_label(p), m])
    else:
        for p, m in table.items():
            out.write(f"{_partition_label(p)}\t{m}\n")
    return 0


def cmd_detect(args: argparse.Namespace, out) -> int:
    report = detect(args.family, args.k, args.g, force=args.force)
    out.write(report.to_json() + "\n")
    return 1 if report.verdict == VERDICT_INCONSISTENT else 0


def cmd_brauer_char(args: argparse.Namespace, out) -> int:
    k, g = args.k, args.g
    if k < 0 or g < 1:
        raise ValueError(f"brauer-char needs k >= 0 and g >= 1, got k = {k}, g = {g}")
    classes = list(partitions_of(k))
    shapes = [lam for j in range(k // 2 + 1)
              for lam in partitions_of(k - 2 * j) if lam.length <= g]
    writer = csv.writer(out)
    writer.writerow(["lambda"] + [_partition_label(c) for c in classes])
    for lam in shapes:
        row = [ram_character(lam, CycleType(c), g) for c in classes]
        writer.writerow([_partition_label(lam)] + row)
    return 0


def cmd_selftest(args: argparse.Namespace, out) -> int:
    checks = selftest.run_selftest(args.level, seed=args.seed)
    failed = 0
    for name, passed in checks:
        out.write(f"{'PASS' if passed else 'FAIL'}  {name}\n")
        failed += 0 if passed else 1
    out.write(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    return 1 if failed else 0


def main(argv=None, out=None) -> int:
    parser = _build_parser()
    # Read on every call, so a changed variable takes effect; argparse still
    # converts it, and a malformed value is a usage error.
    parser.set_defaults(watermark=os.environ.get("JCOKERNEL_WATERMARK"))
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    # Each command declares the formats it writes; the first is its default.
    args.fmt = args.fmt or args.formats[0]
    if args.fmt not in args.formats:
        print(f"error: {args.command} writes {' or '.join(args.formats)}, "
              f"not --format {args.fmt}", file=sys.stderr)
        return 2
    # --watermark applies to this call only; later calls in the same
    # interpreter see the limit that was in force before it.
    previous_limit = get_term_limit()
    try:
        if args.watermark is not None:
            set_term_limit(args.watermark)
        return args.handler(args, out)
    except TermLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_term_limit(previous_limit)


if __name__ == "__main__":
    raise SystemExit(main())
