"""Command-line front end.

Every command is deterministic given its arguments (including --seed), and
all rationals in machine-readable output are exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

from . import selftest
from .brauer import ram_character
from .combinatorics import sp_decomposition, witt_rank
from .detector import detect
from .partitions import CycleType, Partition, partitions_of
from .tensorspace import TermLimitError, get_term_limit, set_term_limit

FORMATS = ("text", "json", "csv")


@dataclass
class RunConfig:
    """Parsed invocation: everything a command needs to run reproducibly."""

    command: str
    k: int | None = None
    g: int | None = None
    n: int | None = None
    k_max: int | None = None
    family: str | None = None
    source: str | None = None
    level: str = "fast"
    fmt: str = "text"
    seed: int = 0
    watermark: int | None = None
    force: bool = False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcokernel",
        description="Exact symplectic representation-theory computations.",
    )
    parser.add_argument("--format", choices=FORMATS, default=None, dest="fmt")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--watermark",
        type=int,
        default=None,
        help="abort tensor computations whose live term count exceeds this",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    witt = sub.add_parser("witt", help="free Lie ranks by degree")
    witt.add_argument("--n", type=int, required=True)
    witt.add_argument("--k-max", type=int, required=True, dest="k_max")

    dec = sub.add_parser("decompose", help="Sp decomposition of a named module")
    dec.add_argument("--source", choices=("h", "cyclic"), required=True)
    dec.add_argument("--k", type=int, required=True)
    dec.add_argument("--g", type=int, required=True)

    det = sub.add_parser("detect", help="run the cokernel detection pipeline")
    det.add_argument("--family", choices=("[k]", "[1^k]"), required=True)
    det.add_argument("--k", type=int, required=True)
    det.add_argument("--g", type=int, required=True)
    det.add_argument("--force", action="store_true",
                     help="run outside the theorem range; flags the report")

    bc = sub.add_parser("brauer-char", help="character table of the diagram algebra")
    bc.add_argument("--k", type=int, required=True)
    bc.add_argument("--g", type=int, required=True)

    st = sub.add_parser("selftest", help="run the invariant panels")
    st.add_argument("--level", choices=("fast", "full"), default="fast")
    return parser


def _partition_label(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def cmd_witt(cfg: RunConfig, out) -> int:
    rows = [(k, witt_rank(cfg.n, k)) for k in range(1, cfg.k_max + 1)]
    if cfg.fmt == "json":
        out.write(json.dumps({"n": cfg.n, "ranks": {str(k): r for k, r in rows}},
                             sort_keys=True) + "\n")
    elif cfg.fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["k", "rank"])
        writer.writerows(rows)
    else:
        for k, r in rows:
            out.write(f"k={k}\t{r}\n")
    return 0


def cmd_decompose(cfg: RunConfig, out) -> int:
    table = sp_decomposition(cfg.source, cfg.k, cfg.g)
    if cfg.fmt == "json":
        payload = {
            "source": cfg.source,
            "k": cfg.k,
            "g": cfg.g,
            "components": [
                {"weight": list(p), "multiplicity": m} for p, m in table.items()
            ],
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    elif cfg.fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["weight", "multiplicity"])
        for p, m in table.items():
            writer.writerow([_partition_label(p), m])
    else:
        for p, m in table.items():
            out.write(f"{_partition_label(p)}\t{m}\n")
    return 0


def cmd_detect(cfg: RunConfig, out) -> int:
    try:
        report = detect(cfg.family, cfg.k, cfg.g, force=cfg.force)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.write(report.to_json() + "\n")
    return 1 if report.verdict == "inconsistent" else 0


def cmd_brauer_char(cfg: RunConfig, out) -> int:
    k, g = cfg.k, cfg.g
    classes = list(partitions_of(k))
    shapes: list[Partition] = []
    for j in range(0, k // 2 + 1):
        shapes += [lam for lam in partitions_of(k - 2 * j) if lam.length <= g]
    writer = csv.writer(out)
    writer.writerow(["lambda"] + [_partition_label(c) for c in classes])
    for lam in shapes:
        row = [ram_character(lam, CycleType(c), g) for c in classes]
        writer.writerow([_partition_label(lam)] + row)
    return 0


def cmd_selftest(cfg: RunConfig, out, inject_fault: bool = False) -> int:
    checks = selftest.run_selftest(cfg.level, seed=cfg.seed, inject_fault=inject_fault)
    failed = 0
    for name, passed in checks:
        out.write(f"{'PASS' if passed else 'FAIL'}  {name}\n")
        failed += 0 if passed else 1
    out.write(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    return 1 if failed else 0


_DEFAULT_FORMATS = {
    "witt": "text",
    "decompose": "text",
    "detect": "json",
    "brauer-char": "csv",
    "selftest": "text",
}


def main(argv=None, out=None) -> int:
    args = _build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout
    cfg = RunConfig(
        command=args.command,
        fmt=args.fmt or _DEFAULT_FORMATS[args.command],
        seed=args.seed,
        watermark=args.watermark,
        k=getattr(args, "k", None),
        g=getattr(args, "g", None),
        n=getattr(args, "n", None),
        k_max=getattr(args, "k_max", None),
        family=getattr(args, "family", None),
        source=getattr(args, "source", None),
        level=getattr(args, "level", "fast"),
        force=getattr(args, "force", False),
    )
    handlers = {
        "witt": cmd_witt,
        "decompose": cmd_decompose,
        "detect": cmd_detect,
        "brauer-char": cmd_brauer_char,
        "selftest": cmd_selftest,
    }
    # --watermark applies to this call only; later calls in the same
    # interpreter see the limit that was in force before it.
    previous_limit = get_term_limit()
    try:
        if cfg.watermark is not None:
            set_term_limit(cfg.watermark)
        return handlers[cfg.command](cfg, out)
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
