"""Command-line front end.

Every command is deterministic given its arguments (including --seed), and
all rationals in machine-readable output are exact "p/q" strings.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from types import SimpleNamespace

from . import selftest
from .brauer import ram_character
from .combinatorics import sp_decomposition, witt_rank
from .detector import VERDICT_INCONSISTENT, detect
from .freelie import FAMILIES
from .partitions import CycleType, Partition, partitions_of
from .tensorspace import TermLimitError, get_term_limit, set_term_limit

FORMATS = ("text", "json", "csv")
GLOBAL_OPTIONS = {"--format": (FORMATS, None), "--seed": (int, 0), "--watermark": (int, None)}
# command: (the formats it writes, default first; its options). An option is
# (kind, default): kind int, a tuple of choices or bool (a flag); default ... = required.
COMMANDS = {
    "witt": (FORMATS, {"--n": (int, ...), "--k-max": (int, ...)}),
    "decompose": (FORMATS, {"--source": (("h", "cyclic"), ...),
                            "--k": (int, ...), "--g": (int, ...)}),
    "detect": (("json",), {"--family": (FAMILIES, ...), "--k": (int, ...),
                           "--g": (int, ...), "--force": (bool, False)}),
    "brauer-char": (("csv",), {"--k": (int, ...), "--g": (int, ...)}),
    "selftest": (("text",), {"--level": (("fast", "full"), "fast")}),
}


def _usage(command) -> str:
    words = ["usage:", "jcokernel"] + ([command] if command else []) + ["[-h]"]
    for name, (kind, default) in (COMMANDS[command][1] if command else GLOBAL_OPTIONS).items():
        word = (name if kind is bool else f"{name} {{{','.join(kind)}}}"
                if isinstance(kind, tuple) else f"{name} {name[2:].upper()}")
        words.append(word if default is ... else f"[{word}]")
    return " ".join(words if command else words + ["{" + ",".join(COMMANDS) + "}", "..."])


def _fail(command, message: str):
    print(_usage(command), f"jcokernel: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv) -> SimpleNamespace:
    """argv as the cmd_* handlers read it; a usage error exits 2, --help 0."""
    # The --watermark default, read on every call so a changed variable counts.
    given = {"--watermark": os.environ.get("JCOKERNEL_WATERMARK")}
    command, options, tokens = None, GLOBAL_OPTIONS, iter(argv)
    for token in tokens:
        name, equals, text = token.partition("=")
        if token in ("-h", "--help"):
            print(*map(_usage, [command] if command else [None, *COMMANDS]), sep="\n")
            raise SystemExit(0)
        if command is None and not token.startswith("-"):
            if token not in COMMANDS:
                _fail(None, f"argument command: invalid choice: {token!r}")
            command, options = token, COMMANDS[token][1]
        elif name not in options or equals and options[name][0] is bool:
            _fail(command, f"unrecognized arguments: {token}")
        else:
            given[name] = options[name][0] is bool or (text if equals else next(tokens, ""))
    args, missing = SimpleNamespace(command=command), [] if command else ["command"]
    for name, (kind, default) in {**GLOBAL_OPTIONS, **options}.items():
        value = given.get(name, default)
        if value is ...:
            missing.append(name)
        elif isinstance(value, str):
            try:  # tuple.index raises ValueError on an invalid choice, as int does
                value = int(value) if kind is int else kind[kind.index(value)]
            except ValueError:
                _fail(command if name in options else None, f"argument {name}: invalid "
                      f"{'int value' if kind is int else 'choice'}: {value!r}")
        setattr(args, "fmt" if name == "--format" else name[2:].replace("-", "_"), value)
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return args


def _partition_label(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def cmd_witt(args: SimpleNamespace, out) -> int:
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


def cmd_decompose(args: SimpleNamespace, out) -> int:
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


def cmd_detect(args: SimpleNamespace, out) -> int:
    report = detect(args.family, args.k, args.g, force=args.force)
    out.write(report.to_json() + "\n")
    return 1 if report.verdict == VERDICT_INCONSISTENT else 0


def cmd_brauer_char(args: SimpleNamespace, out) -> int:
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


def cmd_selftest(args: SimpleNamespace, out) -> int:
    checks = selftest.run_selftest(args.level, seed=args.seed)
    failed = 0
    for name, passed in checks:
        out.write(f"{'PASS' if passed else 'FAIL'}  {name}\n")
        failed += 0 if passed else 1
    out.write(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    return 1 if failed else 0


def main(argv=None, out=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    out = out if out is not None else sys.stdout
    formats = COMMANDS[args.command][0]
    args.fmt = args.fmt or formats[0]
    if args.fmt not in formats:
        print(f"error: {args.command} writes {' or '.join(formats)}, "
              f"not --format {args.fmt}", file=sys.stderr)
        return 2
    # --watermark applies to this call only; later calls in the same
    # interpreter see the limit that was in force before it.
    previous_limit = get_term_limit()
    try:
        if args.watermark is not None:
            set_term_limit(args.watermark)
        # Looked up per call, so a wrapper set on the module after import runs.
        return globals()["cmd_" + args.command.replace("-", "_")](args, out)
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
