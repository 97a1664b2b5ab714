"""`src/jcokernel` holds only code that something other than the tests runs.

A name pass over the package's AST starts from the roots below and follows
every name and attribute that a reached function or class mentions, to each
top-level definition of that name.  A definition never reached is run by the
tests alone: a test oracle, which belongs in `tests/oracles.py`, or dead code.

The roots are the `cmd_*` handlers, `run_selftest`, the module-level tables,
the functions the benchmark's tracer wraps by name, the peak-term gauge the
benchmark worker reads, and the declared API below.  Imports are not roots.
"""

import ast
from pathlib import Path

from test_bench_targets import tracer

SRC = Path(__file__).resolve().parents[1] / "src" / "jcokernel"

# Public API that no command runs: the paper's candidate vector assembled,
# and the Lie-element test (with `apply_theta`, which it reaches).
DECLARED_API = {"phi_candidate", "is_lie_element"}
# Read by name from `bench/worker.py`.
WORKER_READS = {"peak_terms", "reset_peak_terms"}


def _mentioned(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unreached() -> list[str]:
    """`module.name` of every top-level function and class no root reaches."""
    roots = {"run_selftest"} | DECLARED_API | WORKER_READS
    roots |= {target.qualname.split(".")[0] for target in tracer.TARGETS}
    defined, owners = [], {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
                owners.setdefault(node.name, []).append(node)
                if path.stem == "cli" and node.name.startswith("cmd_"):
                    roots.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _mentioned(node)  # module-level tables and constants
    reached, pending = set(), list(roots)
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            for node in owners.get(name, ()):
                pending.extend(_mentioned(node) - reached)
    return [f"{module}.{name}" for module, name in defined if name not in reached]


def test_every_top_level_definition_is_reached_from_a_root():
    missing = unreached()
    assert not missing, f"{len(missing)} definitions only the tests run: {', '.join(missing)}"
