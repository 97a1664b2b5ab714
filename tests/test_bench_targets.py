"""The benchmark's per-layer tracer wraps functions by name from outside the
package; a target that no longer resolves is reported `absent` and its
metrics vanish.  These lookups keep a refactor from blanking them.  Nothing
is wrapped here: `Tracer.install` is never called."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
tracer = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("target", tracer.TARGETS, ids=lambda t: t.name)
def test_tracer_target_resolves_in_its_owner_namespace(target):
    owner = importlib.import_module(f"jcokernel.{target.module}")
    *outer, attr = target.qualname.split(".")
    for part in outer:
        owner = vars(owner)[part]
    assert callable(vars(owner).get(attr)), f"{target.qualname} is not defined on its owner"
