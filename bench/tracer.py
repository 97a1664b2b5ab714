"""Per-layer tracing from outside the program.

`Tracer.install` wraps public functions of `jcokernel` in every namespace
that callers look the name up in: the defining module, each module that
imported the name, and the class for methods.  Wrapped calls record spans
(id, parent id, name, start, end, busy seconds) in memory; `end_op` hands
back one op's spans and counts, and `layer_metrics` turns the spans of many
ops into per-layer numbers.  Self time is a span's busy time minus the busy
time of its child spans.  A generator's busy time is only the time spent
inside its resumes, so the consumer's work between resumes stays with the
consumer.

A target that no longer exists is reported in `Tracer.absent`, so that its
metrics go missing instead of reading 0.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass

SPAN = "span"  # inclusive and self time, calls
GEN = "gen"  # as SPAN, timed over the generator's resumes; counts items
COUNT = "count"  # calls only: too many and too small to time


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str
    kind: str = SPAN
    out_terms: bool = False  # count support_size() of the returned tensor

    @property
    def name(self) -> str:
        attr = self.qualname.rsplit(".", 1)[-1]
        short = attr.strip("_") if attr.startswith("__") else attr
        return f"{self.module}.{self.qualname[: -len(attr)]}{short}"


TARGETS = (
    # detect stages
    Target("detector", "detect"),
    Target("tensorspace", "wedge"),
    Target("tensorspace", "SparseTensor.tensor"),
    Target("freelie", "apply_theta_stabilizer"),
    Target("freelie", "rotation_orbit_sum"),
    Target("freelie", "closed_form_phi"),
    Target("freelie", "is_in_h"),
    Target("spweights", "is_maximal"),
    Target("tensorspace", "cont_k"),
    Target("tensorspace", "cyclic_project"),
    # sparse-tensor kernels
    Target("spweights", "LieOperator.apply"),
    Target("tensorspace", "act_perm", out_terms=True),
    Target("tensorspace", "expansion", out_terms=True),
    Target("tensorspace", "SparseTensor.__add__"),
    # decompose
    Target("combinatorics", "sp_decomposition"),
    Target("combinatorics", "kw_multiplicity"),
    Target("combinatorics", "lr_coefficient"),
    Target("combinatorics", "gl_to_sp_branching"),
    Target("combinatorics", "sk_character"),
    Target("combinatorics", "mult_sp_in_module"),
    Target("partitions", "standard_tableaux", kind=GEN),
    Target("partitions", "partitions_of"),
    Target("partitions", "Partition.__new__", kind=COUNT),
    # brauer, cli and the library session
    Target("brauer", "ram_character"),
    Target("brauer", "check_relations"),
    Target("brauer", "act_twisted"),
    Target("brauer", "compose_diagrams"),
    Target("brauer", "BrauerElement.__mul__"),
    Target("cli", "cmd_brauer_char"),
    Target("detector", "uniqueness_context"),
)

QUANTITIES = {
    SPAN: ("calls", "s", "self_s"),
    GEN: ("calls", "items", "s", "self_s"),
    COUNT: ("calls",),
}


def metric_names(target: Target) -> list[str]:
    names = [f"{target.name}.{q}" for q in QUANTITIES[target.kind]]
    if target.out_terms:
        names.append(f"{target.name}.out_terms")
    return names


class Tracer:
    """Span recorder for one interpreter; create one and `install` it."""

    def __init__(self):
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()

    def _reset(self) -> None:
        self.spans = []
        self.counts.clear()  # wrappers hold this Counter

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def install(self, package: str, targets=TARGETS) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for target in targets:
            module = sys.modules.get(f"{package}.{target.module}")
            *outer, attr = target.qualname.split(".")
            owner = module
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                self.absent.append(target.name)
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrap(fn, target)
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            namespaces = [owner.__dict__] if outer else [m.__dict__ for m in modules]
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is raw:
                        if outer:
                            setattr(owner, key, wrapper)
                        else:
                            namespace[key] = wrapper

    def _wrap(self, fn, target: Target):
        name, counts, stack = target.name, self.counts, self._stack
        calls, items, terms = name + ".calls", name + ".items", name + ".out_terms"

        if target.kind == COUNT:
            def counted(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
            return counted

        if target.kind == GEN:
            def generator(*args, **kwargs):
                counts[calls] += 1
                return self._resume_timed(name, items, fn(*args, **kwargs))
            return generator

        def spanned(*args, **kwargs):
            counts[calls] += 1
            sid = self._new_id()
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, end - start))
            if target.out_terms:
                counts[terms] += result.support_size()
            return result
        return spanned

    def _resume_timed(self, name: str, items: str, gen):
        """Yield from `gen`, timing only the time spent inside it."""
        sid, stack = self._new_id(), self._stack
        parent, start, end, busy = None, None, None, 0.0
        try:
            while True:
                if start is None:
                    parent = stack[-1] if stack else None
                stack.append(sid)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    busy += t1 - t0
                    start = t0 if start is None else start
                    end = t1
                self.counts[items] += 1
                yield item
        finally:
            gen.close()
            if start is not None:
                self.spans.append((sid, parent, name, start, end, busy))

    def begin_op(self) -> None:
        self._reset()

    def end_op(self) -> dict:
        """This op's spans and counts, JSON-able."""
        trace = {"spans": self.spans, "counts": dict(self.counts)}
        self._reset()
        return trace


def span_times(spans) -> tuple[Counter, Counter]:
    """Inclusive and self seconds per span name, for one op's spans.

    Inclusive time counts only the outermost span of a name, so recursion is
    not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_busy = Counter()
    for s in spans:
        child_busy[s[1]] += s[5]
    inclusive, self_time = Counter(), Counter()
    for sid, parent, name, start, end, busy in spans:
        self_time[name] += busy - child_busy[sid]
        # A parent missing from `spans` (a generator never finished) ends the walk.
        while parent in by_id and by_id[parent][2] != name:
            parent = by_id[parent][1]
        if parent not in by_id:
            inclusive[name] += busy
    return inclusive, self_time


def layer_metrics(traces, targets=TARGETS, absent=()) -> dict[str, float]:
    """Sum per-layer metrics over the traces of many ops.

    Targets listed in `absent` produce no metrics at all.
    """
    counts, inclusive, self_time = Counter(), Counter(), Counter()
    for trace in traces:
        counts.update(trace["counts"])
        op_inclusive, op_self = span_times(trace["spans"])
        inclusive.update(op_inclusive)
        self_time.update(op_self)
    out: dict[str, float] = {}
    for target in targets:
        if target.name in absent:
            continue
        for metric in metric_names(target):
            quantity = metric.rsplit(".", 1)[1]
            if quantity == "s":
                out[metric] = inclusive[target.name]
            elif quantity == "self_s":
                out[metric] = self_time[target.name]
            else:
                out[metric] = counts[metric]
    return out
