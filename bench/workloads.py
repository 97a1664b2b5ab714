"""The benchmark's workloads and their seeded op sequences.

Every workload draws three cost classes in equal shares.  With an odd number
of classes in equal shares the median op lands inside the middle class
instead of jumping between two classes from run to run.

An op is a plain JSON-able dict that `worker.py` executes:

- ``{"kind": "cli", "argv": [...]}`` runs ``jcokernel.cli.main(argv)``;
- ``{"kind": "check_relations", "k", "g", "rng_seed"}`` runs
  ``brauer.check_relations(k, g, rng=random.Random(rng_seed))``;
- ``{"kind": "uniqueness", "family", "k", "g"}`` runs
  ``detector.uniqueness_context(family, k, g)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm


@dataclass(frozen=True)
class OpClass:
    name: str
    variants: tuple[dict, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    # True: one fresh interpreter per op.  False: one long-lived interpreter.
    cold: bool
    classes: tuple[OpClass, OpClass, OpClass]
    # Nominal seconds of one traced plus one untraced cycle on a 2-vCPU
    # x86-64 VM with Python 3.11; sets how many cycles a traced run does.
    trace_pair_s: float

    @property
    def rounds_per_cycle(self) -> int:
        return lcm(*(len(c.variants) for c in self.classes))

    @property
    def cycle_ops(self) -> int:
        return self.rounds_per_cycle * len(self.classes)


def _cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def _detect(family: str, k: int, g: int) -> dict:
    return _cli("detect", "--family", family, "--k", k, "--g", g)


def _decompose(source: str, k: int, g: int) -> dict:
    return _cli("--format", "json", "decompose", "--source", source, "--k", k, "--g", g)


def _uniqueness(family: str, k: int, g: int) -> dict:
    return {"kind": "uniqueness", "family": family, "k": k, "g": g}


WORKLOADS = {
    w.name: w
    for w in (
        # A cold op costs a fresh interpreter too, so few fit in a run.  The
        # classes are light enough that the top class holds well over the
        # ten samples beyond the tail percentile even when the machine runs
        # slow; with fewer, the tail sits on the seam between the top two
        # classes and jumps between them from run to run.
        Workload(
            name="detect_cold",
            cold=True,
            classes=(
                OpClass("alt5_g7", (_detect("[1^k]", 5, 7),)),
                OpClass("sym15_g17", (_detect("[k]", 15, 17),)),
                OpClass("sym11_g13", (_detect("[k]", 11, 13),)),
            ),
            trace_pair_s=5.0,
        ),
        # No class is as light as a fresh interpreter (about 0.15 s): spawn
        # time swings by half with load on the host and would otherwise set
        # ops_per_s.  h k=8 and cyclic k=10 cost about the same, so the tail
        # percentile lies inside their joint range, not on a seam.
        Workload(
            name="decompose_cold",
            cold=True,
            classes=(
                OpClass("h8", tuple(_decompose("h", 8, g) for g in range(10, 14))),
                OpClass("cyclic10", tuple(_decompose("cyclic", 10, g) for g in range(12, 16))),
                OpClass("h7", tuple(_decompose("h", 7, g) for g in range(9, 13))),
            ),
            trace_pair_s=15.0,
        ),
        Workload(
            name="session_warm",
            cold=False,
            classes=(
                # k=9 (about 0.6 s): a k=8 table is light enough that the
                # tail percentile falls among this class's rarest, noisiest
                # outliers; a k=10 table (about 2 s) leaves so few rounds in
                # a run that the median, a check_relations op of some 15 ms
                # whose cost varies with its random input, rests on a dozen
                # samples.
                OpClass("brauer_char9", tuple(_cli("brauer-char", "--k", 9, "--g", g)
                                              for g in range(11, 15))),
                OpClass("relations5", tuple({"kind": "check_relations", "k": 5, "g": g}
                                            for g in range(5, 9))),
                OpClass("uniqueness", (
                    _uniqueness("[1^k]", 5, 7),
                    _uniqueness("[1^k]", 5, 8),
                    _uniqueness("[k]", 7, 9),
                    _uniqueness("[k]", 9, 11),
                )),
            ),
            trace_pair_s=15.0,
        ),
    )
}


def op_key(op: dict) -> str:
    """Identity of an op's answer: everything but its rng seed."""
    if op["kind"] == "cli":
        return "cli " + " ".join(op["argv"])
    if op["kind"] == "check_relations":
        return f"check_relations {op['k']} {op['g']}"
    return f"uniqueness {op['family']} {op['k']} {op['g']}"


def op_sequence(workload: Workload, seed: int):
    """Endless seeded sequence of (class name, op) pairs.

    A cycle is `rounds_per_cycle` rounds; each round holds one op of every
    class in a seeded order, and over a cycle every variant of every class
    appears equally often in a seeded order.  Every cycle therefore holds the
    same multiset of ops, so counts taken over whole cycles do not depend on
    the seed.
    """
    rng = random.Random(seed)
    rounds = workload.rounds_per_cycle
    while True:
        orders = []
        for cls in workload.classes:
            order: list[int] = []
            for _ in range(rounds // len(cls.variants)):
                order += rng.sample(range(len(cls.variants)), len(cls.variants))
            orders.append(order)
        for r in range(rounds):
            batch = [(cls.name, dict(cls.variants[order[r]]))
                     for cls, order in zip(workload.classes, orders)]
            rng.shuffle(batch)
            for name, op in batch:
                if op["kind"] == "check_relations":
                    op["rng_seed"] = rng.getrandbits(32)
                yield name, op


def all_variants(workload: Workload):
    """Every distinct op of the workload once, as (class name, op)."""
    for cls in workload.classes:
        for op in cls.variants:
            op = dict(op)
            if op["kind"] == "check_relations":
                op["rng_seed"] = 0
            yield cls.name, op
