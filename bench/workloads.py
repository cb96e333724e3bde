"""The benchmark's workloads: which CLI chains run, at which sizes.

Every per-instance seed is derived from the base seed, so one base seed
always gives the same inputs. Each workload puts most of the work on a
different set of layers; layers a workload does not reach read 0 in its
traced run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """One instance family: `klass` is a `gen --class` value."""

    klass: str
    size: tuple[int, ...]  # (n,) for planted / interval, (na, nb) otherwise
    k: int  # `gen --k`
    cds_k: int | None = None  # `cds -k` for the structured classes
    count: int = 1


@dataclass(frozen=True)
class Step:
    kind: str  # gen | cds | partition | verify
    argv: tuple[str, ...]
    model: str  # the instance's graph or model file
    outputs: tuple[str, ...]  # files the step writes
    check: str  # which independent check its outputs get


WORKLOADS: dict[str, tuple[Spec, ...]] = {
    # k = n/4: about k solve rounds, each rebuilding state, running the
    # invariant checkpoints and retire's domination re-check; m ~ 0.9 n k.
    "planted-dense": (Spec("planted", (600,), 150, count=5),),
    # n = 10^4 with few trees: few rounds, large sparse parses.
    "planted-sparse": (Spec("planted", (10000,), 8, count=10),),
    # Generators' rejection loops and flow schedules, models, flows and
    # builders; the engine runs on trees that cover all of V.
    "structured": (
        Spec("interval", (80,), 4, 4, count=10),
        Spec("biconvex", (200, 220), 4, 4, count=4),
        Spec("convex", (300, 600), 8, 2, count=3),
    ),
}

# The smoke rung: the same code paths at tiny sizes, a few seconds in all.
SMOKE: dict[str, tuple[Spec, ...]] = {
    "planted-dense": (Spec("planted", (48,), 12),),
    "planted-sparse": (Spec("planted", (400,), 8),),
    "structured": (
        Spec("interval", (24,), 2, 2),
        Spec("biconvex", (16, 18), 2, 2),
        Spec("convex", (10, 24), 8, 2),
    ),
}


def instance_seed(workload: str, base: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{base}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def instances(workload: str, base: int, smoke: bool) -> list[tuple[Spec, int]]:
    """(spec, seed) for every instance of the workload, in run order."""
    specs = (SMOKE if smoke else WORKLOADS)[workload]
    out = []
    for spec in specs:
        for _ in range(spec.count):
            out.append((spec, instance_seed(workload, base, len(out))))
    return out


def steps(spec: Spec, seed: int, stem: str) -> list[Step]:
    """The CLI chain for one instance, writing files named `stem.*`.

    Convex chains stop after `verify --what cds`: `gen --class convex
    --k K` writes K terminals, and `partition` with fewer trees than
    terminals raises an IndexError.
    """
    gen = ["gen", "--class", spec.klass, "--k", str(spec.k), "--seed", str(seed)]
    if spec.klass == "planted":
        model, cds = f"{stem}.gl", f"{stem}.cds"
        part = f"{stem}.part"
        return [
            Step("gen", (*gen, "--n", str(spec.size[0]), "-o", model), model, (model, cds), "planted"),
            Step("partition", ("partition", model, "--cds", cds, "-o", part), model, (part,),
                 "partition"),
            Step("verify", ("verify", "--what", "gl", model, part), model, (), "ok"),
        ]
    model, cds, part = f"{stem}.{spec.klass}", f"{stem}.cdsp", f"{stem}.part"
    dims = ["--n", str(spec.size[0])] if spec.klass == "interval" else [
        "--na", str(spec.size[0]), "--nb", str(spec.size[1])]
    out = [
        Step("gen", (*gen, *dims, "-o", model), model, (model,), "model"),
        Step("cds", ("cds", "--class", spec.klass, "-k", str(spec.cds_k), model, "-o", cds),
             model, (cds,), "cds"),
        Step("verify", ("verify", "--what", "cds", model, cds), model, (), "ok"),
    ]
    if spec.klass != "convex":
        out += [
            Step("partition", ("partition", model, "--cds", cds, "-o", part), model, (part,),
                 "partition"),
            Step("verify", ("verify", "--what", "gl", model, part), model, (), "ok"),
        ]
    return out
