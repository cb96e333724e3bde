"""Command-line front end: generation, CDS construction, partitioning,
verification, oracles and connectivity, wired for reproducible pipelines.

Everything is a flag (no config files or environment variables).  Exit
codes: 0 success / feasible / verified, 1 infeasible or failed
verification, 2 usage, parse or input errors, 3 an engine fault on an
input that passed validation (`engine.FAULT_CODES`).  Failure paths print
a machine-parsable first line (`ERROR <code>`, `FAIL <rule> ...` or
`INFEASIBLE`).
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
import time
from pathlib import Path

from . import builders, engine, formats, generators, verify
from .graphs import GraphError, vertex_connectivity
from .models import BiconvexModel, ConvexModel, IntervalModel, interval_connectivity

# Per structured class: its model type, generator, CDS builder and the size
# flags `gen` reads, in the generator's argument order.  The generator and
# builder are named, not held, so a wrapper set on their module (a tracer's,
# a test's) is the one called.  `gen --class planted` is the one other
# class: it reads --n and --extra-edges.
_CLASSES = {
    "interval": (IntervalModel, "gen_interval", "cds_interval", ("n",)),
    "biconvex": (BiconvexModel, "gen_biconvex", "cds_biconvex", ("na", "nb")),
    "convex": (ConvexModel, "gen_convex", "cds_convex", ("na", "nb")),
}


# Built once per process: `parse_args` keeps no state in the parser, and a
# build costs about a millisecond, a third of a short command.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cdspart",
        description="CDS partitions and connected prescribed-size partitions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded model / instance bundle")
    g.add_argument("--class", dest="klass", required=True,
                   choices=[*_CLASSES, "planted"])
    g.add_argument("--n", type=int, help="vertex count (interval/planted)")
    g.add_argument("--na", type=int, help="A-side size (convex/biconvex)")
    g.add_argument("--nb", type=int, help="B-side size (convex/biconvex)")
    g.add_argument("--k", type=int, required=True,
                   help="connectivity target / planted tree count")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--extra-edges", type=int, default=None,
                   help="extra random edges for planted graphs (default n//4)")
    g.add_argument("-o", "--output", required=True)

    c = sub.add_parser("cds", help="build a CDS partition for a structured model")
    c.add_argument("--class", dest="klass", required=True,
                   choices=list(_CLASSES))
    c.add_argument("-k", type=int, required=True)
    c.add_argument("input")
    c.add_argument("-o", "--output", required=True)

    s = sub.add_parser(
        "partition",
        help="solve an instance given a CDS file",
        description="Solve a terminal/demand instance. A CDS partition file is "
        "required; build one with `cdspart cds` (structured models) or "
        "`cdspart oracle --what cds` (tiny graphs).",
    )
    s.add_argument("input")
    s.add_argument("--cds", required=True,
                   help="CDS file; see `cdspart cds` / `cdspart oracle --what cds`")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--trace", default=None)

    v = sub.add_parser("verify", help="verify a partition or CDS partition")
    v.add_argument("--what", required=True, choices=["gl", "cds"])
    v.add_argument("instance")
    v.add_argument("object")

    o = sub.add_parser("oracle", help="brute-force search on tiny inputs")
    o.add_argument("--what", required=True, choices=["gl", "cds"])
    o.add_argument("-k", type=int, default=None, help="family size (cds oracle)")
    o.add_argument("--max-n", type=int, default=14, help="oracle size guard")
    o.add_argument("input")

    k = sub.add_parser("connectivity", help="print the vertex connectivity")
    k.add_argument("input")
    return p


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise formats.FormatError("io", f"cannot read {path}: {exc}") from exc


def _distinct_files(*paths: str | Path | None) -> None:
    """Refuse two of a command's files, read or written, that resolve to
    one: a write would replace the file read or written before it.  An
    unset optional path (None or empty) is skipped."""
    seen: dict[Path, Path] = {}
    for path in map(Path, filter(None, paths)):
        first = seen.setdefault(path.resolve(), path)
        if first is not path:
            raise formats.FormatError("usage", f"{first} and {path} name one file")


def _cmd_gen(args) -> int:
    klass = args.klass
    planted = klass == "planted"
    sizes = ("n",) if planted else _CLASSES[klass][3]
    reads = sizes + (("extra_edges",) if planted else ())
    for name in ("n", "na", "nb", "extra_edges"):
        if name not in reads and getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise formats.FormatError("usage", f"gen --class {klass} does not read {flag}")
    if any(getattr(args, name) is None for name in sizes):
        flags = " and ".join(f"--{name}" for name in sizes)
        raise formats.FormatError("usage", f"gen --class {klass} needs {flags}")
    counts = [getattr(args, name) for name in sizes]
    n = sum(counts)
    if n > formats.MAX_VERTICES:  # parse_bundle's header bound, before anything is sized
        raise formats.FormatError("invariant", f"vertex count {n} exceeds {formats.MAX_VERTICES}")
    if planted:
        cds_path = Path(args.output).with_suffix(".cds")
        _distinct_files(args.output, cds_path)
        extra = args.extra_edges if args.extra_edges is not None else n // 4
        model, trees = generators.gen_planted_cds(n, args.k, extra, args.seed)
        comment = f"planted instance: n={n} k={args.k} extra={extra} seed={args.seed} prng=splitmix64"
    else:
        model = getattr(generators, _CLASSES[klass][1])(*counts, args.k, args.seed)
        shape = " ".join(f"{name}={count}" for name, count in zip(sizes, counts))
        comment = f"{klass} model: {shape} target_k={args.k} seed={args.seed} prng=splitmix64"
    # write_bundle reads the model alone, so no graph is derived here
    terminals, demands = generators.gen_gl_extension(model.n, args.k, seed=args.seed ^ 0x5EED)
    bundle = formats.InstanceBundle(model=model, terminals=terminals, demands=demands)
    Path(args.output).write_text(formats.write_bundle(bundle, [comment]), encoding="utf-8")
    if planted:
        cds_path.write_text(formats.write_cds([t.vertices for t in trees]), encoding="utf-8")
        print(f"wrote {args.output} and {cds_path}")
    else:
        print(f"wrote {args.output}")
    return 0


def _cmd_cds(args) -> int:
    _distinct_files(args.input, args.output)
    bundle = formats.parse_bundle(_read(args.input))
    kind, _, build, _ = _CLASSES[args.klass]
    if not isinstance(bundle.model, kind):
        article = "an" if args.klass[0] in "aeiou" else "a"
        raise formats.FormatError("usage", f"{args.input} is not {article} {args.klass} model")
    fam = getattr(builders, build)(bundle.model, args.k)
    partition = builders.extend_to_partition(bundle.model.n, fam)
    Path(args.output).write_text(formats.write_cds(partition), encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


def _cmd_partition(args) -> int:
    _distinct_files(args.input, args.cds, args.output, args.trace)
    bundle = formats.parse_bundle(_read(args.input))
    instance = bundle.gl_instance()
    sets = formats.parse_cds_sets(_read(args.cds), bundle.graph.n)
    trees = formats.build_cds_input(bundle.graph, sets)
    trace = [] if args.trace else None
    started = time.perf_counter()
    partition = engine.solve(instance, trees, trace=trace)
    elapsed = time.perf_counter() - started
    # the partition file is written last, so a failed run leaves none
    if args.trace:
        Path(args.trace).write_text(formats.write_trace(trace), encoding="utf-8")
    Path(args.output).write_text(formats.write_partition(partition), encoding="utf-8")
    print(f"wrote {args.output}")
    print(f"solve time: {elapsed:.3f}s", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    bundle = formats.parse_bundle(_read(args.instance))
    text = _read(args.object)
    if args.what == "gl":
        instance = bundle.gl_instance()
        blocks = formats.parse_partition(text, bundle.graph.n)
        report = verify.verify_gl(instance, blocks)
    else:
        sets = formats.parse_cds_sets(text, bundle.graph.n)
        report = verify.verify_cds_partition(bundle.graph, sets)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_oracle(args) -> int:
    bundle = formats.parse_bundle(_read(args.input))
    if args.what == "cds":
        if args.k is None:
            raise formats.FormatError("usage", "oracle --what cds needs -k")
        fam = verify.brute_cds(bundle.graph, args.k, max_n=args.max_n)
        if fam is None:
            print("INFEASIBLE")
            return 1
        print(formats.write_cds(fam), end="")
        return 0
    instance = bundle.gl_instance()
    partition = verify.brute_gl(instance, max_n=args.max_n)
    if partition is None:
        print("INFEASIBLE")
        return 1
    print(formats.write_partition(partition), end="")
    return 0


def _cmd_connectivity(args) -> int:
    model = formats.parse_bundle(_read(args.input)).model
    interval = isinstance(model, IntervalModel)  # exact from the clique path, no flows
    print(interval_connectivity(model) if interval else vertex_connectivity(model.graph))
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "cds": _cmd_cds,
    "partition": _cmd_partition,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "connectivity": _cmd_connectivity,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # A command builds one graph whose containers live as long as it and
    # form no cycles; the cyclic collector would only walk them again and
    # again, so it is paused for the command and its state restored.
    enabled = gc.isenabled()
    try:
        gc.disable()
        return _HANDLERS[args.command](args)
    except builders.InsufficientConnectivity as exc:
        print(f"ERROR {exc.code} {exc}")
        return 1
    except formats.FormatError as exc:
        print(f"ERROR {exc.code} {exc}")
        return 2
    except GraphError as exc:
        print(f"ERROR {exc.code} {exc}")
        return 3 if exc.code in engine.FAULT_CODES else 2
    except OSError as exc:
        print(f"ERROR io {exc}")
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
