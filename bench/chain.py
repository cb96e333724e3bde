"""Running the CLI chain in-process: timing, output digests and checks.

Each step calls `cdspart.cli.main(argv)` with its stdout and stderr
captured; only that call is timed. Garbage from earlier steps is collected
before the clock starts. Everything else (hashing the files a step wrote,
the independent check, comparing digests with an earlier run of the same
step) happens outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import time
import traceback
from dataclasses import dataclass, field

import check
from workloads import Spec, Step, steps


@dataclass
class StepRecord:
    instance: int
    kind: str
    argv: tuple[str, ...]
    times: list[float] = field(default_factory=list)
    digests: dict[str, str] | None = None


@dataclass
class PassResult:
    records: list[StepRecord]
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check(step: Step, spec: Spec, stdout: str, models: dict) -> None:
    """Raise check.CheckError unless the step's outputs keep its promise."""
    if step.check == "ok":
        lines = stdout.strip().splitlines()
        if not lines or lines[-1] != "OK":
            raise check.CheckError(f"verify printed {stdout.strip()[:80]!r}")
        return
    if step.check in ("planted", "model"):
        inst = check.read_instance(step.outputs[0])
        if len(inst.terminals) != spec.k:
            raise check.CheckError(f"{len(inst.terminals)} terminals, expected {spec.k}")
        models[step.model] = inst
        if step.check == "planted":
            trees = check.read_sets(step.outputs[1], "s", inst.n)
            if len(trees) != spec.k:
                raise check.CheckError(f"{len(trees)} planted trees, expected {spec.k}")
            check.check_cds_family(inst, trees, cover=False)
        return
    inst = models[step.model]
    if step.check == "cds":
        sets = check.read_sets(step.outputs[0], "s", inst.n)
        if len(sets) != spec.cds_k:
            raise check.CheckError(f"{len(sets)} sets, expected {spec.cds_k}")
        check.check_cds_family(inst, sets, cover=True)
    else:
        check.check_gl_partition(inst, check.read_sets(step.outputs[0], "v", inst.n))


def run_pass(main, instances: list[tuple[Spec, int]], *, gen_repeats: int,
             reference: dict, tracer=None) -> PassResult:
    """Run every instance's chain once (`gen` steps `gen_repeats` times).

    `reference` maps (instance, step) to the digests of an earlier run of
    that step whose outputs passed the independent check; later runs of
    the step are compared with it instead of being checked again. A non-zero exit,
    an exception, a rejected output or a digest mismatch fails the step
    and ends that instance's chain.
    """
    result = PassResult(records=[])
    for i, (spec, seed) in enumerate(instances):
        models: dict = {}
        for j, step in enumerate(steps(spec, seed, f"i{i:02d}")):
            rec = StepRecord(i, step.kind, step.argv)
            result.records.append(rec)
            problem = None
            for _ in range(gen_repeats if step.kind == "gen" else 1):
                problem = _run_step(main, step, spec, i, j, rec, reference, models, tracer)
                result.attempted += 1
                if problem:
                    result.failures.append(f"instance {i} ({spec.klass}) {' '.join(step.argv)}: {problem}")
                    break
            if problem:
                break
    return result


def _run_step(main, step, spec, i, j, rec, reference, models, tracer) -> str | None:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    span = tracer.span(f"cli.{step.kind}") if tracer else contextlib.nullcontext()
    if tracer:
        tracer.instance = i
    problem = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            with span:
                code = main(list(step.argv))
        except Exception:  # a crash is a failed step, not a failed run
            code, problem = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        rec.times.append(time.perf_counter() - start)
    if problem:
        return problem
    if code != 0:
        return f"exit {code}: {out.getvalue().strip()[:120]}"
    try:
        digests = {path: _digest(path) for path in step.outputs}
    except OSError as exc:
        return f"missing output: {exc}"
    rec.digests = digests
    key = (i, j)
    if key in reference:
        return None if reference[key] == digests else "output differs from an earlier run of the same step"
    try:
        _check(step, spec, out.getvalue(), models)
    except (check.CheckError, OSError, IndexError, KeyError) as exc:
        return f"independent check: {exc}"
    reference[key] = digests
    return None
