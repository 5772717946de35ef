"""bcreg benchmark: four CLI workloads, end-to-end timings, per-module traces.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``bcreg`` is imported from its
``src/`` directory and from nowhere else.  One caller drives
``bcreg.cli.main(argv)`` in process as a closed loop: each operation (the
workload's CLI call or calls) starts only after the previous one returned,
on one thread.  Operations repeat for ``--seconds``; every one is checked
for a zero exit code, the seed-independent invariants and byte-identical
output against the first operation.  One extra, untimed operation at
``REFERENCE_SEED`` is compared with ``reference.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and reports per-layer metrics from the
traced ones, plus their wall-time difference as ``trace.overhead_s``.
Human-readable metric lines and an environment stamp precede the final
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch files, a full record and the spans of a traced run
go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from tracing import Tracer, layer_metric_units  # noqa: E402
from workloads import WORKLOADS, check_payload, relative_error  # noqa: E402

REFERENCE_SEED = 1603
REFERENCE_TOLERANCE = 1e-6  # largest relative deviation from reference.json
SETUP_PROBES = 3

END_TO_END_UNITS = {"wall_s": "s", "fits_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
GATE_UNITS = {"result_rel_err": "ratio", "failed_ops": "ratio"}


class SetupError(Exception):
    """The program could not be imported, or its set-up failed."""


def import_bcreg():
    """Import bcreg from this checkout's src/ only."""
    if not (SRC / "bcreg" / "__init__.py").is_file():
        raise SetupError(f"no bcreg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bcreg
    import bcreg.cli

    if Path(bcreg.__file__).resolve().parent != (SRC / "bcreg").resolve():
        raise SetupError(f"bcreg imported from {bcreg.__file__}, not from {SRC}")
    return bcreg.cli


def run_call(cli, argv: list[str], out: Path) -> tuple[float, bytes | None, str | None]:
    """One CLI call writing to ``out``: (wall seconds, output bytes, failure)."""
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = cli.main([*argv, "--out", str(out)])
    except Exception:
        wall = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return wall, None, "raised"
    wall = time.perf_counter() - start
    if code != 0:
        return wall, None, f"exit code {code}"
    return wall, out.read_bytes(), None


def check_output(data: bytes) -> list[str]:
    try:
        payload = json.loads(data)
    except ValueError as exc:
        return [f"unreadable result: {exc}"]
    try:
        return check_payload(payload)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"malformed result: {exc!r}"]


def setup(workload, seed: int, work: Path):
    """Import bcreg, write the inputs, warm up: everything before the first timed call."""
    cli = import_bcreg()
    work.mkdir(parents=True, exist_ok=True)
    inputs = work / "inputs"
    workload.make_inputs(seed, inputs)
    for i, argv in enumerate(workload.warmup_calls(seed, inputs)):
        _, data, failure = run_call(cli, argv, work / f"warmup-{i}.json")
        if failure:
            raise SetupError(f"warm-up call {argv} failed: {failure}")
    return cli


def probe_setup(workload_name: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload_name, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], 60)
        line = proc.stdout.readline() if readable else ""
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SetupError(f"set-up probe exited with code {proc.returncode}")
    return elapsed


def run_probe(workload_name: str, seed: int) -> int:
    work = OUT / f"probe-{os.getpid()}"
    try:
        setup(WORKLOADS[workload_name], seed, work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "bcreg").glob("*.py")):
        text = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + text)
        lines += text.count(b"\n")
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def reference_check(cli, workload, work: Path, reference: dict) -> tuple[float, int, int]:
    """Run one operation at REFERENCE_SEED: (largest relative error, calls, failed calls)."""
    inputs = work / "reference-inputs"
    workload.make_inputs(REFERENCE_SEED, inputs)
    stored = reference.get(workload.name, {}).get(str(workload.reps))
    worst, failed = 0.0, 0
    calls = workload.calls(REFERENCE_SEED, inputs)
    for i, argv in enumerate(calls):
        _, data, failure = run_call(cli, argv, work / f"reference-{i}.json")
        err = math.inf
        if failure is None and stored is not None and i < len(stored):
            problems = check_output(data)
            if not problems:
                err = relative_error(json.loads(data), stored[i])
        worst = max(worst, err)
        if failure or err > REFERENCE_TOLERANCE:
            failed += 1
            print(f"reference check failed for {argv[0]} call {i}: "
                  f"{failure or f'relative error {err:.3g}'}", file=sys.stderr)
    return worst, len(calls), failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  reps: int | None = None, probes: int = SETUP_PROBES,
                  reference: dict | None = None) -> dict:
    """One benchmark run; returns the full record (see ``main`` for the printed form).

    ``reps`` overrides the workload's run length, for tiny runs in tests.
    """
    workload = WORKLOADS[workload_name]
    if reps is not None and reps != workload.reps:
        workload = dataclasses.replace(workload, reps=reps)
    if reference is None:
        reference = load_reference()
    work = OUT / f"{workload.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    cli = setup(workload, seed, work)
    setup_times = [probe_setup(workload.name, seed) for _ in range(probes)]
    env = environment(seed)

    rel_err, attempted, failed = reference_check(cli, workload, work, reference)

    tracer = Tracer() if trace else None
    calls = workload.calls(seed, work / "inputs")
    first: list[bytes | None] = [None] * len(calls)
    walls = {"untraced": [], "traced": []}  # per-operation wall seconds
    output_bytes = 0
    ops = 0
    start = time.perf_counter()
    while ops < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and ops % 2 == 1
        if traced:
            tracer.install(ops)
        wall = 0.0
        try:
            for i, argv in enumerate(calls):
                dt, data, failure = run_call(cli, argv, work / f"out-{i}.json")
                wall += dt
                attempted += 1
                if failure is None:
                    problems = check_output(data)
                    if first[i] is None:
                        first[i] = data
                    elif data != first[i]:
                        problems.append("bytes differ from the first call with this seed")
                    if problems:
                        failure = "; ".join(problems)
                if failure:
                    failed += 1
                    print(f"op {ops} call {i} failed: {failure}", file=sys.stderr)
                elif traced:
                    output_bytes += len(data)
        finally:
            if traced:
                tracer.restore()
        walls["traced" if traced else "untraced"].append(wall)
        ops += 1

    _, wall_med, _ = quartiles(walls["untraced"])
    record = {
        "workload": workload.name,
        "reps": workload.reps,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "op_wall_s": walls,
        "setup_probe_s": setup_times,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "units": {},
        "metrics": {},
    }
    gate = {"result_rel_err": rel_err, "failed_ops": failed / attempted}
    record["metrics"].update(gate)
    record["units"].update(GATE_UNITS)
    if trace:
        traced_ops = len(walls["traced"])
        layers = tracer.layer_metrics(traced_ops)
        layers["cli.output_bytes"] = output_bytes / traced_ops
        layers["trace.overhead_s"] = statistics.median(walls["traced"]) - wall_med
        record["metrics"].update(layers)
        record["units"].update(layer_metric_units())
        record["reported"] = list(layer_metric_units())
        tracer.write(OUT / f"spans-{workload.name}.jsonl.gz")
    else:
        record["metrics"].update({
            "wall_s": wall_med,
            "fits_per_s": workload.fits_per_op() / wall_med,
            "setup_s": statistics.median(setup_times) if setup_times else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        record["units"].update(END_TO_END_UNITS)
        record["reported"] = list(END_TO_END_UNITS)
    (OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return record


def print_report(record: dict) -> None:
    walls = record["op_wall_s"]["untraced"]
    q1, q2, q3 = quartiles(walls)
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    print(f"workload {record['workload']}: {len(walls)} untraced ops "
          f"(wall q1 {q1:.4f} s, median {q2:.4f} s, q3 {q3:.4f} s), "
          f"{len(record['op_wall_s']['traced'])} traced ops, reps {record['reps']}")
    for name, value in record["metrics"].items():
        print(f"metric {name} = {value:.6g} {record['units'][name]}")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": record["units"][name]}
            for name in record["reported"]
        },
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        if args.probe:
            return run_probe(args.workload, args.seed)
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
