"""The four benchmark workloads: CLI argument lists, inputs and result checks.

Every workload is one or more ``bcreg`` CLI calls at fixed problem shapes.
Its inputs derive only from the workload seed; ``reps`` is the run-length
knob (how much work one operation does), never the shape.

    mc_sweep       bias-variance, model 1, n=100, 10-lambda grid, orders 0 and 1
    stream_linear  stream, model 1, 20 blocks of 100 rows, orders 0..3
    stream_kernel  kernel-stream, 50 blocks of 50 rows, orders 0 and 1
    stream_csv     stream over a generated 4601 x 57 CSV with +-1 labels

BENCHMARK.json lists stream_kernel and stream_csv, which between them pass
through every bcreg module.  mc_sweep and stream_linear stay runnable by
hand with ``--workload``, but are left out of the measured set: on a shared
2-vCPU host only two workloads fit the time budget at a run length long
enough to keep run-to-run spread inside the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# criterion 6's sweep grid, written with repr so the CLI parses it exactly
MC_GRID = ",".join(repr(float(v)) for v in np.logspace(-3, 0, 10))
# bounds of the CLI's default 25-point stream grid, logspace(-6, 2, 25)
STREAM_GRID_BOUNDS = (1e-6, 1e2)

CSV_ROWS = 4601
CSV_FEATURES = 57
CSV_BLOCKS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    reps: int  # repetitions per CLI call in one timed operation

    def calls(self, seed: int, inputs: Path, reps: int | None = None) -> list[list[str]]:
        """CLI argument lists of one operation, without ``--out``."""
        r = str(self.reps if reps is None else reps)
        s = str(seed)
        if self.name == "mc_sweep":
            return [
                ["bias-variance", "--model", "1", "--n", "100", "--lambda", MC_GRID,
                 "--order", order, "--reps", r, "--seed", s]
                for order in ("0", "1")
            ]
        if self.name == "stream_linear":
            return [["stream", "--model", "1", "--blocks", "20", "--block-size", "100",
                     "--orders", "0,1,2,3", "--test-size", "1000", "--reps", r, "--seed", s]]
        if self.name == "stream_kernel":
            return [["kernel-stream", "--blocks", "50", "--block-size", "50",
                     "--orders", "0,1", "--bandwidth", "median", "--test-size", "500",
                     "--reps", r, "--seed", s]]
        return [["stream", "--input", str(inputs / "spam.csv"), "--blocks", str(CSV_BLOCKS),
                 "--orders", "0,1", "--classification", "--reps", r, "--seed", s]]

    def warmup_calls(self, seed: int, inputs: Path) -> list[list[str]]:
        """Small calls through the same code paths, run once during set-up."""
        s = str(seed)
        if self.name == "mc_sweep":
            return [["bias-variance", "--model", "1", "--n", "20", "--lambda", "0.1",
                     "--order", "1", "--reps", "2", "--seed", s]]
        if self.name == "stream_linear":
            return [["stream", "--model", "1", "--blocks", "2", "--block-size", "20",
                     "--orders", "0,1", "--test-size", "20", "--seed", s]]
        if self.name == "stream_kernel":
            # also fills the quadrature cache behind synth_nonlinear_block
            return [["kernel-stream", "--blocks", "2", "--block-size", "20",
                     "--orders", "0,1", "--test-size", "20", "--seed", s]]
        return [["stream", "--input", str(inputs / "warmup.csv"), "--blocks", "2",
                 "--orders", "0,1", "--classification", "--seed", s]]

    def fits_per_op(self) -> int:
        """Base-model fits one operation completes."""
        per_rep = {
            "mc_sweep": 10 * 2,  # lambdas x orders
            "stream_linear": 20 * 4,  # blocks x orders
            "stream_kernel": 50 * 2,
            "stream_csv": (CSV_BLOCKS - 1) * 2,  # one chunk is the test set
        }[self.name]
        return self.reps * per_rep

    def make_inputs(self, seed: int, inputs: Path) -> None:
        """Write the files the calls read; only stream_csv has any."""
        if self.name != "stream_csv":
            return
        inputs.mkdir(parents=True, exist_ok=True)
        data = spam_like(seed)
        write_csv(data, inputs / "spam.csv")
        write_csv(data[:200], inputs / "warmup.csv")


# reps per call, each sized so one operation takes about a second on a
# 2-core x86 box; why each measured workload exists is in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_sweep", 200),
        Workload("stream_linear", 4),
        Workload("stream_kernel", 1),
        Workload("stream_csv", 3),
    )
}

# the smallest run lengths, used by the benchmark's own tests; reference.json
# holds results at these and at each workload's benchmark reps
TEST_REPS = {"mc_sweep": 2, "stream_linear": 1, "stream_kernel": 1, "stream_csv": 1}


def spam_like(seed: int) -> np.ndarray:
    """A 4601 x 58 table shaped like spambase: 57 features and a +-1 label.

    48 word and 6 character frequencies (mostly zero, percentages with two
    decimals) and 3 capital-run-length columns (average, longest, total),
    with a label from a noisy linear score (about 40% positive).
    """
    rng = np.random.default_rng((seed, 4601))
    n = CSV_ROWS
    scales = rng.uniform(0.1, 1.5, 54)
    present = rng.random((n, 54)) < 0.25
    freq = np.round(np.where(present, rng.exponential(scales, (n, 54)), 0.0), 2)
    avg = np.round(1.0 + rng.lognormal(0.5, 0.8, n), 3)
    longest = np.ceil(avg * rng.lognormal(1.0, 0.7, n))
    total = longest * rng.integers(1, 20, n)
    x = np.column_stack([freq, avg, longest, total])
    w = rng.standard_normal(CSV_FEATURES)
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    score = z @ w + rng.logistic(0.0, 2.0, n)
    y = np.where(score > np.quantile(score, 0.6), 1.0, -1.0)
    return np.column_stack([x, y])


def write_csv(data: np.ndarray, path: Path) -> None:
    header = ",".join([f"x{i + 1}" for i in range(data.shape[1] - 1)] + ["y"])
    np.savetxt(path, data, fmt="%.10g", delimiter=",", header=header, comments="")


def check_payload(payload: dict) -> list[str]:
    """Seed-independent invariants of one result file; returns the violations."""
    problems = []
    results = payload.get("results")
    if payload.get("config", {}).get("command") == "bias-variance":
        for row in results:
            mse, bias, var = row["mse"], row["bias_norm"], row["variance"]
            if not all(math.isfinite(v) for v in (mse, bias, var)):
                problems.append(f"non-finite entry at lambda={row['lambda']}")
            elif abs(mse - (bias * bias + var)) > 1e-10 * max(1.0, abs(mse)):
                problems.append(f"mse != bias_norm^2 + variance at lambda={row['lambda']}")
        return problems
    lo, hi = STREAM_GRID_BOUNDS
    series = [results["lambda_mean"], *results["mse"].values()]
    series += list(results.get("classification_error", {}).values())
    if not all(math.isfinite(v) for s in series for v in s):
        problems.append("non-finite stream series value")
    if results["t"] != list(range(1, len(results["t"]) + 1)):
        problems.append("steps are not 1..T")
    if any(not lo * (1 - 1e-12) <= v <= hi * (1 + 1e-12) for v in results["lambda_mean"]):
        problems.append("lambda_mean outside the grid")
    for s in results.get("classification_error", {}).values():
        if any(not 0.0 <= v <= 1.0 for v in s):
            problems.append("classification error outside [0, 1]")
    return problems


def numeric_leaves(obj, path: str = "") -> dict[str, float]:
    """Flatten a JSON value to {path: number} for its numeric leaves."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            out.update(numeric_leaves(value, f"{path}/{key}"))
        return out
    if isinstance(obj, list):
        out = {}
        for i, value in enumerate(obj):
            out.update(numeric_leaves(value, f"{path}/{i}"))
        return out
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return {path: float(obj)}
    return {}


def relative_error(payload: dict, reference: dict) -> float:
    """Largest relative deviation over the reference's numeric leaves.

    A leaf missing from ``payload`` (or an extra one) counts as infinite.
    """
    got, want = numeric_leaves(payload), numeric_leaves(reference)
    if got.keys() != want.keys():
        return math.inf
    worst = 0.0
    for key, ref in want.items():
        val = got[key]
        if val != ref:
            scale = max(abs(val), abs(ref))
            worst = max(worst, abs(val - ref) / scale if math.isfinite(scale) else math.inf)
    return worst
