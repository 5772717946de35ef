"""Tests of the benchmark itself, at the smallest run lengths.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import TEST_REPS, WORKLOADS, check_payload  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 5


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


def tiny_run(name, trace, **kwargs):
    return run.run_benchmark(name, SEED, 0, trace, reps=TEST_REPS[name], **kwargs)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(trace, capsys):
    record = tiny_run("mc_sweep", trace, probes=1)
    run.print_report(record)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    text = "\n".join(lines[:-1])
    for name in ["result_rel_err", "failed_ops", *result["metrics"]]:
        assert f"metric {name} = " in text
    assert lines[0].startswith("env ")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_result_files_are_identical(name, tmp_path):
    workload = WORKLOADS[name]
    cli = run.setup(workload, SEED, tmp_path)
    argvs = workload.calls(SEED, tmp_path / "inputs", TEST_REPS[name])
    plain = [run.run_call(cli, argv, tmp_path / "out.json")[1] for argv in argvs]
    tracer = Tracer()
    tracer.install(0)
    try:
        traced = [run.run_call(cli, argv, tmp_path / "out.json")[1] for argv in argvs]
    finally:
        tracer.restore()
    assert tracer.spans
    assert plain == traced and None not in plain


def test_factorization_counts_repeat_exactly(tmp_path):
    workload = WORKLOADS["stream_linear"]
    cli = run.setup(workload, SEED, tmp_path)
    (argv,) = workload.calls(SEED, tmp_path, TEST_REPS["stream_linear"])
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(0)
        try:
            run.run_call(cli, argv, tmp_path / "out.json")
        finally:
            tracer.restore()
        metrics = tracer.layer_metrics(1)
        counts.append({k: v for k, v in metrics.items() if not k.endswith("self_s")})
    assert counts[0] == counts[1]
    assert counts[0]["streaming.select_lambda_cv.factorizations"] == 250
    assert counts[0]["streaming.select_lambda_cv.calls"] == 20
    assert counts[0]["linear.fit_regularized.factorizations"] == 1


def test_perturbed_reference_counts_as_failed():
    reference = copy.deepcopy(run.load_reference())
    stored = reference["stream_linear"][str(TEST_REPS["stream_linear"])][0]
    stored["results"]["mse"]["bcrr"][3] *= 1 + 1e-4
    record = tiny_run("stream_linear", False, probes=0, reference=reference)
    assert record["failed"] > 0 and not record["correct"]
    assert record["metrics"]["failed_ops"] > 0
    assert record["metrics"]["result_rel_err"] > run.REFERENCE_TOLERANCE


def test_invariants_catch_broken_results():
    mc = {"config": {"command": "bias-variance"},
          "results": [{"lambda": 0.1, "bias_norm": 0.5, "variance": 0.25, "mse": 0.5}]}
    assert check_payload(mc) == []
    mc["results"][0]["mse"] = 0.5 + 1e-6
    assert check_payload(mc)
    stream = {"config": {"command": "stream"},
              "results": {"t": [1, 2], "lambda_mean": [0.1, 1e3],
                          "mse": {"rr": [1.0, float("nan")]},
                          "classification_error": {"rr": [0.2, 1.5]}}}
    assert len(check_payload(stream)) == 3


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "mc_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
