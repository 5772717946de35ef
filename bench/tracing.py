"""Traced-run mode: spans around the public functions of each bcreg module.

``Tracer.install`` replaces, in every loaded ``bcreg.*`` module and in
``scipy.linalg`` / ``numpy.linalg``, each attribute that *is* one of the
traced function objects by a wrapper that records a span.  A span is
(name, start, end, parent span, run id); spans stay in memory until
``write`` and per-layer figures are computed from them by ``layer_metrics``.
``restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

FUNCTIONS = [
    "experiments.synth_block",
    "experiments.synth_nonlinear_block",
    "experiments.monte_carlo_bias_variance",
    "experiments.compute_metrics",
    "experiments.slice_into_chunks",
    "linear.fit_regularized",
    "kernels.kernel_matrix",
    "kernels.median_bandwidth",
    "kernels.fit_kernel_regularized",
    "kernels.predict_kernel",
    "streaming.select_lambda_cv",
    "streaming.average_update",
    "streaming.predict_averaged",
    "streaming.run_block_stream",
    "cli.parse_csv_dataset",
    "cli.main",
]
LINALG = {
    "linalg.cho_factor": [("scipy.linalg", "cho_factor")],
    "linalg.cho_solve": [("scipy.linalg", "cho_solve")],
    "linalg.eigh": [("scipy.linalg", "eigh"), ("numpy.linalg", "eigh")],
}
FACTORIZATIONS = ("linalg.cho_factor", "linalg.eigh")
# spans whose factorizations are also reported, per call of the span
FACTORIZATION_SPANS = (
    "streaming.select_lambda_cv",
    "linear.fit_regularized",
    "experiments.monte_carlo_bias_variance",
)
NAMES = FUNCTIONS + list(LINALG)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_s"] = "s/op"
    for name in FACTORIZATION_SPANS:
        units[f"{name}.factorizations"] = "count/call"
    units.update({
        "kernels.kernel_matrix.entries": "entries/op",
        "kernels.kernel_matrix.bytes_computed": "B/op",
        "streaming.predict_averaged.models_per_call": "count/call",
        "experiments.synth_block.draws_per_dataset": "ratio",
        "cli.output_bytes": "B/op",
        "trace.overhead_s": "s",
    })
    return units


def _originals() -> dict[int, tuple[str, object]]:
    found = {}
    for name in FUNCTIONS:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"bcreg.{module}"), attr)
        found[id(fn)] = (name, fn)
    for name, places in LINALG.items():
        for module, attr in places:
            fn = getattr(importlib.import_module(module), attr)
            found[id(fn)] = (name, fn)
    return found


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name id, start, end, parent index, run id)
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.matrix_entries = 0
        self.matrix_bytes = 0
        self.datasets: dict[int, set] = defaultdict(set)  # run id -> distinct draws

    def install(self, run_id: int) -> None:
        self.run_id = run_id
        originals = _originals()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        modules = [m for n, m in list(sys.modules.items()) if n == "bcreg" or n.startswith("bcreg.")]
        modules += [sys.modules["scipy.linalg"], sys.modules["numpy.linalg"]]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def restore(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def _wrap(self, name: str, fn):
        name_id = NAMES.index(name)
        spans, stack = self.spans, self._stack
        observe = {
            "kernels.kernel_matrix": self._count_entries,
            "experiments.synth_block": self._note_dataset,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.run_id)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count_entries(self, matrix) -> None:
        self.matrix_entries += matrix.size
        self.matrix_bytes += matrix.nbytes

    def _note_dataset(self, dataset) -> None:
        self.datasets[self.run_id].add(dataset.targets.tobytes())

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: a name table, then one span per line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": NAMES, "fields": ["name", "start", "end", "parent", "run"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation figures over ``ops`` traced operations."""
        spans = self.spans
        calls = Counter()
        self_s = defaultdict(float)
        child_s = defaultdict(float)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        factorizations = Counter()
        kernel_predictions_in_average = 0
        averaged = NAMES.index("streaming.predict_averaged")
        predict = NAMES.index("kernels.predict_kernel")
        fact_ids = {NAMES.index(n) for n in FACTORIZATIONS}
        for index, (name_id, start, end, parent, _) in enumerate(spans):
            calls[name_id] += 1
            self_s[name_id] += end - start - child_s[index]
            if name_id in fact_ids or name_id == predict:
                ancestors = set()
                while parent >= 0:
                    ancestors.add(spans[parent][0])
                    parent = spans[parent][3]
                if name_id == predict:
                    kernel_predictions_in_average += averaged in ancestors
                else:
                    for ancestor in ancestors:
                        factorizations[ancestor] += 1

        out = {}
        for name_id, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[name_id] / ops
            out[f"{name}.self_s"] = self_s[name_id] / ops
        for name in FACTORIZATION_SPANS:
            n = calls[NAMES.index(name)]
            out[f"{name}.factorizations"] = factorizations[NAMES.index(name)] / n if n else 0.0
        out["kernels.kernel_matrix.entries"] = self.matrix_entries / ops
        out["kernels.kernel_matrix.bytes_computed"] = self.matrix_bytes / ops
        n_avg = calls[averaged]
        out["streaming.predict_averaged.models_per_call"] = (
            kernel_predictions_in_average / n_avg if n_avg else 0.0
        )
        draws = calls[NAMES.index("experiments.synth_block")]
        distinct = sum(len(keys) for keys in self.datasets.values())
        out["experiments.synth_block.draws_per_dataset"] = draws / distinct if distinct else 0.0
        return out
