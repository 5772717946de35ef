"""Command-line entry point for fits, experiments, and data slicing.

Commands
--------
fit           fit ridge, or with --kernel a kernel network, to a CSV dataset
bias-variance Monte-Carlo bias/variance of the synthetic benchmarks
stream        block-streaming comparison of correction orders (linear)
kernel-stream the same comparison with kernel models
chunks        randomly slice a CSV dataset into equal-size chunk files

CSV inputs have a header row, comma-separated decimal numbers, and the
target in the last column.  Every randomized command takes --seed
(default 0); identical arguments and seed produce byte-identical output
files.  Results go to --out as JSON (default) or CSV, or to stdout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .errors import (
    BcregError,
    CsvFormatError,
    CsvParseError,
    InsufficientDataError,
    ShapeError,
)
from .experiments import (
    SyntheticSpec,
    monte_carlo_bias_variance,
    slice_into_chunks,
    synth_block,
    synth_nonlinear_block,
)
from .kernels import KERNEL_KINDS, KernelSpec, fit_kernel_regularized, median_bandwidth
from .linear import (
    Dataset, _check_float, _check_int, _check_items, _check_order, _check_record, fit_regularized,
)
from .streaming import DEFAULT_LAMBDA_GRID, CvConfig, _check_orders, run_block_stream

__all__ = ["parse_csv_dataset", "write_csv_dataset", "build_parser", "main", "entry"]


def _read_csv_dataset(path) -> tuple[list[str], Dataset]:
    """The header row and the dataset of a CSV file; last column is the target.

    Every row's cells are parsed with ``float`` into one growing double
    buffer, viewed as the n x width matrix at the end, so the parse peaks
    near twice the data's bytes: the buffer plus the Dataset's copy.
    Bytes that are not UTF-8 raise CsvFormatError.
    """
    from array import array  # loaded at the first parse: commands without a CSV never map it

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise CsvFormatError(f"{path}: empty file, expected a header row")
            if len(header) < 2:
                raise CsvFormatError(
                    f"{path}: need at least two columns (features plus target), got {len(header)}"
                )
            width = len(header)
            cells = array("d")
            for i, row in enumerate(reader, start=1):
                if not row:
                    continue  # tolerate blank lines
                if len(row) != width:
                    raise CsvFormatError(f"{path}: row {i} has {len(row)} cells, expected {width}")
                try:
                    cells.extend(map(float, row))
                except ValueError:
                    for j, cell in enumerate(row, start=1):
                        try:
                            float(cell)
                        except ValueError:
                            raise CsvParseError(
                                f"{path}: row {i}, column {j}: cannot parse {cell!r} as a number",
                                row=i,
                                column=j,
                            ) from None
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not cells:
        raise InsufficientDataError(f"{path}: no data rows after the header")
    data = np.frombuffer(cells).reshape(-1, width)
    return header, Dataset(features=data[:, :-1], targets=data[:, -1])


def parse_csv_dataset(path) -> Dataset:
    """Read a header-plus-rows CSV file; last column is the target."""
    return _read_csv_dataset(path)[1]


def write_csv_dataset(dataset: Dataset, path, header=None) -> None:
    """Write a dataset as CSV with 17 significant digits (exact round trip)."""
    p = _check_record(dataset, Dataset, "dataset").n_features
    names = [f"x{i + 1}" for i in range(p)] + ["y"] if header is None else _check_items(
        header, functools.partial(_check_record, kind=str, name="header name"), "header")
    if len(names) != p + 1:
        raise ShapeError(f"header has {len(names)} names, expected {p + 1} (features plus target)")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(dataset.n_rows):
            row = [format(v, ".17g") for v in dataset.features[i]]
            row.append(format(dataset.targets[i], ".17g"))
            writer.writerow(row)


def _usage(check, parse=int):
    """An argparse type ``check(parse(text))``; a bad literal or value is a usage error (exit 2)."""

    def convert(text: str):
        try:
            return check(parse(text))
        except ValueError as exc:  # a bad literal, or the check's InvalidParameterError
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_seed_arg = _usage(functools.partial(_check_int, name="seed", low=0))
_orders_arg = _usage(_check_orders, lambda text: [int(t) for t in text.split(",") if t.strip()])


def _floats_arg(name: str):
    """A nonempty comma-separated list of numbers, blanks skipped; range-checked where used."""
    return _usage(functools.partial(_check_items, rule=float, name=name),
                  lambda text: [float(t) for t in text.split(",") if t.strip()])


def _bandwidth_policy(text: str):
    if text == "median":
        return "median"
    try:
        return _check_float(float(text), "bandwidth", 0.0)
    except ValueError:  # not a number, or InvalidParameterError
        raise argparse.ArgumentTypeError(
            f"bandwidth must be 'median' or a finite number > 0, got {text!r}"
        ) from None


def _add_output_args(sub) -> None:
    sub.add_argument("--out", help="output file path (default: stdout)")
    sub.add_argument(
        "--format", choices=["json", "csv"], default="json", help="output format"
    )


# kernel option -> (its default, the one kernel that reads it); fit without --kernel reads none
_KERNEL_OPTIONS = {
    "bandwidth": ("median", "gaussian"), "degree": (2, "polynomial"), "offset": (0.0, "polynomial"),
}


def _add_kernel_args(sub, default) -> None:
    sub.add_argument("--kernel", choices=KERNEL_KINDS, default=default, help="kernel kind")
    sub.add_argument(
        "--bandwidth", type=_bandwidth_policy,
        help="Gaussian bandwidth: 'median' (pairwise-distance heuristic, the default) or a number",
    )
    sub.add_argument("--degree", type=int, help="polynomial kernel degree (default 2)")
    sub.add_argument("--offset", type=float, help="polynomial kernel offset (default 0)")


def _resolve_kernel_args(args) -> None:
    """Fill in unset kernel options; one that the chosen kernel does not read exits 2."""
    if not hasattr(args, "bandwidth"):  # a command without kernel options
        return
    for name, (default, kind) in _KERNEL_OPTIONS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.kernel != kind:
            _parser().error(f"--{name} applies only to --kernel {kind}")


def _add_stream_args(sub, blocks: int, block_size: int) -> None:
    sub.add_argument("--blocks", type=int, default=blocks,
                     help="stream length; with --input, the chunk count "
                     "(one random chunk becomes the test set)")
    sub.add_argument("--block-size", type=int, default=block_size,
                     help="rows per synthetic block")
    sub.add_argument("--test-size", type=int, default=1000, help="synthetic test rows")
    sub.add_argument("--orders", type=_orders_arg, default=[0, 1],
                     help="comma-separated correction orders to compare")
    sub.add_argument("--reps", type=int, default=1, help="repetitions to average over")
    sub.add_argument("--folds", type=int, default=10, help="CV folds per block")
    sub.add_argument("--grid", type=_floats_arg("lambda grid"), default=DEFAULT_LAMBDA_GRID,
                     help="comma-separated lambda grid (default: 25 log-spaced in [1e-6, 1e2])")
    sub.add_argument("--snr", type=float, default=10.0)
    sub.add_argument("--classification", action="store_true",
                     help="also report sign-agreement error (targets must be +-1)")
    sub.add_argument("--seed", type=_seed_arg, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcreg",
        description="Bias-corrected regularized regression experiments. "
        "CSV inputs need a header row; the last column is the target.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit ridge (or, with --kernel, a kernel network) to a CSV")
    p_fit.add_argument("--input", required=True, help="CSV dataset path")
    p_fit.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="regularization strength")
    p_fit.add_argument("--order", type=_usage(_check_order), default=0,
                       help="bias-correction order (0 = plain ridge)")
    _add_kernel_args(p_fit, None)
    _add_output_args(p_fit)

    p_bv = sub.add_parser("bias-variance",
                          help="Monte-Carlo bias/variance on a synthetic benchmark")
    p_bv.add_argument("--model", type=int, choices=[1, 2], required=True)
    p_bv.add_argument("--lambda", dest="lam", type=_floats_arg("lambdas"), required=True,
                      help="one value or a comma-separated sweep")
    p_bv.add_argument("--order", type=_usage(_check_order), default=0)
    p_bv.add_argument("--n", type=int, default=100, help="rows per dataset")
    p_bv.add_argument("--reps", type=int, default=1000, help="Monte-Carlo repetitions")
    p_bv.add_argument("--snr", type=float, default=10.0)
    p_bv.add_argument("--seed", type=_seed_arg, default=0)
    _add_output_args(p_bv)

    p_st = sub.add_parser("stream", help="block-streaming comparison, linear family")
    src = p_st.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", type=int, choices=[1, 2],
                     help="synthetic benchmark id")
    src.add_argument("--input", help="CSV dataset to slice into a stream")
    _add_stream_args(p_st, blocks=20, block_size=100)
    p_st.set_defaults(kernel=None)
    _add_output_args(p_st)

    p_ks = sub.add_parser("kernel-stream",
                          help="block-streaming comparison, kernel family")
    p_ks.add_argument("--input", help="CSV dataset to slice (default: synthetic sine task)")
    _add_stream_args(p_ks, blocks=50, block_size=50)
    _add_kernel_args(p_ks, "gaussian")
    _add_output_args(p_ks)

    p_ch = sub.add_parser("chunks", help="slice a CSV dataset into equal-size chunks")
    p_ch.add_argument("--input", required=True)
    p_ch.add_argument("--m", type=int, default=20, help="number of chunks")
    p_ch.add_argument("--seed", type=_seed_arg, default=0)
    p_ch.add_argument("--out-dir", required=True, help="directory for chunk files")
    _add_output_args(p_ch)

    return parser


def _kernel_spec_from_args(args, rows) -> KernelSpec | None:
    """Build the kernel, resolving a 'median' bandwidth from the given rows; None without one."""
    if args.kernel is None:
        return None
    if args.kernel == "linear":
        return KernelSpec.linear()
    if args.kernel == "polynomial":
        return KernelSpec.polynomial(args.degree, args.offset)
    h = median_bandwidth(rows) if args.bandwidth == "median" else args.bandwidth
    return KernelSpec.gaussian(h)


def _cmd_fit(args):
    dataset = parse_csv_dataset(args.input)
    config = {
        "command": "fit",
        "input": args.input,
        "lambda": args.lam,
        "order": args.order,
        "family": "linear" if args.kernel is None else "kernel",
    }
    spec = _kernel_spec_from_args(args, dataset.features)
    if spec is None:
        model = fit_regularized(dataset, args.lam, args.order)
        results = {
            "intercept": model.intercept,
            "weights": [float(w) for w in model.weights],
        }
        rows = [{"name": "intercept", "value": model.intercept}]
        rows += [{"name": f"w{i}", "value": float(w)} for i, w in enumerate(model.weights)]
    else:
        model = fit_kernel_regularized(dataset, spec, args.lam, args.order)
        config["kernel"] = dataclasses.asdict(spec)
        results = {"coeffs": [float(c) for c in model.coeffs]}
        rows = [{"name": f"c{i}", "value": float(c)} for i, c in enumerate(model.coeffs)]
    return config, results, rows


def _cmd_bias_variance(args):
    spec = SyntheticSpec(model_id=f"model{args.model}", n=args.n, snr=args.snr, seed=args.seed)
    reports = []
    for lam in args.lam:
        rep = monte_carlo_bias_variance(spec, lam, args.order, args.reps)
        reports.append(
            {
                "lambda": rep.lam,
                "order": rep.order,
                "n": rep.n,
                "reps": rep.reps,
                "bias_norm": rep.bias_norm,
                "variance": rep.variance,
                "mse": rep.mse,
            }
        )
    config = {
        "command": "bias-variance",
        "model": args.model,
        "lambda": args.lam,
        "order": args.order,
        "n": args.n,
        "reps": args.reps,
        "snr": args.snr,
    }
    return config, reports, reports


def _stream_data(args, full: Dataset | None, seed: tuple):
    """One repetition's training blocks and test set.

    With --input, `full` is sliced into --blocks chunks and one random
    chunk becomes the test set.  Otherwise every block and the test set
    are fresh draws from the synthetic task of the family --kernel picks.
    """
    if full is not None:
        rng = np.random.default_rng((*seed, 2))
        blocks = slice_into_chunks(full, args.blocks, rng)
        return blocks, blocks.pop(int(rng.integers(args.blocks)))
    if args.kernel is None:
        def draw(n, rng):
            spec = SyntheticSpec(model_id=f"model{args.model}", n=n, snr=args.snr)
            return synth_block(spec, rng=rng)
    else:
        def draw(n, rng):
            return synth_nonlinear_block(n, rng=rng, snr=args.snr)
    blocks = [
        draw(args.block_size, np.random.default_rng((*seed, t, 0)))
        for t in range(1, args.blocks + 1)
    ]
    return blocks, draw(args.test_size, np.random.default_rng((*seed, 0, 0)))


def _rep_mean(series) -> list[float]:
    """Element-wise mean of per-rep series, summed in rep order."""
    arrays = [np.array(s) for s in series]
    return [float(v) for v in sum(arrays) / len(arrays)]


def _run_stream_command(args):
    _check_int(args.reps, "reps", 1)
    _check_int(args.blocks, "blocks", 1)
    if args.input:  # one chunk is the test set
        _check_int(args.blocks, "with --input, blocks", 2)
    cv = CvConfig(args.grid, args.folds)
    full = parse_csv_dataset(args.input) if args.input else None

    reports = []
    for rep in range(args.reps):
        blocks, test = _stream_data(args, full, (args.seed, rep))
        reports.append(run_block_stream(
            blocks, args.orders, test, cv=cv, seed=(args.seed, rep),
            classification=args.classification,
            kernel_spec=_kernel_spec_from_args(args, blocks[0].features),
        ))

    # metric -> column prefix in the CSV rows
    metrics = {"mse": "mse"}
    if args.classification:
        metrics["classification_error"] = "ce"
    results = {
        "t": list(range(1, len(reports[0].lambdas) + 1)),
        "lambda_mean": _rep_mean(r.lambdas for r in reports),
    }
    for metric in metrics:
        per_rep = [getattr(r, metric) for r in reports]
        results[metric] = {label: _rep_mean(s[label] for s in per_rep) for label in per_rep[0]}

    config = {
        "command": args.command,
        "family": "linear" if args.kernel is None else "kernel",
        "model": getattr(args, "model", None),
        "input": args.input,
        "blocks": args.blocks,
        "block_size": None if args.input else args.block_size,
        "test_size": None if args.input else args.test_size,
        "orders": args.orders,
        "reps": args.reps,
        "folds": args.folds,
        "grid": list(cv.grid),
        "snr": None if args.input else args.snr,
        "classification": args.classification,
    }
    if args.kernel is not None:
        config["kernel"] = {"kind": args.kernel, "bandwidth": args.bandwidth,
                            "degree": args.degree, "offset": args.offset}

    rows = []
    for i, t in enumerate(results["t"]):
        row = {"t": t, "lambda_mean": results["lambda_mean"][i]}
        for metric, prefix in metrics.items():
            for label, series in results[metric].items():
                row[f"{prefix}_{label}"] = series[i]
        rows.append(row)
    return config, results, rows


def _cmd_chunks(args):
    header, dataset = _read_csv_dataset(args.input)
    chunks = slice_into_chunks(dataset, args.m, np.random.default_rng(args.seed))
    os.makedirs(args.out_dir, exist_ok=True)
    width = len(str(args.m - 1))
    files = []
    for i, chunk in enumerate(chunks):
        path = os.path.join(args.out_dir, f"chunk_{i:0{width}d}.csv")
        write_csv_dataset(chunk, path, header=header)
        files.append(path)
    size = dataset.n_rows // args.m
    config = {"command": "chunks", "input": args.input, "m": args.m}
    results = {
        "files": files,
        "rows_per_chunk": size,
        "dropped_rows": dataset.n_rows - size * args.m,
    }
    rows = [{"chunk": i, "file": f, "rows": size} for i, f in enumerate(files)]
    return config, results, rows


COMMANDS = {
    "fit": _cmd_fit,
    "bias-variance": _cmd_bias_variance,
    "stream": _run_stream_command,
    "kernel-stream": _run_stream_command,
    "chunks": _cmd_chunks,
}


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _write_output(payload, rows, out, fmt) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            fieldnames = list(rows[0].keys())
            writer.writerow(fieldnames)
            for row in rows:
                writer.writerow([_csv_cell(row.get(name)) for name in fieldnames])
        text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _resolve_kernel_args(args)
    try:
        config, results, rows = COMMANDS[args.command](args)
        payload = {"config": config, "seed": getattr(args, "seed", None), "results": results}
        _write_output(payload, rows, args.out, args.format)
    except (BcregError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
