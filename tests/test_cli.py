"""CLI tests: CSV ingestion, command dispatch, and output determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bcreg import (
    CsvFormatError,
    CsvParseError,
    Dataset,
    InsufficientDataError,
    InvalidParameterError,
    ShapeError,
    fit_regularized,
)
from bcreg.cli import _parser, _run_stream_command, main, parse_csv_dataset, write_csv_dataset


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports bcreg from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )


def run_module(*args):
    """Run ``python -m bcreg`` in a fresh interpreter, with its default warning filters."""
    return run_python("-m", "bcreg", *args)


class TestParseCsvDataset:
    def test_basic(self, tmp_path):
        path = write(tmp_path / "d.csv", "x1,x2,y\n1,2,3\n4,5,6\n")
        ds = parse_csv_dataset(path)
        assert ds.features.shape == (2, 2)
        np.testing.assert_array_equal(ds.targets, [3.0, 6.0])

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "x1,x2,y\n1,abc,3\n")
        with pytest.raises(CsvParseError) as err:
            parse_csv_dataset(path)
        assert err.value.row == 1
        assert err.value.column == 2
        assert "row 1" in str(err.value) and "column 2" in str(err.value)

    def test_bad_cell_after_good_rows_and_cells(self, tmp_path):
        """The first bad cell is named after earlier cells of its row were already parsed."""
        path = write(tmp_path / "d.csv", "x1,x2,x3,y\n1,2,3,4\n5,6,zz,8\n")
        with pytest.raises(CsvParseError, match="row 2, column 3: cannot parse 'zz'") as err:
            parse_csv_dataset(path)
        assert (err.value.row, err.value.column) == (2, 3)

    def test_quoted_cells_and_blank_lines(self, tmp_path):
        path = write(tmp_path / "d.csv", '"x1","x2",y\n"1.5",2,-3\n\n4," 5e-1 ","6"\n\n')
        ds = parse_csv_dataset(path)
        np.testing.assert_array_equal(ds.features, [[1.5, 2.0], [4.0, 0.5]])
        np.testing.assert_array_equal(ds.targets, [-3.0, 6.0])

    def test_every_cell_is_its_float_within_three_times_the_data(self, tmp_path):
        """A 2000 x 21 file parses to float() of each cell, peaking under 3x the data's bytes."""
        rng = np.random.default_rng(20)
        values = rng.normal(size=(2000, 21)) * 10.0 ** rng.integers(-6, 6, size=(2000, 21))
        formats = np.array(["{:.17g}", "{:.4e}", "{:.0f}", "{!r}"])
        formats = formats[rng.integers(4, size=values.shape)]
        rows = [",".join(map(str.format, fr, vr)) for fr, vr in zip(formats, values.tolist())]
        path = write(tmp_path / "big.csv", "\n".join([",".join(f"c{j}" for j in range(21)), *rows]))
        expected = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        tracemalloc.start()
        try:
            ds = parse_csv_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(ds.features, expected[:, :-1])
        np.testing.assert_array_equal(ds.targets, expected[:, -1])
        assert peak < 3 * (ds.features.nbytes + ds.targets.nbytes)

    def test_header_only(self, tmp_path):
        path = write(tmp_path / "d.csv", "x1,x2,y\n")
        with pytest.raises(InsufficientDataError):
            parse_csv_dataset(path)

    def test_single_column_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "y\n1\n2\n")
        with pytest.raises(CsvFormatError):
            parse_csv_dataset(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "x1,x2,y\n1,2,3\n4,5\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            parse_csv_dataset(path)

    def test_non_utf8_rejected(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n\xff\xfe,1\n")
        with pytest.raises(CsvFormatError, match="not UTF-8"):
            parse_csv_dataset(path)
        assert main(["fit", "--input", str(path), "--lambda", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        ds = Dataset(
            features=rng.normal(size=(13, 3)) * 10.0 ** rng.integers(-8, 8, size=(13, 3)),
            targets=rng.normal(size=13),
        )
        path = tmp_path / "rt.csv"
        write_csv_dataset(ds, path)
        back = parse_csv_dataset(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.targets, ds.targets)

    def test_header_must_name_every_column(self, tmp_path):
        """A header without one name per feature plus the target is refused, not written."""
        ds = Dataset(features=np.zeros((2, 1)), targets=np.zeros(2))
        for header in (["x"], ["a", "b", "y"]):
            path = tmp_path / "h.csv"
            with pytest.raises(ShapeError, match="expected 2"):
                write_csv_dataset(ds, path, header=header)
            assert not path.exists()


@pytest.fixture
def spam_like(tmp_path):
    """A small +-1-labelled dataset with a learnable direction."""
    rng = np.random.default_rng(55)
    x = rng.normal(size=(120, 3))
    y = np.where(x @ np.array([1.0, -0.5, 0.2]) > 0, 1.0, -1.0)
    rows = ["a,b,c,label"]
    rows += [",".join(f"{v:.10g}" for v in list(x[i]) + [y[i]]) for i in range(120)]
    path = tmp_path / "labels.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


class TestFitCommand:
    def test_linear_fit_matches_library(self, tmp_path, capsys):
        path = write(tmp_path / "d.csv", "x1,x2,y\n1,2,3\n4,5,6\n2,1,0\n")
        rc = main(["fit", "--input", path, "--lambda", "0.5", "--order", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        model = fit_regularized(parse_csv_dataset(path), 0.5, 1)
        np.testing.assert_allclose(payload["results"]["weights"], model.weights)
        assert payload["results"]["intercept"] == pytest.approx(model.intercept)

    def test_kernel_fit_with_median_bandwidth(self, tmp_path, capsys):
        path = write(tmp_path / "d.csv", "x,y\n0,1\n1,0\n2,1\n3,0\n")
        rc = main(["fit", "--input", path, "--lambda", "0.1", "--kernel", "gaussian"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]["coeffs"]) == 4
        assert payload["config"]["kernel"]["bandwidth"] > 0

    def test_missing_file_is_operation_error(self, tmp_path, capsys):
        """A missing or empty input file exits 1 with an error line."""
        empty = write(tmp_path / "empty.csv", "")
        for path, message in ((str(tmp_path / "nope.csv"), ""),
                              (empty, "empty file, expected a header row")):
            rc = main(["fit", "--input", path, "--lambda", "1"])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err

    def test_non_psd_kernel_is_operation_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = [f"{x:.17g},{y:.17g}" for x, y in rng.normal(size=(30, 2))]
        path = write(tmp_path / "d.csv", "x,y\n" + "\n".join(rows) + "\n")
        rc = main(["fit", "--input", path, "--lambda", "1e-6",
                   "--kernel", "polynomial", "--degree", "3", "--offset", "-5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "not positive semi-definite" in err

    def test_overflowing_median_bandwidth_is_operation_error(self, tmp_path, capsys):
        path = write(tmp_path / "d.csv", "x,y\n1e200,1\n-1e200,0\n0,1\n")
        rc = main(["fit", "--input", path, "--lambda", "0.1", "--kernel", "gaussian"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "pairwise distance is not finite" in err


class TestUsageErrors:
    def test_unknown_model_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--model", "9"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["bias-variance", "--model", "1", "--lambda", "0.1", "--seed", "-3"])

    def test_bad_seed_and_order_are_usage_errors(self, tmp_path, capsys):
        """--seed, --order, --orders and --grid go through the library's checks; a failure
        exits 2, as does fit's removed --family (the --kernel choice picks the family)."""
        bv = ["bias-variance", "--model", "1", "--lambda", "0.1"]
        cases = [
            (["stream", "--model", "1", "--seed", "-1"], "seed must be an integer >= 0"),
            (["chunks", "--input", "x.csv", "--out-dir", str(tmp_path), "--seed", "-2"],
             "seed must be an integer >= 0"),
            (bv + ["--seed", "1.5"], "invalid literal"),
            (bv + ["--order", "-1"], "order must be an integer >= 0"),
            (["fit", "--input", "x.csv", "--lambda", "1", "--order", "-1"],
             "order must be an integer >= 0"),
            (["stream", "--model", "1", "--orders", "0,-1"], "order must be an integer >= 0"),
            (["kernel-stream", "--orders", ","], "nonempty"),
            (["kernel-stream", "--orders", "0,x"], "invalid literal"),
            (["stream", "--model", "1", "--grid", "x"], "could not convert string to float"),
            (["kernel-stream", "--grid", ","], "nonempty"),
            (["fit", "--input", "x.csv", "--lambda", "1", "--family", "linear"],
             "unrecognized arguments: --family"),
        ]
        for argv, message in cases:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err, argv

    def test_repeated_orders_rejected(self, capsys):
        for command in (["stream", "--model", "1"], ["kernel-stream"]):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--blocks", "2", "--orders", "0,1,0"])
            assert exc.value.code == 2
            assert "repeat" in capsys.readouterr().err

    def test_nonpositive_blocks_is_operation_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        for command in (["stream", "--model", "1"], ["kernel-stream"]):
            for blocks in ("0", "-1"):
                assert main(command + ["--blocks", blocks, "--out", str(out)]) == 1
                assert "error: blocks must be an integer >= 1" in capsys.readouterr().err
                assert not out.exists()

    def test_one_input_block_is_operation_error(self, spam_like, tmp_path, capsys):
        """With --input one chunk is the test set, so --blocks 1 leaves no training block."""
        out = tmp_path / "r.json"
        for command in ("stream", "kernel-stream"):
            rc = main([command, "--input", spam_like, "--blocks", "1", "--out", str(out)])
            assert rc == 1
            assert "error: with --input, blocks must be an integer >= 2" in capsys.readouterr().err
            assert not out.exists()

    def test_stream_count_checks_raise_parameter_errors(self, spam_like):
        """--reps and --blocks out of range raise InvalidParameterError, not the base class."""
        cases = [
            (["stream", "--model", "1", "--reps", "0"], "reps must be an integer >= 1"),
            (["kernel-stream", "--blocks", "0"], "blocks must be an integer >= 1"),
            (["stream", "--input", spam_like, "--blocks", "1"],
             "with --input, blocks must be an integer >= 2"),
        ]
        for argv, message in cases:
            with pytest.raises(InvalidParameterError, match=message):
                _run_stream_command(_parser().parse_args(argv))

    def test_module_entry_point(self):
        proc = run_module("--help")
        assert proc.returncode == 0, proc.stderr
        assert "kernel-stream" in proc.stdout

    def test_startup_loads_no_heavy_scipy_subpackage(self, tmp_path):
        """Startup and the kernel commands load no scipy; a linear stream loads scipy.linalg only.

        ``import bcreg``, ``--help``, a synthetic ``kernel-stream`` and a
        median-bandwidth kernel ``fit`` run on numpy alone, without
        ``numpy.ma`` either; ``scipy.linalg`` loads at the first Cholesky
        solve of a linear fit.
        """
        heavy = ("scipy.integrate", "scipy.spatial", "scipy.optimize", "scipy.special",
                 "scipy.sparse")
        data = write(tmp_path / "d.csv", "x1,x2,y\n0,1,1\n1,0.5,0\n2,3,1\n3,1,0\n")
        out = str(tmp_path / "out.json")
        tiny = ["--blocks", "2", "--block-size", "20", "--test-size", "20", "--out", out]
        numpy_only = [
            ["-c", "import bcreg, bcreg.cli"],
            ["-m", "bcreg", "--help"],
            ["-m", "bcreg", "kernel-stream", *tiny],
            ["-m", "bcreg", "fit", "--kernel", "gaussian", "--bandwidth", "median",
             "--input", data, "--lambda", "0.1", "--out", out],
        ]
        linear = [["-m", "bcreg", "stream", "--model", "1", *tiny]]
        for args in numpy_only + linear:
            proc = run_python("-X", "importtime", *args)
            assert proc.returncode == 0, proc.stderr
            # each -X importtime line ends with "| <module name>"
            loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
            scipy_modules = {m for m in loaded if m == "scipy" or m.startswith("scipy.")}
            if args in numpy_only:
                assert not scipy_modules, args
                assert not {m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")}, args
            else:
                assert "scipy.linalg" in scipy_modules, args
                assert not {m for m in scipy_modules if m.startswith(heavy)}, args

    def test_parser_is_built_once_and_results_do_not_drift(self, tmp_path, capsys):
        """Alternating commands through one cached parser gives each call's first output."""
        data = write(tmp_path / "d.csv", "x1,x2,y\n0,1,1\n1,0.5,0\n2,3,1\n3,1,0\n4,2,1\n")
        tiny = ["--blocks", "3", "--block-size", "20", "--test-size", "20"]
        calls = [
            ["kernel-stream", *tiny, "--orders", "1", "--bandwidth", "0.7", "--seed", "2"],
            ["stream", "--model", "1", *tiny],
            ["kernel-stream", *tiny],
            ["fit", "--input", data, "--lambda", "0.1", "--kernel", "gaussian"],
            ["bias-variance", "--model", "2", "--lambda", "0.1", "--reps", "5", "--n", "20"],
            ["stream", "--model", "2", *tiny, "--orders", "0,2", "--format", "csv"],
            ["fit", "--input", data, "--lambda", "0.1"],
            ["fit", "--input", data, "--lambda", "0.1", "--kernel", "linear"],
        ]

        def outputs():
            results = []
            for argv in calls:
                assert main(argv) == 0, argv
                results.append(capsys.readouterr().out)
            return results

        first = outputs()
        with pytest.raises(SystemExit):
            main(["stream", "--model", "9"])
        capsys.readouterr()
        assert outputs() == first
        calls.reverse()
        assert outputs() == first[::-1]
        assert _parser() is _parser()


class TestBiasVarianceCommand:
    def test_report_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = [
            "bias-variance", "--model", "1", "--lambda", "0.1,1.0", "--order", "0",
            "--n", "120", "--reps", "40", "--seed", "5",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert len(payload["results"]) == 2
        for row in payload["results"]:
            assert row["mse"] == pytest.approx(
                row["bias_norm"] ** 2 + row["variance"], rel=1e-9
            )

    def test_order1_bias_tracks_closed_form(self, tmp_path):
        out = tmp_path / "bv.json"
        rc = main(
            [
                "bias-variance", "--model", "1", "--lambda", "0.1", "--order", "1",
                "--n", "2000", "--reps", "300", "--seed", "7", "--out", str(out),
            ]
        )
        assert rc == 0
        bias = json.loads(out.read_text())["results"][0]["bias_norm"]
        assert abs(bias - 0.435736) / 0.435736 <= 0.15

    def test_csv_format(self, tmp_path):
        out = tmp_path / "a.csv"
        rc = main(
            [
                "bias-variance", "--model", "2", "--lambda", "0.5", "--n", "60",
                "--reps", "10", "--seed", "1", "--format", "csv", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,order,n,reps,bias_norm,variance,mse"
        assert len(lines) == 2


class TestStreamCommand:
    def test_synthetic_stream_shape_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = [
            "stream", "--model", "1", "--blocks", "4", "--block-size", "60",
            "--test-size", "200", "--orders", "0,1", "--reps", "2", "--seed", "7",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        results = json.loads(out1.read_text())["results"]
        assert results["t"] == [1, 2, 3, 4]
        assert set(results["mse"]) == {"rr", "bcrr"}
        assert len(results["mse"]["bcrr"]) == 4
        assert all(np.isfinite(v) for v in results["mse"]["rr"])

    def test_higher_orders_get_suffixed_labels(self, tmp_path):
        out = tmp_path / "r.json"
        args = [
            "stream", "--model", "1", "--blocks", "2", "--block-size", "50",
            "--test-size", "100", "--orders", "1,2,3", "--reps", "1", "--seed", "3",
            "--out", str(out),
        ]
        assert main(args) == 0
        results = json.loads(out.read_text())["results"]
        assert set(results["mse"]) == {"bcrr", "bcrr-2", "bcrr-3"}

    def test_real_data_stream_with_classification(self, spam_like, tmp_path):
        out = tmp_path / "r.json"
        args = [
            "stream", "--input", spam_like, "--blocks", "5", "--orders", "0,1",
            "--reps", "2", "--folds", "4", "--classification", "--seed", "11",
            "--out", str(out),
        ]
        assert main(args) == 0
        results = json.loads(out.read_text())["results"]
        # 5 chunks, one held out for testing -> 4 stream steps
        assert results["t"] == [1, 2, 3, 4]
        assert set(results["classification_error"]) == {"rr", "bcrr"}
        ce = results["classification_error"]["rr"]
        assert all(0.0 <= v <= 1.0 for v in ce)

    def test_classification_of_regression_targets_is_operation_error(self, tmp_path, capsys):
        """--classification needs +-1 targets; real-valued ones exit 1 instead of scoring 1.0."""
        rng = np.random.default_rng(56)
        x = rng.normal(size=(60, 2))
        src = tmp_path / "regression.csv"
        write_csv_dataset(Dataset(features=x, targets=x @ np.array([1.0, -2.0])), src)
        out = tmp_path / "r.json"
        args = ["stream", "--input", str(src), "--blocks", "3", "--folds", "4",
                "--classification", "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: block 1:") and "-1 or +1" in err
        assert not out.exists()
        assert main(args[:-3] + ["--out", str(out)]) == 0  # without --classification

    def test_csv_output_columns(self, tmp_path):
        out = tmp_path / "r.csv"
        args = [
            "stream", "--model", "2", "--blocks", "2", "--block-size", "40",
            "--test-size", "80", "--orders", "0,1", "--reps", "1", "--seed", "2",
            "--format", "csv", "--out", str(out),
        ]
        assert main(args) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,lambda_mean,mse_rr,mse_bcrr"
        assert len(lines) == 3

    def test_non_finite_grid_is_operation_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        args = [
            "stream", "--model", "1", "--blocks", "2", "--block-size", "40",
            "--test-size", "80", "--grid", "0.1,nan", "--out", str(out),
        ]
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestKernelStreamCommand:
    def test_synthetic_kernel_stream(self, tmp_path):
        out1, out2 = tmp_path / "k1.json", tmp_path / "k2.json"
        args = [
            "kernel-stream", "--blocks", "3", "--block-size", "40",
            "--test-size", "120", "--orders", "0,1", "--reps", "2", "--seed", "9",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        results = json.loads(out1.read_text())["results"]
        assert set(results["mse"]) == {"rkn", "bcrkn"}
        assert len(results["mse"]["rkn"]) == 3

    def test_orders_above_one(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        args = [
            "kernel-stream", "--blocks", "2", "--block-size", "30", "--test-size", "60",
            "--orders", "0,1,2,3", "--reps", "1", "--seed", "3", "--out", str(out),
        ]
        assert main(args) == 0
        results = json.loads(out.read_text())["results"]
        assert set(results["mse"]) == {"rkn", "bcrkn", "bcrkn-2", "bcrkn-3"}
        path = write(tmp_path / "d.csv", "x,y\n0,1\n1,0\n2,1\n3,0\n")
        assert main(["fit", "--input", path, "--lambda", "0.1", "--kernel", "gaussian",
                     "--order", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["order"] == 2

    def test_numeric_bandwidth(self, tmp_path):
        out = tmp_path / "k.json"
        args = [
            "kernel-stream", "--blocks", "2", "--block-size", "30",
            "--test-size", "60", "--orders", "0", "--reps", "1", "--seed", "4",
            "--bandwidth", "0.8", "--out", str(out),
        ]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["kernel"]["bandwidth"] == 0.8

    def test_unread_kernel_option_is_usage_error(self, tmp_path, capsys):
        """A kernel option that the chosen kernel does not read exits 2 and writes nothing;
        fit without --kernel reads none of them."""
        data = write(tmp_path / "d.csv", "x,y\n0,1\n1,0\n2,1\n3,0\n")
        out = tmp_path / "out.json"
        cases = [
            (["fit", "--input", data, "--lambda", "0.1", "--bandwidth", "0.5"], "--bandwidth"),
            (["kernel-stream", "--kernel", "linear", "--degree", "9"], "--degree"),
            (["kernel-stream", "--offset", "1"], "--offset"),
        ]
        for argv, option in cases:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(out)])
            assert exc.value.code == 2
            assert f"{option} applies only to" in capsys.readouterr().err
            assert not out.exists()

    def test_gaussian_echo_keeps_every_kernel_option(self, tmp_path):
        """Unset kernel options resolve to their defaults, and the echo keeps all four."""
        out = tmp_path / "k.json"
        assert main(["kernel-stream", "--blocks", "2", "--block-size", "20", "--test-size",
                     "20", "--orders", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["kernel"] == {
            "kind": "gaussian", "bandwidth": "median", "degree": 2, "offset": 0.0,
        }

    def test_non_finite_bandwidth_is_usage_error(self, capsys):
        for h in ("inf", "nan"):
            with pytest.raises(SystemExit) as exc:
                main(["kernel-stream", "--blocks", "2", "--block-size", "30",
                      "--bandwidth", h])
            assert exc.value.code == 2
            assert "finite" in capsys.readouterr().err

    def test_overflowing_kernel_is_operation_error(self, tmp_path):
        out = tmp_path / "k.json"
        base = ["kernel-stream", "--kernel", "polynomial", "--degree", "400", "--blocks", "2",
                "--block-size", "20", "--test-size", "20", "--out", str(out)]
        for offset in ("5", "nan"):
            proc = run_module(*base, "--offset", offset)
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.startswith("error:"), proc.stderr
            assert "RuntimeWarning" not in proc.stderr
            assert not out.exists()

    def test_non_psd_kernel_is_operation_error(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        rc = main(["kernel-stream", "--kernel", "polynomial", "--degree", "3", "--offset", "-5",
                   "--blocks", "2", "--block-size", "20", "--test-size", "20", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not positive semi-definite" in err
        assert not out.exists()

    def test_real_data_stream_with_classification(self, spam_like, tmp_path):
        out1, out2 = tmp_path / "k1.json", tmp_path / "k2.json"
        args = [
            "kernel-stream", "--input", spam_like, "--blocks", "5", "--orders", "0,1",
            "--reps", "2", "--folds", "4", "--classification", "--seed", "11",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        results = json.loads(out1.read_text())["results"]
        # 5 chunks, one held out for testing -> 4 stream steps
        assert results["t"] == [1, 2, 3, 4]
        assert len(results["lambda_mean"]) == 4
        for metric in ("mse", "classification_error"):
            assert set(results[metric]) == {"rkn", "bcrkn"}
            assert all(len(series) == 4 for series in results[metric].values())
        for series in results["classification_error"].values():
            assert all(0.0 <= v <= 1.0 for v in series)


class TestChunksCommand:
    def test_chunk_files_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(77)
        ds = Dataset(features=rng.normal(size=(43, 2)), targets=rng.normal(size=43))
        src = tmp_path / "full.csv"
        write_csv_dataset(ds, src, header=["f1", "f2", "target"])
        out_dir = tmp_path / "chunks"
        rc = main(
            ["chunks", "--input", str(src), "--m", "4", "--seed", "6",
             "--out-dir", str(out_dir)]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["rows_per_chunk"] == 10
        assert payload["results"]["dropped_rows"] == 3
        files = payload["results"]["files"]
        assert len(files) == 4
        all_targets = []
        for f in files:
            with open(f, encoding="utf-8") as fh:
                assert fh.readline() == "f1,f2,target\n"
            chunk = parse_csv_dataset(f)
            assert chunk.n_rows == 10
            assert (f.split("/")[-1]).startswith("chunk_")
            all_targets.extend(chunk.targets.tolist())
        # chunk rows are original rows: every target must appear in the source
        assert set(np.round(all_targets, 12)) <= set(np.round(ds.targets, 12))

    def test_chunk_files_deterministic(self, tmp_path, capsys):
        rng = np.random.default_rng(78)
        ds = Dataset(features=rng.normal(size=(20, 2)), targets=rng.normal(size=20))
        src = tmp_path / "full.csv"
        write_csv_dataset(ds, src)
        d1, d2 = tmp_path / "c1", tmp_path / "c2"
        for d in (d1, d2):
            assert main(
                ["chunks", "--input", str(src), "--m", "5", "--seed", "3",
                 "--out-dir", str(d)]
            ) == 0
        capsys.readouterr()
        for i in range(5):
            assert (d1 / f"chunk_{i}.csv").read_bytes() == (d2 / f"chunk_{i}.csv").read_bytes()
