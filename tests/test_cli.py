import json

import numpy as np
import pytest

from primcoal.cli import main


def run(args):
    return main(args)


class TestCompareOrders:
    def test_exact_probabilities(self, tmp_path):
        out = tmp_path / "run"
        assert run(["compare-orders", "--out", str(out)]) == 0
        payload = json.loads((out / "compare_orders.json").read_text())
        assert payload["prim_probability"] == "1/4"
        assert payload["label_probability"] == "1/6"


class TestVerifyInvariants:
    def test_passes_on_seeded_suite(self, tmp_path):
        out = tmp_path / "run"
        assert run(["verify-invariants", "--seed", "3", "--replicates", "20", "--out", str(out)]) == 0
        payload = json.loads((out / "invariants.json").read_text())
        assert payload["failures"] == []


class TestSimulate:
    def test_additive_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            [
                "simulate-additive",
                "--n", "200",
                "--lambdas", "0.5,1.0",
                "--replicates", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "gamma_plus.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4 * 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n"] == 200
        assert "gamma_plus.csv" in manifest["outputs"]

    def test_multiplicative_routes_agree_on_shape(self, tmp_path):
        for route in ("graph", "walk"):
            out = tmp_path / route
            assert run(
                [
                    "simulate-multiplicative",
                    "--n", "100",
                    "--route", route,
                    "--replicates", "2",
                    "--out", str(out),
                ]
            ) == 0
            header = (out / "gamma_times.csv").read_text().splitlines()[0]
            assert header.startswith("replicate,lambda,gamma_1")

    def test_trace_writes_per_lambda(self, tmp_path):
        out = tmp_path / "run"
        assert run(["trace", "--n", "100", "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert sum(name.startswith("trace_lambda_") for name in files) == 3


    def test_trace_above_field_limit_writes_sparse_walk(self, tmp_path):
        out = tmp_path / "run"
        assert run(["trace", "--n", "5000", "--lambdas=0", "--out", str(out)]) == 0
        lines = (out / "trace_lambda_p0_000.csv").read_text().splitlines()
        assert lines[0] == "index,z"
        rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
        assert [k for k, _ in rows] == list(range(5002))
        z = np.array([v for _, v in rows])
        assert z[0] == 0 and (z >= 0).all() and (np.diff(z) >= -1).all()

class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate-multiplicative", "--n", "150", "--replicates", "3", "--seed", "11"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b), "--workers", "2"]) == 0
        for name in ("gamma_times.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_sparse_trace_rerun_byte_identical(self, tmp_path):
        # above the field limit, so the walk comes from the sparse hit draws
        args = ["trace", "--n", "5000", "--lambdas=0,1", "--seed", "7"]
        runs = []
        for k, workers in enumerate(["1", "1", "2", "2"]):
            out = tmp_path / f"run{k}"
            assert run(args + ["--workers", workers, "--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(runs[0]) == [
            "manifest.json", "trace_lambda_p0_000.csv", "trace_lambda_p1_000.csv"
        ]
        assert all(r == runs[0] for r in runs[1:])


class TestConfigHandling:
    def test_config_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 64, "lambdas": [0.0]}))
        out = tmp_path / "run"
        assert run(["simulate-additive", "--config", str(cfg), "--replicates", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n"] == 64

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit):
            run(["simulate-additive", "--config", str(cfg), "--out", str(tmp_path / "x")])

    def test_flag_not_applicable_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["compare-orders", "--n", "5", "--out", str(tmp_path / "x")])


class TestWalkRouteSize:
    @pytest.mark.parametrize(
        "argv",
        [["simulate-multiplicative", "--route", "walk"], ["augmented"]],
        ids=["simulate-multiplicative", "augmented"],
    )
    def test_oversize_n_refused_early(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        with pytest.raises(SystemExit):
            run(argv + ["--n", "5000", "--out", str(out)])
        assert "4096" in capsys.readouterr().err
        assert not out.exists()


class TestSizeFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["trace", "--n", "0"], "--n"),
            (["simulate-multiplicative", "--n", "0"], "--n"),
            (["limit-compare", "--replicates", "0"], "--replicates"),
            (["simulate-additive", "--replicates", "-3"], "--replicates"),
        ],
        ids=["trace-n", "simulate-multiplicative-n", "limit-compare-replicates", "negative"],
    )
    def test_below_one_refused_early(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_one_accepted(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate-multiplicative", "--n", "1", "--replicates", "1", "--out", str(out)]) == 0
        lines = (out / "gamma_times.csv").read_text().splitlines()
        assert len(lines) == 2


class TestOutDirectory:
    def test_existing_empty_out_accepted(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        assert run(["compare-orders", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["compare_orders.json"]

    def test_nonempty_out_refused(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "stale.csv").write_text("keep me\n")
        with pytest.raises(SystemExit):
            run(["compare-orders", "--out", str(out)])
        assert "not empty" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["stale.csv"]
        assert (out / "stale.csv").read_text() == "keep me\n"


class TestLimitCompare:
    def test_small_additive_run(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            [
                "limit-compare",
                "--kind", "additive",
                "--n", "1000",
                "--lam", "1.0",
                "--replicates", "60",
                "--out", str(out),
            ]
        )
        assert code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["passed"] is True
