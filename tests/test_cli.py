import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import primcoal
import primcoal.cli
from primcoal.cli import WRITE_BLOCK, _COMMON, _DEFAULTS, _KEYS, _run_replicates, _trace_name, _write_rows, main
from primcoal.graphs import GraphError
from primcoal.multiplicative import SparseField, p_lambda, sparse_z_trace
from primcoal.walks import LatticePath


def run(args):
    return main(args)


class TestCompareOrders:
    def test_exact_probabilities(self, tmp_path):
        out = tmp_path / "run"
        assert run(["compare-orders", "--out", str(out)]) == 0
        payload = json.loads((out / "compare_orders.json").read_text())
        assert payload["prim_probability"] == "1/4"
        assert payload["label_probability"] == "1/6"


def _raise_graph_error(*args):
    raise GraphError("not an interval")


class TestVerifyInvariants:
    def test_passes_on_seeded_suite(self, tmp_path):
        out = tmp_path / "run"
        assert run(["verify-invariants", "--seed", "3", "--replicates", "20", "--out", str(out)]) == 0
        payload = json.loads((out / "invariants.json").read_text())
        assert payload["failures"] == []

    @pytest.mark.parametrize(
        "name, fake, failure",
        [
            ("level_components", _raise_graph_error, "prim-interval trial {}: not an interval"),
            ("component_surpluses", lambda z, s: [], "surplus identity trial {}"),
            ("explore", lambda g, t, o: LatticePath([0]), "explore/z_walk mismatch trial {}"),
            ("walk_component_sizes", lambda z: [], "excursion/component mismatch trial {}"),
        ],
        ids=["prim-interval", "surplus", "explore", "excursion"],
    )
    def test_fails_when_an_identity_breaks(self, tmp_path, monkeypatch, name, fake, failure):
        monkeypatch.setattr(primcoal.cli, name, fake)
        out = tmp_path / "run"
        assert run(["verify-invariants", "--seed", "3", "--replicates", "2", "--out", str(out)]) == 1
        payload = json.loads((out / "invariants.json").read_text())
        assert payload["failures"] == [failure.format(k) for k in range(2)]


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
        assert files == [
            "manifest.json", "trace_lambda_m1_000.csv", "trace_lambda_p0_000.csv", "trace_lambda_p1_000.csv"
        ]
        walks = []
        for name in files[1:]:
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "index,z"
            walks.append(np.array([int(line.split(",")[1]) for line in lines[1:]]))
        # one coupled field: Z only grows with lambda
        assert (walks[0] <= walks[1]).all() and (walks[1] <= walks[2]).all()

    def test_trace_above_field_limit_writes_sparse_walk(self, tmp_path):
        out = tmp_path / "run"
        assert run(["trace", "--n", "5000", "--lambdas=0", "--out", str(out)]) == 0
        lines = (out / "trace_lambda_p0_000.csv").read_text().splitlines()
        assert lines[0] == "index,z"
        rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
        assert [k for k, _ in rows] == list(range(5002))
        z = np.array([v for _, v in rows])
        assert z[0] == 0 and (z >= 0).all() and (np.diff(z) >= -1).all()


def _csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


class TestWriteRows:
    @pytest.mark.parametrize(
        "rows",
        [
            [[0, -3, 7], [12, 0, -1]],
            [[1, -0.0, 1e-300], [2, 1e16, float("nan")], [-3, float("inf"), 0.1 + 0.2]],
            [],
            np.zeros((4, 3), dtype=np.int64),
            np.arange(0, 15).reshape(-1, 1),
            # the largest accepted value, in the trace's dtype
            np.array([[0, 2**32 - 1], [2**31 + 3, 2**31 - 4]], dtype=np.uint32),
            np.array([[0, 255], [10, 9]], dtype=np.uint8),
            np.column_stack((
                np.arange(2 * WRITE_BLOCK + 5),
                np.concatenate([np.arange(WRITE_BLOCK) % 10, 1001 * np.arange(WRITE_BLOCK), np.arange(5)]),
            )),
            np.empty((0, 2), dtype=np.int64),
            # wider types are cast to uint32 without wrapping at 2**32 - 1
            np.array([[2**32 - 1, 0, 2**32 - 2], [0, 9, 4]]),
            np.array([[2**32 - 8, 2**32 - 7], [2**31 - 7, 0]], dtype=np.uint64),
            # the layout of the array never changes its bytes
            np.asfortranarray(np.array([[43, 0, 540], [34, 110, 40], [49, 50, 29]])),
            np.arange(0, 21, dtype=np.int32).reshape(3, 7).T,
            np.arange(0, 90).reshape(15, 6)[::2, 1::2],
        ],
        ids=[
            "ints", "floats", "empty", "zeros", "one-column", "uint32-max", "uint8", "blocks", "empty-array",
            "uint32-edge", "uint32-edge-unsigned", "fortran-order", "transposed-view", "strided-view",
        ],
    )
    def test_matches_csv_writer(self, tmp_path, rows):
        header = ["a", "b", "c"][: rows.shape[1] if isinstance(rows, np.ndarray) else 3]
        path = tmp_path / "rows.csv"
        _write_rows(str(path), header, rows)
        expected = rows.tolist() if isinstance(rows, np.ndarray) else rows
        assert path.read_bytes() == _csv_writer_bytes(header, expected)

    @pytest.mark.parametrize(
        "rows",
        [
            np.arange(-6, 14, dtype=np.int64).reshape(10, 2),
            np.array([[np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1], [0, 1, -10]]),
            np.arange(-12, 3).reshape(-1, 1),
            np.array([[5, -5, 0], [-100, 100, 7], [0, -7, 10]]),
            np.array([[-(2**31), 2**31 - 1], [3, -4]], dtype=np.int32),
            np.column_stack((
                np.arange(2 * WRITE_BLOCK + 5),
                np.concatenate([np.arange(WRITE_BLOCK) % 10, -1001 * np.arange(WRITE_BLOCK), np.arange(5)]),
            )),
            np.array([[2**63, 0], [2**64 - 1, 5], [1, 2**63 - 1]], dtype=np.uint64),
            np.array([[2**32 - 1, 2**32, -(2**32 - 1)], [0, 9, 4]]),
            np.array([[-(2**32), 2**32 - 1], [1, -1]]),
            np.array([[2**32 - 1, 2**32], [2**31, 7]], dtype=np.uint64),
            np.asfortranarray(np.array([[3, -40, 500], [-6, 70, 0], [9, 10, -11]])),
            np.arange(-9, 12, dtype=np.int32).reshape(3, 7).T,
            np.arange(-30, 60).reshape(15, 6)[::2, 1::2],
        ],
        ids=[
            "int64-array", "int64-extremes", "one-column", "mixed-sign", "int32", "blocks", "uint64-top-bit",
            "uint32-edge", "uint32-edge-negative", "uint32-edge-unsigned", "fortran-order", "transposed-view",
            "strided-view",
        ],
    )
    def test_out_of_range_array_refused(self, tmp_path, rows):
        # a negative value, or one of 2**32 or more, is refused, never written wrong
        with pytest.raises(ValueError, match=r"array rows must lie in \[0, 2\*\*32\)"):
            _write_rows(str(tmp_path / "rows.csv"), ["a", "b", "c"][: rows.shape[1]], rows)

    def test_float_array_refused(self, tmp_path):
        with pytest.raises(TypeError, match="array rows must be integers"):
            _write_rows(str(tmp_path / "rows.csv"), ["a"], np.zeros((2, 1)))

    def test_trace_matches_csv_writer(self, tmp_path):
        out = tmp_path / "run"
        assert run(["trace", "--n", "5000", "--lambdas=0", "--seed", "5", "--out", str(out)]) == 0
        z = sparse_z_trace(5000, 0.0, np.random.default_rng(5)).tolist()
        expected = _csv_writer_bytes(["index", "z"], list(enumerate(z)))
        assert (out / "trace_lambda_p0_000.csv").read_bytes() == expected

    @pytest.mark.parametrize(
        "n, lambdas",
        [(WRITE_BLOCK - 2, [0.0]), (WRITE_BLOCK - 1, [0.0]), (5000, [-1.0, 0.5, 2.0])],
        ids=["rows-one-block", "rows-one-block-and-one", "three-lambdas"],
    )
    def test_trace_blocks_match_row_array(self, tmp_path, n, lambdas):
        # the trace's n + 2 rows, written by blocks, give the bytes of the one
        # (n + 2, 2) row array of index and Z
        out = tmp_path / "run"
        argv = ["trace", "--n", str(n), "--lambdas=" + ",".join(map(str, lambdas)), "--seed", "4"]
        assert run(argv + ["--out", str(out)]) == 0
        ps = [p_lambda(n, lam) for lam in lambdas]
        field = SparseField.sample(n, max(ps), np.random.default_rng(4))
        for lam, p in zip(lambdas, ps):
            z = field.walk(p)[0]
            path = tmp_path / "rows.csv"
            _write_rows(str(path), ["index", "z"], np.column_stack((np.arange(n + 2), np.append(z, 0))))
            assert (out / _trace_name(lam)).read_bytes() == path.read_bytes()


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        for route in ("graph", "walk"):
            a, b = tmp_path / f"{route}_a", tmp_path / f"{route}_b"
            args = ["simulate-multiplicative", "--n", "150", "--replicates", "3", "--seed", "11"]
            args += ["--route", route, "--lambdas=-1,0,1"]
            assert run(args + ["--out", str(a)]) == 0
            assert run(args + ["--out", str(b), "--workers", "2"]) == 0
            for name in ("gamma_times.csv", "manifest.json"):
                assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["augmented", "--n", "120", "--lambdas=-1,0,1"],
            ["limit-compare", "--n", "400", "--lam", "0.5"],
            ["limit-compare", "--kind", "additive", "--n", "300", "--lam", "1"],
        ],
        ids=["augmented", "limit-compare-multiplicative", "limit-compare-additive"],
    )
    def test_workers_byte_identical(self, tmp_path, argv):
        runs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            code = run(argv + ["--replicates", "8", "--seed", "13", "--workers", workers, "--out", str(out)])
            runs.append((code, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert len(runs[0][1]) >= 2 and runs[0] == runs[1]

    def test_sparse_trace_rerun_byte_identical(self, tmp_path):
        # two lambdas walked on one sparse field
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

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "replicates": 2}))
        args = ["simulate-multiplicative", "--n", "20", "--seed", "5", "--replicates", "7"]
        both, flags = tmp_path / "both", tmp_path / "flags"
        assert run(args + ["--config", str(cfg), "--out", str(both)]) == 0
        assert run(args + ["--out", str(flags)]) == 0
        manifest = json.loads((both / "manifest.json").read_text())
        assert (manifest["config"]["seed"], manifest["config"]["replicates"]) == (5, 7)
        assert {p.name: p.read_bytes() for p in both.iterdir()} == {
            p.name: p.read_bytes() for p in flags.iterdir()
        }

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "is not a readable JSON file"),
            ("{", "is not a readable JSON file"),
            (b"\xff", "is not a readable JSON file"),
            ("5", "must hold a JSON object, got 5"),
            ("[1]", "must hold a JSON object, got [1]"),
        ],
        ids=["missing", "invalid-json", "not-utf8", "number", "list"],
    )
    def test_bad_config_file_refused_early(self, tmp_path, capsys, content, message):
        path, out = tmp_path / "cfg.json", tmp_path / "run"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            run(["trace", "--n", "20", "--config", str(path), "--out", str(out)])
        assert exc.value.code == 2
        assert f"--config {path} {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_every_config_key_has_one_row(self):
        used = set(_COMMON).union(*_DEFAULTS.values())
        assert used == set(_KEYS)
        assert all(callable(flag) for flag, _, _ in _KEYS.values())

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["compare-orders", "--seed", "1"], None, "--seed not applicable to compare-orders"),
            (["trace", "--replicates", "2"], None, "--replicates not applicable to trace"),
            (["ml-oracle", "--lam", "0"], None, "--lam not applicable to ml-oracle"),
            (
                ["limit-compare"],
                {"top": 5, "dx": 1e-3, "horizon": 10.0, "s_obs": 0.5},
                "unknown config keys: ['dx', 'horizon', 's_obs', 'top']",
            ),
        ],
        ids=["compare-orders-seed", "trace-replicates", "ml-oracle-lam", "constants"],
    )
    def test_key_not_taken_refused_early(self, tmp_path, capsys, argv, config, message):
        out = tmp_path / "run"
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_readme_lists_every_config_key(self):
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme[readme.index("Each config key must be"):]
        section = section[: section.index("\n## ")]
        listed = {}
        for names, tag in re.findall(r"^- (`.*?) \((.*?)\):", section, re.M):
            for key in re.findall(r"`(\w+)`", names):
                assert key not in listed, f"{key} listed twice"
                listed[key] = tag
        assert listed == dict.fromkeys(_KEYS, "flag or config")


class TestWalkRouteSize:
    @pytest.mark.parametrize(
        "argv, output",
        [
            (["simulate-multiplicative", "--route", "walk"], "gamma_times.csv"),
            (["augmented"], "augmented.csv"),
        ],
        ids=["simulate-multiplicative", "augmented"],
    )
    def test_large_n_runs(self, tmp_path, argv, output):
        # the walk route reads a sparse field, so n is not capped
        out = tmp_path / "run"
        args = ["--n", "5000", "--lambdas=-1,0,1", "--replicates", "2", "--out", str(out)]
        assert run(argv + args) == 0
        assert len((out / output).read_text().splitlines()) == 1 + 2 * 3


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate-multiplicative", "--n", "4", "--lambdas", "10"], "--lambdas: p_lambda"),
            (["trace", "--n", "8", "--lambdas=-5"], "--lambdas: p_lambda"),
            (["augmented", "--n", "8", "--lambdas=0,30"], "--lambdas: p_lambda"),
            (["limit-compare", "--n", "8", "--lam", "30"], "--lam: p_lambda"),
            (["ml-oracle", "--lam=-9"], "--lam not applicable to ml-oracle"),
            (["trace", "--lambdas="], "--lambdas must list at least one lambda"),
            (["ml-oracle", "--n", "1"], "--n must be at least 2 for ml-oracle"),
            (["ml-oracle", "--n", "8"], "--n must be at most 7 for ml-oracle: its TV threshold assumes"),
            (["limit-compare", "--replicates", "7"], "--replicates 7 is too few for limit-compare: its KS threshold 1.042"),
            (["ml-oracle", "--replicates", "7"], "--replicates 7 is too few for ml-oracle: its TV threshold 1.069"),
            (
                ["limit-compare", "--kind", "additive", "--n", "500", "--lam", "30"],
                "--lam: lambda=30.0 outside [0, sqrt(n)]",
            ),
            (
                ["simulate-additive", "--n", "100", "--lambdas", "20"],
                "--lambdas: lambda=20.0 outside [0, sqrt(n)]",
            ),
            (
                ["trace", "--n", "50", "--lambdas=0.0001,0.0002"],
                "--lambdas: 0.0001 and 0.0002 both write trace_lambda_p0_000.csv",
            ),
            (["trace", "--n", "50", "--lambdas=1,1"], "--lambdas: 1.0 and 1.0 both write"),
            (["simulate-additive", "--lambdas", "nan"], "--lambdas: lambda=nan outside [0, sqrt(n)]"),
            (
                ["limit-compare", "--kind", "additive", "--lam", "nan"],
                "--lam: lambda=nan outside [0, sqrt(n)]",
            ),
            (
                ["limit-compare", "--kind", "additive", "--n", "500", "--lam", "0"],
                "--lam 0 is refused for kind additive: retention t = 1 leaves one block",
            ),
        ],
        ids=[
            "simulate-multiplicative", "trace", "augmented", "limit-compare", "ml-oracle", "empty", "ml-oracle-n-1",
            "ml-oracle-n-8", "limit-compare-replicates-7", "ml-oracle-replicates-7", "limit-compare-additive",
            "simulate-additive", "trace-same-file", "trace-repeat", "simulate-additive-nan", "limit-compare-additive-nan",
            "limit-compare-additive-zero",
        ],
    )
    def test_lambda_outside_window_refused_early(self, tmp_path, capsys, argv, message):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["trace"], None),
            (["simulate-multiplicative", "--route", "walk"], None),
            (["augmented"], None),
            (["simulate-multiplicative"], {"route": "walk"}),
        ],
        ids=["trace", "walk-route", "augmented", "walk-route-config"],
    )
    def test_walk_past_int32_refused_early(self, tmp_path, capsys, argv, config):
        out = tmp_path / "run"
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--n", str(2**31 - 1), "--out", str(out)])
        assert exc.value.code == 2
        assert "--n 2147483647 is too large for the walk route" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["limit-compare", "--kind", "foo"], None, "--kind must be one of additive, multiplicative, got 'foo'"),
            (["simulate-multiplicative", "--route", "grpah"], None, "--route must be one of graph, walk, got 'grpah'"),
            (["limit-compare"], {"kind": "foo"}, "--kind must be one of additive, multiplicative, got 'foo'"),
            (["simulate-multiplicative"], {"route": "grpah"}, "--route must be one of graph, walk, got 'grpah'"),
        ],
        ids=["kind-flag", "route-flag", "kind-config", "route-config"],
    )
    def test_unknown_choice_refused_early(self, tmp_path, capsys, argv, config, message):
        out = tmp_path / "run"
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["limit-compare"], {"dx": 0}, "unknown config keys: ['dx']"),
            (["limit-compare"], {"horizon": -1}, "unknown config keys: ['horizon']"),
            (["limit-compare"], {"horizon": float("inf")}, "unknown config keys: ['horizon']"),
            (["limit-compare"], {"dx": float("inf")}, "unknown config keys: ['dx']"),
            (["simulate-multiplicative"], {"top": 2.5}, "unknown config keys: ['top']"),
            (["simulate-multiplicative"], {"n": 50.5}, "--n must be at least 1 and an integer, got 50.5"),
            (["simulate-multiplicative"], {"n": True}, "--n must be at least 1 and an integer, got True"),
            (
                ["simulate-multiplicative"],
                {"replicates": 2.5},
                "--replicates must be at least 1 and an integer, got 2.5",
            ),
            (["simulate-multiplicative"], {"lambdas": "0"}, "--lambdas must be a list of numbers, got '0'"),
            (["trace"], {"lambdas": [0, "1"]}, "--lambdas must be a list of numbers, got [0, '1']"),
            (["limit-compare"], {"lam": "0"}, "--lam must be a number, got '0'"),
            (["limit-compare"], {"kind": "additive", "lam": None}, "--lam must be a number, got None"),
            (["ml-oracle"], {"s_obs": True}, "unknown config keys: ['s_obs']"),
            (["ml-oracle"], {"s_obs": -0.5}, "unknown config keys: ['s_obs']"),
            (["ml-oracle"], {"tv": 0.02}, "unknown config keys: ['tv']"),
            (["limit-compare"], {"replicates": 4}, "--replicates 4 is too few for limit-compare: its KS threshold"),
            (["limit-compare"], {"kind": "additive", "lam": 0}, "--lam 0 is refused for kind additive"),
        ],
        ids=[
            "dx", "horizon", "horizon-inf", "dx-inf", "top", "n-float", "n-bool", "replicates-float", "lambdas-string", "lambdas-entry",
            "lam-string", "lam-null", "s_obs-bool", "s_obs-negative", "tv-unknown", "replicates-below-floor",
            "lam-additive-zero",
        ],
    )
    def test_bad_config_number_refused_early(self, tmp_path, capsys, argv, config, message):
        out = tmp_path / "run"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--config", str(path), "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["trace", "--n", "20", "--seed", "-3"], None, "--seed must be at least 0 and an integer, got -3"),
            (["trace", "--n", "20"], {"seed": True}, "--seed must be at least 0 and an integer, got True"),
            (["simulate-multiplicative"], {"workers": 2.5}, "--workers must be at least 1 and an integer, got 2.5"),
            (["simulate-multiplicative"], {"workers": 0}, "--workers must be at least 1 and an integer, got 0"),
        ],
        ids=["seed-negative", "seed-bool", "workers-float", "workers-zero"],
    )
    def test_bad_seed_or_workers_refused_early(self, tmp_path, capsys, argv, config, message):
        out = tmp_path / "run"
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "sub, reason", [("", "File exists"), ("sub", "Not a directory")], ids=["file", "below-file"]
    )
    def test_out_naming_a_file_refused(self, tmp_path, capsys, sub, reason):
        afile = tmp_path / "afile"
        afile.write_text("keep me\n")
        out = afile / sub if sub else afile
        with pytest.raises(SystemExit) as exc:
            run(["trace", "--n", "20", "--out", str(out)])
        assert exc.value.code == 2
        assert f"--out {out} cannot be made a directory: {reason}" in capsys.readouterr().err
        assert afile.read_text() == "keep me\n"


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

    @pytest.mark.parametrize(
        "argv, config, lam",
        [
            (["--kind", "additive"], None, 1.0),
            ([], {"kind": "additive"}, 1.0),
            ([], None, 0.0),
            (["--kind", "additive", "--lam", "0.5"], None, 0.5),
            ([], {"kind": "additive", "lam": 0.5}, 0.5),
            (["--kind", "additive"], {"lam": 2.0}, 2.0),
        ],
        ids=["additive-flag", "additive-config", "multiplicative", "lam-flag", "lam-config", "config-lam-flag-kind"],
    )
    def test_default_lam_is_the_kinds(self, tmp_path, argv, config, lam):
        # additive lam 0 is retention t = 1: one block on both sides, so a
        # run at that default would pass on any code
        argv = ["limit-compare", "--n", "300", "--replicates", "8", "--seed", "3"] + argv
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        out = tmp_path / "run"
        run(argv + ["--out", str(out)])
        assert json.loads((out / "manifest.json").read_text())["config"]["lam"] == lam
        samples = (out / "samples.csv").read_text().splitlines()[1:]
        assert not any(row.endswith(",1.0,1.0") for row in samples)


    def test_brownian_side_not_capped_at_ten(self, tmp_path):
        # at lambda 8 the parabola's drift stays positive until x = 16, so a
        # horizon fixed at 10 would end every largest excursion at 10 exactly
        out = tmp_path / "run"
        argv = ["limit-compare", "--kind", "multiplicative", "--lam", "8", "--n", "2000"]
        run(argv + ["--replicates", "8", "--seed", "3", "--out", str(out)])
        rows = list(csv.DictReader(io.StringIO((out / "samples.csv").read_text())))
        assert len(rows) == 8 and max(float(row["brownian"]) for row in rows) > 10


class TestMlOracle:
    def test_verdicts_record_the_seed(self, tmp_path):
        out = tmp_path / "run"
        argv = ["ml-oracle", "--seed", "7", "--replicates", "200"]
        assert run(argv + ["--out", str(out)]) == 0
        lines = (out / "verdicts.json").read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["seeds"] for line in lines] == [[7], [7]]
        # the threshold comes from the 200 replicates a side
        assert [json.loads(line)["threshold"] for line in lines] == pytest.approx([0.2, 0.2])

    def test_default_run_passes(self, tmp_path):
        # 10 replicates a side: threshold 0.894, and seed 0 reads TV 0.60 and 0.50
        out = tmp_path / "run"
        assert run(["ml-oracle", "--out", str(out)]) == 0

    def test_largest_n_runs(self, tmp_path):
        # n = 7 is the largest the parser takes; seeds 0-9 read at most 0.70 against 0.894
        assert run(["ml-oracle", "--n", "7", "--out", str(tmp_path / "run")]) == 0

    def test_fewest_replicates_run(self, tmp_path):
        # 8 a side is the fewest the parser takes: threshold 1.0, and seed 0 reads 0.375 and 0.25
        assert run(["ml-oracle", "--replicates", "8", "--out", str(tmp_path / "run")]) == 0


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.sizes.append(chunksize)
        return map(fn, items)


class TestRunReplicates:
    @pytest.mark.parametrize(
        "count, workers, pool",
        [(3, 64, [3, 1]), (40, 4, [4, 2]), (1, 8, []), (5, 1, [])],
        ids=["fewer-seeds", "more-seeds", "one-seed", "serial"],
    )
    def test_pool_no_larger_than_the_seeds(self, monkeypatch, count, workers, pool):
        monkeypatch.setattr(primcoal.cli, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "sizes", [])
        assert _run_replicates(abs, [-k for k in range(count)], workers) == list(range(count))
        assert _SerialPool.sizes == pool

    def test_cli_pool_sized_by_replicates(self, tmp_path, monkeypatch):
        monkeypatch.setattr(primcoal.cli, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "sizes", [])
        argv = ["simulate-multiplicative", "--n", "50", "--replicates", "2", "--workers", "64"]
        assert run(argv + ["--out", str(tmp_path / "run")]) == 0
        assert _SerialPool.sizes == [2, 1]


class TestEmptyGraph:
    # p_lambda(8, -2) = 0 lies in the window: no edges, eight singletons of
    # mass 8^(-2/3) = 1/4
    @pytest.mark.parametrize(
        "argv, name, columns",
        [
            (["simulate-multiplicative", "--route", "graph", "--lambdas=-2"], "gamma_times.csv", "gamma_"),
            (["simulate-multiplicative", "--route", "walk", "--lambdas=-2"], "gamma_times.csv", "gamma_"),
            (["limit-compare", "--lam=-2"], "samples.csv", "discrete"),
        ],
        ids=["graph-route", "walk-route", "limit-compare"],
    )
    def test_p_lambda_zero_gives_singletons(self, tmp_path, argv, name, columns):
        # 8 replicates: fewer would leave limit-compare's KS threshold above 1
        out = tmp_path / "run"
        assert run(argv + ["--n", "8", "--replicates", "8", "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO((out / name).read_text())))
        assert len(rows) == 8
        for row in rows:
            masses = [float(v) for k, v in row.items() if k.startswith(columns)]
            assert masses and masses == pytest.approx([0.25] * len(masses))
            assert all(v == "0" for k, v in row.items() if k.startswith("s_"))


class TestWithoutScipy:
    def test_graph_route_commands_run_with_scipy_blocked(self, tmp_path):
        # a None entry in sys.modules makes every import of scipy fail
        code = """
import json, sys
sys.modules["scipy"] = None
from primcoal.cli import main
out = sys.argv[1]
codes = [
    main(["simulate-multiplicative", "--n", "2000", "--lambdas=0,1", "--replicates", "2",
          "--out", out + "/sim"]),
    main(["ml-oracle", "--replicates", "200", "--out", out + "/ml"]),
]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy."))}))
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(primcoal.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0], "scipy": []}
