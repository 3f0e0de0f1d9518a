"""The four benchmark workloads.

Each workload turns a seed into a fixed plan (``prepare``) and runs one pass
of that plan against primcoal's public entry points (``run_pass``).  Only
the calls into primcoal are timed; checking outputs and hashing them happen
outside the timed region.  The size ladders and replicate counts are
constants, so the seed changes the draws but not the amount of work.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import primcoal.cli
from primcoal import graphs
from primcoal import multiplicative as mult


class Checks:
    """Correctness checks of one run: attempted count and failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class PassResult:
    seconds: float = 0.0
    units: int = 0
    digests: dict = field(default_factory=dict)


def _derived_seed(seed: int, leg: int) -> int:
    return int(np.random.SeedSequence([seed, leg]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# dense-identity: criterion 6's call sequence plus criterion 1's interval check

DENSE_LADDER = (512, 384, 256, 192, 128, 96, 64, 48, 32, 24, 16, 12, 8, 6, 4)


class DenseIdentity:
    name = "dense-identity"

    def prepare(self, seed: int):
        rng = np.random.default_rng(seed)
        children = np.random.SeedSequence(seed).spawn(len(DENSE_LADDER))
        return [
            (n, float(rng.choice([-1.0, 0.0, 1.0])), float(rng.random()), child)
            for n, child in zip(DENSE_LADDER, children)
        ]

    def run_pass(self, plan, workdir: str, checks: Checks) -> PassResult:
        res = PassResult(units=len(plan))
        digest = hashlib.sha256()
        for n, lam, t, child in plan:
            rng = np.random.default_rng(child)
            start = time.perf_counter()
            try:
                g = graphs.random_complete_graph(n, rng)
                ordering = graphs.prim_order(g)
                field_ = mult.reorder_field_from_graph(g, ordering)
                params = mult.CriticalWindowParams(n, lam)
                z, _ = mult.z_walk(params, field_)
                s = mult.surplus_field(params, z, field_)
                walk_pairs = mult.component_surpluses(z, s)
                filt = graphs.component_filtration(g, ordering)
                graph_pairs = [(size, exc) for (_, size, exc) in filt.components_at(params.p)]
                interval_error = None
                try:
                    graphs.level_components(g, t, ordering)
                except graphs.GraphError as exc:
                    interval_error = exc
            except Exception:
                res.seconds += time.perf_counter() - start
                traceback.print_exc()
                checks.record(False, f"n={n}: identity sequence raised")
                checks.record(False, f"n={n}: interval check not reached")
                continue
            res.seconds += time.perf_counter() - start
            checks.record(walk_pairs == graph_pairs, f"n={n} lam={lam}: walk/graph (size, surplus) mismatch")
            checks.record(interval_error is None, f"n={n} t={t}: {interval_error}")
            digest.update(repr((n, walk_pairs)).encode())
        res.digests["pairs"] = digest.hexdigest()
        return res


# ---------------------------------------------------------------------------
# CLI workloads: each step is one primcoal.cli.main invocation


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _gamma_rows_sum_le_one(outdir: str) -> tuple[bool, str]:
    header, data = _read_csv(os.path.join(outdir, "gamma_plus.csv"))
    cols = [i for i, h in enumerate(header) if h.startswith("gamma_")]
    worst = float(data[:, cols].sum(axis=1).max())
    return worst <= 1.0 + 1e-12, f"gamma_plus.csv row mass sum {worst!r} > 1"


def _largest_mass_nondecreasing(outdir: str) -> tuple[bool, str]:
    header, data = _read_csv(os.path.join(outdir, "gamma_times.csv"))
    rep, lam, g1 = (header.index(c) for c in ("replicate", "lambda", "gamma_1"))
    bad = 0
    for r in np.unique(data[:, rep]):
        rows = data[data[:, rep] == r]
        rows = rows[np.argsort(rows[:, lam], kind="stable")]
        bad += int((np.diff(rows[:, g1]) < 0).sum())
    return bad == 0, f"gamma_times.csv: largest mass decreases in lambda {bad} times"


def _trace_walk_valid(name: str):
    def check(outdir: str) -> tuple[bool, str]:
        _, data = _read_csv(os.path.join(outdir, name))
        z = data[:, 1]
        ok = z[0] == 0 and (z >= 0).all() and (np.diff(z) >= -1).all()
        return bool(ok), f"{name}: walk not non-negative from 0 with steps >= -1"

    return check


@dataclass(frozen=True)
class Step:
    """One CLI invocation: its flags, expected outputs and output checks."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    units: int
    validators: tuple = ()


def _file_digest(outdir: str) -> str:
    digest = hashlib.sha256()
    for fname in sorted(os.listdir(outdir)):
        digest.update(fname.encode() + b"\0")
        with open(os.path.join(outdir, fname), "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


class CliWorkload:
    def __init__(self, name: str, steps: tuple[Step, ...]):
        self.name = name
        self.steps = steps

    def prepare(self, seed: int):
        return [
            (step, list(step.argv) + ["--seed", str(_derived_seed(seed, i)), "--workers", "1"])
            for i, step in enumerate(self.steps)
        ]

    def run_pass(self, plan, workdir: str, checks: Checks) -> PassResult:
        res = PassResult()
        for step, argv in plan:
            outdir = os.path.join(workdir, step.name)  # fresh: the pass dir is new
            start = time.perf_counter()
            try:
                # keep the CLI's verdict lines off stdout, whose last line is the result
                with contextlib.redirect_stdout(sys.stderr):
                    code = primcoal.cli.main(argv + ["--out", outdir])
            except Exception:
                code = None
                traceback.print_exc()
            res.seconds += time.perf_counter() - start
            res.units += step.units
            checks.record(code == 0, f"{step.name}: exit status {code}")
            if code is None:
                continue
            try:
                with open(os.path.join(outdir, "manifest.json")) as fh:
                    listed = json.load(fh).get("outputs")
            except (OSError, ValueError) as exc:
                listed = repr(exc)
            checks.record(
                listed == sorted(step.outputs),
                f"{step.name}: manifest outputs {listed} != {sorted(step.outputs)}",
            )
            for validate in step.validators:
                try:
                    ok, what = validate(outdir)
                except Exception as exc:
                    ok, what = False, f"{step.name}: output check raised {exc!r}"
                checks.record(ok, what)
            res.digests[step.name] = _file_digest(outdir)
        return res


ADDITIVE_LIMIT = CliWorkload(
    "additive-limit",
    (
        Step("simulate-additive",
             ("simulate-additive", "--n", "10000", "--lambdas", "0.5,1.0,2.0", "--replicates", "16"),
             ("gamma_plus.csv",), 16, (_gamma_rows_sum_le_one,)),
        Step("limit-compare-additive",
             ("limit-compare", "--kind", "additive", "--n", "10000", "--lam", "1", "--replicates", "32"),
             ("samples.csv", "verdict.json"), 32),
    ),
)

CRITICAL_WINDOW = CliWorkload(
    "critical-window",
    (
        Step("graph-route",
             ("simulate-multiplicative", "--n", "100000", "--lambdas=-2,-1,0,1,2", "--replicates", "4"),
             ("gamma_times.csv",), 4, (_largest_mass_nondecreasing,)),
        Step("walk-route",
             ("simulate-multiplicative", "--route", "walk", "--n", "4096", "--lambdas=0", "--replicates", "1"),
             ("gamma_times.csv",), 1),
        Step("limit-compare-multiplicative",
             ("limit-compare", "--kind", "multiplicative", "--n", "100000", "--lam", "0", "--replicates", "24"),
             ("samples.csv", "verdict.json"), 24),
        Step("trace",
             ("trace", "--n", "1000000", "--lambdas=0"),
             ("trace_lambda_p0_000.csv",), 1, (_trace_walk_valid("trace_lambda_p0_000.csv"),)),
    ),
)

SMALL_ORACLES = CliWorkload(
    "small-oracles",
    (
        # 20000 replicates keep both TV statistics near 0.01, well under the
        # CLI's fixed 0.02 threshold; 5000 replicates fail on sampling noise.
        Step("ml-oracle", ("ml-oracle", "--n", "6", "--replicates", "20000"), ("verdicts.json",), 20000),
    ),
)

WORKLOADS = {
    w.name: w for w in (DenseIdentity(), ADDITIVE_LIMIT, CRITICAL_WINDOW, SMALL_ORACLES)
}
