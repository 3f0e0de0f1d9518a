"""Experiment runner: seeded, reproducible simulations with file outputs.

Every subcommand resolves a config (defaults < --config JSON < flags),
derives per-replicate generators from the master seed through
numpy.random.SeedSequence spawning, writes CSV outputs plus a manifest.json
recording the resolved config and its hash, and exits 0 only if all
statistical verdicts in the run passed.  Identical (config, seed) reruns
produce byte-identical outputs regardless of --workers.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .additive import (
    ThinnedWalkFamily,
    gamma_plus,
    pitman_forest,
    sample_conditioned_walk,
)
from .graphs import component_filtration, prim_order, random_complete_graph
from .limits import (
    ml_additive_sizes,
    ml_multiplicative_sizes,
    simulate_excursion,
    simulate_parabolic,
    limit_gamma,
)
from .multiplicative import (
    FIELD_N_MAX,
    CriticalWindowParams,
    UniformField,
    augmented_state,
    component_surpluses,
    graph_route,
    p_lambda,
    reorder_field_from_graph,
    replicate_rows,
    sparse_z_trace,
    surplus_field,
    z_walk,
)
from .oracles import (
    enumerate_weight_orders,
    ks_two_sample,
    label_order_probability,
    row_counts,
    tv_two_sample,
)
from .states import d_U
from .walks import LatticePath, explore, psi, walk_component_sizes


def _replicate_seeds(master: int, count: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(master).spawn(count)


def _run_replicates(fn, seeds, workers: int):
    """Map fn over per-replicate seed sequences, order-preserving."""
    if workers <= 1:
        return [fn(s) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seeds, chunksize=max(1, len(seeds) // (4 * workers))))


def _write_manifest(outdir: str, config: dict, extra: dict | None = None) -> None:
    # workers only affects scheduling, never results; keep it out of the
    # manifest so reruns at different parallelism are byte-identical
    config = {k: v for k, v in config.items() if k != "workers"}
    blob = json.dumps(config, sort_keys=True).encode()
    manifest = {
        "config": config,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seed": config.get("seed"),
        "version": __version__,
        "outputs": sorted(
            f for f in os.listdir(outdir) if f != "manifest.json"
        ),
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(path: str, header: list[str], rows) -> None:
    """Write a CSV of header and rows, a sized sequence (a list, not a bare zip)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns (verdicts, exit_ok).


def _additive_rep(args):
    seed, n, lambdas, top = args
    rng = np.random.default_rng(seed)
    walk = sample_conditioned_walk(n, rng)
    fam = ThinnedWalkFamily(walk, rng)
    rows = []
    for lam in lambdas:
        gam = gamma_plus(fam, lam)
        rows.append([lam] + [gam[i] for i in range(top)])
    return rows


def cmd_simulate_additive(cfg, outdir):
    seeds = _replicate_seeds(cfg["seed"], cfg["replicates"])
    work = [(s, cfg["n"], cfg["lambdas"], cfg["top"]) for s in seeds]
    per_rep = _run_replicates(_additive_rep, work, cfg["workers"])
    rows = []
    for r, rep_rows in enumerate(per_rep):
        for row in rep_rows:
            rows.append([r] + row)
    header = ["replicate", "lambda"] + [f"gamma_{i+1}" for i in range(cfg["top"])]
    _write_rows(os.path.join(outdir, "gamma_plus.csv"), header, rows)
    return [], True


def _state_row(lam, st, top) -> list:
    """lambda, then the top masses and surpluses of state st (0 past its end)."""
    return (
        [lam]
        + [st.masses[i] for i in range(top)]
        + [int(st.surpluses[i]) if i < len(st.surpluses) else 0 for i in range(top)]
    )


def _state_header(top) -> list[str]:
    return ["lambda"] + [f"gamma_{i+1}" for i in range(top)] + [f"s_{i+1}" for i in range(top)]


def _field_states(n, lambdas, rng):
    """(lambda, walk-route augmented state) along lambdas, read off one uniform field."""
    field = UniformField.sample(n, rng)
    for lam in lambdas:
        params = CriticalWindowParams(n, lam)
        z, _ = z_walk(params, field)
        sizes, surpluses = zip(*component_surpluses(z, surplus_field(params, z, field)))
        yield lam, augmented_state(n, sizes, surpluses)


def _multiplicative_rep(args):
    seed, n, lambdas, top, route = args
    rng = np.random.default_rng(seed)
    if route == "graph":
        states = (
            (lam, augmented_state(n, sizes, excess))
            for lam, (sizes, excess) in zip(lambdas, graph_route(n, lambdas, rng))
        )
    else:
        states = _field_states(n, lambdas, rng)
    return [_state_row(lam, st, top) for lam, st in states]


def cmd_simulate_multiplicative(cfg, outdir):
    seeds = _replicate_seeds(cfg["seed"], cfg["replicates"])
    work = [(s, cfg["n"], cfg["lambdas"], cfg["top"], cfg["route"]) for s in seeds]
    per_rep = _run_replicates(_multiplicative_rep, work, cfg["workers"])
    rows = []
    for r, rep_rows in enumerate(per_rep):
        for row in rep_rows:
            rows.append([r] + row)
    header = ["replicate"] + _state_header(cfg["top"])
    _write_rows(os.path.join(outdir, "gamma_times.csv"), header, rows)
    return [], True


def cmd_augmented(cfg, outdir):
    """Walk-route augmented states along a lambda grid, with d_U increments."""
    seeds = _replicate_seeds(cfg["seed"], cfg["replicates"])
    rows = []
    for r, seed in enumerate(seeds):
        prev = None
        for lam, st in _field_states(cfg["n"], cfg["lambdas"], np.random.default_rng(seed)):
            step = d_U(prev, st) if prev is not None else 0.0
            prev = st
            rows.append([r] + _state_row(lam, st, cfg["top"]) + [step])
    header = ["replicate"] + _state_header(cfg["top"]) + ["d_U_from_prev"]
    _write_rows(os.path.join(outdir, "augmented.csv"), header, rows)
    return [], True


def cmd_compare_orders(cfg, outdir):
    """Exact rational check that Prim and label-order explorations differ.

    On the 4-vertex star-plus-edge graph, conditioned on a fixed level
    graph, the Prim exploration visits the vertices in the order
    (1, 3, 4, 2) with probability 1/4 over weight orders, while the
    standard label-order exploration gives 1/6 under uniform relabelling.
    """
    from fractions import Fraction

    from .graphs import ProperlyWeightedGraph

    g = ProperlyWeightedGraph(4, [(1, 2, 0.1), (1, 3, 0.2), (1, 4, 0.3), (3, 4, 0.4)])

    def prim_visits_1342(gp):
        return prim_order(gp, root=1).order == (1, 3, 4, 2)

    prim_prob = enumerate_weight_orders(g, prim_visits_1342)
    label_prob = label_order_probability(g, (1, 3, 4, 2))
    result = {
        "prim_probability": str(prim_prob),
        "label_probability": str(label_prob),
        "prim_expected": "1/4",
        "label_expected": "1/6",
    }
    with open(os.path.join(outdir, "compare_orders.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ok = prim_prob == Fraction(1, 4) and label_prob == Fraction(1, 6)
    return [], ok


def cmd_verify_invariants(cfg, outdir):
    """Deterministic exact-identity suite on seeded instances."""
    rng = np.random.default_rng(cfg["seed"])
    failures = []
    for trial in range(cfg["replicates"]):
        n = int(rng.integers(3, 40))
        g = random_complete_graph(n, rng)
        o = prim_order(g)
        t = float(rng.random())
        from .graphs import level_components

        try:
            level_components(g, t, o)  # raises if not Prim intervals
        except Exception as exc:
            failures.append(f"prim-interval trial {trial}: {exc}")
        field = reorder_field_from_graph(g, o)
        lam = (t - 1.0 / n) * n ** (4.0 / 3.0)
        if not (0.0 <= p_lambda(n, lam) <= 1.0):
            continue
        params = CriticalWindowParams(n, lam)
        z, y = z_walk(params, field)  # internal asserts: Psi relation, ladder
        s = surplus_field(params, z, field)
        walk_pairs = sorted(component_surpluses(z, s))
        filt = component_filtration(g, o)
        graph_pairs = sorted(
            (size, exc) for (_, size, exc) in filt.components_at(params.p)
        )
        if walk_pairs != graph_pairs:
            failures.append(f"surplus identity trial {trial}")
        zx = explore(g, params.p, o)
        if not np.array_equal(zx.values, z.values):
            failures.append(f"explore/z_walk mismatch trial {trial}")
        sizes_walk = sorted(walk_component_sizes(z), reverse=True)
        sizes_graph = sorted((size for (_, size, _) in filt.components_at(params.p)), reverse=True)
        if sizes_walk != sizes_graph:
            failures.append(f"excursion/component mismatch trial {trial}")
    with open(os.path.join(outdir, "invariants.json"), "w") as fh:
        json.dump({"trials": cfg["replicates"], "failures": failures}, fh, indent=2)
        fh.write("\n")
    return [], not failures


def _limit_mult_rep(args):
    seed, n, lam = args
    rng = np.random.default_rng(seed)
    sizes, _ = graph_route(n, [lam], rng)[0]
    return float(sizes[0]) / n ** (2.0 / 3.0)


def _limit_mult_brownian(args):
    seed, lam, horizon, dx = args
    rng = np.random.default_rng(seed)
    path = simulate_parabolic(lam, rng, horizon=horizon, dx=dx)
    gam = limit_gamma(path, top=1)
    return gam[0]


def _limit_add_rep(args):
    seed, n, lam = args
    rng = np.random.default_rng(seed)
    walk = sample_conditioned_walk(n, rng)
    fam = ThinnedWalkFamily(walk, rng)
    return gamma_plus(fam, lam)[0]


def _limit_add_brownian(args):
    seed, lam, dx = args
    rng = np.random.default_rng(seed)
    path = simulate_excursion(lam, rng, dx=dx)
    return limit_gamma(path, top=1)[0]


def cmd_limit_compare(cfg, outdir):
    reps = cfg["replicates"]
    # one child stream per side, so no run shares a stream with another seed
    discrete_ss, brownian_ss = np.random.SeedSequence(cfg["seed"]).spawn(2)
    seeds_d = discrete_ss.spawn(reps)
    seeds_c = brownian_ss.spawn(reps)
    if cfg["kind"] == "multiplicative":
        discrete = _run_replicates(
            _limit_mult_rep, [(s, cfg["n"], cfg["lam"]) for s in seeds_d], cfg["workers"]
        )
        brownian = _run_replicates(
            _limit_mult_brownian,
            [(s, cfg["lam"], cfg["horizon"], cfg["dx"]) for s in seeds_c],
            cfg["workers"],
        )
        desc = "largest multiplicative mass vs largest parabolic excursion"
    elif cfg["kind"] == "additive":
        discrete = _run_replicates(
            _limit_add_rep, [(s, cfg["n"], cfg["lam"]) for s in seeds_d], cfg["workers"]
        )
        brownian = _run_replicates(
            _limit_add_brownian, [(s, cfg["lam"], cfg["dx"]) for s in seeds_c], cfg["workers"]
        )
        desc = "largest additive block vs largest tilted-excursion excursion"
    else:
        raise SystemExit(f"unknown limit-compare kind {cfg['kind']!r}")
    verdict = ks_two_sample(discrete, brownian, desc, seeds=(cfg["seed"],))
    _write_rows(
        os.path.join(outdir, "samples.csv"),
        ["replicate", "discrete", "brownian"],
        [[i, d, b] for i, (d, b) in enumerate(zip(discrete, brownian))],
    )
    with open(os.path.join(outdir, "verdict.json"), "w") as fh:
        fh.write(verdict.to_json())
        fh.write("\n")
    return [verdict], verdict.passed


# replicates per ml-oracle batch; larger batches gain no speed, only memory
ORACLE_BLOCK = 1024


def _block_counts(sample, reps: int) -> Counter:
    """Count the distinct rows of sample(b) over blocks of b <= ORACLE_BLOCK."""
    counts = Counter()
    for k in range(0, reps, ORACLE_BLOCK):
        counts.update(row_counts(sample(min(ORACLE_BLOCK, reps - k))))
    return counts


def cmd_ml_oracle(cfg, outdir):
    n, reps, lam, s_obs = cfg["n"], cfg["replicates"], cfg["lam"], cfg["s_obs"]
    rng = np.random.default_rng(cfg["seed"])
    p = p_lambda(n, lam)

    def graph_sizes(b):
        rep, sizes, _ = graph_route(n, [lam], rng, reps=b)[0]
        return replicate_rows(rep, sizes, b, n)

    ml_mult = _block_counts(
        lambda b: ml_multiplicative_sizes(n, p, rng, reps=b).astype(np.int64), reps
    )
    graph = _block_counts(graph_sizes, reps)
    v1 = tv_two_sample(ml_mult, graph, cfg["tv"], "ML multiplicative vs graph route")
    ml_add = _block_counts(
        lambda b: np.rint(ml_additive_sizes(n, s_obs, rng, reps=b) * n).astype(np.int64), reps
    )
    forest = _block_counts(lambda b: pitman_forest(n, rng, reps=b).tree_sizes_at(s_obs), reps)
    v2 = tv_two_sample(ml_add, forest, cfg["tv"], "ML additive vs forest process")
    with open(os.path.join(outdir, "verdicts.json"), "w") as fh:
        fh.write(v1.to_json() + "\n" + v2.to_json() + "\n")
    return [v1, v2], v1.passed and v2.passed


def cmd_trace(cfg, outdir):
    rng = np.random.default_rng(cfg["seed"])
    n = cfg["n"]
    field = UniformField.sample(n, rng) if n <= FIELD_N_MAX else None
    for lam in cfg["lambdas"]:
        tag = f"{lam:+.3f}".replace("+", "p").replace("-", "m").replace(".", "_")
        path = os.path.join(outdir, f"trace_lambda_{tag}.csv")
        if field is not None:
            _, y = z_walk(CriticalWindowParams(n, lam), field)
            scaled = y.values / n ** (1.0 / 3.0)
            refl = psi(LatticePath(scaled)).values
            x = np.arange(len(scaled)) / n ** (2.0 / 3.0)
            rows = list(zip(x.tolist(), scaled.tolist(), refl.tolist()))
            _write_rows(path, ["x", "y_scaled", "psi_y_scaled"], rows)
        else:
            z = sparse_z_trace(n, lam, rng)
            _write_rows(path, ["index", "z"], list(zip(range(len(z)), z.tolist())))
    return [], True


# ---------------------------------------------------------------------------


_DEFAULTS = {
    "simulate-additive": {"n": 1000, "lambdas": [1.0], "top": 5},
    "simulate-multiplicative": {"n": 1000, "lambdas": [0.0], "top": 5, "route": "graph"},
    "augmented": {"n": 200, "lambdas": [-1.0, 0.0, 1.0], "top": 5},
    "compare-orders": {},
    "verify-invariants": {},
    "limit-compare": {
        "kind": "multiplicative",
        "n": 50000,
        "lam": 0.0,
        "horizon": 10.0,
        "dx": 1e-3,
    },
    "ml-oracle": {"n": 6, "lam": 0.0, "s_obs": 0.5, "tv": 0.02},
    "trace": {"n": 1000, "lambdas": [-1.0, 0.0, 1.0]},
}

_HANDLERS = {
    "simulate-additive": cmd_simulate_additive,
    "simulate-multiplicative": cmd_simulate_multiplicative,
    "augmented": cmd_augmented,
    "compare-orders": cmd_compare_orders,
    "verify-invariants": cmd_verify_invariants,
    "limit-compare": cmd_limit_compare,
    "ml-oracle": cmd_ml_oracle,
    "trace": cmd_trace,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="primcoal", description="coalescent simulation experiments"
    )
    parser.add_argument("command", choices=sorted(_HANDLERS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--replicates", type=int, default=10)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="runs/latest")
    parser.add_argument("--n", type=int)
    parser.add_argument("--lam", type=float)
    parser.add_argument("--lambdas", type=_float_list)
    parser.add_argument("--kind")
    parser.add_argument("--route", choices=["graph", "walk"])
    args = parser.parse_args(argv)

    cfg = dict(_DEFAULTS[args.command])
    cfg["seed"] = args.seed
    cfg["replicates"] = args.replicates
    cfg["workers"] = args.workers
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in ("n", "lam", "lambdas", "kind", "route"):
        val = getattr(args, key)
        if val is not None:
            if key not in cfg:
                parser.error(f"--{key} not applicable to {args.command}")
            cfg[key] = val
    for key in ("n", "replicates"):
        if key in cfg and cfg[key] < 1:
            parser.error(f"--{key} must be at least 1, got {cfg[key]}")
    walk_route = args.command == "augmented" or (
        args.command == "simulate-multiplicative" and cfg["route"] == "walk"
    )
    if walk_route and cfg["n"] > FIELD_N_MAX:
        parser.error(
            f"--n {cfg['n']} too large for the walk route: its dense uniform field "
            f"is limited to n <= {FIELD_N_MAX}"
        )
    # the manifest lists every file in --out, so a used directory would
    # report files this run did not write
    if os.path.isdir(args.out) and os.listdir(args.out):
        parser.error(f"--out {args.out} is not empty; give a new or empty directory")

    os.makedirs(args.out, exist_ok=True)
    verdicts, ok = _HANDLERS[args.command](cfg, args.out)
    _write_manifest(args.out, {"command": args.command, **cfg})
    for v in verdicts:
        status = "pass" if v.passed else "FAIL"
        print(f"[{status}] {v.description}: stat={v.statistic:.4f} thr={v.threshold:.4f}")
    if not ok:
        print("verdict: FAIL", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
