"""Experiment runner: seeded, reproducible simulations with file outputs.

Every subcommand resolves a config of only the keys it reads (defaults <
--config JSON < flags), writes its outputs plus a manifest.json recording
the resolved config and its hash, and exits 0 only if every check and
verdict in the run passed.  simulate-*, augmented, limit-compare and
ml-oracle spawn child generators from the master seed through
numpy.random.SeedSequence; trace and verify-invariants draw one
default_rng(seed) stream, and compare-orders none.  Identical (config,
seed) reruns produce byte-identical outputs regardless of --workers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .additive import (
    ThinnedWalkFamily,
    gamma_plus,
    pitman_forest,
    retention_level,
    sample_conditioned_walk,
)
from .graphs import (
    ProperlyWeightedGraph,
    component_filtration,
    level_components,
    prim_order,
    random_complete_graph,
)
from .limits import (
    ml_additive_sizes,
    ml_multiplicative_sizes,
    simulate_excursion,
    simulate_parabolic,
    limit_gamma,
)
from .multiplicative import (
    CriticalWindowParams,
    SparseField,
    augmented_state,
    check_walk_size,
    component_surpluses,
    graph_route,
    p_lambda,
    reorder_field_from_graph,
    replicate_rows,
    surplus_field,
    walk_route,
    z_walk,
)
from .oracles import (
    enumerate_weight_orders,
    ks_threshold,
    ks_two_sample,
    label_order_probability,
    row_counts,
    tv_threshold,
    tv_two_sample,
)
from .states import d_U
from .walks import explore, walk_component_sizes


def _replicate_seeds(master: int, count: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(master).spawn(count)


def _run_replicates(fn, seeds, workers: int):
    """Map fn over per-replicate seed sequences, order-preserving."""
    # a fork pool starts all its workers at once, so start no idle ones
    workers = min(workers, len(seeds))
    if workers <= 1:
        return [fn(s) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seeds, chunksize=max(1, len(seeds) // (4 * workers))))


def _write_manifest(outdir: str, config: dict) -> None:
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
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# rows per block of the integer-array CSV encoder; bounds its byte matrix
WRITE_BLOCK = 1 << 14


def _int_csv(block: np.ndarray) -> bytes:
    """csv.writer's bytes for the rows of a 2-d array of integers in [0, 2**32).

    The array is cast once to C-ordered uint32 columns.  Each column's
    digits are written right-aligned into a byte matrix, one decimal place
    per pass; unused places hold NUL, which is then dropped.
    """
    lo, hi = block.min(), block.max()
    if lo < 0 or hi >= 2**32:
        raise ValueError(f"array rows must lie in [0, 2**32), got {lo} to {hi}")
    cols = block.T.astype(np.uint32, order="C")
    widths = [len(str(top)) for top in cols.max(axis=1).tolist()]
    out = np.zeros((len(block), sum(widths) + len(widths) + 1), np.uint8)
    pos = 0
    for m, width in zip(cols, widths):
        pos += width
        for k in range(1, width + 1):
            q = m // 10  # m - 10 q is faster than m % 10
            digit = (m - q * 10).astype(np.uint8) + ord("0")
            if k > 1:
                digit[m == 0] = 0
            out[:, pos - k] = digit
            m = q
        out[:, pos] = ord(",")
        pos += 1
    out[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    flat = out.ravel()
    return flat[flat != 0].tobytes()


def _write_rows(path: str, header: list[str], rows) -> None:
    """Write a CSV of header and rows of numbers only (ints and floats, no
    strings or None), in csv.writer's bytes.  rows is a sized sequence: a
    list of equal-length rows, not a bare zip, or a 2-d array of integers in
    [0, 2**32), or sized rows with an integer dtype whose slices are such
    arrays (_TraceRows), written by blocks of WRITE_BLOCK rows.  Array rows
    of another dtype raise TypeError; a negative value, or one of 2**32 or
    more, raises ValueError."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        if not isinstance(rows, list):
            if rows.dtype.kind not in "iu":
                raise TypeError(f"array rows must be integers, got {rows.dtype}")
            for k in range(0, len(rows), WRITE_BLOCK):
                fh.write(_int_csv(rows[k:k + WRITE_BLOCK]))
        else:
            flat = [x for row in rows for x in row]
            fh.write(((",".join(["%s"] * len(header)) + "\r\n") * len(rows) % tuple(flat)).encode())


@dataclass(frozen=True)
class _TraceRows:
    """The rows (index, Z) of a trace, Z(0..n) and then Z(n+1) = 0, made a
    slice at a time in the encoder's uint32: no array of all n + 2 rows is
    ever made."""

    z: np.ndarray
    dtype = np.dtype(np.uint32)

    def __len__(self) -> int:
        return len(self.z) + 1

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(len(self))
        block = np.zeros((stop - start, 2), dtype=self.dtype)
        block[:, 0] = np.arange(start, stop, dtype=self.dtype)
        part = self.z[start:stop]
        block[: len(part), 1] = part
        return block


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns (verdicts, exit_ok).


def _replicate_csv(cfg, outdir, name, header, rep_fn, *args):
    """Write outdir/name: the rows of rep_fn((seed, *args)) for each
    replicate seed, each row led by its replicate index."""
    seeds = _replicate_seeds(cfg["seed"], cfg["replicates"])
    per_rep = _run_replicates(rep_fn, [(s, *args) for s in seeds], cfg["workers"])
    rows = [[r] + row for r, rep_rows in enumerate(per_rep) for row in rep_rows]
    _write_rows(os.path.join(outdir, name), ["replicate"] + header, rows)
    return [], True


# the largest masses (and surpluses) each row of a state CSV lists
TOP = 5


def _additive_rep(args):
    seed, n, lambdas = args
    rng = np.random.default_rng(seed)
    fam = ThinnedWalkFamily(sample_conditioned_walk(n, rng), rng)
    gams = [gamma_plus(fam, lam) for lam in lambdas]
    return [[lam] + [gam[i] for i in range(TOP)] for lam, gam in zip(lambdas, gams)]


def cmd_simulate_additive(cfg, outdir):
    header = ["lambda"] + [f"gamma_{i+1}" for i in range(TOP)]
    return _replicate_csv(cfg, outdir, "gamma_plus.csv", header, _additive_rep,
                          cfg["n"], cfg["lambdas"])


def _state_row(lam, st) -> list:
    """lambda, then the TOP largest masses and surpluses of state st (0 past its end)."""
    return (
        [lam]
        + [st.masses[i] for i in range(TOP)]
        + [int(st.surpluses[i]) if i < len(st.surpluses) else 0 for i in range(TOP)]
    )


_STATE_HEADER = ["lambda"] + [f"gamma_{i+1}" for i in range(TOP)] + [f"s_{i+1}" for i in range(TOP)]


def _route_states(seed, n, lambdas, route) -> list:
    """Augmented state at each lambda of one coupled draw of the route.

    The route is looked up by its module-level name at call time, so a
    wrapper bound over `cli.graph_route` or `cli.walk_route` sees the call.
    """
    route_fn = graph_route if route == "graph" else walk_route
    levels = route_fn(n, lambdas, np.random.default_rng(seed))
    return [augmented_state(n, sizes, extra) for _, sizes, extra in levels]


def _multiplicative_rep(args):
    seed, n, lambdas, route = args
    states = _route_states(seed, n, lambdas, route)
    return [_state_row(lam, st) for lam, st in zip(lambdas, states)]


def _augmented_rep(args):
    seed, n, lambdas = args
    states = _route_states(seed, n, lambdas, "walk")
    steps = [0.0] + [d_U(a, b) for a, b in zip(states, states[1:])]
    return [_state_row(lam, st) + [step] for lam, st, step in zip(lambdas, states, steps)]


def cmd_simulate_multiplicative(cfg, outdir):
    return _replicate_csv(cfg, outdir, "gamma_times.csv", _STATE_HEADER, _multiplicative_rep,
                          cfg["n"], cfg["lambdas"], cfg["route"])


def cmd_augmented(cfg, outdir):
    """Walk-route augmented states along a lambda grid, with d_U increments."""
    return _replicate_csv(cfg, outdir, "augmented.csv", _STATE_HEADER + ["d_U_from_prev"],
                          _augmented_rep, cfg["n"], cfg["lambdas"])


def cmd_compare_orders(cfg, outdir):
    """Exact rational check that Prim and label-order explorations differ.

    On the 4-vertex star-plus-edge graph, conditioned on a fixed level
    graph, the Prim exploration visits the vertices in the order
    (1, 3, 4, 2) with probability 1/4 over weight orders, while the
    standard label-order exploration gives 1/6 under uniform relabelling.
    """
    g = ProperlyWeightedGraph(4, [(1, 2, 0.1), (1, 3, 0.2), (1, 4, 0.3), (3, 4, 0.4)])

    def prim_visits_1342(gp):
        return prim_order(gp, root=1).order.tolist() == [1, 3, 4, 2]

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
        try:
            level_components(g, t, o)  # raises if not Prim intervals
        except Exception as exc:
            failures.append(f"prim-interval trial {trial}: {exc}")
        field = reorder_field_from_graph(g, o)
        lam = (t - 1.0 / n) * n ** (4.0 / 3.0)
        params = CriticalWindowParams(n, lam)
        z, y = z_walk(params, field)  # internal asserts: Psi relation, ladder
        s = surplus_field(params, z, field)
        walk_pairs = sorted(component_surpluses(z, s))
        components = component_filtration(g, o).components_at(params.p)
        graph_pairs = sorted((size, exc) for (_, size, exc) in components)
        if walk_pairs != graph_pairs:
            failures.append(f"surplus identity trial {trial}")
        zx = explore(g, params.p, o)
        if not np.array_equal(zx.values, z.values):
            failures.append(f"explore/z_walk mismatch trial {trial}")
        sizes_walk = sorted(walk_component_sizes(z), reverse=True)
        sizes_graph = sorted((size for (_, size, _) in components), reverse=True)
        if sizes_walk != sizes_graph:
            failures.append(f"excursion/component mismatch trial {trial}")
    with open(os.path.join(outdir, "invariants.json"), "w") as fh:
        json.dump({"trials": cfg["replicates"], "failures": failures}, fh, indent=2)
        fh.write("\n")
    return [], not failures


def _limit_mult_rep(args):
    seed, n, lam = args
    _, sizes, _ = graph_route(n, [lam], np.random.default_rng(seed))[0]
    return float(sizes[0]) / n ** (2.0 / 3.0)


def _limit_mult_brownian(args):
    seed, _, lam = args
    return limit_gamma(simulate_parabolic(lam, np.random.default_rng(seed)))[0]


def _limit_add_rep(args):
    seed, n, lam = args
    return _additive_rep((seed, n, [lam]))[0][1]


def _limit_add_brownian(args):
    seed, _, lam = args
    return limit_gamma(simulate_excursion(lam, np.random.default_rng(seed)))[0]


# kind -> (default lam, discrete side, Brownian side, verdict description);
# each side maps (seed, n, lam) to one sample.  Additive lam 0 is retention
# t = 1, one block, so its sides would agree on any code; main refuses it.
_LIMIT_SIDES = {
    "additive": (
        1.0, _limit_add_rep, _limit_add_brownian, "largest additive block vs largest tilted-excursion excursion"
    ),
    "multiplicative": (
        0.0, _limit_mult_rep, _limit_mult_brownian, "largest multiplicative mass vs largest parabolic excursion"
    ),
}


def cmd_limit_compare(cfg, outdir):
    _, *sides, desc = _LIMIT_SIDES[cfg["kind"]]
    args = (cfg["n"], cfg["lam"])
    # one child stream per side, so no run shares a stream with another seed
    discrete, brownian = (
        _run_replicates(fn, [(s, *args) for s in side.spawn(cfg["replicates"])], cfg["workers"])
        for fn, side in zip(sides, _replicate_seeds(cfg["seed"], 2))
    )
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
# ml-oracle's additive observation time, criterion 9's
S_OBS = 0.5
# ml-oracle's largest n: at n = 8 (22 partitions against 15 at 7), 200
# replicates and seed 3, correct code reads TV 0.200 against 0.2
ORACLE_MAX_N = 7


def _block_counts(sample, reps: int) -> Counter:
    """Count the distinct rows of sample(b) over blocks of b <= ORACLE_BLOCK."""
    counts = Counter()
    for k in range(0, reps, ORACLE_BLOCK):
        counts.update(row_counts(sample(min(ORACLE_BLOCK, reps - k))))
    return counts


def cmd_ml_oracle(cfg, outdir):
    """ML vs the graph route at lambda 0 and vs the forest at S_OBS, each sampler on its own stream."""
    n, reps, p = cfg["n"], cfg["replicates"], p_lambda(cfg["n"], 0.0)
    ml_mult_rng, graph_rng, ml_add_rng, forest_rng = map(np.random.default_rng, _replicate_seeds(cfg["seed"], 4))

    def graph_sizes(b):
        rep, sizes, _ = graph_route(n, [0.0], graph_rng, reps=b)[0]
        return replicate_rows(rep, sizes, b, n)

    ml_mult = _block_counts(lambda b: ml_multiplicative_sizes(n, p, ml_mult_rng, reps=b), reps)
    graph = _block_counts(graph_sizes, reps)
    v1 = tv_two_sample(ml_mult, graph, "ML multiplicative vs graph route", seeds=(cfg["seed"],))
    ml_add = _block_counts(lambda b: ml_additive_sizes(n, S_OBS, ml_add_rng, reps=b), reps)
    forest = _block_counts(lambda b: pitman_forest(n, forest_rng, reps=b).tree_sizes_at(S_OBS), reps)
    v2 = tv_two_sample(ml_add, forest, "ML additive vs forest process", seeds=(cfg["seed"],))
    with open(os.path.join(outdir, "verdicts.json"), "w") as fh:
        fh.write(v1.to_json() + "\n" + v2.to_json() + "\n")
    return [v1, v2], v1.passed and v2.passed


def cmd_trace(cfg, outdir):
    """Z(0..n+1) at each lambda, walked on one coupled sparse field."""
    ps = [p_lambda(cfg["n"], lam) for lam in cfg["lambdas"]]
    field = SparseField.sample(cfg["n"], max(ps), np.random.default_rng(cfg["seed"]))
    for lam, p in zip(cfg["lambdas"], ps):
        _write_rows(os.path.join(outdir, _trace_name(lam)), ["index", "z"], _TraceRows(field.walk(p)[0]))
    return [], True


def _trace_name(lam: float) -> str:
    """Output file of the trace at lambda; lambdas equal to 3 decimals share it."""
    tag = f"{lam:+.3f}".replace("+", "p").replace("-", "m").replace(".", "_")
    return f"trace_lambda_{tag}.csv"


# ---------------------------------------------------------------------------


# workers only schedules; every other key is listed under the commands that read it
_COMMON = {"workers": 1}
_REPLICATED = {"seed": 0, "replicates": 10}
_DEFAULTS = {
    "simulate-additive": {**_REPLICATED, "n": 1000, "lambdas": [1.0]},
    "simulate-multiplicative": {**_REPLICATED, "n": 1000, "lambdas": [0.0], "route": "graph"},
    "augmented": {**_REPLICATED, "n": 200, "lambdas": [-1.0, 0.0, 1.0]},
    "compare-orders": {},
    "verify-invariants": {**_REPLICATED},
    # lam None: the kind's, from _LIMIT_SIDES
    "limit-compare": {**_REPLICATED, "kind": "multiplicative", "n": 50000, "lam": None},
    "ml-oracle": {**_REPLICATED, "n": 6},
    "trace": {"seed": 0, "n": 1000, "lambdas": [-1.0, 0.0, 1.0]},
}


def _int_at_least(least: int):
    return lambda x: type(x) is int and x >= least


def _number(x) -> bool:
    return type(x) in (int, float)


def _one_of(*allowed: str):
    return str, lambda x: x in allowed, f"one of {', '.join(allowed)}"


# config key -> (its flag's type; the test its value must pass; what it must
# be).  Defaults < --config < flags, each key.
_KEYS = {
    "seed": (int, _int_at_least(0), "at least 0 and an integer"),
    "replicates": (int, _int_at_least(1), "at least 1 and an integer"),
    "workers": (int, _int_at_least(1), "at least 1 and an integer"),
    "n": (int, _int_at_least(1), "at least 1 and an integer"),
    "lam": (float, _number, "a number"),
    "lambdas": (_float_list, lambda x: type(x) is list and all(map(_number, x)), "a list of numbers"),
    "kind": _one_of(*_LIMIT_SIDES),
    "route": _one_of("graph", "walk"),
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
    parser = argparse.ArgumentParser(prog="primcoal", description="coalescent simulation experiments")
    parser.add_argument("command", choices=sorted(_HANDLERS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default="runs/latest")
    for key, (flag, _, _) in _KEYS.items():
        parser.add_argument(f"--{key}", type=flag)
    args = parser.parse_args(argv)

    cfg, file_cfg = {**_COMMON, **_DEFAULTS[args.command]}, {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"--config {args.config} is not a readable JSON file: {exc}")
        if type(file_cfg) is not dict:
            parser.error(f"--config {args.config} must hold a JSON object, got {file_cfg!r}")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
    flags = {key: val for key, val in vars(args).items() if key in _KEYS and val is not None}
    for key in sorted(flags.keys() - cfg.keys()):
        parser.error(f"--{key} not applicable to {args.command}")
    given = {**file_cfg, **flags}
    cfg.update(given)
    # limit-compare's lam, unless given, is its kind's
    if cfg.get("kind") in _LIMIT_SIDES and "lam" not in given:
        cfg["lam"] = _LIMIT_SIDES[cfg["kind"]][0]
    for key, value in cfg.items():
        _, test, want = _KEYS[key]
        if not test(value):
            parser.error(f"--{key} must be {want}, got {value!r}")
    if args.command == "ml-oracle" and cfg["n"] < 2:
        parser.error("--n must be at least 2 for ml-oracle: p_lambda(1, 0) = 1 puts ML's horizon at infinity")
    if args.command == "ml-oracle" and cfg["n"] > ORACLE_MAX_N:
        parser.error(
            f"--n must be at most {ORACLE_MAX_N} for ml-oracle: its TV threshold assumes a law of small"
            f" support, and the partitions of n outgrow it (22 at n = 8), so correct code fails"
        )
    if args.command in ("trace", "augmented") or cfg.get("route") == "walk":
        try:
            check_walk_size(cfg["n"])
        except ValueError as exc:
            parser.error(f"--n {cfg['n']} is too large for the walk route: {exc}")
    if args.command in ("limit-compare", "ml-oracle"):
        stat, threshold = ("KS", ks_threshold) if args.command == "limit-compare" else ("TV", tv_threshold)
        thr = threshold(cfg["replicates"], cfg["replicates"])
        if thr > 1:  # neither statistic exceeds 1, so such a verdict passes any code
            parser.error(f"--replicates {cfg['replicates']} is too few for {args.command}: its {stat} threshold"
                         f" {thr:.3f} exceeds 1, the most {stat} can read, so the verdict could not fail")
    if "lambdas" in cfg or "lam" in cfg:
        key = "lambdas" if "lambdas" in cfg else "lam"
        lambdas = cfg[key] if key == "lambdas" else [cfg[key]]
        if not lambdas:
            parser.error("--lambdas must list at least one lambda")
        additive = args.command == "simulate-additive" or cfg.get("kind") == "additive"
        for lam in lambdas:
            try:
                (retention_level if additive else p_lambda)(cfg["n"], lam)
            except ValueError as exc:
                parser.error(f"--{key}: {exc}")
        if cfg.get("kind") == "additive" and cfg["lam"] == 0:
            parser.error("--lam 0 is refused for kind additive: retention t = 1 leaves one block of mass 1,"
                         " and the tilted excursion one excursion of length 1, so the verdict could not fail")
        if args.command == "trace":
            seen = {}
            for lam in lambdas:
                name = _trace_name(lam)
                if name in seen:
                    parser.error(f"--lambdas: {seen[name]} and {lam} both write {name}")
                seen[name] = lam
    # the manifest lists every file in --out, so a used directory would
    # report files this run did not write
    if os.path.isdir(args.out) and os.listdir(args.out):
        parser.error(f"--out {args.out} is not empty; give a new or empty directory")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out {args.out} cannot be made a directory: {exc.strerror}")

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
