"""primcoal benchmark driver.

Runs one workload in this process, closed loop with a single client: the
same seeded plan is repeated pass after pass until --seconds have elapsed
(and at least twice, so reruns can be compared byte for byte).  Run from
the repository root:

    python3 bench/run.py --workload dense-identity --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced passes and reports per-layer self time,
calls and counts, plus the tracing overhead.  See bench/README.md.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# pin BLAS/OpenMP pools before numpy is imported, here and in child processes
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("dense-identity", "additive-limit", "critical-window", "small-oracles")
DEFAULT_SEED = 1
MIN_PASSES = 2
SETUP_SAMPLES = 3

# A fresh interpreter: start, import the package and CLI, prepare the inputs.
# It probes the host's speed on its own core before and after, for the parent.
SETUP_CODE = """
import sys
src, bench, name, seed = sys.argv[1:5]
sys.path[:0] = [src, bench]
import speed
before = [speed.probe_once() for _ in range(5)]
import primcoal, primcoal.cli, workloads
workloads.WORKLOADS[name].prepare(int(seed))
print(*before, *[speed.probe_once() for _ in range(5)])
"""


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(name: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and speed-corrected seconds of fresh interpreters doing the set-up."""
    import speed

    raw, corrected = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), name, str(seed)],
            check=True,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        elapsed = time.perf_counter() - start
        raw.append(elapsed)
        corrected.append(elapsed * speed.speed_factor(float(x) for x in proc.stdout.split()))
    return raw, corrected


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "primcoal" / "__init__.py").is_file():
        print(f"error: no primcoal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import primcoal

    if Path(primcoal.__file__).resolve().parent != SRC / "primcoal":
        print(f"error: imported primcoal from {primcoal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import speed
    import tracer as tracing
    import workloads

    work = workloads.WORKLOADS[name]
    print("env " + json.dumps(environment(name, seed), sort_keys=True), flush=True)
    setup_raw, setup = ([], []) if trace else measure_setup(name, seed)
    plan = work.prepare(seed)
    checks = workloads.Checks()
    tracer = tracing.Tracer() if trace else None
    # pass times: raw seconds, and reference seconds (raw x host-speed factor)
    raw, untraced, traced, rates = [], [], [], []
    reference = None
    scratch = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        start = time.perf_counter()
        k = 0
        while k < MIN_PASSES or time.perf_counter() - start < seconds:
            traced_pass = trace and k % 2 == 1
            pass_dir = os.path.join(scratch, f"pass{k}")
            os.makedirs(pass_dir)
            with speed.SpeedProbe() as sampled:
                if traced_pass:
                    tracer.install()
                try:
                    res = work.run_pass(plan, pass_dir, checks)
                finally:
                    if traced_pass:
                        tracer.uninstall()
            shutil.rmtree(pass_dir)
            factor = sampled.factor()
            if traced_pass:
                tracer.close_pass(factor)
                traced.append(res.seconds * factor)
            else:
                raw.append(res.seconds)
                untraced.append(res.seconds * factor)
                rates.append(res.units / untraced[-1])
            if reference is None:
                reference = res.digests
            else:
                for step, digest in reference.items():
                    checks.record(
                        res.digests.get(step) == digest,
                        f"pass {k}: {step} outputs differ from pass 0",
                    )
            k += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(checks.failures)
    for what in checks.failures:
        print(f"FAILED CHECK: {what}", file=sys.stderr)
    wall = statistics.median(untraced)
    print(f"workload {name} seed {seed}: {res.units} units per pass")
    print("untraced pass_s " + " ".join(f"{t:.4f}" for t in untraced)
          + " (raw " + " ".join(f"{t:.4f}" for t in raw) + ")")
    if traced:
        print("traced pass_s " + " ".join(f"{t:.4f}" for t in traced))
    print(f"fail_frac {failed / checks.attempted!r} ({failed} of {checks.attempted} checks failed)")
    if trace:
        overhead = statistics.median(traced) / wall - 1.0
        values = tracing.layer_metrics(tracer, len(traced), overhead)
        if tracer.absent:
            print("absent " + " ".join(tracer.absent))
        for module in tracing.MODULES:
            print(f"{module}.self_s {values[module + '.self_s'][0]!r} s per pass")
        print(f"trace_overhead {overhead!r}")
    else:
        values = {
            "wall_s": (wall, "s"),
            "units_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes = {
            "wall_s": f"median of {len(untraced)} passes; raw {statistics.median(raw):.4f} s",
            "units_per_s": f"median over passes, {res.units} units per pass",
            "setup_s": f"median of {len(setup)} fresh interpreters; raw {statistics.median(setup_raw):.4f} s",
            "peak_rss_mb": "this process",
        }
        for key, (value, unit) in values.items():
            print(f"{key} {value!r} {unit} ({notes[key]})")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    keys = list(next(iter(results.values()))["metrics"])
    if not trace:
        print("")
        print(f"{'workload':<16}" + "".join(f"{k:>14}" for k in keys) + f"{'fail_frac':>12}")
        for name, res in results.items():
            row = "".join(f"{res['metrics'][k]['value']:>14.4f}" for k in keys)
            print(f"{name:<16}{row}{res['failed'] / res['attempted']:>12.4f}")
        print(f"{'unit':<16}" + "".join(f"{results[name]['metrics'][k]['unit']:>14}" for k in keys)
              + f"{'share':>12}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
