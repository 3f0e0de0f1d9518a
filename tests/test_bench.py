"""Smoke test of the benchmark: one traced pass of every workload.

The benchmark in bench/ calls the package by name and reads the shapes of
its results: the four calls of dense-identity, the CLI steps, and the names
its tracer wraps.  One pass of each workload here makes a break in any of
them fail the suite, and not only a benchmark run.  The bench modules load
without writing bytecode, so nothing under bench/ changes.
"""

import importlib.util
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# traced targets the package no longer defines; the benchmark reads them as 0
ABSENT = {
    "multiplicative.UniformField.sample",
    "multiplicative.connected_components",
    "oracles.empirical_counts",
}


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_workload_passes_once_traced(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads, tracer = _load("workloads", monkeypatch), _load("tracer", monkeypatch)
    for name, work in workloads.WORKLOADS.items():
        checks = workloads.Checks()
        traced = tracer.Tracer()
        traced.install()
        try:
            work.run_pass(work.prepare(1), str(tmp_path / name), checks)
        finally:
            traced.uninstall()
        assert checks.attempted and not checks.failures, name
        assert set(traced.absent) <= ABSENT, name
