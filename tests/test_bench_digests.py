"""The benchmark's outputs, pinned: one pass of each workload of
bench/run.py at seed 7, and at the held-out seed 23, must reproduce the
digest of its per-op records; and every library name bench/tracer.py
patches must exist.

A change meant only to make the program faster must leave every output
byte-identical; this checks it on the benchmark's own stream.  The
library is the one already imported here (bench/run.py's load_library
would import the package afresh), and bench/ is only read.
"""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

DIGESTS = {
    "pipeline": "7adbd885fe378017a0024e7d13eeaf14482cfc5ca64951ab1a9ca31aa69d6c4a",
    "spectral": "c02518acf1347b07399850f42a3551ec18bb4247ae5603666641b89bd7d18aa9",
    "algebra": "5c53f8ca2f186e0ef36e20f8f6d98b89bb5a234429c58bdd6ff14827be3b7ffb",
}

HELD_OUT_DIGESTS = {
    "pipeline": "2e2f7f196edf241f0f10f33024463201bc42958b7cc73a096cfe8b10fc49d0e0",
    "spectral": "c02518acf1347b07399850f42a3551ec18bb4247ae5603666641b89bd7d18aa9",
    "algebra": "02f705d5016eea2e1b7c9a5aa257d5c21b60f05f3317c96d1304ad63f64590a4",
}


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py as a module, with the helpers it imports from bench/;
    sys.path and sys.modules are restored afterwards."""
    before = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        yield run
    finally:
        sys.path.remove(str(BENCH))
        for name in set(sys.modules) - before:
            if not name.startswith("padic_simpson"):
                del sys.modules[name]


def pass_digest(bench_run, workload, seed, tmp_path):
    """The digest of one pass of workload at seed, on the library here."""
    lib = types.SimpleNamespace(**{m: importlib.import_module("padic_simpson." + m)
                                   for m in bench_run.LIB_MODULES})
    wl = bench_run.WORKLOADS[workload](lib, seed, str(tmp_path))
    stream = bench_run.Stream(wl)
    stream.run_pass(lib)
    return bench_run.digest(stream.records)


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_bench_pass_digest(bench_run, workload, tmp_path):
    assert pass_digest(bench_run, workload, 7, tmp_path) == DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(HELD_OUT_DIGESTS))
def test_bench_pass_digest_held_out_seed(bench_run, workload, tmp_path):
    assert pass_digest(bench_run, workload, 23, tmp_path) == HELD_OUT_DIGESTS[workload]


def test_tracer_names_exist():
    # the tracer looks each name up by attribute when `bench/run.py --trace 1`
    # installs it, so a renamed or deleted one breaks only the traced run
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod, names in tracer.SPAN_FUNCTIONS.items():
        module = importlib.import_module("padic_simpson." + mod)
        for name in names:
            assert callable(getattr(module, name, None)), (mod, name)
    for mod, cls, meth in tracer.SPAN_METHODS + tracer.COUNT_METHODS:
        assert meth in vars(getattr(importlib.import_module("padic_simpson." + mod), cls)), (
            mod, cls, meth)
