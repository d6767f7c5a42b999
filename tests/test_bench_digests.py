"""The benchmark's outputs, pinned: one pass of each workload of
bench/run.py at seed 7 must reproduce the digest of its per-op records.

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
    "spectral": "93e69576c1abcb4b31f984bc49d45c98b440b3a3c44b96eaa1e4f1866f742dd3",
    "algebra": "965bd9188332541d31ed147992de2cbe287630d946acf81e83486ea7fdf68447",
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


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_bench_pass_digest(bench_run, workload, tmp_path):
    lib = types.SimpleNamespace(**{m: importlib.import_module("padic_simpson." + m)
                                   for m in bench_run.LIB_MODULES})
    wl = bench_run.WORKLOADS[workload](lib, 7, str(tmp_path))
    stream = bench_run.Stream(wl)
    stream.run_pass(lib)
    assert bench_run.digest(stream.records) == DIGESTS[workload]
