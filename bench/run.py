"""Benchmark of padic-simpson.

    python3 bench/run.py --workload {pipeline,spectral,algebra} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its src/.
One client in one process and one thread drives a closed loop: each op
starts when the previous one has finished and been checked.  Set-up
(import, instance generation from --seed, one warm-up op) is repeated
SETUP_REPEATS times and its median reported as setup_s.  All reported
times are scaled to a fixed reference speed (see REF_SECONDS).  Then the gate
self-check feeds the checker corrupted outputs and aborts unless it
rejects each one.

A pass runs every item of the workload's pool once.  --trace 0 runs whole
passes (at least MIN_PASSES) while the next pass is expected to end within
--seconds, and reports the end-to-end metrics: throughput and latency
percentiles over all ops of the run.
--trace 1 runs one pass untraced, then one with the tracer installed,
reports the per-layer metrics plus the tracing overhead, and writes the
spans to .bench_trace/; end-to-end numbers never come from a traced run.
The digest and the output digits cover the first pass, so they depend on
the seed alone.

An op that the program refuses (a PadicError, or a CLI refusal exit code)
or whose output fails its check counts as failed and is still timed.
"correct" is false only when an output was wrong: digits that differ, a
wrong h-vector.  A refusal, or an output short of the digits it is checked
at, fails the op but is not a wrong answer.  The last
line of standard output is the JSON result; the line before it, starting
with "report:", adds the outputs digest, provenance and the raw times.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

from checks import digest
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LIB_MODULES = ("context", "errors", "scalar", "_series", "linalg", "matrix", "algebra",
               "components", "unitgroup", "higgs", "koszul", "generate", "io_json", "cli")
SETUP_REPEATS = 5
MIN_PASSES = 3  # pools hold >= 72 ops, so >= 21 latencies lie beyond op_p90_ms

# The host's speed swings by 20-30% over a few seconds, with the same code
# and inputs, so raw times would spread more between runs than any useful
# regression bound.  A fixed reference snippet is therefore timed right
# after every op and around every set-up, and the reported times are scaled
# to a machine on which the reference takes REF_SECONDS: each op's time is
# multiplied by REF_SECONDS over the median reference time of the ops
# around it (REF_WINDOW on each side).  The reference is the benchmark's
# own code, so a change to the library moves the scaled times as it moves
# the raw ones.  Raw figures are kept in the report line.
REF_LOOPS = 2000
REF_SECONDS = 0.00055  # median reference time on the 2-core VM of bench/baseline.json
REF_WINDOW = 8


def reference():
    x = 1
    for i in range(REF_LOOPS):
        x = (x * 1103515245 + i) % 4294967291
    return x


def time_reference():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def load_library():
    """Import padic_simpson afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "padic_simpson" or m.startswith("padic_simpson.")]:
        del sys.modules[name]
    pkg = importlib.import_module("padic_simpson")
    if Path(pkg.__file__).resolve().parent != (SRC / "padic_simpson").resolve():
        raise SystemExit("padic_simpson was imported from %s, not from %s" % (pkg.__file__, SRC))
    return types.SimpleNamespace(
        **{m: importlib.import_module("padic_simpson." + m) for m in LIB_MODULES})


class Outcome:
    __slots__ = ("seconds", "status", "detail", "data", "ref")

    def __init__(self, seconds, status, detail="", data=None):
        self.seconds = seconds
        self.ref = None  # time of the reference run after this op
        self.status = status  # "ok", "refused", "short" or "wrong"
        self.detail = detail
        self.data = data


def run_op(lib, wl, item, tracer=None, op_id=None):
    """One timed op, then its untimed and untraced check."""
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    try:
        raw = wl.run(item)
    except lib.errors.PadicError as exc:
        return Outcome(time.perf_counter() - start, "refused", _describe(exc))
    finally:
        if tracer is not None:
            tracer.op = None
    seconds = time.perf_counter() - start
    try:
        data = wl.extract(item, raw)
    except lib.errors.PadicError as exc:
        return Outcome(seconds, "refused", _describe(exc))
    if data.get("refused"):
        return Outcome(seconds, "refused", data["refused"])
    problems = wl.check(item, data)
    kinds = {kind for kind, _ in problems}
    status = "wrong" if "wrong" in kinds else "short" if kinds else "ok"
    return Outcome(seconds, status, "; ".join(text for _, text in problems), data)


def _describe(exc):
    return "%s: %s" % (type(exc).__name__, str(exc)[:160])


def set_up(workload, seed, workdir):
    """Set up SETUP_REPEATS times; return the last set-up and the median
    time, raw and scaled by the reference runs before and after each."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        refs = [time_reference() for _ in range(3)]
        start = time.perf_counter()
        lib = load_library()
        wl = workload(lib, seed, workdir)
        warm = run_op(lib, wl, wl.warmup_item)
        raw.append(time.perf_counter() - start)
        refs += [time_reference() for _ in range(3)]
        scaled.append(raw[-1] * REF_SECONDS / statistics.median(refs))
    return lib, wl, warm, statistics.median(raw), statistics.median(scaled)


def self_check(lib, wl, warm):
    """The checker must reject corrupted copies of a passing output."""
    item, outcome = wl.warmup_item, warm
    for candidate in wl.pool(0)[:20]:
        if outcome.status == "ok":
            break
        item, outcome = candidate, run_op(lib, wl, candidate)
    if outcome.status != "ok":
        raise SystemExit("gate self-check: no passing op to corrupt (%s)" % outcome.detail)
    labels = []
    for label, spoiled in wl.corruptions(item, outcome.data):
        if not wl.check(item, spoiled):
            raise SystemExit("gate self-check: an output with %s passed the check" % label)
        labels.append(label)
    return labels


class Stream:
    """Outcomes of a run, with the digest over its first pass."""

    def __init__(self, wl):
        self.wl = wl
        self.outcomes = []
        self.pass_seconds = []
        self.records = []
        self.digits = []

    def run_pass(self, lib, tracer=None):
        first = not self.outcomes
        outcomes = []
        for k, item in enumerate(self.wl.pool(len(self.pass_seconds))):
            outcome = run_op(lib, self.wl, item, tracer, k)
            outcome.ref = time_reference()
            if first:
                self._record(item, outcome)
            outcomes.append(outcome)
        self.outcomes += outcomes
        self.pass_seconds.append(sum(o.seconds for o in outcomes))

    def _record(self, item, outcome):
        if outcome.data is None:
            self.records.append([self.wl.label(item), outcome.status, outcome.detail])
        else:
            self.records.append([self.wl.label(item), outcome.status,
                                 self.wl.fields(outcome.data)])
            digits = self.wl.digits(outcome.data)
            if digits is not None:
                self.digits.append(digits)

    def count(self, status):
        return sum(1 for o in self.outcomes if o.status == status)

    def first_failures(self, k=3):
        return [o.detail for o in self.outcomes if o.status != "ok"][:k]


def timed_run(lib, wl, seconds):
    stream = Stream(wl)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        stream.run_pass(lib)
        now = time.perf_counter()
        if (len(stream.pass_seconds) >= MIN_PASSES
                and now + (now - pass_start) - start > seconds):
            return stream


def traced_run(lib, wl, spans_path):
    untraced = Stream(wl)
    untraced.run_pass(lib)
    tracer = Tracer(lib)
    stream = Stream(wl)
    tracer.install()
    try:
        stream.run_pass(lib, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    metrics = tracer.metrics(len(stream.outcomes))
    metrics["trace.overhead"] = {"value": stream.pass_seconds[0] / untraced.pass_seconds[0],
                                 "unit": "ratio"}
    return stream, metrics


def scaled_seconds(outcomes):
    """Each op's time at the reference speed (see REF_SECONDS)."""
    refs = [o.ref for o in outcomes]
    return [o.seconds * REF_SECONDS
            / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, o in enumerate(outcomes)]


def timings(seconds):
    """Throughput and latency percentiles of a list of op times."""
    lat = sorted(seconds)
    n = len(lat)
    return n / sum(lat), 1000.0 * statistics.median(lat), 1000.0 * lat[math.ceil(0.9 * n) - 1]


def end_to_end(stream, setup_s):
    ops_per_s, p50, p90 = timings(scaled_seconds(stream.outcomes))
    n = len(stream.outcomes)
    return {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_p50_ms": {"value": p50, "unit": "ms"},
        "op_p90_ms": {"value": p90, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "ok_ratio": {"value": stream.count("ok") / n, "unit": "ratio"},
        "out_digits_mean": {"value": statistics.fmean(stream.digits) if stream.digits else 0.0,
                            "unit": "digits"},
    }


def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
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
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "padic_simpson" / "__init__.py").is_file():
        print("no library sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    try:
        lib, wl, warm, raw_setup_s, setup_s = set_up(WORKLOADS[args.workload], args.seed,
                                                     workdir)
        gate = self_check(lib, wl, warm)
        if args.trace:
            spans_dir = ROOT / ".bench_trace"
            spans_dir.mkdir(exist_ok=True)
            spans_path = spans_dir / ("%s-seed%d.json" % (args.workload, args.seed))
            stream, metrics = traced_run(lib, wl, spans_path)
        else:
            stream = timed_run(lib, wl, args.seconds)
            metrics = end_to_end(stream, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is using it

    attempted = len(stream.outcomes)
    failed = attempted - stream.count("ok")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": attempted,
        "refused": stream.count("refused"),
        "short": stream.count("short"),
        "wrong": stream.count("wrong"),
        "fail_ratio": failed / attempted,
        "out_digits_min": min(stream.digits) if stream.digits else None,
        "first_failures": stream.first_failures(),
        "digest": digest(stream.records),
        "digest_ops": len(stream.records),
        "gate_self_check": gate,
        "provenance": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "run_seconds": args.seconds,
            "passes": len(stream.pass_seconds),
            "pass_seconds": stream.pass_seconds,
        },
        "raw": dict(zip(("ops_per_s", "op_p50_ms", "op_p90_ms"),
                        timings([o.seconds for o in stream.outcomes])),
                    setup_s=raw_setup_s,
                    ref_ms=1000.0 * statistics.median(o.ref for o in stream.outcomes)),
    }
    print("%s seed %d: %d ops, %d failed (%d refused, %d short of digits, %d wrong)"
          % (args.workload, args.seed, attempted, failed, report["refused"],
             report["short"], report["wrong"]))
    for name, m in metrics.items():
        print("  %-30s %14.4f %s" % (name, m["value"], m["unit"]))
    print("  %-30s %14.4f %s" % ("fail_ratio", report["fail_ratio"], "ratio"))
    if report["out_digits_min"] is not None:
        print("  %-30s %14d %s" % ("out_digits_min", report["out_digits_min"], "digits"))
    print("  digest %s over the first %d ops" % (report["digest"], report["digest_ops"]))
    if args.trace:
        print("  spans written to %s" % spans_path.relative_to(ROOT))
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": report["wrong"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
