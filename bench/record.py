"""Record the benchmark baseline of the current commit.

    python3 bench/record.py [--seed N]

Runs bench/run.py once untraced and once traced on every workload named in
BENCHMARK.json, one after another, and writes bench/baseline.json: the
end-to-end metrics, the per-layer metrics, the outputs digest and the
provenance of each run.  The digest is a record of behaviour for later
comparison, not a gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(l for l in lines if l.startswith("report: "))[len("report: "):])
    return report, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {"seed": args.seed, "run_seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        report, result = run(name, args.seed, seconds, 0)
        traced_report, traced = run(name, args.seed, seconds, 1)
        provenance = dict(report["provenance"])
        passes = provenance.pop("pass_seconds")
        del provenance["passes"], provenance["run_seconds"]
        out["provenance"] = provenance
        out["workloads"][name] = {
            "why": w["why"],
            "ops": result["attempted"],
            "pass_seconds": passes,
            "failed": result["failed"],
            "first_failures": report["first_failures"],
            "end_to_end": result["metrics"],
            "raw": report["raw"],
            "fail_ratio": report["fail_ratio"],
            "out_digits_min": report["out_digits_min"],
            "digest": report["digest"],
            "digest_ops": report["digest_ops"],
            "traced_digest": traced_report["digest"],
            "traced_ops": traced["attempted"],
            "per_layer": traced["metrics"],
        }
        print("%s: %d ops, digest %s" % (name, result["attempted"], report["digest"]))
    path = ROOT / "bench" / "baseline.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
