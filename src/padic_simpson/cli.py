"""Command-line surface.

    simpson to-rep IN --out OUT        Higgs module -> representation
    simpson to-higgs IN --out OUT      representation -> Higgs module
    simpson cohomology IN              per-degree dimensions and margins
    simpson compare IN                 both pipelines; exit 0 iff they agree
    simpson spectral IN --out OUT      spectral algebra + tautological section
    simpson gen ... --out OUT          seeded valid instances
    simpson verify ...                 the acceptance suites

Exit codes: 0 ok, 1 suite failure, 2 validation/parse, 3 comparison
failure, 4 precision exhausted.  SIMPSON_PRECISION overrides the default
working precision.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io_json
from .context import DEFAULT_SLACK
from .errors import (
    ComparisonFailure,
    DivisionByZeroToPrecision,
    PadicError,
    ParseError,
    PrecisionExhausted,
    ValidationError,
)
from .generate import gen_higgs, gen_rep
from .higgs import higgs_to_rep, rep_to_higgs, spectral_algebra
from .koszul import compare_cohomology, group_cohomology, higgs_cohomology
from .verify import SUITE_NAMES, VerifyConfig, run_verify

EXIT_OK = 0
EXIT_SUITE = 1
EXIT_VALIDATION = 2
EXIT_COMPARISON = 3
EXIT_PRECISION = 4


def _precision(flag):
    """The --precision value when it is given (0 included: PrimeContext
    refuses it), else SIMPSON_PRECISION, else 32."""
    if flag is not None:
        return flag
    env = os.environ.get("SIMPSON_PRECISION")
    if not env:
        return 32
    try:
        return int(env)
    except ValueError:
        raise ParseError("SIMPSON_PRECISION must be an integer, got %r" % env) from None


def build_parser():
    top = argparse.ArgumentParser(prog="simpson", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, needs_out=False, slack=False):
        p.add_argument("--precision", type=int, default=None,
                       help="override the file's working precision")
        if slack:  # only the commands that decide ranks read it
            p.add_argument("--slack", type=int, default=DEFAULT_SLACK,
                           help="minimum digits of evidence behind rank decisions")
        if needs_out:
            p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("to-rep", help="exponentiate a Higgs instance")
    p.add_argument("input")
    common(p, needs_out=True)

    p = sub.add_parser("to-higgs", help="take logs of a representation instance")
    p.add_argument("input")
    common(p, needs_out=True)

    p = sub.add_parser("cohomology", help="per-degree dimensions of one instance")
    p.add_argument("input")
    common(p, slack=True)

    p = sub.add_parser("compare", help="Higgs vs group cohomology of a higgs file")
    p.add_argument("input")
    common(p, slack=True)

    p = sub.add_parser("spectral", help="spectral algebra of a higgs file")
    p.add_argument("input")
    common(p, needs_out=True)

    p = sub.add_parser("gen", help="generate a valid instance")
    p.add_argument("--kind", choices=("higgs", "rep"), default="higgs")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--density", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=0)
    common(p, needs_out=True)

    p = sub.add_parser("verify", help="run the acceptance suites")
    p.add_argument("--suites", default=",".join(SUITE_NAMES),
                   help="comma-separated subset of: %s" % ", ".join(SUITE_NAMES))
    p.add_argument("--primes", default="3,5,7")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-max", type=int, default=3)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--slack", type=int, default=DEFAULT_SLACK)
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    p.add_argument("--counterexample-dir", default=".",
                   help="where to drop the first failing instance")
    p.add_argument("--fixture", default=None,
                   help="also run the roundtrip suite on this instance file")
    return top


def _metadata(text, command, precision):
    return {
        "source_sha256": io_json.file_hash(text),
        "command": command,
        "precision": precision,
    }


def cmd_to_rep(args):
    return _convert(args, "to-rep", io_json.higgs_from_json, higgs_to_rep, io_json.rep_to_json)


def cmd_to_higgs(args):
    return _convert(args, "to-higgs", io_json.rep_from_json, rep_to_higgs, io_json.higgs_to_json)


def _convert(args, command, read, convert, write):
    """Read one side, convert it (which validates it) and write the other."""
    obj, text = io_json.load_instance(args.input)
    X = read(obj, args.precision)
    Y = convert(X)
    io_json.write_instance(args.out, write(Y, _metadata(text, command, X.ctx.default_precision)))
    print("wrote %s (rank %d, d %d, p %d)" % (args.out, Y.rank, Y.d, Y.ctx.p))
    return EXIT_OK


def cmd_cohomology(args):
    obj, _ = io_json.load_instance(args.input)
    kind = obj.get("kind")
    if kind == "higgs":
        report = higgs_cohomology(io_json.higgs_from_json(obj, args.precision), args.slack)
    elif kind == "rep":
        report = group_cohomology(io_json.rep_from_json(obj, args.precision), args.slack)
    else:
        raise ParseError("cohomology expects a higgs or rep file, found %r" % kind)
    print("h =", " ".join(str(x) for x in report.h))
    print("margins =", " ".join(str(m) if m is not None else "-" for m in report.margins))
    print("side =", report.side)
    return EXIT_OK


def cmd_compare(args):
    obj, _ = io_json.load_instance(args.input)
    H = io_json.higgs_from_json(obj, args.precision)
    out = compare_cohomology(H, args.slack)
    print("higgs h =", " ".join(str(x) for x in out.higgs.h))
    print("group h =", " ".join(str(x) for x in out.group.h))
    print("unit witness:", "ok" if out.unit_witness_ok else "FAILED")
    return EXIT_OK if out.ok else EXIT_COMPARISON


def cmd_spectral(args):
    obj, text = io_json.load_instance(args.input)
    H = io_json.higgs_from_json(obj, args.precision)
    S = spectral_algebra(H)
    out = io_json.twist_to_json(
        S.algebra, S.tau, metadata=_metadata(text, "spectral", H.ctx.default_precision)
    )
    io_json.write_instance(args.out, out)
    print("spectral algebra dim %d (rank %d instance); wrote %s"
          % (S.algebra.dim, H.rank, args.out))
    return EXIT_OK


def cmd_gen(args):
    precision = _precision(args.precision)
    if args.kind == "higgs":
        H = gen_higgs(args.p, args.d, args.rank, args.density, args.seed, precision)
        obj = io_json.higgs_to_json(H, {"seed": args.seed, "density": args.density})
    else:
        V = gen_rep(args.p, args.d, args.rank, args.density, args.seed, precision)
        obj = io_json.rep_to_json(V, {"seed": args.seed, "density": args.density})
    io_json.write_instance(args.out, obj)
    print("wrote %s" % args.out)
    return EXIT_OK


def cmd_verify(args):
    try:
        primes = tuple(int(x) for x in args.primes.split(","))
    except ValueError:
        raise ParseError("--primes takes a comma-separated list of integers, got %r"
                         % args.primes) from None
    cfg = VerifyConfig(
        suites=tuple(s.strip() for s in args.suites.split(",") if s.strip()),
        primes=primes,
        d_max=args.d_max,
        n_max=args.n_max,
        count=args.count,
        seed=args.seed,
        slack=args.slack,
        precision=_precision(args.precision),
    )
    fixture = None
    if args.fixture:
        obj, _ = io_json.load_instance(args.fixture)
        if obj.get("kind") == "higgs":
            fixture = io_json.higgs_from_json(obj)
        elif obj.get("kind") == "rep":
            fixture = io_json.rep_from_json(obj)
        else:
            raise ParseError("fixture must be a higgs or rep file")
    summary, ok = run_verify(cfg, fixture)
    for name in cfg.suites:
        s = summary["suites"][name]
        print("%-14s pass %-5d fail %d" % (name, s["passed"], s["failed"]))
    if args.out:
        io_json.write_instance(args.out, summary)
        print("summary written to %s" % args.out)
    if not ok:
        first = next(
            (s["counterexample"] for n, s in summary["suites"].items() if s.get("counterexample")),
            None,
        )
        if first is not None:
            suite = first.get("suite") or first.get("metadata", {}).get("suite", "unknown")
            path = os.path.join(args.counterexample_dir, "counterexample_%s.json" % suite)
            io_json.write_instance(path, first)
            print("first counterexample written to %s (replayable instance when "
                  "it carries a kind field)" % path, file=sys.stderr)
        return EXIT_SUITE
    return EXIT_OK


_COMMANDS = {
    "to-rep": cmd_to_rep,
    "to-higgs": cmd_to_higgs,
    "cohomology": cmd_cohomology,
    "compare": cmd_compare,
    "spectral": cmd_spectral,
    "gen": cmd_gen,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a negative slack would ask for fewer digits than a decision rests on
        if getattr(args, "slack", 0) < 0:
            raise ParseError("the slack must be at least 0, got %d" % args.slack)
        return _COMMANDS[args.command](args)
    except ComparisonFailure as exc:
        print("comparison failure: %s" % exc, file=sys.stderr)
        return EXIT_COMPARISON
    except (PrecisionExhausted, DivisionByZeroToPrecision) as exc:
        print("precision exhausted: %s" % exc, file=sys.stderr)
        print("hint: rerun with a higher --precision (or SIMPSON_PRECISION)", file=sys.stderr)
        return EXIT_PRECISION
    except (ParseError, ValidationError) as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except PadicError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
