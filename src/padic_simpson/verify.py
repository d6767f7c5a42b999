"""The verify suites: seeded batteries for every module invariant.

Each suite runs a deterministic battery derived from (config, seed) and
reports pass/fail counts plus the first counterexample, serialised for
replay.  Summaries are canonical JSON: identical configs give identical
bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import FinAlgebra, Morphism, alg_exp, alg_log
from .context import DEFAULT_SLACK, PrimeContext
from .errors import (
    OutsideExpDomain,
    OutsideLogDomain,
    PadicError,
)
from .generate import gen_commuting_units, gen_higgs
from .higgs import (
    HiggsModule,
    SmallRep,
    direct_sum,
    dual,
    higgs_to_rep,
    make_twist,
    rep_to_higgs,
    spectral_algebra,
    tensor,
    twist_higgs,
)
from .io_json import higgs_to_json
from .koszul import compare_cohomology, group_cohomology, higgs_cohomology, koszul_unit_scaling_check
from .scalar import PadicScalar, exp_scalar, log_scalar
from .unitgroup import cart_square_check

SUITE_NAMES = (
    "roundtrip",
    "cohomology",
    "functoriality",
    "explog",
    "cartdiag",
    "unitscaling",
    "spectral",
)


@dataclass(frozen=True)
class VerifyConfig:
    suites: tuple = SUITE_NAMES
    primes: tuple = (3, 5, 7)
    d_max: int = 3
    n_max: int = 4
    count: int = 50
    seed: int = 0
    slack: int = DEFAULT_SLACK
    precision: int = 32

    def __post_init__(self):
        if self.count < 1:
            raise PadicError("count must be at least 1")
        if self.d_max < 1 or self.n_max < 1:
            raise PadicError("d_max and n_max must be at least 1")
        if self.d_max > 4 or self.n_max > 6:
            raise PadicError("soft limits: d_max <= 4, n_max <= 6 keep runs desk-scale")
        if not self.suites:
            raise PadicError("no suites to run: name at least one of %s" % ", ".join(SUITE_NAMES))
        unknown = set(self.suites) - set(SUITE_NAMES)
        if unknown:
            raise PadicError("unknown suites: %s" % ", ".join(sorted(unknown)))


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    counterexample: dict | None = None

    def record(self, ok: bool, counterexample=None):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.counterexample is None:
                self.counterexample = counterexample

    def to_json(self):
        out = {"passed": self.passed, "failed": self.failed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _instances(cfg: VerifyConfig):
    """Deterministic instance stream: cycle primes, sizes and densities
    (densities include 0, so trivial objects are mixed in)."""
    densities = (0.0, 0.35, 0.6, 0.85)
    for idx in range(cfg.count):
        p = cfg.primes[idx % len(cfg.primes)]
        d = 1 + (idx // len(cfg.primes)) % cfg.d_max
        rank = 1 + (idx * 7 + idx // 5) % cfg.n_max
        density = densities[idx % len(densities)]
        seed = cfg.seed * 1000003 + idx
        yield idx, gen_higgs(p, d, rank, density=density, seed=seed, precision=cfg.precision)


def _ce(kind, H, detail, replay):
    """Counterexample payload.  When the failing object is a Higgs instance
    the payload IS that instance file (replayable directly through the
    corresponding command), with the failure context in its metadata."""
    if H is not None:
        return higgs_to_json(H, {"suite": kind, "detail": detail, "replay": replay})
    return {"suite": kind, "detail": detail, "replay": replay}


def suite_roundtrip(cfg: VerifyConfig, fixture=None) -> SuiteResult:
    """Correspondence round-trips both ways at N - 8, plus the exact
    triviality criterion (theta = 0 iff rho = 1); a fixture is judged at
    its own N - 8."""
    res = SuiteResult("roundtrip")
    prec = cfg.precision - 8
    if fixture is not None:
        try:
            _roundtrip_one(fixture, fixture.ctx.default_precision - 8)
            res.record(True)
        except PadicError as exc:
            res.record(False, _ce("roundtrip", fixture if isinstance(fixture, HiggsModule) else None,
                                  "fixture rejected: %s" % exc, "simpson to-rep <counterexample>"))
    for idx, H in _instances(cfg):
        V = higgs_to_rep(H)
        back = rep_to_higgs(V)
        ok = back.agrees(H, prec)
        again = higgs_to_rep(back)
        ok = ok and again.agrees(V, prec)
        trivial_ok = H.is_trivial() == V.is_trivial() == back.is_trivial()
        res.record(
            ok and trivial_ok,
            _ce("roundtrip", H, "round-trip disagreement beyond N-8"
                if not ok else "triviality criterion misclassified",
                "simpson to-rep <file> then to-higgs and compare"),
        )
    return res


def _roundtrip_one(obj, prec):
    """Round-trip a single instance (Higgs or representation); raises on a
    validation or tolerance failure."""
    if isinstance(obj, HiggsModule):
        there, back = higgs_to_rep, rep_to_higgs
    elif isinstance(obj, SmallRep):
        there, back = rep_to_higgs, higgs_to_rep
    else:
        raise PadicError("fixture kind not usable in the roundtrip suite")
    if not back(there(obj)).agrees(obj, prec):
        raise PadicError("fixture round-trip disagreement beyond the tolerance")


def suite_cohomology(cfg: VerifyConfig) -> SuiteResult:
    """Per-degree equality of both pipelines on every instance, plus the
    binomial shape of the trivial rank-1 object for d = 1, 2, 3."""
    res = SuiteResult("cohomology")
    for p in cfg.primes:
        for d in (1, 2, 3):
            ctx = PrimeContext(p, cfg.precision)
            shape = [_binomial(d, k) for k in range(d + 1)]
            hig = higgs_cohomology(HiggsModule.trivial(ctx, d), cfg.slack)
            grp = group_cohomology(higgs_to_rep(HiggsModule.trivial(ctx, d)), cfg.slack)
            ok = list(hig.h) == shape and list(grp.h) == shape
            res.record(ok, _ce("cohomology", HiggsModule.trivial(ctx, d),
                               "trivial object shape != binomial", "simpson compare <file>"))
    for idx, H in _instances(cfg):
        try:
            out = compare_cohomology(H, cfg.slack)
            ok = out.ok
            detail = "unit witness failed" if not out.unit_witness_ok else "degree mismatch"
        except PadicError as exc:
            ok = False
            detail = str(exc)
        res.record(ok, _ce("cohomology", H, detail if not ok else "", "simpson compare <file>"))
    return res


def _binomial(d, k):
    out = 1
    for i in range(k):
        out = out * (d - i) // (i + 1)
    return out


def suite_functoriality(cfg: VerifyConfig) -> SuiteResult:
    """The correspondence commutes with direct sum, tensor and dual."""
    res = SuiteResult("functoriality")
    prec = cfg.precision - 8
    pairs = list(_instances(cfg))
    for (i, a), (j, b) in zip(pairs, pairs[1:] + pairs[:1]):
        if a.ctx.p != b.ctx.p or a.d != b.d:
            b = gen_higgs(a.ctx.p, a.d, max(1, b.rank), seed=cfg.seed * 999 + i,
                          precision=cfg.precision)
        ok = higgs_to_rep(direct_sum(a, b)).agrees(
            direct_sum(higgs_to_rep(a), higgs_to_rep(b)), prec
        )
        ok = ok and higgs_to_rep(tensor(a, b)).agrees(
            tensor(higgs_to_rep(a), higgs_to_rep(b)), prec
        )
        ok = ok and higgs_to_rep(dual(a)).agrees(dual(higgs_to_rep(a)), prec)
        res.record(ok, _ce("functoriality", a, "a functor square failed at N-8",
                           "simpson to-rep on the paired instances"))
    return res


def suite_explog(cfg: VerifyConfig) -> SuiteResult:
    """Scalar and algebra exp/log round-trips at N - 4, plus domain
    rejections (including the p = 2 valuation-2 bound)."""
    res = SuiteResult("explog")
    prec = cfg.precision - 4
    per_prime = max(1, cfg.count)
    for p in cfg.primes:
        ctx = PrimeContext(p, cfg.precision)
        e0 = ctx.e0
        rng = random.Random("explog:%d:%d" % (p, cfg.seed))
        for _ in range(per_prime):
            x = PadicScalar.from_int(ctx, p ** e0 * rng.randrange(0, p ** (cfg.precision - e0)))
            u = PadicScalar.from_int(ctx, 1 + p ** e0 * rng.randrange(0, p ** (cfg.precision - e0)))
            ok = log_scalar(exp_scalar(x)).agrees(x, prec)
            ok = ok and exp_scalar(log_scalar(u)).agrees(u, prec)
            res.record(ok, _ce("explog", None, "scalar exp/log round-trip failed mod p^%d" % prec,
                               "rerun suite explog with the same seed"))
        # domain rejections
        bad = PadicScalar.from_int(ctx, p ** (e0 - 1)) if e0 > 1 else PadicScalar.from_int(ctx, 1)
        try:
            exp_scalar(bad)
            res.record(False, _ce("explog", None, "exp accepted valuation < e0", ""))
        except OutsideExpDomain:
            res.record(True)
        try:
            log_scalar(PadicScalar.from_int(ctx, 2))  # val(2 - 1) = 0 < 1
            res.record(False, _ce("explog", None, "log accepted a non-1-unit", ""))
        except OutsideLogDomain:
            res.record(True)
        # algebra elements on the standard battery
        batteries = [
            FinAlgebra.from_power_relation(ctx, [0, 0]),
            FinAlgebra.from_power_relation(ctx, [0, 0, 0]),
            FinAlgebra.from_power_relation(ctx, [0, 1]),
        ]
        for A in batteries:
            for _ in range(max(1, per_prime // 10)):
                coords = [p ** e0 * rng.randrange(0, p ** 6) for _ in range(A.dim)]
                x = A.from_ints(coords)
                ok = alg_log(alg_exp(x)).agrees(x, prec)
                res.record(ok, _ce("explog", None,
                                   "algebra exp/log round-trip failed (dim %d)" % A.dim, ""))
    return res


def suite_cartdiag(cfg: VerifyConfig) -> SuiteResult:
    """The unit-group square battery: K, K[x]/(x^2), K[x]/(x^3),
    K[x]/(x^2-x), K[x]/(x^2-c) for a square and a non-square unit c."""
    res = SuiteResult("cartdiag")
    for p in cfg.primes:
        ctx = PrimeContext(p, cfg.precision)
        K = FinAlgebra.field(ctx)
        ident = Morphism.create(K, K, [K.unit()])
        cases = [(K, ident, "K = K")]
        for rel, name in (
            ([0, 0], "K[x]/(x^2)"),
            ([0, 0, 0], "K[x]/(x^3)"),
            ([0, 1], "K[x]/(x^2-x)"),
        ):
            A = FinAlgebra.from_power_relation(ctx, rel)
            images = [K.unit()] + [K.zero()] * (A.dim - 1)
            cases.append((A, Morphism.create(A, K, images), name))
        # square c = 4 has the exact root 2 at every prime
        A_sq = FinAlgebra.from_power_relation(ctx, [4, 0])
        images = [K.unit(), K.scalar_element(PadicScalar.from_int(ctx, 2))]
        cases.append((A_sq, Morphism.create(A_sq, K, images), "K[x]/(x^2-4)"))
        nonsq = _nonsquare_unit(p)
        A_ns = FinAlgebra.from_power_relation(ctx, [nonsq, 0])
        ident_ns = Morphism.create(
            A_ns, A_ns, [A_ns.basis_element(0), A_ns.basis_element(1)]
        )
        cases.append((A_ns, ident_ns, "K[x]/(x^2-%d)" % nonsq))
        for A, f, name in cases:
            report = cart_square_check(A, f, seed=cfg.seed, slack=cfg.slack)
            res.record(report.ok, {
                "suite": "cartdiag", "instance": None,
                "detail": "%s at p=%d: %s" % (name, p, "; ".join(report.failures)),
                "replay": "simpson verify --suites cartdiag --primes %d --seed %d --slack %d "
                          "--precision %d" % (p, cfg.seed, cfg.slack, cfg.precision),
            })
    return res


def _nonsquare_unit(p):
    if p == 2:
        return 3  # 3 = -1 mod 4: not a square in Q_2
    return next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)


def suite_unitscaling(cfg: VerifyConfig) -> SuiteResult:
    """Koszul cohomology is invariant under scaling the operators by
    commuting units."""
    res = SuiteResult("unitscaling")
    for idx, H in _instances(cfg):
        units = gen_commuting_units(list(H.theta), seed=cfg.seed * 31 + idx)
        ok = koszul_unit_scaling_check(list(H.theta), units, cfg.slack)
        res.record(ok, _ce("unitscaling", H, "scaled Koszul dimensions moved", ""))
    return res


def suite_spectral(cfg: VerifyConfig) -> SuiteResult:
    """Spectral algebra faithfulness: embed(tau_i) = theta_i exactly,
    dimension 1 for theta = 0, and the twist identity
    twist(E, L_tau) = higgs_to_rep(E)."""
    res = SuiteResult("spectral")
    for idx, H in _instances(cfg):
        S = spectral_algebra(H)
        ok = all(S.embed(t) == th for t, th in zip(S.tau, H.theta))
        if H.is_trivial():
            ok = ok and S.algebra.dim == 1
        L = make_twist(S.algebra, S.tau)
        ok = ok and twist_higgs(H, S, L) == higgs_to_rep(H)
        res.record(ok, _ce("spectral", H, "spectral identity failed",
                           "simpson spectral <file>"))
    return res


_SUITES = {
    "roundtrip": suite_roundtrip,
    "cohomology": suite_cohomology,
    "functoriality": suite_functoriality,
    "explog": suite_explog,
    "cartdiag": suite_cartdiag,
    "unitscaling": suite_unitscaling,
    "spectral": suite_spectral,
}


def run_verify(cfg: VerifyConfig, fixture=None):
    """Run the selected suites; returns (summary dict, ok).

    fixture: an optional parsed Higgs module or representation that the
    roundtrip suite checks in addition to its generated battery; a
    corrupted fixture surfaces as a suite failure with the fixture itself
    as the replayable counterexample."""
    results = {}
    ok = True
    for name in cfg.suites:
        if name == "roundtrip":
            out = suite_roundtrip(cfg, fixture)
        else:
            out = _SUITES[name](cfg)
        results[name] = out.to_json()
        ok = ok and out.failed == 0
    summary = {
        "format": 1,
        "config": {
            "suites": list(cfg.suites),
            "primes": list(cfg.primes),
            "d_max": cfg.d_max,
            "n_max": cfg.n_max,
            "count": cfg.count,
            "seed": cfg.seed,
            "slack": cfg.slack,
            "precision": cfg.precision,
        },
        "suites": results,
        "ok": ok,
    }
    return summary, ok
