"""Koszul complexes of commuting operators, and both cohomologies of the
local correspondence.

The Higgs (Dolbeault) cohomology of (E, theta) is the cohomology of
Kos(theta_1..theta_d); the continuous cohomology of Z_p^d acting through a
small representation is computed by Kos(rho_1 - 1, .., rho_d - 1), the
Koszul model of the group cohomology (the generator gamma_i acts on the
standard resolution as multiplication by T_i + 1, so the augmentation ideal
is generated by the rho_i - 1).  The two sides agree because
exp(theta_i) - 1 = theta_i * u_i with u_i an invertible series in theta_i
commuting with everything, and scaling Koszul operators by commuting units
does not change cohomology; compare_cohomology verifies that witness
explicitly rather than trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .context import DEFAULT_SLACK
from .errors import (
    CommutationFailure,
    ComparisonFailure,
    NotAUnit,
    PadicError,
)
from .higgs import HiggsModule, SmallRep, higgs_to_rep, require_valid, validate_higgs, validate_rep
from .matrix import PadicMatrix, expm1_quotient


@dataclass(frozen=True)
class CohomologyReport:
    """Per-degree dimensions h^0..h^d with the precision margins behind the
    rank decisions (None when a degree needed no zero-decision).

    Consistency: h^k = dim C^k - rank d^k - rank d^(k-1) forces the
    alternating sum of the h^k to telescope to the alternating sum of the
    term dimensions (zero for a Koszul complex of d >= 1 operators)."""

    h: tuple
    margins: tuple
    side: str
    term_dims: tuple

    def __post_init__(self):
        lhs = sum((-1) ** k * hk for k, hk in enumerate(self.h))
        rhs = sum((-1) ** k * ck for k, ck in enumerate(self.term_dims))
        if lhs != rhs:
            raise PadicError(
                "cohomology dimensions violate the Euler characteristic identity"
            )

    def to_json(self):
        return {"h": list(self.h), "margins": list(self.margins), "side": self.side}

    def __str__(self):
        dims = " ".join(str(x) for x in self.h)
        return "%s h = %s" % (self.side, dims)


class KoszulComplex:
    """C^k = module x Lambda^k(d) with differential e (x) w -> sum_i
    op_i(e) (x) epsilon_i ^ w; requires the operators to commute, which
    forces d o d = 0 (verified to precision as a guard)."""

    def __init__(self, operators):
        ops = list(operators)
        if not ops:
            raise PadicError("need at least one operator")
        self.ctx = ops[0].ctx
        self.n = ops[0].nrows
        self.d = len(ops)
        self.operators = ops
        for i in range(self.d):
            for j in range(i + 1, self.d):
                if not ops[i].commutes_with(ops[j]):
                    raise CommutationFailure("operators %d and %d do not commute" % (i, j))
        self.subsets = [list(combinations(range(self.d), k)) for k in range(self.d + 1)]
        self.term_dims = [self.n * len(self.subsets[k]) for k in range(self.d + 1)]
        self.differentials = [self._differential(k) for k in range(self.d)]
        for k in range(self.d - 1):
            prod = self.differentials[k + 1] @ self.differentials[k]
            if not prod.is_zero_to_precision():
                raise PadicError("d o d != 0 at degree %d" % k)

    def _differential(self, k):
        """The grid of d^k: each block holds +-op_i, each entry as the
        scalar sum O(p^N) + (+-e) of the complex's context makes it, at
        precision min(N, prec e); the other entries are zero markers
        O(p^N).  A zero entry of an operator is kept with the precision
        to which the operator knows it."""
        src = self.subsets[k]
        dst = self.subsets[k + 1]
        dst_index = {s: t for t, s in enumerate(dst)}
        n, ctx = self.n, self.ctx
        N = ctx.default_precision
        grids = [op.grid for op in self.operators]
        pw = grids[0].pw
        base = min(g.base for g in grids)
        ncols = n * len(src)
        size = n * len(dst) * ncols
        res, prec = [0] * size, [N] * size
        for s_idx, S in enumerate(src):
            for i in range(self.d):
                if i in S:
                    continue
                T = tuple(sorted(S + (i,)))
                sign = (-1) ** sum(1 for l in S if l < i)
                g = grids[i]
                scale = sign * pw[g.base - base]
                for e, (r, q) in enumerate(zip(g.res, g.prec)):
                    if N < q:
                        q = N
                    at = (dst_index[T] * n + e // n) * ncols + s_idx * n + e % n
                    prec[at] = q
                    res[at] = r * scale % pw[q - base]
        return PadicMatrix(ctx, n * len(dst), ncols,
                           linalg.Row(pw, base, res, prec, ctx))

    def cohomology(self, min_margin=DEFAULT_SLACK):
        """h^k = dim C^k - rank d^k - rank d^(k-1), with margins."""
        ranks = []
        margins = []
        for diff in self.differentials:
            r, m = linalg.rank_with_margin(diff.int_rows(), min_margin)
            ranks.append(r)
            margins.append(m)
        h = []
        deg_margins = []
        for k in range(self.d + 1):
            rk = ranks[k] if k < self.d else 0
            rk_prev = ranks[k - 1] if k > 0 else 0
            h.append(self.term_dims[k] - rk - rk_prev)
            around = [m for m in (margins[k] if k < self.d else None,
                                  margins[k - 1] if k > 0 else None) if m is not None]
            deg_margins.append(min(around) if around else None)
        return h, deg_margins


def higgs_cohomology(H: HiggsModule, min_margin=DEFAULT_SLACK) -> CohomologyReport:
    """Dolbeault cohomology: the Koszul complex of the Higgs components."""
    return _cohomology(H, validate_higgs(H), "higgs", min_margin)


def group_cohomology(V: SmallRep, min_margin=DEFAULT_SLACK) -> CohomologyReport:
    """Continuous cohomology of Z_p^d with coefficients in the small
    representation, via the Koszul complex of the rho_i - 1."""
    return _cohomology(V, validate_rep(V), "group", min_margin)


def _cohomology(X, report, side, min_margin) -> CohomologyReport:
    """The Koszul cohomology of a validated side's operators, each rank
    decided on its margin (KoszulComplex.cohomology)."""
    require_valid(report)
    kos = KoszulComplex(X.operators())
    h, margins = kos.cohomology(min_margin)
    return CohomologyReport(tuple(h), tuple(margins), side, tuple(kos.term_dims))


@dataclass
class ComparisonOutcome:
    higgs: CohomologyReport
    group: CohomologyReport
    unit_witness_ok: bool

    @property
    def ok(self):
        return self.higgs.h == self.group.h and self.unit_witness_ok


def compare_cohomology(H: HiggsModule, min_margin=DEFAULT_SLACK) -> ComparisonOutcome:
    """Both cohomologies of one instance, with the mechanism verified: for
    each component, exp(theta) - 1 = theta * u with u an invertible matrix
    commuting with every component (so the two Koszul complexes differ by
    commuting unit scalings).  Raises ComparisonFailure carrying both
    reports when any degree disagrees; this must never happen on valid
    input."""
    hig = higgs_cohomology(H, min_margin)
    V = higgs_to_rep(H)
    grp = group_cohomology(V, min_margin)
    witness = True
    prec = H.ctx.default_precision - DEFAULT_SLACK
    quotients = {}  # u per distinct theta_i, which decides the checks on u alone
    for t, lhs in zip(H.theta, V.operators()):
        key = t.grid.key()
        u = quotients.get(key)
        if u is None:
            u = quotients[key] = expm1_quotient(t)
            diff = u - PadicMatrix.identity(H.ctx, H.rank)
            if not (diff.is_zero_to_precision() or diff.min_valuation() >= 1):
                witness = False
            for s in H.theta:
                if not u.commutes_with(s):
                    witness = False
        if not lhs.agrees(t @ u, prec):
            witness = False
    if hig.h != grp.h:
        raise ComparisonFailure(hig, grp)
    return ComparisonOutcome(hig, grp, witness)


def koszul_unit_scaling_check(operators, units, min_margin=DEFAULT_SLACK) -> bool:
    """Whether Kos(a_i) and Kos(a_i u_i) have the same per-degree
    cohomology dimensions, for invertible units commuting with the
    operators and each other; true whenever the preconditions hold."""
    ops = list(operators)
    us = list(units)
    if len(ops) != len(us):
        raise PadicError("need one unit per operator")
    for u in us:
        try:
            u.inverse()
        except NotAUnit:
            raise CommutationFailure("a scaling matrix is not invertible")
    for i, u in enumerate(us):
        for op in ops:
            if not u.commutes_with(op):
                raise CommutationFailure("unit %d does not commute with an operator" % i)
        for j in range(i + 1, len(us)):
            if not u.commutes_with(us[j]):
                raise CommutationFailure("units %d and %d do not commute" % (i, j))
    plain = KoszulComplex(ops).cohomology(min_margin)[0]
    scaled = KoszulComplex([a @ u for a, u in zip(ops, us)]).cohomology(min_margin)[0]
    return plain == scaled
