"""The local correspondence on a toric chart, at matrix level.

A Higgs module is a free module of rank n with d pairwise-commuting small
endomorphisms theta_1..theta_d (components along a fixed basis of
differentials); a small representation is d pairwise-commuting matrices
rho_1..rho_d congruent to the identity mod p^e0 (the actions of the
topological generators gamma_1..gamma_d of Delta = Z_p^d, with the Tate
twist trivialised by a fixed choice of p-power roots of unity).  The chart
dictionary gamma_i <-> component i is pure index bookkeeping here.

The correspondence sends theta_i -> exp(theta_i) and back by log; the
spectral algebra B_theta (the commutative subalgebra of End(E) generated by
the theta_i) carries the tautological section tau with embed(tau_i) =
theta_i, and twisting by the rank-1 module with cocycle gamma_i ->
exp(tau_i) recovers the representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .algebra import AlgElement, FinAlgebra, alg_exp
from .context import PrimeContext
from .errors import (
    AlgebraMismatch,
    ContextMismatch,
    DimensionMismatch,
    PadicError,
    PrecisionExhausted,
    ValidationError,
)
from .matrix import PadicMatrix, mat_exp, mat_log
from .scalar import PadicScalar


@dataclass(frozen=True)
class HiggsModule:
    ctx: PrimeContext
    rank: int
    d: int
    theta: tuple  # d matrices of PadicScalar

    @staticmethod
    def create(ctx, theta_matrices) -> "HiggsModule":
        mats = tuple(theta_matrices)
        if not mats:
            raise PadicError("a Higgs module needs at least one component")
        return HiggsModule(ctx, mats[0].nrows, len(mats), mats)

    @staticmethod
    def trivial(ctx, d, rank=1) -> "HiggsModule":
        return HiggsModule.create(ctx, [PadicMatrix.zeros(ctx, rank) for _ in range(d)])

    def __eq__(self, other):
        if not isinstance(other, HiggsModule):
            return NotImplemented
        return (
            self.ctx.p == other.ctx.p
            and self.rank == other.rank
            and self.d == other.d
            and len(self.theta) == len(other.theta)
            and all(a == b for a, b in zip(self.theta, other.theta))
        )

    __hash__ = None

    def agrees(self, other: "HiggsModule", prec: int) -> bool:
        return len(self.theta) == len(other.theta) and all(
            a.agrees(b, prec) for a, b in zip(self.theta, other.theta))

    def is_trivial(self) -> bool:
        return all(t.is_zero_to_precision() for t in self.theta)


@dataclass(frozen=True)
class SmallRep:
    ctx: PrimeContext
    rank: int
    d: int
    rho: tuple

    @staticmethod
    def create(ctx, rho_matrices) -> "SmallRep":
        mats = tuple(rho_matrices)
        if not mats:
            raise PadicError("a representation needs at least one generator image")
        return SmallRep(ctx, mats[0].nrows, len(mats), mats)

    @staticmethod
    def trivial(ctx, d, rank=1) -> "SmallRep":
        return SmallRep.create(ctx, [PadicMatrix.identity(ctx, rank) for _ in range(d)])

    def __eq__(self, other):
        if not isinstance(other, SmallRep):
            return NotImplemented
        return (
            self.ctx.p == other.ctx.p
            and self.rank == other.rank
            and self.d == other.d
            and len(self.rho) == len(other.rho)
            and all(a == b for a, b in zip(self.rho, other.rho))
        )

    __hash__ = None

    def agrees(self, other: "SmallRep", prec: int) -> bool:
        return len(self.rho) == len(other.rho) and all(
            a.agrees(b, prec) for a, b in zip(self.rho, other.rho))

    def is_trivial(self) -> bool:
        ident = PadicMatrix.identity(self.ctx, self.rank)
        return all((r - ident).is_zero_to_precision() for r in self.rho)


# -- validation ----------------------------------------------------------------


@dataclass
class ValidationReport:
    kind: str
    commutation: list = field(default_factory=list)  # (i, j, commutator valuation)
    smallness: list = field(default_factory=list)  # (component, row, col, valuation)

    @property
    def ok(self) -> bool:
        return not self.commutation and not self.smallness

    def __str__(self):
        if self.ok:
            return "%s instance valid" % self.kind
        lines = ["%s instance INVALID" % self.kind]
        for (i, j, v) in self.commutation:
            lines.append(
                "  components %d and %d do not commute (commutator valuation %s)" % (i, j, v)
            )
        for (i, r, c, v) in self.smallness:
            lines.append(
                "  component %d entry (%d,%d) has valuation %s < e0" % (i, r, c, v)
            )
        return "\n".join(lines)


def validate_higgs(H: HiggsModule) -> ValidationReport:
    """Commutation (theta wedge theta = 0 componentwise) and smallness
    (every entry of every component at valuation >= e0)."""
    report = ValidationReport("higgs")
    e0 = H.ctx.e0
    for i in range(H.d):
        for j in range(i + 1, H.d):
            comm = H.theta[i] @ H.theta[j] - H.theta[j] @ H.theta[i]
            if not comm.is_zero_to_precision():
                report.commutation.append((i, j, comm.min_valuation()))
    for i, t in enumerate(H.theta):
        for r in range(H.rank):
            for c in range(H.rank):
                x = t[r, c]
                if not x.is_zero and x.v < e0:
                    report.smallness.append((i, r, c, x.v))
    return report


def validate_rep(V: SmallRep) -> ValidationReport:
    """Commutation of the generator images and congruence to 1 mod p^e0."""
    report = ValidationReport("rep")
    e0 = V.ctx.e0
    ident = PadicMatrix.identity(V.ctx, V.rank)
    for i in range(V.d):
        for j in range(i + 1, V.d):
            comm = V.rho[i] @ V.rho[j] - V.rho[j] @ V.rho[i]
            if not comm.is_zero_to_precision():
                report.commutation.append((i, j, comm.min_valuation()))
    for i, rho in enumerate(V.rho):
        diff = rho - ident
        for r in range(V.rank):
            for c in range(V.rank):
                x = diff[r, c]
                if not x.is_zero and x.v < e0:
                    report.smallness.append((i, r, c, x.v))
    return report


def _require_valid(report: ValidationReport):
    if not report.ok:
        raise ValidationError(report)


# -- the correspondence ----------------------------------------------------------


def higgs_to_rep(H: HiggsModule) -> SmallRep:
    """rho_i = exp(theta_i): the action of the i-th generator of Z_p^d on
    the trivialised module over the perfectoid cover; exact when theta_i is
    nilpotent."""
    _require_valid(validate_higgs(H))
    return SmallRep.create(H.ctx, [mat_exp(t) for t in H.theta])


def rep_to_higgs(V: SmallRep) -> HiggsModule:
    """theta_i = log(rho_i): the canonical Higgs field of the
    representation.  theta is zero exactly when the representation is
    trivial: matrices congruent to 1 mod p^e0 generate a torsion-free
    group, so log vanishes only at the identity."""
    _require_valid(validate_rep(V))
    return HiggsModule.create(V.ctx, [mat_log(r) for r in V.rho])


def evaluate_rep(V: SmallRep, exponents) -> PadicMatrix:
    """The action of gamma_1^(a_1) ... gamma_d^(a_d) for p-adic integer
    exponents a, as exp(sum a_i log rho_i); for integer exponents this is
    the literal power product (continuity of the Z_p^d-action)."""
    _require_valid(validate_rep(V))
    if len(exponents) != V.d:
        raise DimensionMismatch("need %d exponents, got %d" % (V.d, len(exponents)))
    acc = None
    for a, r in zip(exponents, V.rho):
        if not (a.is_zero or a.v >= 0):
            raise PadicError("exponents must be p-adic integers; got valuation %d" % a.v)
        term = mat_log(r).scale(a)
        acc = term if acc is None else acc + term
    return mat_exp(acc)


# -- spectral algebra ------------------------------------------------------------


@dataclass(frozen=True)
class SpectralAlgebra:
    """B_theta: the commutative subalgebra of End(E) generated by the Higgs
    components, presented abstractly by structure constants together with
    the embedding and the tautological section tau (embed(tau_i) = theta_i)."""

    algebra: FinAlgebra
    basis_matrices: tuple
    tau: tuple

    def embed(self, x: AlgElement) -> PadicMatrix:
        ctx = self.algebra.ctx
        n = self.basis_matrices[0].nrows
        acc = PadicMatrix.zeros(ctx, n)
        for c, mat in zip(x.coords, self.basis_matrices):
            if not c.is_zero:
                acc = acc + mat.scale(c)
        return acc


def spectral_algebra(H: HiggsModule) -> SpectralAlgebra:
    """Close {1, theta_1..theta_d} under products by iterating
    multiply-and-span until stable; the result is the image of the
    symmetric algebra on the dual differentials inside End(E)."""
    _require_valid(validate_higgs(H))
    ctx = H.ctx
    n = H.rank
    basis = [PadicMatrix.identity(ctx, n)]
    span = _IncrementalSpan(n * n)
    span.add(_flatten(basis[0]))
    frontier = [basis[0]]
    while frontier:
        next_frontier = []
        for mat in frontier:
            for t in H.theta:
                cand = mat @ t
                if span.add(_flatten(cand)):
                    basis.append(cand)
                    next_frontier.append(cand)
        frontier = next_frontier
        if len(basis) > n * n:
            raise PrecisionExhausted("span closure exceeded the dimension bound")
    dim = len(basis)
    basis_mat = [[b.entries[i // n][i % n] for b in basis] for i in range(n * n)]
    elim = linalg.eliminate(basis_mat, reduce_above=True)
    mul = []
    for i in range(dim):
        plane = []
        for j in range(dim):
            prod = basis[i] @ basis[j]
            sols = elim.solve([_flatten(prod)])
            if sols is None:
                raise PrecisionExhausted("product escaped the closed span")
            plane.append(sols[0])
        mul.append(plane)
    one = [PadicScalar.from_int(ctx, 1)] + [PadicScalar.zero(ctx)] * (dim - 1)
    labels = ["1"] + ["m%d" % k for k in range(1, dim)]
    B = FinAlgebra.create(ctx, mul, one, labels=labels, validate=(dim <= 12),
                          exact_structure=False)
    tau = []
    for t in H.theta:
        sols = elim.solve([_flatten(t)])
        if sols is None:
            raise PrecisionExhausted("component escaped the closed span")
        tau.append(B.element(sols[0]))
    return SpectralAlgebra(B, tuple(basis), tuple(tau))


def _flatten(m: PadicMatrix):
    return [x for row in m.entries for x in row]


class _IncrementalSpan:
    """Echelonised span with minimal-valuation pivots; add() reports
    whether the vector enlarged the span.  A dependence decision must rest
    on at least min_margin vanishing digits, else the span rank is
    ambiguous."""

    def __init__(self, width, min_margin=4):
        self.width = width
        self.min_margin = min_margin
        self.rows = []  # (pivot index, reduced row)

    def add(self, vec) -> bool:
        vec = list(vec)
        for (piv, row) in self.rows:
            e = vec[piv]
            if e.is_zero:
                continue
            f = e / row[piv]
            vec = [a - f * b for a, b in zip(vec, row)]
        best = None
        for i, e in enumerate(vec):
            if e.is_zero:
                continue
            if best is None or e.v < vec[best].v:
                best = i
        if best is None:
            thinnest = min(e.prec for e in vec)
            if thinnest < self.min_margin:
                raise PrecisionExhausted(
                    "span dependence decided on %d digits (< %d)"
                    % (thinnest, self.min_margin)
                )
            return False
        self.rows.append((best, vec))
        return True


# -- twists ----------------------------------------------------------------------


@dataclass(frozen=True)
class BTwist:
    """Rank-1 invertible module over B in cocycle form: the i-th generator
    acts by the unit exp(tau_i).  The htlog datum records tau itself."""

    algebra: FinAlgebra
    units: tuple
    htlog: tuple

    def is_trivial(self) -> bool:
        one = self.algebra.unit()
        return all((u - one).is_zero_to_precision() for u in self.units)


def make_twist(B: FinAlgebra, tau) -> BTwist:
    """The twist with cocycle gamma_i -> exp(tau_i); requires each tau_i in
    the exp-domain of the algebra."""
    units = tuple(alg_exp(t) for t in tau)
    return BTwist(B, units, tuple(tau))


def twist_higgs(H: HiggsModule, S: SpectralAlgebra, L: BTwist) -> SmallRep:
    """Twist E by the rank-1 module L over the spectral algebra: the
    generator actions are the embedded units, and when L is built from the
    tautological section this coincides with higgs_to_rep(H)."""
    if not L.algebra == S.algebra:
        raise AlgebraMismatch("twist lives over a different algebra")
    if len(L.units) != len(S.tau):
        raise AlgebraMismatch("twist has %d units for %d components" % (len(L.units), len(S.tau)))
    for a, b in zip(L.htlog, S.tau):
        if not a == b:
            raise AlgebraMismatch("twist was not built from the spectral tau")
    return SmallRep.create(H.ctx, [S.embed(u) for u in L.units])


# -- functoriality ----------------------------------------------------------------


def _check_pair(a, b):
    if a.ctx.p != b.ctx.p:
        raise ContextMismatch("mixed primes %d, %d" % (a.ctx.p, b.ctx.p))
    if a.d != b.d:
        raise DimensionMismatch("different numbers of components: %d vs %d" % (a.d, b.d))
    if type(a) is not type(b):
        raise DimensionMismatch("cannot combine a Higgs module with a representation")


def direct_sum(a, b):
    """Block-diagonal sum, on either side of the correspondence."""
    _check_pair(a, b)
    if isinstance(a, HiggsModule):
        return HiggsModule.create(
            a.ctx, [PadicMatrix.block_diag(x, y) for x, y in zip(a.theta, b.theta)]
        )
    return SmallRep.create(
        a.ctx, [PadicMatrix.block_diag(x, y) for x, y in zip(a.rho, b.rho)]
    )


def tensor(a, b):
    """Tensor product: Kronecker sum of Higgs components (theta x 1 + 1 x
    theta), Kronecker product of generator actions; the correspondence
    intertwines the two because exp of a commuting Kronecker sum is the
    Kronecker product of the exps."""
    _check_pair(a, b)
    if isinstance(a, HiggsModule):
        ia = PadicMatrix.identity(a.ctx, a.rank)
        ib = PadicMatrix.identity(b.ctx, b.rank)
        return HiggsModule.create(
            a.ctx, [x.kron(ib) + ia.kron(y) for x, y in zip(a.theta, b.theta)]
        )
    return SmallRep.create(a.ctx, [x.kron(y) for x, y in zip(a.rho, b.rho)])


def dual(a):
    """Dual object: -theta^T on the Higgs side (so that the evaluation
    pairing is flat) and inverse-transpose generator actions on the
    representation side."""
    if isinstance(a, HiggsModule):
        return HiggsModule.create(a.ctx, [-(t.transpose()) for t in a.theta])
    return SmallRep.create(a.ctx, [r.transpose().inverse() for r in a.rho])
