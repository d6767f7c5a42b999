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

from dataclasses import dataclass
from functools import cached_property

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


class _Side:
    """What both sides of the correspondence share: d commuting rank-n
    matrices, held in the dataclass field named by `matrix_field`, whose
    Koszul operators are small.  A side supplies its kind, that field and
    its operators (theta_i, or rho_i - 1)."""

    kind = matrix_field = empty_message = None

    @classmethod
    def create(cls, ctx, matrices):
        mats = tuple(matrices)
        if not mats:
            raise PadicError(cls.empty_message)
        n = mats[0].nrows
        if not n:
            raise DimensionMismatch("components are 0 x 0: the rank must be at least 1")
        for i, m in enumerate(mats):
            if m.nrows != n or m.ncols != n:
                raise DimensionMismatch("component %d is %d x %d, not %d x %d"
                                        % (i, m.nrows, m.ncols, n, n))
        return cls(ctx, n, len(mats), mats)

    @property
    def matrices(self) -> tuple:
        return getattr(self, self.matrix_field)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.ctx.p == other.ctx.p
            and self.rank == other.rank
            and self.d == other.d
            and len(self.matrices) == len(other.matrices)
            and all(a == b for a, b in zip(self.matrices, other.matrices))
        )

    __hash__ = None

    def agrees(self, other, prec: int) -> bool:
        return (isinstance(other, type(self)) and len(self.matrices) == len(other.matrices)
                and all(a.agrees(b, prec) for a, b in zip(self.matrices, other.matrices)))

    def is_trivial(self) -> bool:
        return all(t.is_zero_to_precision() for t in self.operators())

    @cached_property
    def validation(self) -> "ValidationReport":
        """The commutation and smallness checks of this side (_validate),
        made on first read and kept: a side never changes, so every entry
        point that requires it valid reads one report."""
        return _validate(self)


@dataclass(frozen=True, eq=False)
class HiggsModule(_Side):
    ctx: PrimeContext
    rank: int
    d: int
    theta: tuple  # d matrices of PadicScalar

    kind, matrix_field = "higgs", "theta"
    empty_message = "a Higgs module needs at least one component"

    @staticmethod
    def trivial(ctx, d, rank=1) -> "HiggsModule":
        return HiggsModule.create(ctx, [PadicMatrix.zeros(ctx, rank) for _ in range(d)])

    def operators(self) -> tuple:
        return self.theta


@dataclass(frozen=True, eq=False)
class SmallRep(_Side):
    ctx: PrimeContext
    rank: int
    d: int
    rho: tuple

    kind, matrix_field = "rep", "rho"
    empty_message = "a representation needs at least one generator image"

    @staticmethod
    def trivial(ctx, d, rank=1) -> "SmallRep":
        return SmallRep.create(ctx, [PadicMatrix.identity(ctx, rank) for _ in range(d)])

    def operators(self) -> list:
        ident = PadicMatrix.identity(self.ctx, self.rank)
        return [r - ident for r in self.rho]


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """The failures of one side's checks, kept with the side (its
    validation), so its fields are tuples."""

    kind: str
    commutation: tuple = ()  # (i, j, commutator valuation)
    smallness: tuple = ()  # (component, row, col, valuation)

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


def _validate(X) -> ValidationReport:
    """Commutation of the matrices and smallness of the operators (every
    entry at valuation >= e0)."""
    commutation, smallness = [], []
    e0 = X.ctx.e0
    mats = _detached(X.matrices)
    for i in range(X.d):
        for j in range(i + 1, X.d):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            if not comm.is_zero_to_precision():
                commutation.append((i, j, comm.min_valuation()))
    n = X.rank
    for i, op in enumerate(X.operators()):
        g = op.grid
        for t, (r, v) in enumerate(zip(g.res, g.vals())):
            if r and v < e0:
                smallness.append((i, t // n, t % n, v))
    return ValidationReport(X.kind, tuple(commutation), tuple(smallness))


def _detached(mats) -> list:
    """Matrices on the grids of mats.  A matrix keeps the row and column
    views its products slice from it (matrix.py); taken on these, the
    views of a check on the caller's matrices last as long as the check,
    not as long as the caller holds mats."""
    return [PadicMatrix(m.ctx, m.nrows, m.ncols, m.grid) for m in mats]


def validate_higgs(H: HiggsModule) -> ValidationReport:
    """theta wedge theta = 0 componentwise, and theta = 0 mod p^e0: the
    report H keeps (its validation)."""
    return H.validation


def validate_rep(V: SmallRep) -> ValidationReport:
    """Commuting generator images congruent to 1 mod p^e0: the report V
    keeps (its validation)."""
    return V.validation


def require_valid(report: ValidationReport):
    if not report.ok:
        raise ValidationError(report)


# -- the correspondence ----------------------------------------------------------


def higgs_to_rep(H: HiggsModule) -> SmallRep:
    """rho_i = exp(theta_i): the action of the i-th generator of Z_p^d on
    the trivialised module over the perfectoid cover; exact when theta_i is
    nilpotent."""
    require_valid(validate_higgs(H))
    return SmallRep.create(H.ctx, [mat_exp(t) for t in H.theta])


def rep_to_higgs(V: SmallRep) -> HiggsModule:
    """theta_i = log(rho_i): the canonical Higgs field of the
    representation.  theta is zero exactly when the representation is
    trivial: matrices congruent to 1 mod p^e0 generate a torsion-free
    group, so log vanishes only at the identity."""
    require_valid(validate_rep(V))
    return HiggsModule.create(V.ctx, [mat_log(r) for r in V.rho])


def evaluate_rep(V: SmallRep, exponents) -> PadicMatrix:
    """The action of gamma_1^(a_1) ... gamma_d^(a_d) for p-adic integer
    exponents a, as exp(sum a_i log rho_i); for integer exponents this is
    the literal power product (continuity of the Z_p^d-action)."""
    require_valid(validate_rep(V))
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

    @cached_property
    def _entries(self) -> list:
        """Row t holds entry t, in row-major order, of every basis matrix."""
        return linalg.transpose([b.grid for b in self.basis_matrices])

    def embed(self, x: AlgElement) -> PadicMatrix:
        """The sum of x_i * basis_matrices[i] over every x_i, zero markers
        included: entry t is the dot product of x with row t of _entries."""
        ctx = self.algebra.ctx
        n = self.basis_matrices[0].nrows
        return PadicMatrix(ctx, n, n, linalg.Row.dot([x.row], self._entries, ctx))


def spectral_algebra(H: HiggsModule) -> SpectralAlgebra:
    """Close {1, theta_1..theta_d} under products by iterating
    multiply-and-span until stable; the result is the image of the
    symmetric algebra on the dual differentials inside End(E).

    Each new basis matrix b_j is b_parent * theta_i for a recorded word
    (parent, i), and the closure forms every b_j * theta_i.  The span
    (linalg.Span) reduces each of those d * dim products once, and
    that one reduction both decides whether the product is a new basis
    matrix and gives its coordinates in the basis: column j of L_i, the
    matrix of multiplication by theta_i on B_theta (the multiplication
    matrices of FGLM, read off the normal forms of the closure).  No
    second elimination of the span and no solve follow.  tau_i is column
    0 of L_i, the coordinates of b_0 * theta_i, when that product has
    theta_i's parts, and theta_i reduced once more otherwise.  The
    multiplication operators follow without any n x n product: M_{b_0} =
    1, M_{b_j} = L_i for a word (0, i), and M_{b_j} = L_i M_{b_parent}
    otherwise.  c[i][j] = c[j][i] is column i of M_{b_j} and column j of
    M_{b_i}; the tensor keeps, per pair, the one with more digits, so it
    is symmetric.

    The tensor is certified by the theta-action, not by an associativity
    check.  In exact arithmetic, let A = Q_p[L_1..L_d] and phi(M) = M e_0.
    Column j of L_i holds the coordinates of b_j * theta_i, so for a word
    (parent, i) M_{b_j} e_0 = L_i e_parent = e_j, and phi is onto.  When
    the L_i commute, A is commutative, and M e_0 = 0 gives M e_j =
    M_{b_j} M e_0 = 0 for every j: phi is a linear isomorphism.  The
    product of A carried over by phi is e_i * e_j = M_{b_i} M_{b_j} e_0 =
    M_{b_i} e_j, column j of M_{b_i}, which is the tensor above; so the
    tensor is a commutative, associative algebra with unit e_0.  The
    checks are therefore the d(d-1)/2 commutators L_a L_b == L_b L_a,
    then commutativity and the unit law on the stored tensor
    (FinAlgebra._validate(full=False)), at every dim, in place of the
    O(dim^5) associativity check.  The argument does not depend on where
    the coordinates come from; it is exact, and at finite precision each
    check is decided on its own ledger (the commutators to the digits
    their products keep), and nothing here bounds the associativity
    defect of a stored constant against the digits it claims.  B_theta is
    a subalgebra of End(E), so a failed check is a precision shortfall."""
    require_valid(validate_higgs(H))
    ctx = H.ctx
    n, d = H.rank, H.d
    basis = [PadicMatrix.identity(ctx, n)]
    words = []  # (parent, i) per basis[j], j >= 1: basis[parent] @ theta_i
    coords = []  # coords[j][i]: the coordinates of basis[j] @ theta_i, a Row
    span = linalg.Span()
    span.add(basis[0].grid)
    frontier = [0]
    theta = _detached(H.theta)
    tops = []  # the grids of basis[0] @ theta_i
    while frontier:
        next_frontier = []
        for j in frontier:
            row = []
            for i, t in enumerate(theta):
                cand = basis[j] @ t
                if j == 0:
                    tops.append(cand.grid)
                new, c = span.add(cand.grid)
                row.append(c)
                if new:
                    next_frontier.append(len(basis))
                    basis.append(cand)
                    words.append((j, i))
            coords.append(row)
        frontier = next_frontier
        if len(basis) > n * n:
            raise PrecisionExhausted("span closure exceeded the dimension bound")
    dim = len(basis)
    # column j of L_i holds the coordinates of basis[j] @ theta_i
    action = [PadicMatrix.stack(ctx, [_padded(coords[j][i], dim) for j in range(dim)],
                                dim).transpose() for i in range(d)]
    ops = [PadicMatrix.identity(ctx, dim)]
    for parent, i in words:
        ops.append(action[i] if parent == 0 else action[i] @ ops[parent])
    columns = [op.int_columns() for op in ops]

    def constants(i, j):
        # c[i][j] = c[j][i] is column i of M_{b_j} and column j of M_{b_i}:
        # the one of the two whose products kept more digits
        i, j = min(i, j), max(i, j)
        return max(columns[j][i], columns[i][j], key=lambda col: sum(col.prec))

    tensor = PadicMatrix.stack(ctx, [constants(i, j) for i in range(dim) for j in range(dim)],
                               dim).grid
    B = FinAlgebra(ctx, dim, tensor, linalg.Row.unit(ctx, dim, 0), exact_structure=False)
    for a in range(d):
        for b in range(a + 1, d):
            if not action[a] @ action[b] == action[b] @ action[a]:
                raise PrecisionExhausted(
                    "the multiplication matrices of theta_%d and theta_%d do not commute"
                    % (a, b))
    try:
        B._validate(full=False)
    except PadicError as exc:
        raise PrecisionExhausted(str(exc)) from exc
    tau = []
    for i, t in enumerate(H.theta):
        c = coords[0][i]
        if tops[i].key() != t.grid.key():  # b_0 @ theta_i lost digits of theta_i
            new, c = span.add(t.grid)
            if new:
                raise PrecisionExhausted("theta_%d escaped the closed span" % i)
        tau.append(B.element(_padded(c, dim)))
    return SpectralAlgebra(B, tuple(basis), tuple(tau))


def _padded(col, dim) -> linalg.Row:
    """The Row col of coordinates in b_0..b_(k-1), k <= dim, as dim
    coordinates: a vector decided before b_k was added has the exact
    coordinate 0, the zero marker O(p^N), at b_k."""
    extra = dim - len(col.res)
    if not extra:
        return col
    return linalg.Row(col.pw, col.base, col.res + [0] * extra, col.prec + [col.N] * extra,
                      col.ctx)


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
    return type(a).create(
        a.ctx, [PadicMatrix.block_diag(x, y) for x, y in zip(a.matrices, b.matrices)]
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
