"""Finite-dimensional commutative unital algebras over Q_p via structure
constants.

An algebra of dimension m is the data of an m x m x m tensor c with
e_i * e_j = sum_k c[i][j][k] e_k, plus the coordinates of 1.  The tensor
is stored once, as one linalg.Row with c[i][j][k] at (i * m + j) * m + k,
and so is the unit, each in one context (create refuses constants of two
contexts with ContextMismatch); the nested scalar tuples of
FinAlgebra.mul are built from the tensor on each read.  Commutativity,
associativity and the unit law are checked at construction (the unit law
on the columns of M_1, associativity via M_{e_i} M_{e_j} = M_{e_i e_j} on
multiplication operators, with e_i e_j read off the tensor); internal
constructions whose tensors are read off from actual endomorphism
algebras may skip the quadratic checks above the documented size gate.

An AlgElement is its algebra and one linalg.Row of its coordinates, in
one context that may differ from its algebra's: a plain slotted class,
never written to after construction (tests/test_values.py checks the
sources) and unhashable, whose coords are built from the Row on each
read.  FinAlgebra.element reads scalars of its prime or a Row.  Sums,
differences, negation, scalar products, ==, agrees and the precision
queries have one body each on Row, shared with PadicMatrix.  The inverse
stays on Rows too: M_x is eliminated and its row operations are replayed
on the Row of 1 (Elimination.solve_row), or, on a 1-dimensional algebra,
the Row of 1 is scaled by the pivot inverse that elimination would take,
so no scalar is built.  FinAlgebra is a frozen dataclass with its own
equality and no hash.

Element products, multiplication operators and morphism images are
bilinear sums of scalar products, each output coordinate or entry
computed in one integer pass with exactly the ledger of adding the
products a*b one by one to a zero marker of the result's context (the
algebra's; for a morphism, the target's): its precision is the least of
that context's N and, over the terms, min(prec a + v b, prec b + v a,
N a, N b), a zero marker's valuation counting as its precision; its value
is the exact sum of the scaled residues reduced mod p^prec.  Each returns
a Row, rebased to the least valuation of its nonzero entries.
Operators and images are made by the one product kernel, Row.dot, as dot
products of the coordinates of x with Rows kept per algebra (one per
operator entry, slices of the tensor) and per morphism (one per target
coordinate, also the rows of the image matrix it eliminates once for
surjectivity, kernels and unit lifts), so their terms run over every
x_i, c[i][j][k] and image coordinate, zero markers included: a zero
marker x_i caps the entry at min(prec x_i + v c, prec c + prec x_i, N)
and adds nothing to its value.  Element products have their own term
loop, _product, over the Rows of the operands and of the tensor, with
the same ledger: its terms (a_i * b_j) * c[i][j][k] run over every a_i,
b_j and c[i][j][k], zero markers included.  The Gram matrix of the trace
form is one Row.dot too, of the traces with the slices c[i][j] of the
tensor.  No sum skips a term.

An algebra computes its structural invariants once, on first use, and
keeps them for its lifetime (functools.cached_property on the frozen
FinAlgebra, like the operator columns and product terms of the tensor):
the nilradical, the primitive idempotents and connected components
(components.py), and, for an exact tensor, its lifts to wider working
precisions, one per precision.  Only results are kept: a computation
that raises stores nothing and raises again on the next call.  Public
functions return fresh lists of the immutable kept values.

exp(x) and log(1 + x) have one engine (_operator_series): mat_exp(M'),
or mat_log(1 + M'), applied to the coordinates of 1, for M' the
multiplication operator M_x conjugated into a triangular basis P of the
lattice sum over k < dim of (M_x/p^e0)^k Z_p^dim; an entry of M' below e0
is the domain refusal.  P is computed on plain integers from the residues
of M_x taken as exact, by the pivot rule of the order saturation reduced
modulo a fixed power of p (_series.krylov_basis), and is itself exact.
Only the precision policy depends on the tensor.  By default the result
keeps the ledger of M_x and of 1, with the products with P made in a
wider context: every solve-derived tensor takes this route, and so does
an exact tensor whose M_x has every entry at valuation >= e0 (then
P = 1).  An exact tensor with an entry of M_x below e0 needs P, whose
denominators would cost digits, so the engine runs on the exact lift of
the algebra to a wider precision instead, capped at the sensitivity of
exp/log to a p^N change of x and widened until every digit reaches the
cap.  A nilpotent x has every eigen-scalar
at 0 and takes the same routes: there is no finite series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _series, linalg
from .context import PrimeContext
from .errors import (
    ContextMismatch,
    NotAUnit,
    OutsideExpDomain,
    OutsideLogDomain,
    OutsideRepresentableDomain,
    PadicError,
    PrecisionExhausted,
)
from .matrix import PadicMatrix, mat_exp, mat_log
from .scalar import PadicScalar, _inverse, big_exp, power

MAX_DIM = 64  # soft limit; keeps the m^5 validation desk-scale
_FULL_CHECK_DIM = 12


@dataclass(frozen=True, eq=False)
class FinAlgebra:
    ctx: PrimeContext
    dim: int
    tensor: linalg.Row  # c[i][j][k] at (i * dim + j) * dim + k
    one: linalg.Row  # coordinates of the unit
    # whether the stored residues ARE the exact structure constants (true
    # for hand-built and parsed tensors); solve-derived tensors (quotients,
    # components, spectral algebras and reloaded twists) only approximate
    # the true constants, so exp/log on them keep the operator's ledger
    # rather than working on an exact lift
    exact_structure: bool = True

    @staticmethod
    def create(ctx, mul, one, validate=True, exact_structure=True):
        """The algebra with mul[i][j] the coordinates of e_i * e_j and one
        those of its unit, each a list of PadicScalars of ctx's prime or a
        Row; the constants lie in one context, and the unit in one."""
        m = len(mul)
        if m > MAX_DIM:
            raise PadicError("algebra dimension %d exceeds the soft limit %d" % (m, MAX_DIM))
        tensor = PadicMatrix.stack(ctx, [linalg.Row.of(row, ctx) for plane in mul
                                         for row in plane], m).grid
        alg = FinAlgebra(ctx, m, tensor, linalg.Row.of(one, ctx), exact_structure)
        if validate:
            alg._validate(full=(m <= _FULL_CHECK_DIM))
        return alg

    def _validate(self, full=True):
        """Commutativity, the unit law and (when full) associativity, decided
        on the integer tensor as the scalar checks c[i][j][k] == c[j][i][k],
        M_1 e_i == e_i and M_{e_i} M_{e_j} == M_{e_i e_j} decide them, the
        operators with the ledger of mult_operator; e_i * e_j is, by
        definition, the stored slice c[i][j]."""
        m = self.dim
        ctx = self.ctx
        flat = self.tensor
        res, prec, pw = flat.res, flat.prec, flat.pw
        for i in range(m):
            for j in range(i):
                for k in range(m):
                    a, b = (i * m + j) * m + k, (j * m + i) * m + k
                    if (res[a] - res[b]) % pw[min(prec[a], prec[b]) - flat.base]:
                        raise PadicError(
                            "structure constants not commutative at (%d,%d,%d)" % (i, j, k)
                        )
        units = [linalg.Row.unit(ctx, m, i) for i in range(m)]
        one_op = self._operator(self.one).grid
        for i in range(m):
            if not linalg.congruent(one_op.slice(i, None, m), units[i]):
                raise PadicError("unit vector is not an identity at basis %d" % i)
        if full:
            ops = [self._operator(e) for e in units]
            for i in range(m):
                for j in range(i + 1):
                    prod_op = self._operator(flat.slice((i * m + j) * m, (i * m + j + 1) * m))
                    if not (ops[i] @ ops[j]) == prod_op:
                        raise PadicError("structure constants not associative at (%d,%d)" % (i, j))

    # -- elements ---------------------------------------------------------

    def element(self, coords) -> "AlgElement":
        """The element with coordinates coords: PadicScalars of the
        algebra's prime, or a Row."""
        return AlgElement(self, linalg.Row.of(coords, self.ctx))

    def basis_element(self, i) -> "AlgElement":
        return AlgElement(self, linalg.Row.unit(self.ctx, self.dim, i))

    def unit(self) -> "AlgElement":
        return AlgElement(self, self.one)

    def zero(self) -> "AlgElement":
        return AlgElement(self, linalg.Row.zeros(self.ctx, self.dim))

    def scalar_element(self, c: PadicScalar) -> "AlgElement":
        return AlgElement(self, self.one.times(c))

    def from_ints(self, coords) -> "AlgElement":
        return AlgElement(self, linalg.Row.of_ints(self.ctx, list(coords)))

    @property
    def mul(self) -> tuple:
        """mul[i][j] = the coordinate tuple of e_i * e_j, as PadicScalars
        built on each read."""
        flat, m = self.tensor.scalars(), self.dim
        return tuple(tuple(tuple(flat[(i * m + j) * m:(i * m + j + 1) * m]) for j in range(m))
                     for i in range(m))

    @cached_property
    def _columns(self) -> tuple:
        """columns[k * m + j] is the slice of the tensor over the
        c[i][j][k], the column of entry (k, j) of the multiplication
        operators."""
        m = self.dim
        return self.tensor.slices([j * m + k for k in range(m) for j in range(m)], m, m * m)

    @cached_property
    def _terms(self) -> list:
        """terms[i][j] lists every c[i][j][k], zero markers included, as
        (k, valuation, precision, scaled residue)."""
        m = self.dim
        flat = self.tensor
        every = [(t % m, v, q, r)
                 for t, (v, q, r) in enumerate(zip(flat.vals(), flat.prec, flat.res))]
        rows = [tuple(every[s:s + m]) for s in range(0, m ** 3, m)]
        return [rows[i * m:(i + 1) * m] for i in range(m)]

    # -- structural invariants, each computed once on first use -------------

    @cached_property
    def _nilradical(self) -> tuple:
        return tuple(_trace_form_radical(self))

    @cached_property
    def _idempotents(self) -> tuple:
        from .components import _primitive_idempotents

        return tuple(_primitive_idempotents(self))

    @cached_property
    def _components(self) -> tuple:
        from .components import component_quotient

        return tuple(component_quotient(self, e) for e in self._idempotents)

    @cached_property
    def _lifts(self) -> dict:
        """Working-precision lifts of an exact tensor made by
        _lift_algebra, by precision."""
        return {}

    def mult_operator(self, x: "AlgElement") -> PadicMatrix:
        """Matrix of multiplication by x in the given basis: entry (k, j)
        is the sum of x_i * c[i][j][k] over every x_i."""
        _check(self, x)
        return self._operator(x.row)

    def _operator(self, x: linalg.Row) -> PadicMatrix:
        """mult_operator of the element with coordinates x."""
        m = self.dim
        return PadicMatrix(self.ctx, m, m, linalg.Row.dot([x], self._columns, self.ctx))

    # -- convenient constructors -------------------------------------------

    @staticmethod
    def field(ctx: PrimeContext) -> "FinAlgebra":
        one = PadicScalar.from_int(ctx, 1)
        return FinAlgebra.create(ctx, [[[one]]], [one])

    @staticmethod
    def from_power_relation(ctx: PrimeContext, rel) -> "FinAlgebra":
        """K[x]/(g) in the power basis 1, x, .., x^(s-1), where g is monic
        with x^s = sum rel[i] x^i (rel holds ints, Fractions or scalars)."""
        s = len(rel)
        relv = [
            r if isinstance(r, PadicScalar) else PadicScalar.from_int(ctx, r) for r in rel
        ]
        zero = PadicScalar.zero(ctx)
        one = PadicScalar.from_int(ctx, 1)

        def reduce_power(k):
            # coordinates of x^k
            coords = [zero] * s
            if k < s:
                coords[k] = one
                return coords
            prev = reduce_power(k - 1)
            out = [zero] * s
            carry = prev[s - 1]
            for i in range(s - 1):
                out[i + 1] = prev[i]
            for i in range(s):
                out[i] = out[i] + carry * relv[i]
            return out

        powers = [reduce_power(k) for k in range(2 * s - 1)]
        mul = [[powers[i + j] for j in range(s)] for i in range(s)]
        unit = [one] + [zero] * (s - 1)
        return FinAlgebra.create(ctx, mul, unit)

    def __repr__(self):
        return "FinAlgebra(p=%d, dim=%d)" % (self.ctx.p, self.dim)

    def __eq__(self, other):
        if not isinstance(other, FinAlgebra):
            return NotImplemented
        if self is other:
            return True
        if (self.ctx.p, self.dim) != (other.ctx.p, other.dim):
            return False
        return (linalg.congruent(self.tensor, other.tensor)
                and linalg.congruent(self.one, other.one))

    __hash__ = None


@dataclass(slots=True)
class AlgElement:
    algebra: FinAlgebra
    row: linalg.Row  # the coordinates

    @property
    def coords(self) -> tuple:
        """The coordinates as a tuple of PadicScalars, built on each read."""
        return tuple(self.row.scalars())

    def __add__(self, other):
        _check(self.algebra, other)
        return AlgElement(self.algebra, self.row.combined(other.row, 1))

    def __sub__(self, other):
        _check(self.algebra, other)
        return AlgElement(self.algebra, self.row.combined(other.row, -1))

    def __neg__(self):
        return AlgElement(self.algebra, self.row.negated())

    def __mul__(self, other):
        if isinstance(other, PadicScalar):
            return AlgElement(self.algebra, self.row.times(other))
        _check(self.algebra, other)
        return AlgElement(self.algebra, _product(self.algebra, self.row, other.row))

    def __rmul__(self, other):
        if isinstance(other, PadicScalar):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        return power(self, k, self.algebra.unit())

    def inv(self) -> "AlgElement":
        """The solution of M_x y = 1: M_x eliminated and its row operations
        replayed on the Row of 1 (Elimination.solve_row).

        On a 1-dimensional algebra whose 1 x 1 operator (m) is not a zero
        marker, that elimination is one pivot step, so y = m^-1 * 1 is read
        from the pivot inverse (scalar._inverse, then Row.scaled on the
        Row of 1) with no elimination made: the same Row, and the same
        refusal of a pivot whose inverse keeps no digit.  A zero marker
        takes the elimination for its refusals: the zero decision below
        the margin, or 1 outside the image."""
        A = self.algebra
        m = A.mult_operator(self)
        grid = m.grid
        if A.dim == 1 and grid.res[0]:
            return AlgElement(A, A.one.scaled(_inverse(grid.pw, grid.parts(0)), A.ctx))
        sol = linalg.eliminate(m.int_rows(), reduce_above=True).solve_row(A.one)
        if sol is None:
            raise NotAUnit("element is not invertible to precision")
        return AlgElement(A, sol)

    def is_zero_to_precision(self) -> bool:
        return not any(self.row.res)

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return linalg.congruent(self.row, other.row)

    __hash__ = None

    def agrees(self, other: "AlgElement", prec: int) -> bool:
        return self.row.agrees(other.row, prec)

    def min_valuation(self) -> int | None:
        return self.row.min_valuation()

    def min_precision(self) -> int:
        return min(self.row.prec)

    def __repr__(self):
        return "AlgElement[%s]" % ", ".join(c.to_string() for c in self.coords)

    def min_poly(self):
        """Monic minimal polynomial as a coefficient list [a_0..a_{s-1}, 1]
        with a_s = 1, via the Krylov sequence 1, x, x^2, ..."""
        cur = self.algebra.unit()
        powers = [cur.row]
        for _ in range(self.algebra.dim):
            cur = cur * self
            sols = linalg.solve(linalg.transpose(powers), [cur.row])
            if sols is not None:
                # x^s = sum sols[0][i] x^i ; monic poly is T^s - sum c_i T^i
                return [-c for c in sols[0]] + [PadicScalar.from_int(self.algebra.ctx, 1)]
            powers.append(cur.row)
        raise PrecisionExhausted("minimal polynomial not found below the dimension bound")

    def is_nilpotent(self) -> bool:
        """x^dim vanishes to precision."""
        return (self ** self.algebra.dim).is_zero_to_precision()


@dataclass(frozen=True)
class Morphism:
    """Unital algebra morphism, stored by the images of the source basis."""

    source: FinAlgebra
    target: FinAlgebra
    images: tuple  # tuple of AlgElement over target

    @staticmethod
    def create(source, target, images, validate=True):
        f = Morphism(source, target, tuple(images))
        if validate:
            f._validate()
        return f

    def _validate(self):
        if not self.apply(self.source.unit()) == self.target.unit():
            raise PadicError("morphism does not preserve the unit")
        for i in range(self.source.dim):
            for j in range(i + 1):
                lhs = self.apply(self.source.basis_element(i) * self.source.basis_element(j))
                rhs = self.images[i] * self.images[j]
                if not lhs == rhs:
                    raise PadicError("morphism not multiplicative at (%d,%d)" % (i, j))

    @cached_property
    def _columns(self):
        """The image coordinates as integers, one Row per target
        coordinate k over the images[i][k]."""
        return linalg.transpose([img.row for img in self.images])

    def apply(self, x: AlgElement) -> AlgElement:
        """Coordinate k of the image is the sum of x_i * images[i][k] over
        every x_i."""
        _check(self.source, x)
        return AlgElement(self.target, linalg.Row.dot([x.row], self._columns, self.target.ctx))

    @cached_property
    def _image(self) -> linalg.Elimination:
        """The image matrix (rows _columns) eliminated once, reduced: its
        rank and refusals are the unreduced ones (as in
        components.component_quotient), but for a pivot of valuation
        <= -N, whose inverse it refuses."""
        return linalg.eliminate(self._columns, reduce_above=True)

    def is_surjective(self) -> bool:
        return self._image.rank == self.target.dim

    def kernel_basis(self):
        return [self.source.element(v) for v in self._image.kernel_basis()]


def _product(A: FinAlgebra, a: linalg.Row, b: linalg.Row) -> linalg.Row:
    """The coordinates of the product of the elements of A with
    coordinates a and b, as a Row of A's context: the sum of
    (a_i * b_j) * c[i][j][k] over every a_i, b_j and c[i][j][k], zero
    markers included, with the ledger of adding those products one by
    one to a zero marker of A's context (that of Row.dot).  A term whose
    product vanishes is counted in the precision alone.  Each operand
    lies in one context, so the ambient caps of every term are constants:
    min(N a, N b) of a_i * b_j, and min(N a, N of the tensor) of its
    product with c[i][j][k], taken once per product with A's N."""
    ctx = A.ctx
    N = ctx.default_precision
    terms = A._terms
    precs = [N] * A.dim
    sums = [0] * A.dim
    nab = a.N if a.N < b.N else b.N
    b_parts = list(enumerate(zip(b.res, b.vals(), b.prec)))
    for i, (sa, va, pa) in enumerate(zip(a.res, a.vals(), a.prec)):
        terms_i = terms[i]
        for j, (sb, vb, pb) in b_parts:
            # the precision of a*b, min(pa + vb, pb + va, N a, N b); when
            # a*b is a zero marker its valuation counts as pab <= vab, and
            # then pab + vc is the least bound of the term anyway
            pab = pa + vb
            q = pb + va
            if q < pab:
                pab = q
            if nab < pab:
                pab = nab
            vab = va + vb
            sab = sa * sb
            for k, vc, pc, sc in terms_i[j]:
                # min(pab + vc, pc + vab), capped below at the end
                prec = pab + vc
                q = pc + vab
                if q < prec:
                    prec = q
                if prec < precs[k]:
                    precs[k] = prec
                if sab and sc:
                    sums[k] += sab * sc
    cap = min(N, a.N, A.tensor.N)
    precs = [q if q < cap else cap for q in precs]
    base = a.base + b.base + A.tensor.base
    pw = a.pw
    base, res = linalg._rebased(pw, base, [r % pw[q - base] for r, q in zip(sums, precs)],
                                precs)
    return linalg.Row(pw, base, res, precs, ctx)


def _check(A: FinAlgebra, x: AlgElement):
    """Refuse x unless its algebra has A's prime and dimension."""
    if A.ctx.p != x.algebra.ctx.p:
        raise ContextMismatch("mixed primes")
    if A.dim != len(x.row):
        raise PadicError("elements of different algebras")


# -- nilradical and quotients ----------------------------------------------


def nilradical(A: FinAlgebra):
    """Basis of the ideal of nilpotents, as the radical of the trace form
    (valid in characteristic zero); raises PrecisionExhausted when the
    trace-form rank is ambiguous at working precision."""
    return list(A._nilradical)


def _trace_form_radical(A: FinAlgebra):
    m = A.dim
    flat = A.tensor
    traces = []
    for l in range(m):
        t = PadicScalar.zero(A.ctx)
        for c in flat.slice(l * m * m, (l + 1) * m * m, m + 1).scalars():  # the c[l][j][j]
            t = t + c
        traces.append(t)
    # gram[i][j] = the sum of c[i][j][l] * tr(e_l) over every l
    grid = linalg.Row.dot([linalg.Row.of(traces)], flat.slices(range(0, m ** 3, m), m), A.ctx)
    gram = grid.slices(range(0, m * m, m), m)
    basis = [A.element(v) for v in linalg.kernel_basis(gram)]
    for x in basis:
        if not (x ** m).is_zero_to_precision():
            raise PrecisionExhausted(
                "trace-form radical contains a non-nilpotent direction; "
                "raise the working precision"
            )
    return basis


def quotient_by_ideal(A: FinAlgebra, ideal_basis):
    """Quotient algebra A/I together with the projection morphism and a
    linear section of it (used to lift idempotents back)."""
    m = A.dim
    rows = [x.row for x in ideal_basis]
    if not rows:
        ident = Morphism.create(A, A, [A.basis_element(i) for i in range(m)], validate=False)
        return A, ident, ident
    e = linalg.eliminate(rows, reduce_above=True)
    pivot_rows = [(j, e.int_rows[i]) for (i, j) in sorted(e.pivots, key=lambda ij: ij[1])]
    free_cols = [j for j in range(m) if j not in e.pivot_of_col]
    s = len(free_cols)
    if s == 0:
        raise PadicError("quotient by the unit ideal")

    def project(row):
        work = linalg.reduce_vector(row, pivot_rows)
        return linalg.transpose(work.slices(free_cols, 1))[0]

    reps = [A.basis_element(j) for j in free_cols]
    mul = [[project((reps[i] * reps[j]).row) for j in range(s)] for i in range(s)]
    one = project(A.one)
    S = FinAlgebra.create(A.ctx, mul, one, validate=(s <= _FULL_CHECK_DIM),
                          exact_structure=False)
    proj = Morphism.create(
        A, S, [S.element(project(A.basis_element(i).row)) for i in range(m)], validate=False
    )
    section = Morphism(S, A, tuple(reps))  # linear only, not validated
    return S, proj, section


# -- exponential and logarithm ----------------------------------------------


def _lift_algebra(A: FinAlgebra, wctx: PrimeContext) -> FinAlgebra:
    """The exact residue lift (Row.lifted) of the exact tensor A and of
    its unit into the wider working context, made once per working
    precision and kept by A."""
    Aw = A._lifts.get(wctx.default_precision)
    if Aw is None:
        Aw = FinAlgebra(wctx, A.dim, A.tensor.lifted(wctx), A.one.lifted(wctx))
        A._lifts[wctx.default_precision] = Aw
    return Aw


def _exp_cap(N: int, out: AlgElement) -> int:
    """Digits of exp(x) on an exact tensor with x known mod p^N: a p^N
    change of x moves exp(x) by exp(x) * O(p^N)."""
    mv = out.min_valuation()
    return N + min(0, mv if mv is not None else 0)


def _log_cap(N: int, uw: AlgElement) -> int:
    """Digits of log(u) on an exact tensor with u known mod p^N: a p^N
    change of u moves log(u) by u^-1 * O(p^N)."""
    inv_mv = uw.inv().min_valuation()
    return N + min(0, inv_mv if inv_mv is not None else 0)


def _krylov_basis(m: PadicMatrix) -> PadicMatrix | None:
    """A triangular basis P, with exact entries, of the lattice
    L = sum over k < n of (M/p^e0)^k Z_p^n for the n x n matrix M; None
    when M/p^e0 is integral, for L is then Z_p^n.

    M/p^e0 maps L into itself exactly when its characteristic polynomial
    is integral, i.e. when every eigen-scalar of M has valuation >= e0;
    then P^-1 M P has every entry at valuation >= e0.  The residues T of
    M on its base b are taken as exact, so M/p^e0 = p^s T with s = b - e0
    < 0, and P is computed on plain integers (_series.krylov_basis): the
    lattice p^D L, D = (n - 1)(-s), is reduced modulo p^(N + D) with the
    pivot rule of linalg.triangular_lattice_rows, and its pivot columns
    over p^D are P, exact at the context's precision N.  P enters only
    products in a context wider than the result, where it is taken as
    exact: any invertible P conjugates M, and the domain test runs on the
    result."""
    ctx = m.ctx
    v = m.min_valuation()
    if v is None or v >= ctx.e0:
        return None
    n, grid, N = m.nrows, m.grid, ctx.default_precision
    t = [grid.res[i * n:(i + 1) * n] for i in range(n)]
    d, cols = _series.krylov_basis(t, ctx.p, grid.base - ctx.e0, N)
    res = [x for row in zip(*cols) for x in row]
    return PadicMatrix(ctx, n, n, linalg.Row(grid.pw, -d, res, [N] * (n * n), ctx))


def _operator_series(m: PadicMatrix, one: linalg.Row, kind: str) -> linalg.Row:
    """exp(M), or log(1 + M), applied to the column one, as the Row of its
    coordinates: mat_exp(M'), or mat_log(1 + M'), for M' = P^-1 M P
    with P the basis of _krylov_basis, conjugated back.  A conjugated
    entry below e0 means an eigen-scalar of M below e0: the domain
    refusal.  P is exact, made on plain integers at the precision of M's
    context, which the caller widens beyond the result's; the products
    with P and P^-1 keep the ledger of M and of one, and the matrix
    kernels keep the least precision of M'."""
    ctx = m.ctx
    basis = _krylov_basis(m)
    col = PadicMatrix(ctx, len(one), 1, one)
    if basis is not None:
        inverse = basis.inverse()
        m = inverse @ m @ basis
        col = inverse @ col
    v = m.min_valuation()
    if v is not None and v < ctx.e0:
        if kind == "exp":
            raise OutsideExpDomain(
                "exp domain needs every eigen-scalar at valuation >= %d" % ctx.e0)
        raise OutsideLogDomain(
            "log domain needs u = 1 + (eigen-scalars of valuation >= %d)" % ctx.e0)
    op = mat_exp(m) if kind == "exp" else mat_log(m + PadicMatrix.identity(ctx, m.nrows))
    image = op @ col
    if basis is not None:
        image = basis @ image
    return image.grid


def _exp_log(x: AlgElement, kind: str) -> AlgElement:
    """exp(x), or log(1 + x), as _operator_series on the multiplication
    operator M_x and the coordinates of 1, under the precision policy of
    the tensor (module docstring)."""
    A = x.algebra
    ctx = A.ctx
    N = min(x.min_precision(), ctx.default_precision)
    if x.is_zero_to_precision():
        base = A.unit() if kind == "exp" else A.zero()
        return AlgElement(A, base.row.reduced(N))
    m_x = A.mult_operator(x)
    v = m_x.min_valuation()
    if not A.exact_structure or v is None or v >= ctx.e0:
        # the ledger of M_x and of 1 bounds the result; the wider context
        # keeps the products with P from being capped at N
        wctx = ctx.widen(N + 32)
        out = _operator_series(m_x.rehomed(wctx), A.one.rehomed(wctx), kind)
        return AlgElement(A, out.rehomed(ctx))
    headroom = N + 32
    for _ in range(4):
        wctx = ctx.widen(headroom)
        Aw = _lift_algebra(A, wctx)
        xw = AlgElement(Aw, x.row.lifted(wctx))
        acc = AlgElement(Aw, _operator_series(Aw.mult_operator(xw), Aw.one, kind))
        level = _exp_cap(N, acc) if kind == "exp" else _log_cap(N, Aw.unit() + xw)
        if acc.min_precision() >= level:
            return AlgElement(A, acc.row.reduced(level).rehomed(ctx))
        headroom *= 2
    raise PrecisionExhausted("exp/log headroom did not stabilise")


def alg_exp(x: AlgElement) -> AlgElement:
    """Exponential in a finite-dimensional commutative algebra.

    Domain: every eigen-scalar of x has valuation >= e0.  The value is
    exp(M_x) applied to 1, through the lattice basis of _operator_series.
    """
    return _exp_log(x, "exp")


def alg_log(u: AlgElement) -> AlgElement:
    """Logarithm, inverse to alg_exp on its domain: every eigen-scalar of
    t = u - 1 must have valuation >= e0.  The value is log(1 + M_t)
    applied to 1, routed as alg_exp routes t."""
    return _exp_log(u - u.algebra.unit(), "log")


def exp_G(x: AlgElement) -> AlgElement:
    """Lie-algebra exponential for the unit group of a connected algebra.

    The representable domain over Q_p is x = a + nu with a scalar of
    valuation >= e0 and nu nilpotent; the value is big_exp(a) * alg_exp(nu),
    functorial in algebra morphisms.
    """
    A = x.algebra
    ctx = A.ctx
    m = A.dim
    tr = A.mult_operator(x).trace()
    a = tr * PadicScalar.from_fraction(ctx, Fraction(1, m))
    nu = x - A.scalar_element(a)
    if not nu.is_nilpotent():
        raise OutsideRepresentableDomain(
            "no scalar + nilpotent decomposition: the algebra is not "
            "connected over Q_p at this element"
        )
    if not (a.is_zero or a.v >= ctx.e0):
        raise OutsideRepresentableDomain(
            "scalar part has valuation %s < e0 = %d; the global exponential "
            "is not representable there over Q_p" % (a.v, ctx.e0)
        )
    return alg_exp(nu) * big_exp(a)
