"""Finite-dimensional commutative unital algebras over Q_p via structure
constants.

An algebra of dimension m is the data of an m x m x m tensor c with
e_i * e_j = sum_k c[i][j][k] e_k, plus the coordinates of 1.  Commutativity,
associativity and the unit law are checked at construction (associativity
via M_{e_i} M_{e_j} = M_{e_i e_j} on multiplication operators); internal
constructions whose tensors are read off from actual endomorphism algebras
may skip the quadratic checks above the documented size gate.

Element products, multiplication operators and morphism images are
bilinear sums of scalar products.  Each output coordinate or entry is
computed in one integer pass with exactly the ledger of adding the
products a*b one by one to a zero marker of the result's context (the
algebra's; for a morphism, the target's): its precision is the least of
that context's N and, over the terms, min(prec a + v b, prec b + v a,
N a, N b), a zero marker's valuation counting as its precision; its value
is the exact sum of the unit products reduced mod p^prec.  As in the fold,
the terms of an element product are (a_i * b_j) * c[i][j][k] over the
nonzero a_i, b_j and c[i][j][k], and those of an operator entry or an
image coordinate run over the nonzero x_i, zero constants and zero image
coordinates included.

An algebra computes its structural invariants once, on first use, and
keeps them for its lifetime (functools.cached_property on the frozen
FinAlgebra, like the integer constants): the nilradical, the primitive
idempotents and connected components (components.py), and the lifts to
wider working precisions, one per precision, on which exp/log run their
series.  Only results are kept: a computation that raises stores nothing
and raises again on the next call.  Public functions return fresh lists
of the immutable kept values.

exp(x) and log(1 + x) take the matrix route first (_operator_series):
on an exact tensor, when every entry of the multiplication operator M_x
has valuation >= e0, the value is mat_exp(M_x), or mat_log(1 + M_x),
applied to the coordinates of 1, at the precision of M_x and x.  Every
other argument -- a solve-derived tensor, or an exact one with an
operator entry below e0 -- is one power series, summed on the lift of the
algebra to a wider working precision (_orbit_series), or the finite sum
on a nilpotent.  The series result is capped at a level that depends on
the tensor: on an exact tensor, the sensitivity of exp/log to a p^N
change of the argument; on a solve-derived tensor, the
bilinear-perturbation level, which also covers a p^N change of every
structure constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
import operator

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
from .matrix import PadicMatrix, _Lane, _least_valuation, _scaled_residue, mat_exp, mat_log
from .scalar import PadicScalar, big_exp

MAX_DIM = 64  # soft limit; keeps the m^5 validation desk-scale
_FULL_CHECK_DIM = 12


@dataclass(frozen=True)
class FinAlgebra:
    ctx: PrimeContext
    dim: int
    mul: tuple  # mul[i][j] = coordinate tuple of e_i * e_j
    one: tuple  # coordinates of the unit
    # whether the stored residues ARE the exact structure constants (true
    # for hand-built and parsed tensors); solve-derived tensors (quotients,
    # spectral algebras) only approximate the true constants mod p^N, so
    # exp/log on them are capped at the bilinear-perturbation level
    exact_structure: bool = True

    @staticmethod
    def create(ctx, mul, one, validate=True, exact_structure=True):
        m = len(mul)
        mul_t = tuple(tuple(tuple(row) for row in plane) for plane in mul)
        one_t = tuple(one)
        if m > MAX_DIM:
            raise PadicError("algebra dimension %d exceeds the soft limit %d" % (m, MAX_DIM))
        alg = FinAlgebra(ctx, m, mul_t, one_t, exact_structure)
        if validate:
            alg._validate(full=(m <= _FULL_CHECK_DIM))
        return alg

    def _validate(self, full=True):
        m = self.dim
        for i in range(m):
            for j in range(i):
                for k in range(m):
                    if not self.mul[i][j][k] == self.mul[j][i][k]:
                        raise PadicError(
                            "structure constants not commutative at (%d,%d,%d)" % (i, j, k)
                        )
        one = self.element(self.one)
        for i in range(m):
            if not one * self.basis_element(i) == self.basis_element(i):
                raise PadicError("unit vector is not an identity at basis %d" % i)
        if full:
            ops = [self.mult_operator(self.basis_element(i)) for i in range(m)]
            for i in range(m):
                for j in range(i + 1):
                    prod_op = self.mult_operator(self.basis_element(i) * self.basis_element(j))
                    if not (ops[i] @ ops[j]) == prod_op:
                        raise PadicError("structure constants not associative at (%d,%d)" % (i, j))

    # -- elements ---------------------------------------------------------

    def element(self, coords) -> "AlgElement":
        return AlgElement(self, tuple(coords))

    def basis_element(self, i) -> "AlgElement":
        return self.element(
            [self.scalar(1) if j == i else self.zero_scalar() for j in range(self.dim)]
        )

    def unit(self) -> "AlgElement":
        return self.element(self.one)

    def zero(self) -> "AlgElement":
        return self.element([self.zero_scalar() for _ in range(self.dim)])

    def scalar(self, n) -> PadicScalar:
        return PadicScalar.from_int(self.ctx, n)

    def zero_scalar(self) -> PadicScalar:
        return PadicScalar.zero(self.ctx)

    def scalar_element(self, c: PadicScalar) -> "AlgElement":
        return self.element([c * x for x in self.one])

    def from_ints(self, coords) -> "AlgElement":
        return self.element([PadicScalar.from_int(self.ctx, n) for n in coords])

    @cached_property
    def _constants(self) -> "_Constants":
        return _Constants(self.mul, self.ctx.p)

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
        """Working-precision lifts made by _lift_algebra, by precision."""
        return {}

    def mult_operator(self, x: "AlgElement") -> PadicMatrix:
        """Matrix of multiplication by x in the given basis: entry (k, j)
        is the sum of x_i * c[i][j][k] over the nonzero x_i."""
        m = self.dim
        entries = _combine(self.ctx, x.coords, self._constants.lanes, m * m)
        return PadicMatrix.from_rows(self.ctx, [entries[k * m:(k + 1) * m] for k in range(m)])

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
        return self.mul == other.mul and self.one == other.one

    __hash__ = None


@dataclass(frozen=True)
class AlgElement:
    algebra: FinAlgebra
    coords: tuple

    def _check(self, other: "AlgElement"):
        if self.algebra.ctx.p != other.algebra.ctx.p:
            raise ContextMismatch("mixed primes")
        if self.algebra.dim != other.algebra.dim:
            raise PadicError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgElement(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return AlgElement(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return AlgElement(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, PadicScalar):
            return AlgElement(self.algebra, tuple(other * a for a in self.coords))
        self._check(other)
        A = self.algebra
        ctx = A.ctx
        p = ctx.p
        constants = A._constants
        precs = [ctx.default_precision] * A.dim
        sums = [0] * A.dim
        a_base = _least_valuation(self.coords)
        b_base = _least_valuation(other.coords)
        b_live = [(j, b.v, b.prec, b.ctx.default_precision, b.u * p ** (b.v - b_base))
                  for j, b in enumerate(other.coords) if b.v is not None]
        for i, a in enumerate(self.coords):
            if a.v is None:
                continue
            va, pa, na = a.v, a.prec, a.ctx.default_precision
            sa = a.u * p ** (va - a_base)
            terms = constants.terms[i]
            for j, vb, pb, nb, sb in b_live:
                # the precision of a*b; when a*b is a zero marker (its
                # valuation then counts as pab), pab + vc < pc + pab is the
                # smaller bound anyway, since c is nonzero
                pab = min(pa + vb, pb + va, na, nb)
                vab = va + vb
                sab = sa * sb
                for k, vc, pc, nc, sc in terms[j]:
                    prec = min(pab + vc, pc + vab, na, nc)
                    if prec < precs[k]:
                        precs[k] = prec
                    sums[k] += sab * sc
        base = a_base + b_base + constants.base
        return AlgElement(A, tuple(_scaled_residue(ctx, p, r, base, prec)
                                   for r, prec in zip(sums, precs)))

    def __rmul__(self, other):
        if isinstance(other, PadicScalar):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = self.algebra.unit()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inv(self) -> "AlgElement":
        sols = linalg.solve(self.algebra.mult_operator(self).rows(), [list(self.algebra.one)])
        if sols is None:
            raise NotAUnit("element is not invertible to precision")
        return AlgElement(self.algebra, tuple(sols[0]))

    def is_zero_to_precision(self) -> bool:
        return all(c.is_zero for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return len(self.coords) == len(other.coords) and all(
            a == b for a, b in zip(self.coords, other.coords))

    __hash__ = None

    def agrees(self, other: "AlgElement", prec: int) -> bool:
        return len(self.coords) == len(other.coords) and all(
            a.agrees(b, prec) for a, b in zip(self.coords, other.coords))

    def min_valuation(self) -> int | None:
        vals = [c.v for c in self.coords if not c.is_zero]
        return min(vals) if vals else None

    def min_precision(self) -> int:
        return min(c.prec for c in self.coords)

    def __repr__(self):
        return "AlgElement[%s]" % ", ".join(c.to_string() for c in self.coords)

    def min_poly(self):
        """Monic minimal polynomial as a coefficient list [a_0..a_{s-1}, 1]
        with a_s = 1, via the Krylov sequence 1, x, x^2, ..."""
        m = self.algebra.dim
        powers = [self.algebra.unit().coords]
        cur = self.algebra.unit()
        for _ in range(m):
            cur = cur * self
            rows = [list(p) for p in powers]
            sols = linalg.solve([[rows[i][j] for i in range(len(rows))] for j in range(m)], [list(cur.coords)])
            if sols is not None:
                # x^s = sum sols[0][i] x^i ; monic poly is T^s - sum c_i T^i
                return [-c for c in sols[0]] + [PadicScalar.from_int(self.algebra.ctx, 1)]
            powers.append(cur.coords)
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
    def _image_lanes(self):
        """The image coordinates as integers, one _Lane per source basis
        vector, all scaled to one base valuation."""
        base = _least_valuation([c for img in self.images for c in img.coords])
        return [_Lane(img.coords, self.target.ctx.p, base) for img in self.images]

    def apply(self, x: AlgElement) -> AlgElement:
        """Coordinate k of the image is the sum of x_i * images[i][k] over
        the nonzero x_i."""
        return AlgElement(self.target, tuple(
            _combine(self.target.ctx, x.coords, self._image_lanes, self.target.dim)))

    def is_surjective(self) -> bool:
        rows = [[img.coords[i] for img in self.images] for i in range(self.target.dim)]
        rank, _ = linalg.rank_with_margin(rows)
        return rank == self.target.dim

    def kernel_basis(self):
        rows = [[img.coords[i] for img in self.images] for i in range(self.target.dim)]
        return [self.source.element(v) for v in linalg.kernel_basis(rows)]


class _Constants:
    """A structure-constant tensor as integers, each c[i][j][k] scaled to
    p^base with base the least valuation of a nonzero constant.  lanes[i]
    is a _Lane over the c[i][j][k] in (k, j) order, the i-th plane of the
    multiplication operators; terms[i][j] lists the nonzero c[i][j][k] as
    (k, valuation, precision, ambient precision, scaled unit)."""

    __slots__ = ("base", "lanes", "terms")

    def __init__(self, mul, p):
        m = len(mul)
        planes = [[mul[i][j][k] for k in range(m) for j in range(m)] for i in range(m)]
        self.base = base = _least_valuation([c for plane in planes for c in plane])
        self.lanes = [_Lane(plane, p, base) for plane in planes]
        self.terms = [
            [tuple((k, c.v, c.prec, c.ctx.default_precision, c.u * p ** (c.v - base))
                   for k, c in enumerate(row) if c.v is not None) for row in plane]
            for plane in mul
        ]


def _combine(ctx, coords, lanes, size):
    """Entry t of the sum of coords[i] * lanes[i][t] over the nonzero
    coords[i], every lane entry counted, as summing the scalar products
    into zero markers of ctx leaves it (the ledger in the module
    docstring); the lanes share one base valuation.  coords and lanes
    must have one length: an element of another algebra is refused."""
    if len(coords) != len(lanes):
        raise PadicError("elements of different algebras")
    p = ctx.p
    cap = ctx.default_precision
    precs = [cap] * size
    sums = [0] * size
    base = _least_valuation(coords)
    for x, lane in zip(coords, lanes):
        if x.v is None:
            continue
        cap = min(cap, x.ctx.default_precision)
        precs = list(map(min, precs, map(operator.add, lane.vals, repeat(x.prec)),
                         map(operator.add, lane.precs, repeat(x.v)), lane.caps))
        scaled = x.u * p ** (x.v - base)
        sums = list(map(operator.add, sums, map(operator.mul, lane.scaled, repeat(scaled))))
    if lanes:
        base += lanes[0].base
    return [_scaled_residue(ctx, p, r, base, min(prec, cap)) for r, prec in zip(sums, precs)]


# -- nilradical and quotients ----------------------------------------------


def nilradical(A: FinAlgebra):
    """Basis of the ideal of nilpotents, as the radical of the trace form
    (valid in characteristic zero); raises PrecisionExhausted when the
    trace-form rank is ambiguous at working precision."""
    return list(A._nilradical)


def _trace_form_radical(A: FinAlgebra):
    m = A.dim
    traces = []
    for l in range(m):
        t = PadicScalar.zero(A.ctx)
        for j in range(m):
            t = t + A.mul[l][j][j]
        traces.append(t)
    gram = []
    for i in range(m):
        row = []
        for j in range(m):
            g = PadicScalar.zero(A.ctx)
            for l in range(m):
                c = A.mul[i][j][l]
                if not c.is_zero:
                    g = g + c * traces[l]
            row.append(g)
        gram.append(row)
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
    rows = [list(x.coords) for x in ideal_basis]
    if not rows:
        ident = Morphism.create(A, A, [A.basis_element(i) for i in range(m)], validate=False)
        return A, ident, ident
    e = linalg.eliminate(rows, reduce_above=True)
    pivot_rows = sorted((j, e.rows[i]) for (i, j) in e.pivots)
    free_cols = [j for j in range(m) if j not in e.pivot_of_col]
    s = len(free_cols)
    if s == 0:
        raise PadicError("quotient by the unit ideal")

    def project(coords):
        work = linalg.reduce_vector(coords, pivot_rows)
        return [work[j] for j in free_cols]

    reps = [A.basis_element(j) for j in free_cols]
    mul = [[project((reps[i] * reps[j]).coords) for j in range(s)] for i in range(s)]
    one = project(A.one)
    S = FinAlgebra.create(A.ctx, mul, one, validate=(s <= _FULL_CHECK_DIM),
                          exact_structure=False)
    proj = Morphism.create(
        A, S, [S.element(project(A.basis_element(i).coords)) for i in range(m)], validate=False
    )
    zero = A.zero_scalar()
    section_images = []
    for t in range(s):
        coords = [zero] * m
        coords[free_cols[t]] = A.scalar(1)
        section_images.append(A.element(coords))
    section = Morphism(S, A, tuple(section_images))  # linear only, not validated
    return S, proj, section


# -- exponential and logarithm ----------------------------------------------


def _newton_polygon_ok(minpoly, bound: int) -> bool:
    """All roots of the monic polynomial have valuation >= bound, iff
    val(a_i) >= (s - i) * bound for every coefficient."""
    s = len(minpoly) - 1
    for i in range(s):
        c = minpoly[i]
        if c.is_zero:
            continue
        if c.v < (s - i) * bound:
            return False
    return True


def _rehome(c: PadicScalar, ctx) -> PadicScalar:
    prec = min(c.prec, ctx.default_precision)
    if c.is_zero or c.v >= prec:
        return PadicScalar.zero(ctx, prec)
    return PadicScalar(ctx, c.v, c.u % ctx.p ** (prec - c.v), prec)


def _finite_exp(nu: AlgElement) -> AlgElement:
    """exp of a nilpotent element: the series terminates within dim steps."""
    A = nu.algebra
    out = A.unit()
    term = A.unit()
    fact = 1
    for n in range(1, A.dim + 1):
        term = term * nu
        if term.is_zero_to_precision():
            break
        fact *= n
        out = out + term * PadicScalar.from_fraction(A.ctx, Fraction(1, fact))
    return out


def _finite_log(nu: AlgElement) -> AlgElement:
    """log(1 + nu) for nilpotent nu: finite alternating sum."""
    A = nu.algebra
    out = A.zero()
    term = A.unit()
    for n in range(1, A.dim + 1):
        term = term * nu
        if term.is_zero_to_precision():
            break
        c = PadicScalar.from_fraction(A.ctx, Fraction(-1 if n % 2 == 0 else 1, n))
        out = out + term * c
    return out


def _lift_scalar(c: PadicScalar, wctx: PrimeContext) -> PadicScalar:
    """The canonical exact lift of a residue into a wider working context;
    the ambiguity of the choice is absorbed by the final function-precision
    cap."""
    if c.is_zero:
        return PadicScalar.zero(wctx)
    return PadicScalar.from_val_unit(wctx, c.v, c.u)


def _lift_algebra(A: FinAlgebra, wctx: PrimeContext) -> FinAlgebra:
    """The canonical residue lift of A into the wider working context,
    made once per working precision and kept by A, with A's
    exact_structure.  The exp/log series uses it for straight-line
    bilinear evaluation only: the lift of a solve-derived tensor is no
    longer associative beyond the native precision."""
    Aw = A._lifts.get(wctx.default_precision)
    if Aw is None:
        mul = [
            [[_lift_scalar(c, wctx) for c in A.mul[i][j]] for j in range(A.dim)]
            for i in range(A.dim)
        ]
        one = [_lift_scalar(c, wctx) for c in A.one]
        Aw = FinAlgebra.create(wctx, mul, one, validate=False,
                               exact_structure=A.exact_structure)
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


def _denominator_valuation(n: int, p: int, kind: str) -> int:
    return _series.factorial_valuation(n, p) if kind == "exp" else (
        _series.int_valuation(n, p) if n % p == 0 else 0
    )


def _tail_certified(a: int, n: int, e0: int, p: int, kind: str, target: int) -> bool:
    """Given val(x^m) >= a + m*e0 for every m > n (the window induction
    through the linear recurrence of the power orbit), check that every
    later term vanishes mod p^target.  Beyond the closed-form index the
    Legendre bound val(n!) <= n/(p-1) guarantees it; the finitely many
    indices before that are scanned exactly."""
    bound = max(n, ((target - a) * (p - 1)) // ((p - 1) * e0 - 1) + 1)
    for m in range(n + 1, bound + 1):
        if a + m * e0 - _denominator_valuation(m, p, kind) < target:
            return False
    return True


def _orbit_series(x: AlgElement, kind: str) -> AlgElement:
    """exp(x), or log(1 + x), as the power series on the canonical lift of
    A to a wider working precision.

    No ring axioms beyond bilinearity are used (the lift of a solve-derived
    tensor need not be associative beyond p^N): powers are the orbit of the
    multiply-by-x operator, so the Cayley-Hamilton recurrence gains e0 per
    step once a full window of dim consecutive powers satisfies
    val(x^k) >= a + k*e0, and the tail past the certified index vanishes.
    The result is capped at the sensitivity of exp/log to a p^N change of
    the argument when the tensor is exact, and at the bilinear-perturbation
    level of _perturbation_level when it is solve-derived; the headroom
    doubles until every coordinate of the lifted sum reaches the cap."""
    A = x.algebra
    ctx = A.ctx
    p = ctx.p
    e0 = ctx.e0
    N = min(x.min_precision(), ctx.default_precision)
    dim = A.dim
    headroom = N + 32
    for _ in range(4):
        wctx = ctx.widen(headroom)
        Aw = _lift_algebra(A, wctx)
        xw = Aw.element([_lift_scalar(c, wctx) for c in x.coords])
        acc, used_terms, orbit_deficit = _run_lifted_series(xw, kind, e0, p, N, dim)
        if not A.exact_structure:
            level = _perturbation_level(A, xw, N, orbit_deficit)
        elif kind == "exp":
            level = _exp_cap(N, acc)
        else:
            level = _log_cap(N, Aw.unit() + xw)
        if acc.min_precision() >= level:
            return A.element([_rehome(c.reduce(level), ctx) for c in acc.coords])
        headroom *= 2
    raise PrecisionExhausted("series headroom did not stabilise")


def _perturbation_level(A: FinAlgebra, xw: AlgElement, N: int, orbit_deficit: int) -> int:
    """Digits of a series on a tensor known only mod p^N: perturbing the
    tensor or x by p^N moves term n by at least
    p^(N + (n-1)*(e0 + c) - val(denominator)) where c is the most negative
    tensor valuation."""
    e0 = A.ctx.e0
    dim = A.dim
    c_min = 0
    for plane in A.mul:
        for row in plane:
            for c in row:
                if not c.is_zero and c.v < c_min:
                    c_min = c.v
    # error propagation: a p^N input perturbation enters term n once and
    # is then pushed around by powers of the multiplication operator,
    # whose entry valuations grow by e0 per step past the first dim of
    # them; the total deficit is a constant, not a factorial
    op_deficit = 0
    op_power = PadicMatrix.identity(xw.algebra.ctx, dim)
    m_x = xw.algebra.mult_operator(xw)
    for _ in range(dim - 1):
        op_power = op_power @ m_x
        mv = op_power.min_valuation()
        if mv is not None and mv < -op_deficit:
            op_deficit = -mv
    level = N - (max(0, orbit_deficit - c_min) + op_deficit + dim * e0)
    if level <= 0:
        raise PrecisionExhausted(
            "structure-constant denominators leave no certified digits"
        )
    return level


def _run_lifted_series(xw: AlgElement, kind: str, e0: int, p: int, target: int, dim: int):
    """Returns (series value, terms used, orbit deficit), the deficit being
    max over observed powers of n*e0 - val(x^n)."""
    Aw = xw.algebra
    power = Aw.unit()
    acc = Aw.unit() if kind == "exp" else Aw.zero()
    window = []
    deficit = 0
    fact = 1
    n = 0
    hard_cap = 400 * (target + dim)
    while True:
        n += 1
        if n > hard_cap:
            raise PrecisionExhausted("series did not certify its tail")
        power = power * xw
        mv = power.min_valuation()
        bound = (power.min_precision() if mv is None else mv) - n * e0
        if -bound > deficit:
            deficit = -bound
        window.append(bound)
        if len(window) > dim:
            window.pop(0)
        if kind == "exp":
            fact *= n
            coeff = PadicScalar.from_fraction(Aw.ctx, Fraction(1, fact))
        else:
            coeff = PadicScalar.from_fraction(Aw.ctx, Fraction(-1 if n % 2 == 0 else 1, n))
        acc = acc + power * coeff
        if len(window) == dim:
            a = min(window)
            if _tail_certified(a, n, e0, p, kind, target):
                return acc, n, deficit


def _operator_series(x: AlgElement, kind: str) -> AlgElement | None:
    """exp(x), or log(1 + x), as mat_exp(M_x), or mat_log(1 + M_x), applied
    to the coordinates of 1, for M_x the multiplication operator of x; None
    unless the tensor is exact and every entry of M_x has valuation >= e0.

    On an exact tensor x -> M_x is an algebra morphism, so exp(M_x) is the
    operator of exp(x) and sends 1 to it.  The entry condition puts every
    eigen-scalar of x at valuation >= e0, so it implies the Newton-polygon
    test and needs no nilpotent case; the matrix kernels keep the
    operator's precision, which is capped at that of x."""
    A = x.algebra
    if not A.exact_structure:
        return None
    ctx = A.ctx
    m_x = A.mult_operator(x)
    v = m_x.min_valuation()
    if v is not None and v < ctx.e0:
        return None
    op = mat_exp(m_x) if kind == "exp" else mat_log(m_x + PadicMatrix.identity(ctx, A.dim))
    prec = min(x.min_precision(), ctx.default_precision)
    image = op @ PadicMatrix.from_rows(ctx, [[c] for c in A.one])
    return A.element([row[0].reduce(prec) for row in image.entries])


def alg_exp(x: AlgElement) -> AlgElement:
    """Exponential in a finite-dimensional commutative algebra.

    Domain: every eigen-scalar of x (root of its minimal polynomial) has
    valuation >= e0.  On an exact tensor whose operator M_x has every
    entry of valuation >= e0 it is exp(M_x) applied to 1
    (_operator_series).  Otherwise, on nilpotents the series is finite;
    on the rest it is the power series on a lift of the algebra
    (_orbit_series).
    """
    A = x.algebra
    ctx = A.ctx
    if x.is_zero_to_precision():
        one = A.unit()
        prec = min(x.min_precision(), ctx.default_precision)
        return A.element([c.reduce(prec) for c in one.coords])
    direct = _operator_series(x, "exp")
    if direct is not None:
        return direct
    if not _newton_polygon_ok(x.min_poly(), ctx.e0):
        raise OutsideExpDomain(
            "exp domain needs every eigen-scalar at valuation >= %d "
            "(Newton polygon of the minimal polynomial too shallow)" % ctx.e0
        )
    if x.is_nilpotent():
        return _finite_exp(x)
    return _orbit_series(x, "exp")


def alg_log(u: AlgElement) -> AlgElement:
    """Logarithm, inverse to alg_exp on its domain: every eigen-scalar of
    u - 1 must have valuation >= e0.  The routes are alg_exp's, for
    t = u - 1: log(1 + M_t) applied to 1 on an exact tensor whose M_t has
    every entry of valuation >= e0, else the finite sum on a nilpotent t,
    else the power series."""
    A = u.algebra
    ctx = A.ctx
    t = u - A.unit()
    if t.is_zero_to_precision():
        prec = min(u.min_precision(), ctx.default_precision)
        return A.element([c.reduce(prec) for c in A.zero().coords])
    direct = _operator_series(t, "log")
    if direct is not None:
        return direct
    if not _newton_polygon_ok(t.min_poly(), ctx.e0):
        raise OutsideLogDomain(
            "log domain needs u = 1 + (eigen-scalars of valuation >= %d)" % ctx.e0
        )
    if t.is_nilpotent():
        return _finite_log(t)
    return _orbit_series(t, "log")


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
