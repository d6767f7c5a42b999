"""Unit groups of finite commutative Q_p-algebras: the nilpotent x scalar
decomposition, p-power root classes (the [1/p] colimit of unit groups), and
the pullback/pushout square relating the units of an algebra to the units
of a connected quotient.

The decomposition behind everything: a unit of a connected algebra factors
as u = c * (1 + n) with c a nonzero scalar and n nilpotent; the unipotent
factor 1 + n is uniquely p-divisible (via exp/log, defined on nilpotents),
and the scalar factor decomposes through Teichmuller representatives.

The unit test (_require_unit) decides what x.inv() decides without
building the inverse (_unit_operator); its value is M_x, which
decompose_unit reads its trace from.

While cart_square_check runs it keeps a value table, one per call and per
thread (a ContextVar, reset when the check returns or raises).  It keeps
the values of the unit tests (M_x), the p-th power of each element it
raises (so the powers x^(p^k) form one tower, level k from level k - 1,
shared by every element on it), the log(u)
behind unipotent_root (one per u for every level) and its roots,
scalar_pk_root and decompose_unit, and
the outcomes of the check's loop bodies: the pullback reconstruction of
each (unit of R, level) and the pushout factorisation of each unit of S
at every level, an outcome being its count and its failure strings in
their order.  Each is computed once per distinct argument, keyed by the
algebra's identity and the Row.key of the element's coordinates (equal
exactly when every coordinate has the same (v, u, prec, ctx)), or by a
scalar's (v, u, prec, ctx); a unit that recurs in the batteries replays
the recorded outcome.  A computation that raises is never kept, so it
raises again where it did.  Outside a check nothing is kept and every
function computes as it always did.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
import random

from .algebra import AlgElement, FinAlgebra, Morphism, alg_exp, alg_log, nilradical
from .context import DEFAULT_SLACK
from .errors import (
    ContextMismatch,
    NotAUnit,
    NotConnected,
    NotSurjective,
    PadicError,
)
from . import linalg
from .components import connected_components, idempotents
from .matrix import PadicMatrix
from .scalar import PadicScalar, _inverse, exp_scalar, log_scalar, teichmuller


# -- the value table of a running square check ----------------------------------


class _ValueTable:
    """Values of pure primitives by (kind, argument key, extra argument).
    It holds every algebra it keys, so no id is reused while it lives."""

    __slots__ = ("algebras", "values")

    def __init__(self):
        self.algebras = {}
        self.values = {}

    def key(self, x):
        if isinstance(x, PadicScalar):
            return (x.v, x.u, x.prec, x.ctx)
        A = x.algebra
        self.algebras[id(A)] = A
        return (id(A), x.row.key())


_VALUES: ContextVar[_ValueTable | None] = ContextVar("unitgroup_values", default=None)
_MISSING = object()


def _recall(kind: str, x, arg, compute):
    """compute(); while a square check runs, its value for (kind, x, arg)
    is computed once and kept.  A compute() that raises keeps nothing."""
    table = _VALUES.get()
    if table is None:
        return compute()
    key = (kind, table.key(x), arg)
    value = table.values.get(key, _MISSING)
    if value is _MISSING:
        value = table.values[key] = compute()
    return value


def _require_unit(x: AlgElement) -> PadicMatrix:
    """M_x, the multiplication operator of x; NotAUnit unless x is
    invertible to precision (x.inv() succeeds), kept under "unit" while a
    square check runs."""
    return _recall("unit", x, None, lambda: _unit_operator(x))


def _unit_operator(x: AlgElement) -> PadicMatrix:
    """M_x when x.inv() succeeds, else x.inv()'s refusal; no inverse is
    built at full rank.

    M_x is eliminated unreduced.  Its rows without a pivot see the same
    updates as in x.inv()'s reduced elimination, which only adds updates
    of rows that already have a pivot, so the pivots, the margins and the
    PrecisionExhausted refusals are the same, and at full rank no free
    row is left for the replay of 1 to check.  What else the reduced mode
    can refuse is the inverse of a pivot: each is taken here, in pivot
    order.  An elimination that refuses, or a rank below dim, calls
    x.inv() itself, so the refusal is exactly its own.  A 1 x 1 operator
    that is not a zero marker takes inv's one pivot step instead."""
    A = x.algebra
    m = A.mult_operator(x)
    grid = m.grid
    if A.dim == 1 and grid.res[0]:
        _inverse(grid.pw, grid.parts(0))
        return m
    try:
        elim = linalg.eliminate(m.int_rows())
    except PadicError:
        elim = None
    if elim is None or elim.rank < A.dim:
        x.inv()
        return m
    for i, j in elim.pivots:
        row = elim.int_rows[i]
        _inverse(row.pw, row.parts(j))
    return m


def _power(x: AlgElement, k: int) -> AlgElement:
    """x^(p^k) as k p-th powers in turn: x itself for k = 0.  While a
    square check runs, each p-th power is kept under its base, so the
    powers of x form one tower, shared with every element on it."""
    p = x.algebra.ctx.p
    for _ in range(k):
        x = _recall("pow", x, None, lambda y=x: y ** p)
    return x


@dataclass(frozen=True)
class NilUnitDecomposition:
    """u = scalar_part * (1 + nilpotent_part); the unipotent factor has a
    finite logarithm, no convergence condition is involved."""

    scalar_part: PadicScalar
    nilpotent_part: AlgElement

    def recombine(self) -> AlgElement:
        A = self.nilpotent_part.algebra
        return (A.unit() + self.nilpotent_part) * self.scalar_part


def decompose_unit(u: AlgElement) -> NilUnitDecomposition:
    """Split a unit of a connected algebra into scalar and unipotent parts.

    The scalar is tr(M_u)/dim (multiplication by a nilpotent is traceless);
    failure of u/c - 1 to be nilpotent is exactly failure of connectedness
    at u, reported as NotConnected.
    """
    return _recall("decompose", u, None, lambda: _decompose_unit(u))


def _decompose_unit(u: AlgElement) -> NilUnitDecomposition:
    A = u.algebra
    c = _require_unit(u).trace() * PadicScalar.from_fraction(A.ctx, Fraction(1, A.dim))
    if c.is_zero:
        raise NotConnected("unit has vanishing scalar trace part; algebra not connected at it")
    n = u * A.scalar_element(c.inv()) - A.unit()
    if not n.is_nilpotent():
        raise NotConnected(
            "unit is not scalar * unipotent; the algebra has several components"
        )
    return NilUnitDecomposition(c, n)


@dataclass(frozen=True)
class RootClass:
    """An element of the colimit of unit groups along x -> x^p: the pair
    (representative at level k) stands for a p^k-th root class."""

    algebra: FinAlgebra
    representative: AlgElement
    level: int

    def __post_init__(self):
        if self.level < 0:
            raise PadicError("root class level must be nonnegative")
        _require_unit(self.representative)

    def shifted(self, extra: int) -> "RootClass":
        """(u, k) = (u^(p^extra), k + extra): the defining rescaling."""
        return RootClass(self.algebra, _power(self.representative, extra), self.level + extra)


def root_class_equal(a: RootClass, b: RootClass, slack: int = DEFAULT_SLACK) -> bool:
    """Colimit equality: rescale both to a common level and compare.

    The comparison level is max(levels) + (e0 - 1): for odd p this is
    exactly max(levels); for p = 2 one extra squaring absorbs the 2-torsion
    unit -1, keeping the relation transitive.
    """
    if a.algebra.ctx.p != b.algebra.ctx.p:
        raise ContextMismatch("root classes over different primes")
    if not a.algebra == b.algebra:
        raise PadicError("root classes over different algebras")
    ctx = a.algebra.ctx
    k = max(a.level, b.level) + (ctx.e0 - 1)
    x = _power(a.representative, k - a.level)
    y = _power(b.representative, k - b.level)
    prec = ctx.default_precision - slack
    return x.agrees(y, prec)


def root_class_mul(a: RootClass, b: RootClass) -> RootClass:
    k = max(a.level, b.level)
    x = a.shifted(k - a.level)
    y = b.shifted(k - b.level)
    return RootClass(a.algebra, x.representative * y.representative, k)


# -- p-power roots -------------------------------------------------------------


def unipotent_root(u: AlgElement, k: int) -> AlgElement:
    """The unique p^k-th root of a unipotent unit u = 1 + n (n nilpotent):
    exp(log(u)/p^k).  log(u) is one value for every k, kept under its own
    kind while a square check runs."""
    if k == 0:
        return u
    scale = PadicScalar.from_val_unit(u.algebra.ctx, -k, 1)
    return _recall("unipotent_root", u, k,
                   lambda: alg_exp(_recall("log", u, None, lambda: alg_log(u)) * scale))


def scalar_pk_root(c: PadicScalar, k: int) -> PadicScalar | None:
    """A p^k-th root of c in Q_p if one exists, else None.

    Decompose c = p^a * omega * eta with omega the Teichmuller part and eta
    a principal unit: a must be divisible by p^k, omega has the unique root
    omega^(p^-k mod p-1), and eta needs val(eta - 1) >= k + e0.
    """
    if k == 0:
        return c
    return _recall("scalar_pk_root", c, k, lambda: _scalar_pk_root(c, k))


def _scalar_pk_root(c: PadicScalar, k: int) -> PadicScalar | None:
    if c.is_zero:
        return None
    ctx = c.ctx
    p = ctx.p
    pk = p ** k
    if c.v % pk:
        return None
    root_val = c.v // pk
    unit = PadicScalar.from_val_unit(ctx, 0, c.u, c.prec - c.v)
    if p > 2:
        omega = teichmuller(ctx, unit.residue(1))
        omega_root = omega ** pow(pk, -1, p - 1)
        eta = unit * omega.inv()
    else:
        omega_root = PadicScalar.from_int(ctx, 1)
        eta = unit
    diff = eta - PadicScalar.from_int(ctx, 1)
    if not diff.is_zero and diff.v < k + ctx.e0:
        return None
    eta_root = exp_scalar(log_scalar(eta) * PadicScalar.from_val_unit(ctx, -k, 1))
    root = PadicScalar.from_val_unit(ctx, root_val, 1) * omega_root * eta_root
    return root


# -- unit batteries -------------------------------------------------------------


def unit_battery(A: FinAlgebra, seed: int = 0):
    """Deterministic battery of units: scalars, Teichmuller classes,
    1 + p^e0 * basis directions, unipotent elements from the nilradical,
    and four seeded combinations."""
    ctx = A.ctx
    p = ctx.p
    e0 = ctx.e0
    units = [A.unit()]
    for a in (2, 3, p - 1):
        if a % p and a > 1:
            units.append(A.scalar_element(PadicScalar.from_int(ctx, a)))
    pe = PadicScalar.from_int(ctx, p ** e0)
    for i in range(A.dim):
        units.append(A.unit() + A.basis_element(i) * pe)
    for n in nilradical(A):
        units.append(A.unit() + n)
        units.append(A.unit() + n * pe)
    rng = random.Random("unit-battery:%d:%d:%d" % (p, A.dim, seed))
    for _ in range(4):
        x = A.unit()
        for i in range(A.dim):
            x = x + A.basis_element(i) * PadicScalar.from_int(ctx, p ** e0 * rng.randrange(0, p ** 3))
        units.append(x)
    out = []
    for u in units:
        try:
            _require_unit(u)
        except NotAUnit:
            continue
        out.append(u)
    return out


# -- the pullback/pushout square -----------------------------------------------


@dataclass
class CartSquareReport:
    """Outcome of the unit-square battery for a quotient R -> S.

    pullback: pairs (unit of S, root class of R) agreeing downstairs
    reconstruct a unique unit of R.  pushout: every root class of S factors
    as (image of a root class of R) * (unit of S at level 0), with the
    unipotent factor lifted to a genuine unit of R as a witness.
    """

    pullback_checked: int = 0
    pushout_checked: int = 0
    kernel_checked: int = 0
    components: int = 1
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        status = "ok" if self.ok else "FAILED"
        lines = [
            "cart-square: %s (pullback %d, pushout %d, kernel %d, components %d)"
            % (status, self.pullback_checked, self.pushout_checked,
               self.kernel_checked, self.components)
        ]
        lines += ["  counterexample: %s" % f for f in self.failures]
        return "\n".join(lines)


def cart_square_check(
    R: FinAlgebra,
    quotient: Morphism,
    levels=(0, 1, 2),
    seed: int = 0,
    slack: int = DEFAULT_SLACK,
) -> CartSquareReport:
    """Verify the pullback and pushout properties of the square

        R^x ----> R^x[1/p]
         |            |
        S^x ----> S^x[1/p]

    on a generated battery of units.  S must be connected; a connected R
    is checked as it is, and a disconnected one on the component that
    maps onto S (the quotient kills every other component).

    The check keeps a value table for its own duration (see the module
    docstring): each unit test, power of a representative, p-power root
    and decomposition, and the outcome of each loop body, is computed
    once per distinct argument, across levels and battery units alike,
    and the table is dropped when the check returns or raises.  A unit
    that recurs in a battery replays its recorded outcome, counts and
    failure strings as if it were redone; the pushout body lifts and
    decomposes its unit of S once for all levels."""
    token = _VALUES.set(_ValueTable())
    try:
        return _cart_square_check(R, quotient, levels, seed, slack)
    finally:
        _VALUES.reset(token)


def _cart_square_check(R, quotient, levels, seed, slack):
    if quotient.source is not R and not quotient.source == R:
        raise PadicError("morphism source differs from R")
    if not quotient.is_surjective():
        raise NotSurjective("quotient map does not reach all of S")
    S = quotient.target
    if len(idempotents(S)) != 1:
        raise NotConnected("target of the unit square must be connected")

    report = CartSquareReport()
    comps = connected_components(R)
    report.components = len(comps)
    live = [c for c in comps if not quotient.apply(c.idempotent).is_zero_to_precision()]
    if len(live) != 1:
        raise NotSurjective("no single component of R maps onto the connected S")
    # a connected R is checked as it is, not on the solve-derived copy of
    # it that component_quotient makes
    R_live, f_live = R, quotient
    if len(comps) > 1:
        R_live = live[0].algebra
        f_live = Morphism.create(
            R_live, S, [quotient.apply(b) for b in live[0].embed.images], validate=False
        )

    ctx = R.ctx
    prec_goal = ctx.default_precision - slack
    r_units = unit_battery(R_live, seed)
    r_images = [f_live.apply(t) for t in r_units]
    s_units = r_images + unit_battery(S, seed + 1)

    def root_class(t, k):
        # the class of t^(p^k) at level k
        return RootClass(R_live, _power(t, k), k)

    # pullback, general form: a unit of R is determined by its image in S
    # together with its root class, i.e. the pairs (f(t), class(t^(p^k)))
    # never collide for distinct battery units
    for ia, t in enumerate(r_units):
        for ib in range(ia + 1, len(r_units)):
            tb = r_units[ib]
            if t.agrees(tb, prec_goal):
                continue
            if not r_images[ia].agrees(r_images[ib], prec_goal):
                continue
            for k in levels:
                report.pullback_checked += 1
                if root_class_equal(root_class(t, k), root_class(tb, k), slack):
                    report.failures.append(
                        "pullback collision at level %d: %r vs %r" % (k, t, tb)
                    )

    # pullback, scalar form (available when R's units split as scalar times
    # unipotent): reconstruct t from the pair alone
    def pullback_outcome(t, s, k):
        u, available = _pullback_unit(f_live, s, root_class(t, k), slack)
        if not available:
            return 0, ()
        if u is None or not u.agrees(t, prec_goal):
            return 1, ("pullback pair (level %d) did not reconstruct %r" % (k, t),)
        return 1, ()

    for t, s in zip(r_units, r_images):
        for k in levels:
            count, failures = _recall("pullback", t, k, lambda: pullback_outcome(t, s, k))
            report.pullback_checked += count
            report.failures.extend(failures)

    # uniqueness: the only unit with trivial image and trivial root class is 1
    # (the kernel of the unit-group map is unipotent, hence torsion-free)
    for z in Morphism.kernel_basis(f_live):
        w = R_live.unit() + z
        try:
            _require_unit(w)
        except NotAUnit:
            continue
        report.kernel_checked += 1
        if root_class_equal(
            RootClass(R_live, w, 0),
            RootClass(R_live, R_live.unit(), 0),
            slack,
        ):
            if not w.agrees(R_live.unit(), prec_goal):
                report.failures.append("kernel unit %r has a trivial root class" % w)

    # pushout: every root class of S is reached by the two summands
    one_s = S.unit()

    def pushout_outcome(u):
        n = len(levels)
        if not n:
            return 0, ()
        dec, failure = _pushout_witness(f_live, u, prec_goal)
        if failure is not None:
            return n, (failure,) * n
        if dec is None:
            return n, ()  # eigen-scalar not in Q_p; the general witness stands
        # decomposition witness (scalar residue field): nilpotent factor
        # from S at level 0 via unique p-divisibility, scalar class from R
        unipotent = one_s + dec.nilpotent_part
        failures = []
        for k in levels:
            w = unipotent_root(unipotent, k)
            Wn = _lift_unit(f_live, w)
            if Wn is None or not f_live.apply(Wn).agrees(w, prec_goal):
                failures.append("unipotent factor has no unit lift to R")
                continue
            product = root_class_mul(
                RootClass(S, f_live.apply(Wn), 0),
                RootClass(S, S.scalar_element(dec.scalar_part), k),
            )
            if not root_class_equal(RootClass(S, u, k), product, slack):
                failures.append("pushout factorisation missed (level %d) for %r" % (k, u))
        return n, tuple(failures)

    for u in s_units:
        count, failures = _recall("pushout", u, None, lambda: pushout_outcome(u))
        report.pushout_checked += count
        report.failures.extend(failures)
    return report


def _pushout_witness(f_live: Morphism, u: AlgElement, prec: int):
    """The level-independent part of the pushout check on u, as
    (decomposition or None, failure or None).  General witness: the kernel
    is nilpotent, so u lifts to a unit of R and (u, k) is the image of the
    R-class (lift, k) at every level.  The decomposition u = c * (1 + n) is
    None when the eigen-scalar is not in Q_p (NotConnected)."""
    W = _lift_unit(f_live, u)
    if W is None or not f_live.apply(W).agrees(u, prec):
        return None, "unit %r has no unit lift to R" % u
    try:
        return decompose_unit(u), None
    except NotConnected:
        return None, None
    except NotAUnit as exc:
        return None, "pushout decompose failed on %r: %s" % (u, exc)


def _pullback_unit(f_live: Morphism, s: AlgElement, rc: RootClass, slack: int):
    """Reconstruct the unit of R determined by a compatible pair (s, rc),
    using only the pair: scalar p^k-th root in Q_p plus the unique
    unipotent root; at p = 2 the sign is pinned by s.  Returns
    (unit or None, available): available is False when R's units do not
    split over Q_p, in which case the collision check is the witness."""
    A = rc.algebra
    ctx = A.ctx
    k = rc.level
    prec = ctx.default_precision - slack
    if k == 0:
        cand = rc.representative
        return (cand if f_live.apply(cand).agrees(s, prec) else None), True
    try:
        dec = decompose_unit(rc.representative)
    except NotConnected:
        return None, False
    except NotAUnit:
        return None, True
    croot = scalar_pk_root(dec.scalar_part, k)
    if croot is None:
        return None, True
    nroot = unipotent_root(A.unit() + dec.nilpotent_part, k)
    cand = nroot * A.scalar_element(croot)
    if f_live.apply(cand).agrees(s, prec):
        return cand, True
    if ctx.p == 2:
        other = -cand
        if f_live.apply(other).agrees(s, prec):
            return other, True
    return None, True


def _lift_unit(f: Morphism, w: AlgElement):
    """A unit of the source mapping to the unit w, or None; any linear
    preimage works when the kernel is nilpotent (connected onto
    connected).  The preimage is one Row, solved on the image matrix that
    f eliminates once (Morphism._image, Elimination.solve_row)."""
    sol = f._image.solve_row(w.row)
    if sol is None:
        return None
    cand = AlgElement(f.source, sol)
    try:
        _require_unit(cand)
    except NotAUnit:
        return None
    return cand
