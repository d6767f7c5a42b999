"""Unit groups of finite commutative Q_p-algebras: the nilpotent x scalar
decomposition, p-power root classes (the [1/p] colimit of unit groups), and
the pullback/pushout square relating the units of an algebra to the units
of a connected quotient.

The decomposition behind everything: a unit of a connected algebra factors
as u = c * (1 + n) with c a nonzero scalar and n nilpotent; the unipotent
factor 1 + n is uniquely p-divisible (via the finite exp/log of nilpotents),
and the scalar factor decomposes through Teichmuller representatives.
"""

from __future__ import annotations

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
from .scalar import PadicScalar, teichmuller


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
    A = u.algebra
    u.inv()  # raises NotAUnit when singular to precision
    c = A.mult_operator(u).trace() * PadicScalar.from_fraction(A.ctx, Fraction(1, A.dim))
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
        self.representative.inv()  # representative must be a unit

    def shifted(self, extra: int) -> "RootClass":
        """(u, k) = (u^(p^extra), k + extra): the defining rescaling."""
        p = self.algebra.ctx.p
        return RootClass(self.algebra, self.representative ** (p ** extra), self.level + extra)


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
    p = ctx.p
    x = a.representative ** (p ** (k - a.level))
    y = b.representative ** (p ** (k - b.level))
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
    exp(log(u)/p^k), both series finite."""
    if k == 0:
        return u
    A = u.algebra
    scale = PadicScalar.from_val_unit(A.ctx, -k, 1)
    return alg_exp(alg_log(u) * scale)


def scalar_pk_root(c: PadicScalar, k: int) -> PadicScalar | None:
    """A p^k-th root of c in Q_p if one exists, else None.

    Decompose c = p^a * omega * eta with omega the Teichmuller part and eta
    a principal unit: a must be divisible by p^k, omega has the unique root
    omega^(p^-k mod p-1), and eta needs val(eta - 1) >= k + e0.
    """
    if k == 0:
        return c
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
    from .scalar import exp_scalar, log_scalar

    eta_root = exp_scalar(log_scalar(eta) * PadicScalar.from_val_unit(ctx, -k, 1))
    root = PadicScalar.from_val_unit(ctx, root_val, 1) * omega_root * eta_root
    return root


# -- unit batteries -------------------------------------------------------------


def unit_battery(A: FinAlgebra, seed: int = 0, extra: int = 4):
    """Deterministic battery of units: scalars, Teichmuller classes,
    1 + p^e0 * basis directions, unipotent elements from the nilradical,
    and a few seeded combinations."""
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
    for _ in range(extra):
        x = A.unit()
        for i in range(A.dim):
            x = x + A.basis_element(i) * PadicScalar.from_int(ctx, p ** e0 * rng.randrange(0, p ** 3))
        units.append(x)
    out = []
    for u in units:
        try:
            u.inv()
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

    on a generated battery of units.  S must be connected; R may be
    disconnected, in which case the check runs on the component of R that
    maps onto S (the quotient kills every other component)."""
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
    comp = live[0]
    f_live = Morphism.create(
        comp.algebra, S, [quotient.apply(b) for b in comp.embed.images], validate=False
    )

    ctx = R.ctx
    p = ctx.p
    prec_goal = ctx.default_precision - slack
    r_units = unit_battery(comp.algebra, seed)
    r_images = [f_live.apply(t) for t in r_units]
    s_units = r_images + unit_battery(S, seed + 1)
    lift_unit = _unit_lifter(f_live)

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
                if root_class_equal(
                    RootClass(comp.algebra, t ** (p ** k), k),
                    RootClass(comp.algebra, tb ** (p ** k), k),
                    slack,
                ):
                    report.failures.append(
                        "pullback collision at level %d: %r vs %r" % (k, t, tb)
                    )

    # pullback, scalar form (available when R's units split as scalar times
    # unipotent): reconstruct t from the pair alone
    for t, s in zip(r_units, r_images):
        for k in levels:
            rc = RootClass(comp.algebra, t ** (p ** k), k)
            u, available = _pullback_unit(f_live, s, rc, slack)
            if not available:
                continue
            report.pullback_checked += 1
            if u is None or not u.agrees(t, prec_goal):
                report.failures.append(
                    "pullback pair (level %d) did not reconstruct %r" % (k, t)
                )

    # uniqueness: the only unit with trivial image and trivial root class is 1
    # (the kernel of the unit-group map is unipotent, hence torsion-free)
    for z in Morphism.kernel_basis(f_live):
        w = comp.algebra.unit() + z
        try:
            w.inv()
        except NotAUnit:
            continue
        report.kernel_checked += 1
        if root_class_equal(
            RootClass(comp.algebra, w, 0),
            RootClass(comp.algebra, comp.algebra.unit(), 0),
            slack,
        ):
            if not w.agrees(comp.algebra.unit(), prec_goal):
                report.failures.append("kernel unit %r has a trivial root class" % w)

    # pushout: every root class of S is reached by the two summands
    one_s = S.unit()
    for u in s_units:
        for k in levels:
            report.pushout_checked += 1
            # general witness: the kernel is nilpotent, so u lifts to a unit
            # of R and (u, k) is the image of the R-class (lift, k)
            W = lift_unit(u)
            if W is None or not f_live.apply(W).agrees(u, prec_goal):
                report.failures.append("unit %r has no unit lift to R" % u)
                continue
            # decomposition witness (scalar residue field): nilpotent factor
            # from S at level 0 via unique p-divisibility, scalar class from R
            try:
                dec = decompose_unit(u)
            except NotConnected:
                continue  # eigen-scalar not in Q_p; the general witness stands
            except NotAUnit as exc:
                report.failures.append("pushout decompose failed on %r: %s" % (u, exc))
                continue
            unipotent = one_s + dec.nilpotent_part
            w = unipotent_root(unipotent, k)
            Wn = lift_unit(w)
            if Wn is None or not f_live.apply(Wn).agrees(w, prec_goal):
                report.failures.append("unipotent factor has no unit lift to R")
                continue
            product = root_class_mul(
                RootClass(S, f_live.apply(Wn), 0),
                RootClass(S, S.scalar_element(dec.scalar_part), k),
            )
            if not root_class_equal(RootClass(S, u, k), product, slack):
                report.failures.append(
                    "pushout factorisation missed (level %d) for %r" % (k, u)
                )
    return report


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


def _unit_lifter(f: Morphism):
    """lift(w): a unit of the source mapping to the unit w, or None; any
    linear preimage works when the kernel is nilpotent (connected onto
    connected).  The image matrix is eliminated once, at the first call."""
    elim = None

    def lift(w: AlgElement):
        nonlocal elim
        if elim is None:
            rows = [[img.coords[i] for img in f.images] for i in range(f.target.dim)]
            elim = linalg.eliminate(rows, reduce_above=True)
        sols = elim.solve([list(w.coords)])
        if sols is None:
            return None
        cand = f.source.element(sols[0])
        try:
            cand.inv()
        except NotAUnit:
            return None
        return cand

    return lift
