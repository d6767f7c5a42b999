"""comm-algebra: structure-constant algebras, nilradical, idempotents,
unit decompositions, root classes, the unit-group square, exp/log.

Oracles: direct nilpotency scans, quadratic-residue checks, Fraction
arithmetic for split series, and hand-verified lattice examples (the
t^2 = p*t order, whose maximal order adjoins t/p).
"""

import collections
import concurrent.futures
import dataclasses
import hashlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padic_simpson.algebra import (
    FinAlgebra,
    _lift_algebra,
    Morphism,
    alg_exp,
    alg_log,
    exp_G,
    nilradical,
    quotient_by_ideal,
)
from padic_simpson.context import PrimeContext
from padic_simpson.errors import (
    NotAUnit,
    NotConnected,
    NotSurjective,
    OutsideExpDomain,
    OutsideRepresentableDomain,
    PadicError,
    PrecisionExhausted,
)
from padic_simpson.components import connected_components, idempotents
from padic_simpson.generate import gen_higgs
from padic_simpson.higgs import spectral_algebra
from padic_simpson.scalar import PadicScalar, big_exp, exp_scalar
from padic_simpson import unitgroup
from padic_simpson.unitgroup import (
    RootClass,
    _pullback_unit,
    cart_square_check,
    decompose_unit,
    root_class_equal,
    root_class_mul,
    scalar_pk_root,
    unipotent_root,
    unit_battery,
)
from padic_simpson.verify import _nonsquare_unit

C5 = PrimeContext(5, 32)
C3 = PrimeContext(3, 32)
C7 = PrimeContext(7, 32)
C2 = PrimeContext(2, 32)


def dual_numbers(ctx):
    """K[x]/(x^2)"""
    return FinAlgebra.from_power_relation(ctx, [0, 0])


def split_quadratic(ctx):
    """K[x]/(x^2 - x)"""
    return FinAlgebra.from_power_relation(ctx, [0, 1])


def quadratic_field(ctx, c):
    """K[x]/(x^2 - c)"""
    return FinAlgebra.from_power_relation(ctx, [c, 0])


def cubic_nilpotents(ctx):
    """K[x]/(x^3)"""
    return FinAlgebra.from_power_relation(ctx, [0, 0, 0])


def spectral_like(ctx):
    """K[t]/(t^2 - p t): the coordinate ring of {0, p}; its natural order
    Z_p[t] is not maximal, the maximal order adjoins t/p."""
    return FinAlgebra.from_power_relation(ctx, [0, ctx.p])


def sum_scalars(xs):
    acc = xs[0]
    for x in xs[1:]:
        acc = acc + x
    return acc


class TestFinAlgebra:
    def test_rejects_noncommutative(self):
        one = PadicScalar.from_int(C5, 1)
        zero = PadicScalar.zero(C5)
        mul = [
            [[one, zero], [zero, one]],
            [[one, one], [zero, zero]],
        ]
        with pytest.raises(PadicError):
            FinAlgebra.create(C5, mul, [one, zero])

    def test_rejects_nonassociative(self):
        one = PadicScalar.from_int(C5, 1)
        zero = PadicScalar.zero(C5)
        # commutative but not associative: y*y = z, y*z = 1, z*z = 0 gives
        # (y y) z = z z = 0 while y (y z) = y
        def vec(*ints):
            return [PadicScalar.from_int(C5, n) for n in ints]

        mul = [
            [vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)],
            [vec(0, 1, 0), vec(0, 0, 1), vec(1, 0, 0)],
            [vec(0, 0, 1), vec(1, 0, 0), vec(0, 0, 0)],
        ]
        with pytest.raises(PadicError):
            FinAlgebra.create(C5, mul, vec(1, 0, 0))

    def test_unit_law_checked(self):
        one = PadicScalar.from_int(C5, 1)
        zero = PadicScalar.zero(C5)
        mul = [[[zero, zero]] * 2, [[zero, zero]] * 2]
        with pytest.raises(PadicError):
            FinAlgebra.create(C5, mul, [one, zero])

    def test_element_ops(self):
        A = dual_numbers(C5)
        x = A.basis_element(1)
        u = A.unit() + x
        assert (u * u) == A.unit() + x * PadicScalar.from_int(C5, 2)
        assert (x * x).is_zero_to_precision()
        assert u.inv() * u == A.unit()

    def test_min_poly(self):
        A = split_quadratic(C5)
        x = A.basis_element(1)
        # x^2 = x: min poly T^2 - T
        mp = x.min_poly()
        assert len(mp) == 3
        assert mp[0].is_zero and mp[1] == PadicScalar.from_int(C5, -1)

    def test_nilpotency(self):
        A = cubic_nilpotents(C5)
        assert A.basis_element(1).is_nilpotent()
        assert not A.unit().is_nilpotent()


class TestNilradical:
    def test_field_has_none(self):
        assert nilradical(FinAlgebra.field(C5)) == []

    def test_dual_numbers(self):
        A = dual_numbers(C5)
        basis = nilradical(A)
        assert len(basis) == 1
        assert (basis[0] * basis[0]).is_zero_to_precision()

    def test_split_quadratic_reduced(self):
        # oracle: direct nilpotency scan over basis combinations
        A = split_quadratic(C5)
        assert nilradical(A) == []
        for a in range(3):
            for b in range(3):
                x = A.from_ints([a, b])
                if not x.is_zero_to_precision():
                    assert not x.is_nilpotent() or (a == 0 and b == 0)

    def test_quotient_by_nilradical(self):
        A = cubic_nilpotents(C5)
        S, proj, section = quotient_by_ideal(A, nilradical(A))
        assert S.dim == 1
        assert proj.apply(A.unit()) == S.unit()

    def test_power_fails_outside_span(self):
        # adding any nilpotent to a direction outside the radical never
        # produces a nilpotent: all powers stay nonzero to precision
        A = split_quadratic(C5)
        n_basis = nilradical(A)
        assert n_basis == []
        for k in range(3):
            x = A.unit() + A.basis_element(1) * PadicScalar.from_int(C5, k)
            assert not (x ** A.dim).is_zero_to_precision()

    def test_nilradical_dual_numbers_span_is_ideal(self):
        A = dual_numbers(C5)
        basis = nilradical(A)
        for n in basis:
            for i in range(A.dim):
                prod = n * A.basis_element(i)
                # products stay inside the span: here the span is {x}, and
                # x * x = 0, x * 1 = x
                assert prod.coords[0].is_zero


class TestIdempotents:
    def test_local_algebra(self):
        assert idempotents(dual_numbers(C5)) == [dual_numbers(C5).unit()]

    def test_split_quadratic(self):
        A = split_quadratic(C5)
        idems = idempotents(A)
        assert len(idems) == 2
        x = A.basis_element(1)
        one_minus_x = A.unit() - x
        assert any(e == x for e in idems)
        assert any(e == one_minus_x for e in idems)

    def test_nonsquare_quadratic_is_connected(self):
        # 2 is a quadratic non-residue mod 5 (oracle: Euler criterion)
        assert pow(2, (5 - 1) // 2, 5) != 1
        assert idempotents(quadratic_field(C5, 2)) == [quadratic_field(C5, 2).unit()]

    def test_square_quadratic_splits(self):
        # 4 is a square: K[x]/(x^2-4) = K x K
        idems = idempotents(quadratic_field(C5, 4))
        assert len(idems) == 2

    def test_ramified_quadratic_is_connected(self):
        # x^2 = p: a field (ramified), reduction is local
        assert len(idempotents(quadratic_field(C5, 5))) == 1

    def test_saturation_case(self):
        # Z_p[t]/(t^2 - p t) is not maximal; the algebra splits as K x K
        # with idempotents t/p and 1 - t/p
        A = spectral_like(C5)
        idems = idempotents(A)
        assert len(idems) == 2
        t_over_p = A.element([PadicScalar.zero(C5), PadicScalar.from_val_unit(C5, -1, 1)])
        assert any(e == t_over_p for e in idems)

    def test_completeness_invariant(self):
        for A in (split_quadratic(C3), spectral_like(C3), quadratic_field(C7, 3)):
            idems = idempotents(A)
            total = A.zero()
            for e in idems:
                assert (e * e) == e
                total = total + e
            assert total == A.unit()
            # each factor is connected: re-running returns just the unit
            for comp in connected_components(A, idems):
                assert len(idempotents(comp.algebra)) == 1

    def test_p2_split(self):
        # x^2 = x at p = 2 still splits
        assert len(idempotents(split_quadratic(C2))) == 2

    def test_saturation_squared_eigenvalues(self):
        # x^2 = p^2 splits as {p, -p}; the natural order Z_p[x] is index p
        # in the maximal one, so this also exercises saturation
        for ctx in (C3, C5):
            A = quadratic_field(ctx, ctx.p ** 2)
            idems = idempotents(A)
            assert len(idems) == 2
            # the idempotents are (1 +- x/p)/2
            for e in idems:
                assert (e * e) == e


class TestDecomposeUnit:
    def test_trivial(self):
        A = dual_numbers(C5)
        d = decompose_unit(A.unit())
        assert d.scalar_part == PadicScalar.from_int(C5, 1)
        assert d.nilpotent_part.is_zero_to_precision()

    def test_example_3_plus_x(self):
        # u = 3 + x in K[x]/(x^2): scalar 3, unipotent 1 + x/3
        A = dual_numbers(C5)
        u = A.from_ints([3, 1])
        d = decompose_unit(u)
        assert d.scalar_part == PadicScalar.from_int(C5, 3)
        third = PadicScalar.from_fraction(C5, Fraction(1, 3))
        assert d.nilpotent_part == A.basis_element(1) * third
        assert d.recombine() == u

    def test_not_a_unit(self):
        A = dual_numbers(C5)
        with pytest.raises(NotAUnit):
            decompose_unit(A.basis_element(1))

    def test_not_connected(self):
        A = split_quadratic(C5)
        # (1, 2) on the two components is a unit but not scalar * unipotent
        u = A.unit() + A.basis_element(1)
        with pytest.raises(NotConnected):
            decompose_unit(u)

    def test_round_trip_battery(self):
        A = cubic_nilpotents(C3)
        for u in unit_battery(A, seed=5):
            d = decompose_unit(u)
            assert d.recombine().agrees(u, 28)


class TestRootClasses:
    def test_defining_relation(self):
        A = FinAlgebra.field(C5)
        u = A.scalar_element(PadicScalar.from_int(C5, 7))
        assert root_class_equal(RootClass(A, u, 0), RootClass(A, u ** 5, 1))

    def test_trivial_classes(self):
        A = FinAlgebra.field(C5)
        assert root_class_equal(RootClass(A, A.unit(), 0), RootClass(A, A.unit(), 7))

    def test_distinct_units(self):
        A = FinAlgebra.field(C5)
        two = A.scalar_element(PadicScalar.from_int(C5, 2))
        three = A.scalar_element(PadicScalar.from_int(C5, 3))
        assert not root_class_equal(RootClass(A, two, 0), RootClass(A, three, 0))

    def test_equivalence_and_multiplication(self):
        A = dual_numbers(C5)
        u = A.from_ints([2, 5])
        w = A.from_ints([3, 10])
        a = RootClass(A, u, 0)
        b = RootClass(A, u ** 5, 1)
        c = RootClass(A, u ** 25, 2)
        assert root_class_equal(a, b) and root_class_equal(b, c) and root_class_equal(a, c)
        ab = root_class_mul(a, RootClass(A, w, 0))
        assert root_class_equal(ab, RootClass(A, (u * w) ** 5, 1))

    def test_p2_transitivity_with_sign(self):
        A = FinAlgebra.field(C2)
        minus_one = A.scalar_element(PadicScalar.from_int(C2, -1))
        # (-1, 0) and (1, 1) rescale to the same square; equality must agree
        a = RootClass(A, minus_one, 0)
        b = RootClass(A, A.unit(), 1)
        c = RootClass(A, A.unit(), 0)
        assert root_class_equal(a, b)
        assert root_class_equal(b, c)
        assert root_class_equal(a, c)  # transitive thanks to the extra squaring

    def test_scalar_pk_root(self):
        c = PadicScalar.from_int(C5, 1 + 5 ** 3)
        r = scalar_pk_root(c, 2)
        assert r is not None and (r ** 25).agrees(c, 28)
        assert scalar_pk_root(PadicScalar.from_int(C5, 5), 1) is None  # val 1 not divisible by 5
        assert scalar_pk_root(PadicScalar.from_int(C5, 2), 1) is None  # 2 not a 5th power unit...

    def test_unipotent_root(self):
        A = cubic_nilpotents(C5)
        u = A.unit() + A.basis_element(1)
        r = unipotent_root(u, 2)
        assert (r ** 25).agrees(u, 28)


class TestAlgExpLog:
    def test_exp_zero(self):
        A = dual_numbers(C5)
        assert alg_exp(A.zero()) == A.unit()

    def test_split_series_oracle(self):
        # alg_exp(p + x) = exp(p) * (1 + x) in K[x]/(x^2)
        A = dual_numbers(C5)
        x = A.basis_element(1)
        arg = A.scalar_element(PadicScalar.from_int(C5, 5)) + x * PadicScalar.from_int(C5, 5)
        # exp(5 + 5x) = exp(5) * (1 + 5x) since (5x)^2 = 0
        got = alg_exp(arg)
        e5 = exp_scalar(PadicScalar.from_int(C5, 5))
        expected = (A.unit() + x * PadicScalar.from_int(C5, 5)) * e5
        assert got.agrees(expected, 28)

    def test_nilpotent_series_finite(self):
        A = cubic_nilpotents(C5)
        x = A.basis_element(1) * PadicScalar.from_int(C5, 5)
        assert alg_log(alg_exp(x)).agrees(x, 30)

    def test_nilpotent_any_valuation(self):
        # nilpotent arguments need no valuation bound: series is finite
        A = dual_numbers(C5)
        x = A.basis_element(1)
        assert alg_exp(x) == A.unit() + x

    def test_domain_error(self):
        A = dual_numbers(C5)
        with pytest.raises(OutsideExpDomain):
            alg_exp(A.unit())  # eigen-scalar 1 has valuation 0

    def test_domain_on_split_algebra(self):
        # eigen-scalars (p, 1): one component violates the bound
        A = split_quadratic(C5)
        bad = A.basis_element(1) + A.scalar_element(PadicScalar.from_int(C5, 5)) \
            - A.basis_element(1) * PadicScalar.from_int(C5, 5)
        # this element is p on one component, 1 + ... on the other: build
        # directly: value (a, b) corresponds to a + (b - a) x
        x = A.basis_element(1)
        elt = A.scalar_element(PadicScalar.from_int(C5, 5)) + x * PadicScalar.from_int(C5, 1 - 5)
        with pytest.raises(OutsideExpDomain):
            alg_exp(elt)

    def test_exp_log_round_trip_battery(self):
        rng = random.Random(23)
        for ctx in (C3, C5):
            for A in (dual_numbers(ctx), split_quadratic(ctx), cubic_nilpotents(ctx)):
                for _ in range(10):
                    coords = [ctx.p * rng.randrange(0, ctx.p ** 6) for _ in range(A.dim)]
                    x = A.from_ints(coords)
                    u = alg_exp(x)
                    assert alg_log(u).agrees(x, 28), (ctx.p, coords)

    def test_homomorphism_on_commuting(self):
        A = cubic_nilpotents(C5)
        x = A.from_ints([5, 10, 15])
        y = A.from_ints([25, 5, 0])
        assert alg_exp(x + y).agrees(alg_exp(x) * alg_exp(y), 28)

    def test_against_multiplication_operator_oracle(self):
        # alg_exp must agree with the matrix exponential of the
        # multiplication operator applied to 1 (an independent kernel)
        from padic_simpson.matrix import mat_exp

        cases = []
        for ctx in (C3, C5):
            p = ctx.p
            A1 = spectral_like(ctx)  # separated eigenvalues {0, p}
            cases += [A1.from_ints([0, 1]), A1.from_ints([p, 2]), A1.from_ints([p * 2, 7])]
            A2 = dual_numbers(ctx)  # repeated eigenvalue with nilpotent part
            cases += [A2.from_ints([p, 1]), A2.from_ints([p * 4, p])]
            A3 = split_quadratic(ctx)  # distinct units on two components
            cases += [A3.from_ints([p, p * 3])]
        for x in cases:
            got = alg_exp(x)
            m = x.algebra.mult_operator(x)
            if m.min_valuation() is not None and m.min_valuation() >= x.algebra.ctx.e0:
                expected_mat = mat_exp(m)
                one = list(x.algebra.one)
                expected = x.algebra.element([
                    sum_scalars([expected_mat[i, j] * one[j] for j in range(x.algebra.dim)])
                    for i in range(x.algebra.dim)
                ])
                assert got.agrees(expected, 28), x
            assert alg_log(got).agrees(x, 28), x

    def test_semisimple_plus_nilpotent_regression(self):
        # eigenvalues {0, p} around a nilpotent: the truncation bound must
        # account for the Lagrange denominators of the separable part
        from padic_simpson.matrix import mat_exp

        H = gen_higgs(3, 1, 4, density=0.6, seed=90_006, precision=32)
        S = spectral_algebra(H)
        got = S.embed(alg_exp(S.tau[0]))
        assert got == mat_exp(H.theta[0])

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the direct series returns wrong digits within the "
                              "precision it claims")
    @pytest.mark.parametrize("p, d, n, density, seed", [
        (2, 2, 4, 0.6, 7000224),  # claims 2 digits
        (2, 2, 3, 0.85, 207000822),  # claims 4 digits
    ])
    def test_round_trip_digits_on_spectral_tau(self, p, d, n, density, seed):
        tau = spectral_algebra(gen_higgs(p, d, n, density, seed=seed, precision=32)).tau[0]
        back = alg_log(alg_exp(tau))
        assert all(b.agrees(t, b.prec) for b, t in zip(back.coords, tau.coords))


class TestExpG:
    def test_zero(self):
        A = dual_numbers(C5)
        assert exp_G(A.zero()) == A.unit()

    def test_collapses_to_big_exp_on_field(self):
        A = FinAlgebra.field(C5)
        x = A.scalar_element(PadicScalar.from_int(C5, 10))
        assert exp_G(x).coords[0] == big_exp(PadicScalar.from_int(C5, 10))

    def test_nilpotent_exact(self):
        A = dual_numbers(C5)
        assert exp_G(A.basis_element(1)) == A.unit() + A.basis_element(1)

    def test_outside_domain(self):
        A = FinAlgebra.field(C5)
        with pytest.raises(OutsideRepresentableDomain):
            exp_G(A.unit())  # scalar part 1 has valuation 0

    def test_log_inverts(self):
        A = cubic_nilpotents(C5)
        x = A.from_ints([5, 3, 7])  # scalar 5 + nilpotent part
        assert alg_log(exp_G(x)).agrees(x, 28)

    def test_functoriality(self):
        # quotient K[x]/(x^3) -> K[x]/(x^2) (x -> x)
        A = cubic_nilpotents(C5)
        B = dual_numbers(C5)
        images = [B.unit(), B.basis_element(1), B.zero()]
        f = Morphism.create(A, B, images)
        x = A.from_ints([5, 2, 3])
        assert f.apply(exp_G(x)).agrees(exp_G(f.apply(x)), 28)

    def test_functoriality_under_inclusion(self):
        # unital inclusion K -> K[x]/(x^2)
        K = FinAlgebra.field(C5)
        B = dual_numbers(C5)
        inc = Morphism.create(K, B, [B.unit()])
        a = K.scalar_element(PadicScalar.from_int(C5, 25))
        assert inc.apply(exp_G(a)).agrees(exp_G(inc.apply(a)), 28)

    def test_agrees_with_alg_exp_on_common_domain(self):
        # exp_G factors through big_exp(a) * alg_exp(nu); on the exp-domain
        # this must coincide with the one-shot algebra exponential
        for ctx in (C3, C5):
            A = cubic_nilpotents(ctx)
            x = A.from_ints([ctx.p * 2, 3, ctx.p])
            lhs = exp_G(x)
            rhs = alg_exp(x)
            k = min(lhs.min_precision(), rhs.min_precision())
            assert lhs.agrees(rhs, k)


class TestCartSquare:
    def quotient_to_field(self, A, ctx):
        """x -> 0: K[x]/(g) -> K for nilpotent-x algebras."""
        K = FinAlgebra.field(ctx)
        images = [K.unit()] + [K.zero()] * (A.dim - 1)
        return K, Morphism.create(A, K, images)

    def test_identity_on_field(self):
        K = FinAlgebra.field(C5)
        f = Morphism.create(K, K, [K.unit()])
        report = cart_square_check(K, f)
        assert report.ok, str(report)
        assert unitgroup._VALUES.get() is None  # the check's table is gone

    def test_dual_numbers(self):
        A = dual_numbers(C5)
        K, f = self.quotient_to_field(A, C5)
        report = cart_square_check(A, f)
        assert report.ok, str(report)
        assert report.pullback_checked > 0 and report.pushout_checked > 0

    def test_split_quadratic_componentwise(self):
        # R disconnected: only S must be connected; the live component wins
        A = split_quadratic(C5)
        K = FinAlgebra.field(C5)
        images = [K.unit(), K.zero()]  # x -> 0
        f = Morphism.create(A, K, images)
        report = cart_square_check(A, f)
        assert report.ok, str(report)
        assert report.components == 2

    def test_not_surjective(self):
        A = dual_numbers(C5)
        images = [A.unit(), A.zero()]
        f = Morphism.create(A, A, [A.unit(), A.zero()], validate=False)
        with pytest.raises(NotSurjective):
            cart_square_check(A, f)
        assert unitgroup._VALUES.get() is None

    def test_target_must_be_connected(self):
        A = split_quadratic(C5)
        ident = Morphism.create(A, A, [A.basis_element(0), A.basis_element(1)], validate=False)
        with pytest.raises(NotConnected):
            cart_square_check(A, ident)
        assert unitgroup._VALUES.get() is None


class TestMorphism:
    def test_validation(self):
        A = dual_numbers(C5)
        K = FinAlgebra.field(C5)
        with pytest.raises(PadicError):
            Morphism.create(A, K, [K.zero(), K.zero()])  # unit not preserved

    def test_kernel(self):
        A = dual_numbers(C5)
        K = FinAlgebra.field(C5)
        f = Morphism.create(A, K, [K.unit(), K.zero()])
        kern = f.kernel_basis()
        assert len(kern) == 1
        assert f.apply(kern[0]).is_zero_to_precision()

    def test_element_of_another_algebra_refused(self):
        # an element of K[x]/(x^3) is not read as a prefix of its coordinates
        A = dual_numbers(C5)
        K = FinAlgebra.field(C5)
        f = Morphism.create(A, K, [K.unit(), K.zero()])
        x = FinAlgebra.from_power_relation(C5, [0, 0, 0]).from_ints([1, 5, 7])
        with pytest.raises(PadicError, match="elements of different algebras"):
            f.apply(x)
        for y in (x, K.unit()):  # longer and shorter than A's dimension
            with pytest.raises(PadicError, match="elements of different algebras"):
                A.mult_operator(y)


# -- integer kernels against the scalar folds they replace -----------------


def fold_product(x, y):
    """x * y summed scalar by scalar, out[k] = out[k] + (a*b)*c: the
    reference for the kernel behind AlgElement.__mul__."""
    A = x.algebra
    out = [PadicScalar.zero(A.ctx) for _ in range(A.dim)]
    for i, a in enumerate(x.coords):
        if a.is_zero:
            continue
        for j, b in enumerate(y.coords):
            if b.is_zero:
                continue
            ab = a * b
            for k, c in enumerate(A.mul[i][j]):
                if not c.is_zero:
                    out[k] = out[k] + ab * c
    return out


def fold_operator(A, x):
    """Rows of the multiplication operator of x summed scalar by scalar,
    zero constants included: the reference for FinAlgebra.mult_operator."""
    cols = []
    for j in range(A.dim):
        col = [PadicScalar.zero(A.ctx) for _ in range(A.dim)]
        for i, xi in enumerate(x.coords):
            if xi.is_zero:
                continue
            for k, c in enumerate(A.mul[i][j]):
                col[k] = col[k] + xi * c
        cols.append(col)
    return [[cols[j][k] for j in range(A.dim)] for k in range(A.dim)]


def fold_apply(f, x):
    """f(x) summed scalar by scalar, out = out + img * x_i: the reference
    for Morphism.apply."""
    out = f.target.zero()
    for xi, img in zip(x.coords, f.images):
        if not xi.is_zero:
            out = out + img * xi
    return out


def ledger(scalars):
    return [(c.v, c.u, c.prec, c.ctx) for c in scalars]


@st.composite
def algebra_scalars(draw, p):
    """A scalar of a context of its own (N from 8 to 12, widened by up to 4
    half the time), so that it may be narrower or wider than the algebra's:
    a zero marker one time in four, a valuation from -3 up, and a precision
    from -2 up that is the context's N half the time."""
    ctx = PrimeContext(p, draw(st.integers(8, 12)))
    if draw(st.booleans()):
        ctx = ctx.widen(draw(st.integers(1, 4)))
    top = ctx.default_precision
    prec = top if draw(st.booleans()) else draw(st.integers(-2, top))
    if draw(st.integers(0, 3)) == 0:
        return PadicScalar.zero(ctx, prec)
    v = draw(st.integers(-3, prec - 1))
    u = draw(st.integers(0, p ** (prec - v - 1) - 1)) * p + draw(st.integers(1, p - 1))
    return PadicScalar(ctx, v, u, prec)


@st.composite
def ledger_algebras(draw, p=None):
    """Unvalidated tensors (neither associative nor commutative in general)
    with constants and unit drawn by algebra_scalars."""
    p = draw(st.sampled_from([2, 3, 5, 7])) if p is None else p
    ctx = PrimeContext(p, draw(st.integers(8, 12)))
    m = draw(st.integers(1, 3))
    entry = algebra_scalars(p)
    mul = [[[draw(entry) for _ in range(m)] for _ in range(m)] for _ in range(m)]
    return FinAlgebra.create(ctx, mul, [draw(entry) for _ in range(m)], validate=False)


KERNEL_SETTINGS = settings(max_examples=300, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@KERNEL_SETTINGS
@given(st.data())
def test_product_kernel_matches_scalar_fold(data):
    A = data.draw(ledger_algebras())
    entry = algebra_scalars(A.ctx.p)
    x, y = (A.element([data.draw(entry) for _ in range(A.dim)]) for _ in range(2))
    got = x * y
    assert got.algebra is A
    assert ledger(got.coords) == ledger(fold_product(x, y))


@KERNEL_SETTINGS
@given(st.data())
def test_operator_kernel_matches_scalar_fold(data):
    A = data.draw(ledger_algebras())
    entry = algebra_scalars(A.ctx.p)
    x = A.element([data.draw(entry) for _ in range(A.dim)])
    got = A.mult_operator(x)
    assert got.ctx is A.ctx
    assert [ledger(row) for row in got.entries] == [ledger(row) for row in fold_operator(A, x)]


@KERNEL_SETTINGS
@given(st.data())
def test_apply_kernel_matches_scalar_fold(data):
    A = data.draw(ledger_algebras())
    entry = algebra_scalars(A.ctx.p)
    T = data.draw(ledger_algebras(A.ctx.p))
    images = [T.element([data.draw(entry) for _ in range(T.dim)])
              for _ in range(A.dim)]
    f = Morphism(A, T, tuple(images))
    x = A.element([data.draw(entry) for _ in range(A.dim)])
    got, want = f.apply(x), fold_apply(f, x)
    assert got.algebra is T and want.algebra is T
    assert ledger(got.coords) == ledger(want.coords)


def test_product_term_capped_by_narrow_constant():
    # (p * 1) * c with c of a context of 8 digits is known mod p^8, not
    # p^(8 + 1): a cap that test_product_kernel_matches_scalar_fold
    # reaches only on rare draws
    wide = PrimeContext(5, 12)
    c = PadicScalar.from_int(PrimeContext(5, 8), 1)
    A = FinAlgebra.create(wide, [[[c]]], [PadicScalar.from_int(wide, 1)], validate=False)
    x, y = A.from_ints([5]), A.from_ints([1])
    got = x * y
    assert got.coords[0].prec == 8
    assert ledger(got.coords) == ledger(fold_product(x, y))


# -- per-algebra invariants, computed once -----------------------------------


def battery_relations(p):
    """The explog and cartdiag batteries: x^2, x^3, x^2 - x, x^2 - 4 and
    x^2 - c for a non-square unit c."""
    return [[0, 0], [0, 0, 0], [0, 1], [4, 0], [_nonsquare_unit(p), 0]]


def invariants(A):
    """nilradical, idempotents and components of A as plain ledgers."""
    comps = [(ledger(c.idempotent.coords),
              [ledger(row) for plane in c.algebra.mul for row in plane],
              [ledger(img.coords) for img in c.project.images],
              [ledger(img.coords) for img in c.embed.images])
             for c in connected_components(A)]
    return ([ledger(n.coords) for n in nilradical(A)],
            [ledger(e.coords) for e in idempotents(A)], comps)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cold_and_warm_algebras_agree(p):
    # a fresh algebra and one whose invariants, lifts and lifted components
    # are already filled give the same exp, log and invariants
    ctx = PrimeContext(p, 32)
    rng = random.Random("cold-warm:%d" % p)
    for rel in battery_relations(p):
        warm = FinAlgebra.from_power_relation(ctx, rel)
        w = warm.from_ints([p ** ctx.e0 * rng.randrange(p ** 6) for _ in rel])
        alg_log(alg_exp(w))
        cold_inv = invariants(FinAlgebra.from_power_relation(ctx, rel))
        assert invariants(warm) == cold_inv
        assert invariants(warm) == cold_inv
        for _ in range(2):
            coords = [p ** ctx.e0 * rng.randrange(p ** 6) for _ in rel]
            cold_y = alg_exp(FinAlgebra.from_power_relation(ctx, rel).from_ints(coords))
            cold_z = alg_log(FinAlgebra.from_power_relation(ctx, rel).element(cold_y.coords))
            for _ in range(2):
                y = alg_exp(warm.from_ints(coords))
                z = alg_log(y)
                assert ledger(y.coords) == ledger(cold_y.coords), (p, rel, coords)
                assert ledger(z.coords) == ledger(cold_z.coords), (p, rel, coords)


def explog_grid(p, n):
    """(relation, coordinate lists) of the exact exp/log grid at (p, N):
    three seeded x per relation over split, nilpotent, close-eigenvalue
    (x^2 - p^4), three-component and non-split power-relation algebras.
    On x^2 - p^4 three more x have an x-coordinate of valuation -1, and so
    do exp(x) and u^-1: the caps of exp and log bind there, and these x lie
    outside the operator route, so the series runs on them."""
    rng = random.Random("explog-grid:%d:%d" % (p, n))
    e0 = PrimeContext(p, n).e0
    for rel in ([0, 0], [0, 0, 0], [0, 1], [4, 0], [p ** 4, 0], [0, 1, 0], [1 + p, 0]):
        xs = [[p ** e0 * rng.randrange(p ** 6) for _ in rel] for _ in range(3)]
        if rel == [p ** 4, 0]:
            # eigen-scalars a +- p^2 b of valuation >= e0, also for p = 2
            xs += [[p * (p * rng.randrange(p ** 6) + 1), Fraction(p * rng.randrange(p ** 6) + 1, p)]
                   for _ in range(3)]
        yield rel, xs


def grid_element(A, coords):
    return A.element([PadicScalar.from_fraction(A.ctx, Fraction(c)) for c in coords])


def explog_grid_digest(p, n):
    """sha256 prefix of (v, u, prec, ctx) of every coordinate of exp(x),
    log(exp(x)) and log(1 + x) over the x of explog_grid(p, n)."""
    ctx = PrimeContext(p, n)
    digest = hashlib.sha256()
    for rel, xs in explog_grid(p, n):
        A = FinAlgebra.from_power_relation(ctx, rel)
        for coords in xs:
            x = grid_element(A, coords)
            for y in (alg_exp(x), alg_log(alg_exp(x)), alg_log(A.unit() + x)):
                digest.update(repr(ledger(y.coords)).encode())
    return digest.hexdigest()[:16]


# explog_grid_digest per (p, N), recorded with the Jordan-Chevalley route
# that exact tensors took before they shared the orbit series; (2, 8) is
# re-pinned for the operator route, which corrects coordinate 1 of exp(x)
# and log(1 + x) at x = [96, 124] on K[x]/(x^2) (x^2 vanishes mod 2^8 but
# x^2/2 does not) and gives one x on K[x]/(x^3) its 8th digit
EXPLOG_GRID = {
    (2, 8): "03394d41830ebef0", (2, 12): "df8973c1d5d372c9", (2, 32): "9a82b6799d3c2a73",
    (3, 8): "6ad7ef813de8d880", (3, 12): "2b1c5037fc287a08", (3, 32): "5cdd57982346b351",
    (5, 8): "b9e316574b1ad735", (5, 12): "442ee660804c7594", (5, 32): "d59520d5cfc40310",
    (7, 8): "00d6f27904a35180", (7, 12): "3c9b24c0e41d5200", (7, 32): "4be04af3e443565b",
}


@pytest.mark.parametrize("p, n", sorted(EXPLOG_GRID))
def test_exact_explog_grid_pinned(p, n):
    assert explog_grid_digest(p, n) == EXPLOG_GRID[p, n]


@pytest.mark.parametrize("n", [8, 12, 32])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exact_explog_grid_digits_are_earned(p, n):
    # every coordinate of exp(x) and log(1 + x) agrees, at the precision it
    # claims, with the same x computed 40 digits wider; the x of valuation
    # -1 on x^2 - p^4 keep the series side covered
    ctx, wide = PrimeContext(p, n), PrimeContext(p, n + 40)
    outside = 0
    for rel, xs in explog_grid(p, n):
        A, W = FinAlgebra.from_power_relation(ctx, rel), FinAlgebra.from_power_relation(wide, rel)
        for coords in xs:
            x, w = grid_element(A, coords), grid_element(W, coords)
            outside += A.mult_operator(x).min_valuation() < ctx.e0
            for got, want in ((alg_exp(x), alg_exp(w)),
                              (alg_log(A.unit() + x), alg_log(W.unit() + w))):
                assert all(a.agrees(b, a.prec) for a, b in zip(got.coords, want.coords)), (
                    rel, coords, got, want)
    assert outside == 3


def test_returned_lists_are_fresh():
    A = dual_numbers(C5)
    nilradical(A).clear()
    assert len(nilradical(A)) == 1
    B = spectral_like(C5)
    idems = idempotents(B)
    before = [ledger(e.coords) for e in idems]
    idems.reverse()
    idems.append(B.zero())
    assert [ledger(e.coords) for e in idempotents(B)] == before
    comps = connected_components(B)
    first = comps[0]
    comps.pop(0)
    again = connected_components(B)
    assert len(again) == 2 and again[0] is first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.algebra = A


@pytest.mark.parametrize("rel, fn, message", [
    ([128, 0], nilradical, "non-nilpotent direction"),
    ([17, 0], idempotents, "not orthogonal"),
    ([16, 0], connected_components, "consistency of a linear system"),
])
def test_failed_invariant_raises_again(rel, fn, message):
    # at 8 digits of 2-adic precision each of these runs out of digits in
    # the invariant named; a failure is never cached
    A = FinAlgebra.from_power_relation(PrimeContext(2, 8), rel)
    errors = []
    for _ in range(2):
        with pytest.raises(PrecisionExhausted, match=message) as info:
            fn(A)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_failed_series_raises_again():
    # the direct series for log(exp(tau)) on this solve-derived tensor
    # certifies no digit; a second call on the same algebra, its lifts now
    # kept, fails alike
    tau = spectral_algebra(gen_higgs(2, 1, 4, 0.85, seed=2, precision=32)).tau[0]
    y = alg_exp(tau)
    errors = []
    for _ in range(2):
        with pytest.raises(PrecisionExhausted) as info:
            alg_log(y)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


# (pullback_checked, pushout_checked, kernel_checked, components) of
# cart_square_check per cartdiag case, recorded before the per-unit work of
# the check was shared across levels; no case reports a failure
CARTDIAG_CASES = ("K", "x^2", "x^3", "x^2-x", "x^2-4", "x^2-c")
CARTDIAG_REPORTS = {
    (2, 0): [(21, 42, 0, 1), (48, 51, 1, 1), (120, 60, 2, 1), (21, 42, 0, 2),
             (21, 42, 0, 2), (14, 48, 0, 1)],
    (2, 7): [(21, 42, 0, 1), (57, 51, 1, 1), (99, 60, 2, 1), (21, 42, 0, 2),
             (21, 42, 0, 2), (14, 48, 0, 1)],
    (3, 0): [(24, 48, 0, 1), (48, 57, 1, 1), (102, 66, 2, 1), (24, 48, 0, 2),
             (24, 48, 0, 2), (17, 54, 0, 1)],
    (3, 7): [(24, 48, 0, 1), (48, 57, 1, 1), (99, 66, 2, 1), (24, 48, 0, 2),
             (24, 48, 0, 2), (17, 54, 0, 1)],
    (5, 0): [(27, 54, 0, 1), (51, 63, 1, 1), (102, 72, 2, 1), (27, 54, 0, 2),
             (27, 54, 0, 2), (20, 60, 0, 1)],
    (5, 7): [(27, 54, 0, 1), (54, 63, 1, 1), (105, 72, 2, 1), (27, 54, 0, 2),
             (27, 54, 0, 2), (20, 60, 0, 1)],
    (7, 0): [(27, 54, 0, 1), (51, 63, 1, 1), (102, 72, 2, 1), (27, 54, 0, 2),
             (27, 54, 0, 2), (20, 60, 0, 1)],
    (7, 7): [(27, 54, 0, 1), (51, 63, 1, 1), (102, 72, 2, 1), (27, 54, 0, 2),
             (27, 54, 0, 2), (20, 60, 0, 1)],
}


def cartdiag_cases(ctx):
    """(R, R -> S) per name in CARTDIAG_CASES, as the cartdiag suite builds
    them."""
    K = FinAlgebra.field(ctx)
    cases = [(K, Morphism.create(K, K, [K.unit()]))]
    for rel in ([0, 0], [0, 0, 0], [0, 1]):
        A = FinAlgebra.from_power_relation(ctx, rel)
        cases.append((A, Morphism.create(A, K, [K.unit()] + [K.zero()] * (A.dim - 1))))
    A = quadratic_field(ctx, 4)
    two = K.scalar_element(PadicScalar.from_int(ctx, 2))
    cases.append((A, Morphism.create(A, K, [K.unit(), two])))
    A = quadratic_field(ctx, _nonsquare_unit(ctx.p))
    cases.append((A, Morphism.create(A, A, [A.basis_element(0), A.basis_element(1)])))
    return cases


@pytest.mark.parametrize("p, seed", sorted(CARTDIAG_REPORTS))
def test_cartdiag_reports_pinned(p, seed):
    ctx = PrimeContext(p, 32)
    cases = cartdiag_cases(ctx)
    # the non-square identity square: its units with an eigen-scalar outside
    # Q_p make decompose_unit raise NotConnected in the pushout loop
    A_ns = cases[-1][0]
    with pytest.raises(NotConnected):
        decompose_unit(A_ns.unit() + A_ns.basis_element(1))
    for name, (R, f), want in zip(CARTDIAG_CASES, cases, CARTDIAG_REPORTS[p, seed]):
        report = cart_square_check(R, f, seed=seed)
        got = (report.pullback_checked, report.pushout_checked,
               report.kernel_checked, report.components)
        assert (got, report.failures) == (want, []), name


def test_pushout_failures_reported_at_every_level():
    # checked at all 8 digits, the thin lifts of K[x]/(x^2) -> K at p = 2
    # fail: a unit without a lift fails once per level, as does each
    # unipotent factor without one; recorded before the per-unit work was
    # shared across levels, with agrees already strict
    R, f = cartdiag_cases(PrimeContext(2, 8))[1]
    report = cart_square_check(R, f, seed=0, slack=0)
    counts = collections.Counter(report.failures)
    assert (report.pullback_checked, report.pushout_checked, len(report.failures)) == (39, 51, 56)
    assert counts["unit AlgElement[0:1] has no unit lift to R"] == 3
    assert counts["unipotent factor has no unit lift to R"] == 32


# cart_square_check per cartdiag case at seed 0 on low precisions, failure
# paths included: (counts, number of failures, sha256 prefix of the failure
# strings joined by newlines) per case, or (exception type, message) where
# the check raises; recorded before the check kept a value table
LOW_PRECISION_REPORTS = {
    (2, 8, 0): [
        ((21, 42, 0, 1), 42, '351bfee45b862e14'),
        ((39, 51, 1, 1), 56, '404efb59a874cb53'),
        ((120, 60, 2, 1), 66, '4a0d819498df7097'),
        ((21, 42, 0, 2), 42, '351bfee45b862e14'),
        ('PrecisionExhausted', 'consistency of a linear system decided on 2 digits (< 4)'),
        ((22, 48, 0, 1), 38, '4b47182e6daf25d9'),
    ],
    (2, 8, 4): [
        ((21, 42, 0, 1), 0, None),
        ((69, 51, 1, 1), 18, 'ce73ceb1f6f69530'),
        ((123, 60, 2, 1), 32, '668e4ee670115499'),
        ((21, 42, 0, 2), 0, None),
        ('PrecisionExhausted', 'consistency of a linear system decided on 2 digits (< 4)'),
        ((22, 48, 0, 1), 4, '3a8e9c5c2a359b9d'),
    ],
    (2, 12, 0): [
        ((21, 42, 0, 1), 42, '351bfee45b862e14'),
        ((39, 51, 1, 1), 56, '404efb59a874cb53'),
        ((120, 60, 2, 1), 66, '4a0d819498df7097'),
        ((21, 42, 0, 2), 42, '351bfee45b862e14'),
        ((21, 42, 0, 2), 63, '5ed6d71795de3f19'),
        ((16, 48, 0, 1), 26, '69f6736d38187b48'),
    ],
    (2, 12, 4): [
        ((21, 42, 0, 1), 0, None),
        ((48, 51, 1, 1), 0, None),
        ((120, 60, 2, 1), 0, None),
        ((21, 42, 0, 2), 0, None),
        ((21, 42, 0, 2), 0, None),
        ((16, 48, 0, 1), 2, 'ac4e740c364a73b7'),
    ],
    (3, 8, 0): [
        ((24, 48, 0, 1), 48, '3bbb1d0151ea980a'),
        ((48, 57, 1, 1), 60, 'c43765b077e9d0c6'),
        ((69, 66, 2, 1), 76, 'a24d91f3843442bc'),
        ((24, 48, 0, 2), 48, '3bbb1d0151ea980a'),
        ((24, 48, 0, 2), 48, '3bbb1d0151ea980a'),
        ((19, 54, 0, 1), 28, '7d08a39e49d7ef6f'),
    ],
    (3, 8, 4): [
        ((24, 48, 0, 1), 0, None),
        ((48, 57, 1, 1), 0, None),
        ((102, 66, 2, 1), 0, None),
        ((24, 48, 0, 2), 0, None),
        ((24, 48, 0, 2), 0, None),
        ((19, 54, 0, 1), 0, None),
    ],
    (3, 12, 0): [
        ((24, 48, 0, 1), 48, '3bbb1d0151ea980a'),
        ((48, 57, 1, 1), 60, 'c43765b077e9d0c6'),
        ((69, 66, 2, 1), 76, 'a24d91f3843442bc'),
        ((24, 48, 0, 2), 48, '3bbb1d0151ea980a'),
        ((24, 48, 0, 2), 48, '3bbb1d0151ea980a'),
        ((17, 54, 0, 1), 26, '529d3009e5dfc0fd'),
    ],
    (3, 12, 4): [
        ((24, 48, 0, 1), 0, None),
        ((48, 57, 1, 1), 0, None),
        ((102, 66, 2, 1), 0, None),
        ((24, 48, 0, 2), 0, None),
        ((24, 48, 0, 2), 0, None),
        ((17, 54, 0, 1), 0, None),
    ],
    (5, 8, 0): [
        ((27, 54, 0, 1), 54, 'db1b532fc291a361'),
        ((51, 63, 1, 1), 66, 'f156cd48de8a2a32'),
        ((102, 72, 2, 1), 78, 'cbb91f195fc61ef6'),
        ((27, 54, 0, 2), 54, 'db1b532fc291a361'),
        ((27, 54, 0, 2), 54, 'db1b532fc291a361'),
        ((20, 60, 0, 1), 30, 'ec60566345c99ca8'),
    ],
    (5, 8, 4): [
        ((27, 54, 0, 1), 0, None),
        ((51, 63, 1, 1), 0, None),
        ((102, 72, 2, 1), 0, None),
        ((27, 54, 0, 2), 0, None),
        ((27, 54, 0, 2), 0, None),
        ((20, 60, 0, 1), 0, None),
    ],
    (5, 12, 0): [
        ((27, 54, 0, 1), 54, 'db1b532fc291a361'),
        ((51, 63, 1, 1), 66, 'f156cd48de8a2a32'),
        ((102, 72, 2, 1), 78, 'cbb91f195fc61ef6'),
        ((27, 54, 0, 2), 54, 'db1b532fc291a361'),
        ((27, 54, 0, 2), 54, 'db1b532fc291a361'),
        ((20, 60, 0, 1), 30, 'ec60566345c99ca8'),
    ],
    (5, 12, 4): [
        ((27, 54, 0, 1), 0, None),
        ((51, 63, 1, 1), 0, None),
        ((102, 72, 2, 1), 0, None),
        ((27, 54, 0, 2), 0, None),
        ((27, 54, 0, 2), 0, None),
        ((20, 60, 0, 1), 0, None),
    ],
    (7, 8, 0): [
        ((27, 54, 0, 1), 54, '5d23047ecbd90585'),
        ((51, 63, 1, 1), 66, 'ccbfcc24040a78f7'),
        ((102, 72, 2, 1), 78, '75dfdd8f30ff5f4b'),
        ((27, 54, 0, 2), 54, '5d23047ecbd90585'),
        ((27, 54, 0, 2), 54, '5d23047ecbd90585'),
        ((21, 60, 0, 1), 31, '1c689ba5b5f3dcf5'),
    ],
    (7, 8, 4): [
        ((27, 54, 0, 1), 0, None),
        ((51, 63, 1, 1), 0, None),
        ((102, 72, 2, 1), 0, None),
        ((27, 54, 0, 2), 0, None),
        ((27, 54, 0, 2), 0, None),
        ((21, 60, 0, 1), 0, None),
    ],
    (7, 12, 0): [
        ((27, 54, 0, 1), 54, '5d23047ecbd90585'),
        ((51, 63, 1, 1), 66, 'ccbfcc24040a78f7'),
        ((102, 72, 2, 1), 78, '75dfdd8f30ff5f4b'),
        ((27, 54, 0, 2), 54, '5d23047ecbd90585'),
        ((27, 54, 0, 2), 54, '5d23047ecbd90585'),
        ((20, 60, 0, 1), 30, '9f67905270a151f4'),
    ],
    (7, 12, 4): [
        ((27, 54, 0, 1), 0, None),
        ((51, 63, 1, 1), 0, None),
        ((102, 72, 2, 1), 0, None),
        ((27, 54, 0, 2), 0, None),
        ((27, 54, 0, 2), 0, None),
        ((20, 60, 0, 1), 0, None),
    ],
}


def square_check_outcome(R, f, seed, slack):
    """What test_low_precision_reports_pinned records of one check."""
    try:
        report = cart_square_check(R, f, seed=seed, slack=slack)
    except PadicError as exc:
        return type(exc).__name__, str(exc)
    counts = (report.pullback_checked, report.pushout_checked,
              report.kernel_checked, report.components)
    if not report.failures:
        return counts, 0, None
    blob = "\n".join(report.failures).encode()
    return counts, len(report.failures), hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_low_precision_reports_pinned(p):
    for n in (8, 12):
        for slack in (0, 4):
            cases = cartdiag_cases(PrimeContext(p, n))
            want = LOW_PRECISION_REPORTS[p, n, slack]
            for name, (R, f), case_want in zip(CARTDIAG_CASES, cases, want):
                assert square_check_outcome(R, f, 0, slack) == case_want, (n, slack, name)


def test_nothing_kept_outside_a_check():
    # a failure outside a square check raises again, alike, and leaves no
    # table behind
    A = dual_numbers(C5)
    x = A.basis_element(1)
    A_ns = cartdiag_cases(C5)[-1][0]
    for make, error in [(lambda: RootClass(A, x, 0), NotAUnit),
                        (lambda: decompose_unit(A_ns.unit() + A_ns.basis_element(1)), NotConnected)]:
        messages = []
        for _ in range(2):
            with pytest.raises(error) as info:
                make()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
    assert unitgroup._VALUES.get() is None


def test_failure_inside_a_check_is_not_kept():
    A = dual_numbers(C5)
    x = A.basis_element(1)
    token = unitgroup._VALUES.set(unitgroup._ValueTable())
    try:
        for _ in range(2):
            with pytest.raises(NotAUnit, match="not invertible"):
                RootClass(A, x, 0)
        assert unitgroup._VALUES.get().values == {}
        RootClass(A, A.unit() + x, 0)
        assert len(unitgroup._VALUES.get().values) == 1
    finally:
        unitgroup._VALUES.reset(token)


def test_keys_tell_precisions_apart():
    # an element or scalar differing only in precision has its own entry,
    # so inside a table each value is what it is outside
    A = dual_numbers(C5)
    u = A.from_ints([1, 5])
    c = PadicScalar.from_int(C5, 1 + 25)

    def values():
        return ([ledger(RootClass(A, x, 0).shifted(1).representative.coords)
                 for x in (u, A.element([a.reduce(10) for a in u.coords]))]
                + [ledger([scalar_pk_root(s, 1)]) for s in (c, c.reduce(10))])

    outside = values()
    token = unitgroup._VALUES.set(unitgroup._ValueTable())
    try:
        inside = values()
    finally:
        unitgroup._VALUES.reset(token)
    assert inside == outside
    assert outside[0] != outside[1] and outside[2] != outside[3]


def test_threads_keep_their_own_tables():
    # threads running different checks at once, switching often, report
    # what sequential runs do; failures included, at 12 digits checked to
    # all of them
    def reports(p):
        return [(r.pullback_checked, r.pushout_checked, r.kernel_checked, r.failures)
                for r in (cart_square_check(R, f, slack=0)
                          for R, f in cartdiag_cases(PrimeContext(p, 12))[1:3])]

    primes = [2, 3, 5]
    sequential = [reports(p) for p in primes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=len(primes)) as pool:
            threaded = list(pool.map(reports, primes, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential
    assert all(failures for rows in sequential for *_, failures in rows)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "_pullback_unit loses digits: the level-2 candidate for [0:21, 4:1] "
    "carries 6 digits (its scalar root 9), under the 8 the check needs"))
def test_pullback_reconstruction_keeps_digits():
    # the case behind the two "pullback pair (level 2)" failures of
    # K[x]/(x^2 - 3) at p = 2, N = 12, slack 4, on the component algebra
    # and the map the check builds
    R, f = cartdiag_cases(PrimeContext(2, 12))[-1]
    comp = connected_components(R)[0]
    f_live = Morphism.create(comp.algebra, R, [f.apply(b) for b in comp.embed.images],
                             validate=False)
    t, = [u for u in unit_battery(comp.algebra, 0) if repr(u) == "AlgElement[0:21, 4:1]"]
    u, available = _pullback_unit(f_live, f_live.apply(t), RootClass(comp.algebra, t ** 4, 2), 4)
    assert available
    assert u is not None and u.agrees(t, 8)


def test_one_lift_per_working_precision():
    A = dual_numbers(C5)
    lifts = [_lift_algebra(A, PrimeContext(5, n)) for n in (48, 64, 48)]
    assert [L.ctx.default_precision for L in lifts] == [48, 64, 48]
    assert lifts[0] is lifts[2] and lifts[0] is not lifts[1]
    assert lifts[0].exact_structure
    S = spectral_algebra(gen_higgs(3, 1, 3, 0.6, seed=0, precision=32)).algebra
    assert not _lift_algebra(S, PrimeContext(3, 64)).exact_structure


@pytest.mark.parametrize("p, d, n, density, seed", [(3, 1, 3, 0.6, 0), (2, 2, 4, 0.6, 3)])
def test_cold_and_warm_solve_derived_algebras_agree(p, d, n, density, seed):
    # the direct series lifts to a working precision that depends on the
    # argument's digits, so an algebra keeps one lift per precision: here
    # exp(tau) follows the exp of a thinner element
    def tau():
        return spectral_algebra(gen_higgs(p, d, n, density, seed=seed, precision=32)).tau[0]

    cold_y = alg_exp(tau())
    cold_z = alg_log(tau().algebra.element(cold_y.coords))
    t = tau()
    alg_exp(t.algebra.element([c.reduce(16) for c in t.coords]))
    for _ in range(2):
        y = alg_exp(t)
        z = alg_log(y)
        assert ledger(y.coords) == ledger(cold_y.coords)
        assert ledger(z.coords) == ledger(cold_z.coords)
