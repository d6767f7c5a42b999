"""koszul-cohomology: complexes, both cohomology pipelines, the comparison,
and unit-scaling invariance.

Rank oracle for the rational fixtures: exact Fraction elimination (same as
test_matrix).  The derived example h = (1,1) for a rank-1 nilpotent is the
kernel/cokernel of a single matrix, computed by hand below.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padic_simpson import koszul, linalg
from padic_simpson.context import DEFAULT_SLACK, PrimeContext
from padic_simpson.errors import CommutationFailure, PadicError, PrecisionExhausted
from padic_simpson.generate import gen_commuting_units, gen_higgs
from padic_simpson.higgs import HiggsModule, SmallRep, higgs_to_rep
from padic_simpson.koszul import (
    KoszulComplex,
    compare_cohomology,
    group_cohomology,
    higgs_cohomology,
    koszul_unit_scaling_check,
)
from padic_simpson.matrix import PadicMatrix, expm1_quotient
from padic_simpson.scalar import PadicScalar
from test_matrix import ledger_contexts, ledger_scalars

C5 = PrimeContext(5, 32)
C3 = PrimeContext(3, 32)
C7 = PrimeContext(7, 32)


def higgs(ctx, *grids):
    return HiggsModule.create(ctx, [PadicMatrix.from_ints(ctx, g) for g in grids])


def binomials(d):
    out = [1]
    for k in range(1, d + 1):
        out.append(out[-1] * (d - k + 1) // k)
    return out


class TestKoszulComplex:
    def test_term_dimensions(self):
        ops = [PadicMatrix.zeros(C5, 2) for _ in range(3)]
        kos = KoszulComplex(ops)
        assert kos.term_dims == [2, 6, 6, 2]

    def test_d_squared_zero(self):
        H = gen_higgs(5, d=3, rank=3, seed=1)
        kos = KoszulComplex(list(H.theta))
        for k in range(len(kos.differentials) - 1):
            assert (kos.differentials[k + 1] @ kos.differentials[k]).is_zero_to_precision()

    def test_differential_keeps_entry_precision(self):
        # a zero known only mod 5^2 stays known only mod 5^2 in d^0, and
        # in d^1 with its sign; nonzero entries and full zeros keep theirs
        ctx = PrimeContext(5, 8)
        five, thin = PadicScalar.from_int(ctx, 5), PadicScalar.zero(ctx, 2)
        op = PadicMatrix.from_rows(ctx, [[five, thin], [thin, five]])
        d0 = KoszulComplex([op]).differentials[0]
        assert [[x.prec for x in row] for row in d0.entries] == [[8, 2], [2, 8]]
        assert d0[0, 1].is_zero and d0[0, 0] == five
        d1 = KoszulComplex([PadicMatrix.zeros(ctx, 2), op]).differentials[1]
        assert [[x.prec for x in row] for row in d1.entries] == [[8, 2, 8, 8], [2, 8, 8, 8]]
        assert d1[0, 0] == -five

    def test_noncommuting_rejected(self):
        a = PadicMatrix.from_ints(C5, [[0, 5], [0, 0]])
        b = PadicMatrix.from_ints(C5, [[0, 0], [5, 0]])
        with pytest.raises(CommutationFailure):
            KoszulComplex([a, b])


class TestHiggsCohomology:
    def test_rank1_zero_map(self):
        r = higgs_cohomology(HiggsModule.trivial(C5, 1, rank=1))
        assert r.h == (1, 1)

    def test_hodge_tate_shape(self):
        # trivial rank-1 object: h^k = binomial(d, k) in every degree
        for d in (1, 2, 3):
            r = higgs_cohomology(HiggsModule.trivial(C5, d, rank=1))
            assert list(r.h) == binomials(d)

    def test_nilpotent_fixture(self):
        # rank-1 nilpotent theta: kernel and cokernel both 1-dimensional
        r = higgs_cohomology(higgs(C5, [[0, 5], [0, 0]]))
        assert r.h == (1, 1)

    def test_invertible_component_kills_cohomology(self):
        r = higgs_cohomology(higgs(C5, [[5]]))
        assert r.h == (0, 0)

    def test_margins_recorded(self):
        r = higgs_cohomology(higgs(C5, [[0, 5], [0, 0]]))
        assert any(m is not None for m in r.margins)


class TestGroupCohomology:
    def test_identity_rep_shape(self):
        V = SmallRep.trivial(C5, 2, rank=1)
        assert group_cohomology(V).h == (1, 2, 1)

    def test_unipotent_fixture(self):
        V = SmallRep.create(C5, [PadicMatrix.from_ints(C5, [[1, 5], [0, 1]])])
        assert group_cohomology(V).h == (1, 1)

    def test_invertible_difference(self):
        # rho = 1 + p: rho - 1 = p is invertible over the field
        V = SmallRep.create(C5, [PadicMatrix.from_ints(C5, [[6]])])
        assert group_cohomology(V).h == (0, 0)


class TestComparison:
    def test_trivial(self):
        out = compare_cohomology(HiggsModule.trivial(C5, 2, rank=1))
        assert out.ok and out.higgs.h == (1, 2, 1) == out.group.h

    def test_nilpotent_fixture(self):
        out = compare_cohomology(higgs(C5, [[0, 5], [0, 0]]))
        assert out.ok
        assert out.higgs.h == (1, 1) == out.group.h

    def test_seeded_batteries(self):
        for p in (3, 5, 7):
            for seed in range(5):
                H = gen_higgs(p, d=2, rank=3, seed=seed)
                out = compare_cohomology(H)
                assert out.ok, (p, seed)
                assert out.unit_witness_ok

    def test_d3_instances(self):
        H = gen_higgs(3, d=3, rank=2, seed=2)
        out = compare_cohomology(H)
        assert out.higgs.h == out.group.h

    def test_d4_soft_limit(self):
        # the configurable upper bound of the verify suites
        H = gen_higgs(5, d=4, rank=2, seed=77)
        out = compare_cohomology(H)
        assert out.ok
        assert len(out.higgs.h) == 5

    def test_reports_carry_sides(self):
        out = compare_cohomology(gen_higgs(5, d=2, rank=2, seed=3))
        assert out.higgs.side == "higgs" and out.group.side == "group"

    def test_expm1_quotient_once_per_distinct_theta(self, monkeypatch):
        # density 0 makes every theta_i zero: one quotient serves all three
        calls = []

        def counted(t):
            calls.append(t)
            return expm1_quotient(t)

        monkeypatch.setattr(koszul, "expm1_quotient", counted)
        out = compare_cohomology(gen_higgs(5, d=3, rank=3, density=0, seed=0))
        assert out.ok and out.unit_witness_ok and len(calls) == 1
        calls.clear()
        H = gen_higgs(5, d=2, rank=3, seed=3)
        assert H.theta[0] != H.theta[1]
        assert compare_cohomology(H).unit_witness_ok and len(calls) == 2

    def test_witness_verdicts_unchanged(self):
        for p, d, n, density, seed in product((2, 3, 5, 7), (2, 3), (2, 3), (0, 0.6), (0, 1)):
            H = gen_higgs(p, d, n, density, seed=seed)
            assert compare_cohomology(H).unit_witness_ok == ref_witness(H), (p, d, n, density, seed)


def ref_witness(H):
    """The unit witness of compare_cohomology as it stood with one
    expm1 quotient per component, repeated theta_i included."""
    V = higgs_to_rep(H)
    witness = True
    prec = H.ctx.default_precision - DEFAULT_SLACK
    for t, lhs in zip(H.theta, V.operators()):
        u = expm1_quotient(t)
        if not lhs.agrees(t @ u, prec):
            witness = False
        diff = u - PadicMatrix.identity(H.ctx, H.rank)
        if not (diff.is_zero_to_precision() or diff.min_valuation() >= 1):
            witness = False
        for s in H.theta:
            if not u.commutes_with(s):
                witness = False
    return witness


class TestUnitScaling:
    def test_identity_units(self):
        H = gen_higgs(5, d=2, rank=3, seed=4)
        units = [PadicMatrix.identity(C5, 3) for _ in range(2)]
        assert koszul_unit_scaling_check(list(H.theta), units)

    def test_series_unit(self):
        # u = 1 + a/2 for the nilpotent fixture: scaling preserves (1, 1)
        a = PadicMatrix.from_ints(C5, [[0, 5], [0, 0]])
        half = PadicScalar.from_fraction(C5, Fraction(1, 2))
        u = PadicMatrix.identity(C5, 2) + a.scale(half)
        assert koszul_unit_scaling_check([a], [u])

    def test_seeded_batteries(self):
        for seed in range(6):
            H = gen_higgs(3, d=2, rank=3, seed=seed)
            units = gen_commuting_units(list(H.theta), seed=seed)
            assert koszul_unit_scaling_check(list(H.theta), units), seed

    def test_noncommuting_unit_rejected(self):
        a = PadicMatrix.from_ints(C5, [[0, 5], [0, 0]])
        u = PadicMatrix.from_ints(C5, [[1, 0], [1, 1]])  # does not commute with a
        with pytest.raises(CommutationFailure):
            koszul_unit_scaling_check([a], [u])


class TestPrecisionBehaviour:
    def test_reduced_precision_entry_exhausts(self):
        # an entry known to only 2 digits cannot support a zero-decision at
        # the default margin: abort rather than guess a rank
        ctx = PrimeContext(5, 8)
        thin = PadicScalar.from_int(ctx, 5).reduce(2)
        full = PadicScalar.from_int(ctx, 5)
        H = HiggsModule.create(
            ctx,
            [PadicMatrix.from_rows(ctx, [[full, full], [full, thin]])],
        )
        with pytest.raises(PrecisionExhausted):
            higgs_cohomology(H)

    def test_margin_demand_beyond_file_precision_exhausts(self):
        # demanding more vanishing digits than the instance carries aborts
        ctx = PrimeContext(5, 8)
        H = HiggsModule.create(ctx, [PadicMatrix.from_ints(ctx, [[0, 5], [0, 0]], 8)])
        with pytest.raises(PrecisionExhausted):
            higgs_cohomology(H, min_margin=10)

    def test_rank_stable_under_refinement(self):
        for seed in range(4):
            h32 = compare_cohomology(gen_higgs(5, d=2, rank=3, seed=seed, precision=32))
            h64 = compare_cohomology(gen_higgs(5, d=2, rank=3, seed=seed, precision=64))
            assert h32.higgs.h == h64.higgs.h


def ref_differential(kos, k):
    """d^k summed scalar by scalar as it stood on scalar tuples: each entry
    O(p^N) of the complex's context plus its signed operator entry."""
    src, dst = kos.subsets[k], kos.subsets[k + 1]
    dst_index = {s: t for t, s in enumerate(dst)}
    zero = PadicScalar.zero(kos.ctx)
    rows = [[zero] * (kos.n * len(src)) for _ in range(kos.n * len(dst))]
    for s_idx, S in enumerate(src):
        for i in range(kos.d):
            if i in S:
                continue
            sign = (-1) ** sum(1 for l in S if l < i)
            t_idx = dst_index[tuple(sorted(S + (i,)))]
            for r, row in enumerate(kos.operators[i].entries):
                for c, e in enumerate(row):
                    at = rows[t_idx * kos.n + r]
                    at[s_idx * kos.n + c] = at[s_idx * kos.n + c] + (-e if sign < 0 else e)
    return rows


@st.composite
def koszul_operators(draw):
    """Commuting operators around one drawn square matrix a, whose entries
    lie in one context, wider than the complex's half the time, with zero
    markers and valuations below 0: (a,), (0, a) and (a, a, 0)."""
    ctx = PrimeContext(draw(st.sampled_from([2, 3, 5])), draw(st.integers(8, 12)))
    n = draw(st.integers(1, 3))
    entry = ledger_scalars(draw(ledger_contexts(ctx)))
    a = PadicMatrix.from_rows(ctx, [[draw(entry) for _ in range(n)] for _ in range(n)])
    zero = PadicMatrix.zeros(ctx, n)
    return draw(st.sampled_from([(a,), (zero, a), (a, a, zero)]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(koszul_operators())
def test_differential_matches_scalar_sums(ops):
    kos = KoszulComplex(ops)
    for k, diff in enumerate(kos.differentials):
        assert [[(x.v, x.u, x.prec, x.ctx) for x in row] for row in diff.entries] == \
            [[(x.v, x.u, x.prec, x.ctx) for x in row] for row in ref_differential(kos, k)]


# -- the d o d guard ---------------------------------------------------------


@st.composite
def nearly_commuting_operators(draw):
    """Two or three operators in one context: a or a @ a for one drawn
    matrix a, each plus p^e times a matrix of its own, so that their
    commutators vanish to some digits and not to others."""
    ctx = PrimeContext(draw(st.sampled_from([2, 3, 5])), draw(st.integers(8, 12)))
    n = draw(st.integers(1, 3))
    entry = ledger_scalars(ctx)

    def matrix():
        return PadicMatrix.from_rows(ctx, [[draw(entry) for _ in range(n)] for _ in range(n)])

    a = matrix()
    ops = []
    for _ in range(draw(st.integers(2, 3))):
        base = a @ a if draw(st.booleans()) else a
        e = draw(st.integers(0, ctx.default_precision + 2))
        ops.append(base + matrix().scale(PadicScalar.from_int(ctx, ctx.p ** e)))
    return ops


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nearly_commuting_operators())
def test_commutation_guard_decides_d_squared_in_one_context(ops):
    # in one context every entry of d^(k+1) d^k is +-(op_i op_j - op_j op_i)
    # with at least the terms, and at most the precision, of the guard's
    # commutator, or a sum of zero-marker terms: whatever the guard lets
    # through has d o d = 0
    guard = all(ops[i].commutes_with(ops[j])
                for i in range(len(ops)) for j in range(i + 1, len(ops)))
    try:
        kos = KoszulComplex(ops)
    except CommutationFailure:
        assert not guard
        return
    assert guard
    for k in range(kos.d - 1):
        assert (kos.differentials[k + 1] @ kos.differentials[k]).is_zero_to_precision()


def test_d_squared_check_decides_what_the_guard_cannot():
    # operators of contexts with N = 40 and N = 10: the guard's commutator
    # diag(5^10, -5^10) is capped at the narrower N and reads zero, while
    # d^1 d^0 keeps 11 digits of it, in the complex's context, and does
    # not vanish; the d o d check is what refuses this complex
    a = PadicMatrix.from_ints(PrimeContext(5, 40), [[0, 5], [0, 0]])
    b = PadicMatrix.from_ints(PrimeContext(5, 10), [[0, 0], [5 ** 9, 0]])
    assert a.commutes_with(b) and b.commutes_with(a)
    with pytest.raises(PadicError, match="d o d != 0 at degree 0"):
        KoszulComplex([a, b])
    # in the complex of the narrower context the same terms keep 10
    # digits, and d o d vanishes to them
    kos = KoszulComplex([b, a])
    assert (kos.differentials[1] @ kos.differentials[0]).is_zero_to_precision()


# -- the end-degree cross-check, frozen ------------------------------------


def ref_check_ends(ops, n, h, min_margin):
    """koszul._check_ends as it stood before it was deleted: H^0 as the
    joint kernel (n - rank) and H^top as the joint cokernel, computed
    directly, refusing when either disagrees with the complex."""
    stacked = [row for op in ops for row in op.int_rows()]
    joint_kernel = n - linalg.rank_with_margin(stacked, min_margin)[0]
    side_by_side = linalg.transpose([col for op in ops for col in op.int_columns()])
    rank_images, _ = linalg.rank_with_margin(side_by_side, min_margin)
    cokernel = n - rank_images
    if h[0] != joint_kernel or h[-1] != cokernel:
        raise PrecisionExhausted(
            "Koszul end degrees disagree with the direct kernel/cokernel "
            "computation (h0 %d vs %d, htop %d vs %d); raise precision"
            % (h[0], joint_kernel, h[-1], cokernel)
        )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_end_degrees_need_no_cross_check(p):
    # over the generator's grid at the bench's densities, on both sides,
    # the direct kernel and cokernel agree with the complex's h^0 and
    # h^top wherever the complex decides its ranks, and refuse nowhere
    # else: the cross-check could never fire
    decided = 0
    for d, n, density, seed in product((1, 2, 3), range(1, 7), (0.0, 0.35, 0.6, 0.85), range(3)):
        H = gen_higgs(p, d, n, density, seed=seed)
        for X in (H, higgs_to_rep(H)):
            ops = X.operators()
            try:
                h, _ = KoszulComplex(ops).cohomology()
            except PrecisionExhausted:
                continue
            ref_check_ends(ops, n, h, DEFAULT_SLACK)
            decided += 1
    assert decided == 2 * 3 * 6 * 4 * 3
