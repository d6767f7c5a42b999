"""higgs-local: validation, both directions of the correspondence,
spectral algebras, twists, functoriality, evaluation.

The exp/log kernels were cross-checked against Fraction series oracles in
test_matrix; here the correspondence-level properties are exercised over
seeded batteries, plus the frozen nilpotent fixtures whose exp/log are
exact one-term series.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padic_simpson import higgs as higgs_module
from padic_simpson import linalg
from padic_simpson.algebra import FinAlgebra, nilradical, quotient_by_ideal
from padic_simpson.context import PrimeContext
from padic_simpson.errors import (
    AlgebraMismatch,
    DimensionMismatch,
    PadicError,
    PrecisionExhausted,
    ValidationError,
)
from padic_simpson.generate import gen_higgs, gen_rep
from padic_simpson.higgs import (
    HiggsModule,
    SmallRep,
    direct_sum,
    dual,
    evaluate_rep,
    higgs_to_rep,
    make_twist,
    rep_to_higgs,
    spectral_algebra,
    tensor,
    twist_higgs,
    validate_higgs,
    validate_rep,
)
from padic_simpson.matrix import PadicMatrix
from padic_simpson.scalar import PadicScalar, exp_scalar

C5 = PrimeContext(5, 32)
C3 = PrimeContext(3, 32)


def higgs(ctx, *grids):
    return HiggsModule.create(ctx, [PadicMatrix.from_ints(ctx, g) for g in grids])


def rep(ctx, *grids):
    return SmallRep.create(ctx, [PadicMatrix.from_ints(ctx, g) for g in grids])


NILP = [[0, 5], [0, 0]]
NILP_EXP = [[1, 5], [0, 1]]


class TestValidation:
    def test_zero_valid(self):
        assert validate_higgs(HiggsModule.trivial(C5, 3, rank=2)).ok

    def test_noncommuting_pair_reported(self):
        H = higgs(C5, [[0, 5], [0, 0]], [[0, 0], [5, 0]])
        report = validate_higgs(H)
        assert not report.ok
        assert (0, 1) == report.commutation[0][:2]

    def test_smallness_violation_reported(self):
        H = higgs(C5, [[1, 0], [0, 0]])
        report = validate_higgs(H)
        assert not report.ok
        assert report.smallness[0][3] == 0  # valuation 0 < 1

    def test_rep_congruence(self):
        V = rep(C5, [[2, 0], [0, 1]])
        assert not validate_rep(V).ok

    def test_generated_instances_valid(self):
        for seed in range(8):
            H = gen_higgs(5, d=2, rank=3, seed=seed)
            assert validate_higgs(H).ok, seed

    def test_density_zero_is_trivial(self):
        assert gen_higgs(5, d=2, rank=3, density=0.0, seed=1).is_trivial()

    def test_generation_deterministic(self):
        a = gen_higgs(7, d=3, rank=4, seed=11)
        b = gen_higgs(7, d=3, rank=4, seed=11)
        assert a == b


class TestCorrespondence:
    def test_zero_to_identity(self):
        H = HiggsModule.trivial(C5, 2, rank=3)
        assert higgs_to_rep(H).is_trivial()

    def test_nilpotent_fixture(self):
        H = higgs(C5, NILP)
        V = higgs_to_rep(H)
        assert V.rho[0] == PadicMatrix.from_ints(C5, NILP_EXP)

    def test_identity_to_zero(self):
        V = SmallRep.trivial(C5, 2, rank=3)
        assert rep_to_higgs(V).is_trivial()

    def test_nilpotent_log_fixture(self):
        V = rep(C5, NILP_EXP)
        assert rep_to_higgs(V).theta[0] == PadicMatrix.from_ints(C5, NILP)

    def test_scalar_case_matches_exp(self):
        H = higgs(C5, [[5]])
        V = higgs_to_rep(H)
        assert V.rho[0][0, 0] == exp_scalar(PadicScalar.from_int(C5, 5))

    def test_round_trip_seeded(self):
        for p in (3, 5, 7):
            for seed in range(6):
                H = gen_higgs(p, d=2, rank=3, seed=seed)
                assert rep_to_higgs(higgs_to_rep(H)).agrees(H, 24)
                V = gen_rep(p, d=2, rank=3, seed=seed + 100)
                assert higgs_to_rep(rep_to_higgs(V)).agrees(V, 24)

    def test_round_trip_p2(self):
        # at p = 2 smallness means congruence mod 4
        for seed in range(4):
            H = gen_higgs(2, d=2, rank=3, seed=seed)
            assert validate_higgs(H).ok
            V = higgs_to_rep(H)
            diff = V.rho[0] - PadicMatrix.identity(H.ctx, 3)
            assert diff.min_valuation() is None or diff.min_valuation() >= 2
            assert rep_to_higgs(V).agrees(H, 24)

    def test_triviality_criterion(self):
        # theta_V = 0 iff rho = id, exactly
        V = rep(C5, [[1, 0], [0, 1]], [[1, 5], [0, 1]])
        H = rep_to_higgs(V)
        assert not H.is_trivial()
        assert H.theta[0].is_zero_to_precision()
        assert not H.theta[1].is_zero_to_precision()

    def test_invalid_input_raises(self):
        H = higgs(C5, [[0, 5], [0, 0]], [[0, 0], [5, 0]])
        with pytest.raises(ValidationError):
            higgs_to_rep(H)

    def test_commutation_preserved(self):
        H = gen_higgs(5, d=3, rank=4, seed=3)
        V = higgs_to_rep(H)
        assert validate_rep(V).ok

    def test_each_side_is_validated_once(self, monkeypatch):
        # the report is kept on the side, so the entry points of one op
        # share it: a spectral op (as the bench runs it) validates H once,
        # and compare_cohomology validates H and V once each
        from padic_simpson.koszul import compare_cohomology

        calls = []
        real = higgs_module._validate
        monkeypatch.setattr(higgs_module, "_validate", lambda X: calls.append(X) or real(X))
        for seed in range(3):
            H = gen_higgs(5, d=2, rank=3, seed=seed)
            S = spectral_algebra(H)
            twist_higgs(H, S, make_twist(S.algebra, S.tau))
            higgs_to_rep(H)
            assert calls == [H]
            assert validate_higgs(H) is H.validation
            calls.clear()
            H = gen_higgs(5, d=2, rank=3, seed=seed)
            compare_cohomology(H)
            assert [type(X) for X in calls] == [HiggsModule, SmallRep] and calls[0] is H
            calls.clear()

    def test_kept_report_cannot_change(self):
        H = higgs(C5, [[0, 5], [0, 0]], [[0, 0], [5, 0]], [[1, 0], [0, 0]])
        report = validate_higgs(H)
        assert isinstance(report.commutation, tuple) and isinstance(report.smallness, tuple)
        with pytest.raises(AttributeError):
            report.commutation.append((0, 1, 0))
        with pytest.raises(AttributeError):
            report.smallness = ()
        assert validate_higgs(H) is report

    def test_noncommuting_module_refused_at_the_first_entry_point(self):
        # the kept report refuses at whichever entry point comes first,
        # with the text of the checks
        from padic_simpson.koszul import compare_cohomology, higgs_cohomology

        text = ("higgs instance INVALID\n"
                "  components 0 and 1 do not commute (commutator valuation 2)")
        for entry in (spectral_algebra, higgs_to_rep, higgs_cohomology, compare_cohomology):
            H = higgs(C5, [[0, 5], [0, 0]], [[0, 0], [5, 0]])
            with pytest.raises(ValidationError) as exc:
                entry(H)
            assert str(exc.value) == text
            with pytest.raises(ValidationError, match="^higgs instance INVALID"):
                higgs_to_rep(H)


class TestSpectralAlgebra:
    def test_checks_keep_no_views_on_the_callers_matrices(self):
        # a matrix keeps the row and column views its products slice;
        # validation and the span closure take theirs on matrices of their
        # own, so a module the caller holds does not grow by being checked
        H = gen_higgs(5, 3, 4, seed=3)
        validate_higgs(H)
        S = spectral_algebra(H)
        assert S.algebra.dim > 1
        assert all(t._rows is None and t._columns is None for t in H.theta)

    def test_zero_field(self):
        S = spectral_algebra(HiggsModule.trivial(C5, 2, rank=3))
        assert S.algebra.dim == 1
        assert all(t.is_zero_to_precision() for t in S.tau)

    def test_nilpotent_example(self):
        # span {1, theta}: dim 2 with one nilpotent direction
        S = spectral_algebra(higgs(C5, NILP))
        assert S.algebra.dim == 2
        from padic_simpson.algebra import nilradical

        assert len(nilradical(S.algebra)) == 1
        assert S.embed(S.tau[0]) == PadicMatrix.from_ints(C5, NILP)

    def test_diagonal_example(self):
        # theta_1 = diag(p,0,0), theta_2 = diag(0,p,0): the span closure has
        # dimension 3 with relations tau_1 tau_2 = 0 and tau_i^2 = p tau_i
        H = higgs(C5, [[5, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 5, 0], [0, 0, 0]])
        S = spectral_algebra(H)
        assert S.algebra.dim == 3
        t1, t2 = S.tau
        assert (t1 * t2).is_zero_to_precision()
        p_scalar = PadicScalar.from_int(C5, 5)
        assert (t1 * t1) == t1 * p_scalar
        assert (t2 * t2) == t2 * p_scalar

    def test_diagonal_rank2_degenerates(self):
        # at rank 2 the same diagonal pair satisfies theta_1 + theta_2 = p,
        # so the image algebra (the span closure inside End(E)) has dim 2
        H = higgs(C5, [[5, 0], [0, 0]], [[0, 0], [0, 5]])
        S = spectral_algebra(H)
        assert S.algebra.dim == 2
        assert S.embed(S.tau[0] + S.tau[1]) == PadicMatrix.from_ints(C5, [[5, 0], [0, 5]])

    def test_faithful_embedding(self):
        for seed in range(5):
            H = gen_higgs(3, d=2, rank=3, seed=seed)
            S = spectral_algebra(H)
            for ti, th in zip(S.tau, H.theta):
                assert S.embed(ti) == th
            assert S.algebra.dim <= H.rank ** 2

    def test_embed_counts_zero_marker_coordinates(self):
        # x = [1, O(3^5), O(3^5)]: the basis matrices B_1 and B_2 have
        # entries of valuation 1 to 6, so x_1 * B_1 + x_2 * B_2 is known to
        # 6 to 9 digits in every entry, not to the 32 of x_0 * B_0
        S = spectral_algebra(gen_higgs(3, 1, 3, 0.6, seed=1))
        ctx = S.algebra.ctx
        x = S.algebra.element([PadicScalar.from_int(ctx, 1), PadicScalar.zero(ctx, 5),
                               PadicScalar.zero(ctx, 5)])
        assert {c.prec for row in S.embed(x).entries for c in row} == {6, 7, 8, 9}

    def test_thin_constants_validate_on_the_stored_tensor(self):
        # at precision 8 the stored tensor is made from thin
        # multiplication matrices; spectral_algebra certifies it by the
        # theta-action, so the full check, which reads e_i * e_j off the
        # stored tensor, associativity included, is called here
        S = spectral_algebra(gen_higgs(3, 2, 5, 0.6, 3, precision=8))
        assert S.algebra.dim == 5
        S.algebra._validate()

    def test_embedding_kernel_trivial(self):
        # the basis matrices are linearly independent by construction
        H = gen_higgs(5, d=2, rank=3, seed=9)
        S = spectral_algebra(H)
        from padic_simpson import linalg

        flat = [
            [m.entries[i // H.rank][i % H.rank] for m in S.basis_matrices]
            for i in range(H.rank ** 2)
        ]
        rank, _ = linalg.rank_with_margin(flat)
        assert rank == S.algebra.dim


# (d, n, seed) of the spectral grid: gen_higgs(p, d, n, 0.6, seed)
PINS_GRID = [(d, n, seed) for d in (1, 2, 3) for n in (2, 3, 4, 5) for seed in (0, 1, 2)]


def spectral_digest(p):
    """The dimension of B_theta for each spectral_algebra(gen_higgs(p, d,
    n, 0.6, seed)) over PINS_GRID, as one digit each, and a sha256 prefix
    of (v, u, prec, ctx) of every structure constant and every tau
    coordinate."""
    dims = ""
    digest = hashlib.sha256()
    for d, n, seed in PINS_GRID:
        S = spectral_algebra(gen_higgs(p, d, n, 0.6, seed))
        dims += str(S.algebra.dim)
        for coords in [c for plane in S.algebra.mul for c in plane] + \
                [t.coords for t in S.tau]:
            digest.update(repr([(c.v, c.u, c.prec, c.ctx) for c in coords]).encode())
    return dims, digest.hexdigest()[:16]


# spectral_digest per p, recorded when the tensor came to be read off the
# multiplication matrices L_i instead of dim^2 solved basis products, and
# re-recorded when the L_i and tau came to be read off the closure's own
# reductions (every dimension unchanged; CHANGES.md tabulates the digits)
SPECTRAL_PINS = {
    2: ("111232232314212313333344222231334543",
        "28a50c50d331ae06"),
    3: ("122232342245222131234352122223433554",
        "ed08734e038d50c0"),
    5: ("121322314532122132233543222332334553",
        "18278b965fbc84ed"),
    7: ("112233342343222222242334212223433454",
        "53f0fc7686e306e4"),
}


@pytest.mark.parametrize("p", sorted(SPECTRAL_PINS))
def test_spectral_algebra_pinned(p):
    assert spectral_digest(p) == SPECTRAL_PINS[p]


def ref_spectral_tensor(S):
    """The structure constants of B_theta by the dim^2-product route: every
    product of two basis matrices as an n x n matrix, solved as a column
    on the one factorisation of the span; c[i][j] is column i * dim + j."""
    basis = S.basis_matrices
    span_rows = linalg.transpose([b.grid for b in basis])
    cols = [(a @ b).grid for a in basis for b in basis]
    sols = linalg.eliminate(span_rows, reduce_above=True).solve_rows(cols)
    assert sols is not None
    return linalg.transpose(sols)


def tensor_rows(B):
    """The slices c[i][j] of B's tensor, in the order i * dim + j."""
    m = B.dim
    return B.tensor.slices([t * m for t in range(m * m)], m)


@pytest.mark.parametrize("p", sorted(SPECTRAL_PINS))
def test_spectral_tensor_agrees_with_basis_products(p):
    # the tensor read off the L_i and the one solved from the dim^2 basis
    # products are the same constants at their common precision
    for d, n, seed in PINS_GRID:
        S = spectral_algebra(gen_higgs(p, d, n, 0.6, seed))
        for new, ref in zip(tensor_rows(S.algebra), ref_spectral_tensor(S), strict=True):
            assert linalg.congruent(new, ref), (p, d, n, seed)


def over_claims(narrow, wide):
    """The entries of the Row narrow that the Row wide, the same values
    computed 40 digits wider, refutes: a claimed digit that differs, or a
    wider entry known to fewer digits than the narrow one claims."""
    return [k for k in range(len(narrow))
            if wide.prec[k] < narrow.prec[k]
            or not linalg.congruent(narrow.slice(k, k + 1), wide.slice(k, k + 1))]


@pytest.mark.parametrize("p", sorted(SPECTRAL_PINS))
def test_spectral_digits_are_earned(p):
    # gen_higgs draws the same integers at every N, so B_theta at N = 72 is
    # the same algebra in the same basis: every digit of every structure
    # constant and tau coordinate claimed at N = 32 must agree with it
    for d, n, seed in [(d, n, seed) for d in (1, 2, 3) for n in (2, 3, 4, 5, 6)
                       for seed in (0, 1, 2, 3)]:
        S, W = (spectral_algebra(gen_higgs(p, d, n, 0.6, seed, precision=N)) for N in (32, 72))
        assert len(S.basis_matrices) == len(W.basis_matrices)
        assert all(linalg.congruent(b.grid, w.grid)
                   for b, w in zip(S.basis_matrices, W.basis_matrices))
        for x, y in [(S.algebra.tensor, W.algebra.tensor)] + \
                [(s.row, w.row) for s, w in zip(S.tau, W.tau)]:
            assert over_claims(x, y) == [], (p, d, n, seed)


def test_quotient_by_ideal_digits_are_earned():
    # quotient_by_ideal projects with linalg.reduce_vector, which applies
    # every pivot's factor, a zero marker's included, as linalg.Span does:
    # every constant and unit coordinate of A / nilradical(A) claimed at
    # N = 32 must agree with the same quotient at N = 72
    quotients = 0
    for p, d, n, seed in [(p, d, n, seed) for p in (2, 3) for d in (1, 2)
                          for n in (2, 3, 4) for seed in (0, 1)]:
        A, W = (spectral_algebra(gen_higgs(p, d, n, 0.6, seed, precision=N)).algebra
                for N in (32, 72))
        ideal, wide_ideal = nilradical(A), nilradical(W)
        assert len(ideal) == len(wide_ideal), (p, d, n, seed)
        if not ideal:
            continue
        assert all(linalg.congruent(x.row, y.row) for x, y in zip(ideal, wide_ideal))
        S, T = quotient_by_ideal(A, ideal)[0], quotient_by_ideal(W, wide_ideal)[0]
        assert S.dim == T.dim, (p, d, n, seed)
        for x, y in ((S.tensor, T.tensor), (S.one, T.one)):
            assert over_claims(x, y) == [], (p, d, n, seed)
        quotients += 1
    assert quotients > 0


def test_spectral_algebra_makes_no_basis_products(monkeypatch):
    # B_theta of dim 5 < n = 6 from d = 2 components: the closure forms the
    # d * dim products b_j @ theta_i, and the tensor is made from dim x dim
    # multiplication operators; no product of two n x n basis matrices
    H = gen_higgs(5, 2, 6, 0.6, 0)
    thetas = {id(t.grid) for t in H.theta}
    products = []
    matmul = PadicMatrix.__matmul__

    def counted(a, b):
        products.append((a.nrows, id(a.grid) in thetas, id(b.grid) in thetas))
        return matmul(a, b)

    monkeypatch.setattr(PadicMatrix, "__matmul__", counted)
    S = spectral_algebra(H)
    dim, n, d = S.algebra.dim, H.rank, H.d
    assert (dim, n) == (5, 6)
    closure = products.count((n, False, True))
    commutators = products.count((n, True, True))  # validation of H
    assert (closure, commutators) == (d * dim, d * (d - 1))
    # every other product is one of dim x dim operators: one per word
    # (parent, i) with parent != 0, whose basis matrix is no theta_i, and
    # the d(d-1) of the commutators of the L_i; no associativity products
    words = sum(not any(b == t for t in H.theta) for b in S.basis_matrices[1:])
    operators = [rows for rows, _, _ in products].count(dim)
    assert len(products) - closure - commutators == operators == words + d * (d - 1)


def test_tau_reduces_theta_again_when_b0_theta_lost_digits(monkeypatch):
    # tau_i is column 0 of L_i, the coordinates of b_0 @ theta_i, only
    # when that product has theta_i's parts; here every product by b_0 = 1
    # is cut to N - 2 digits, so theta_i is reduced once more, and tau
    # agrees with the tau of the uncut closure at their common precision
    H = gen_higgs(3, 2, 4, 0.9, 2)
    S = spectral_algebra(H)
    one = PadicMatrix.identity(H.ctx, H.rank).grid.key()
    matmul, add = PadicMatrix.__matmul__, linalg.Span.add
    handed = []

    def cut(a, b):
        out = matmul(a, b)
        return out.reduced(H.ctx.default_precision - 2) if a.grid.key() == one else out

    def recorded(self, vec):
        handed.append(vec.key())
        return add(self, vec)

    monkeypatch.setattr(PadicMatrix, "__matmul__", cut)
    monkeypatch.setattr(linalg.Span, "add", recorded)
    T = spectral_algebra(H)
    assert handed[-H.d:] == [t.grid.key() for t in H.theta]
    assert T.algebra.dim == S.algebra.dim
    assert all(linalg.congruent(t.row, s.row) for t, s in zip(T.tau, S.tau, strict=True))


def certificate_and_oracle(H):
    """Whether spectral_algebra(H) passes, and whether FinAlgebra._validate,
    associativity included, passes the tensor it built (None when it was
    refused before a tensor was made)."""
    made = []

    def recording(*args, **kwargs):
        made.append(FinAlgebra(*args, **kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(higgs_module, "FinAlgebra", recording)
        try:
            spectral_algebra(H)
            passed = True
        except PrecisionExhausted:
            passed = False
    if not made:
        return passed, None
    try:
        made[0]._validate()
    except PadicError:
        return passed, False
    return passed, True


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.integers(1, 7),
       st.sampled_from([0.35, 0.6, 0.85, 1.0]), st.integers(0, 3), st.integers(8, 32))
def test_certificate_refuses_what_validate_refuses(p, d, n, density, seed, N):
    # the commutators of the L_i with the unit law and commutativity on the
    # stored tensor pass exactly the tensors the full check passes
    passed, oracle = certificate_and_oracle(gen_higgs(p, d, n, density, seed, precision=N))
    assert passed == bool(oracle)


@pytest.mark.parametrize("args, oracle", [
    # the perturbed entry reaches the stored tensor
    ((3, 2, 4, 0.9, 2), False),
    # dim 2 with theta_1 in the span of 1 and theta_0: the perturbed
    # column is c[1][1], and a commutative tensor of dim 2 with unit e_0
    # is associative whatever c[1][1] holds, so only the certificate sees it
    ((5, 2, 4, 0.6, 0), True),
])
def test_certificate_refuses_noncommuting_action(monkeypatch, args, oracle):
    # the coordinates the span returns for b_1 * theta_0, column 1 of L_0,
    # have their entry 0 moved by p^2, and L_0, L_1 stop commuting
    H = gen_higgs(*args)
    p = H.ctx.p
    target = (spectral_algebra(H).basis_matrices[1] @ H.theta[0]).grid.key()
    add = linalg.Span.add

    def perturbed(self, vec):
        new, coords = add(self, vec)
        if vec.key() == target:
            entries = coords.scalars()
            entries[0] = entries[0] + PadicScalar.from_int(H.ctx, p ** 2)
            coords = linalg.Row.of(entries, H.ctx)
        return new, coords

    monkeypatch.setattr(linalg.Span, "add", perturbed)
    with pytest.raises(PrecisionExhausted, match="theta_0 and theta_1 do not commute"):
        spectral_algebra(H)
    assert certificate_and_oracle(H) == (False, oracle)


@pytest.mark.parametrize("entries, message", [
    ([(1, 2, 0)], "structure constants not commutative at (2,1,0)"),
    ([(0, 1, 0), (1, 0, 0)], "unit vector is not an identity at basis 1"),
])
def test_certificate_checks_the_stored_tensor(monkeypatch, entries, message):
    # the L_i commute, but the tensor handed to FinAlgebra has c[i][j][k]
    # moved by p^2 at each of entries: commutativity or the unit law on
    # the stored tensor refuses it
    def perturbed(ctx, dim, tensor, one, **kwargs):
        constants = tensor.scalars()
        for i, j, k in entries:
            t = (i * dim + j) * dim + k
            constants[t] = constants[t] + PadicScalar.from_int(ctx, ctx.p ** 2)
        return FinAlgebra(ctx, dim, linalg.Row.of(constants, ctx), one, **kwargs)

    monkeypatch.setattr(higgs_module, "FinAlgebra", perturbed)
    with pytest.raises(PrecisionExhausted) as info:
        spectral_algebra(gen_higgs(3, 2, 4, 0.9, 2))
    assert str(info.value) == message


def test_certificate_checks_dim_above_twelve(monkeypatch):
    # 12 components p * E_ij, i < 3 <= j, n = 7: every product of two is 0,
    # so B_theta = span(1, p * E_ij) has dim 13, above the dim 12 to which
    # FinAlgebra.create checks associativity; spectral_algebra still makes
    # its d(d-1) commutator products of 13 x 13 operators, and no other
    # (every word has parent 0)
    H = HiggsModule.create(C5, [
        PadicMatrix.from_ints(C5, [[5 if (r, c) == (i, j) else 0 for c in range(7)]
                                   for r in range(7)])
        for i in range(3) for j in range(3, 7)])
    rows = []
    matmul = PadicMatrix.__matmul__

    def counted(a, b):
        rows.append(a.nrows)
        return matmul(a, b)

    monkeypatch.setattr(PadicMatrix, "__matmul__", counted)
    S = spectral_algebra(H)
    assert (S.algebra.dim, H.d) == (13, 12)
    assert rows.count(13) == 12 * 11
    S.algebra._validate()


class TestTwists:
    def test_trivial_twist(self):
        S = spectral_algebra(HiggsModule.trivial(C5, 2, rank=2))
        L = make_twist(S.algebra, S.tau)
        assert L.is_trivial()

    def test_scalar_twist(self):
        from padic_simpson.algebra import FinAlgebra

        B = FinAlgebra.field(C5)
        tau = (B.scalar_element(PadicScalar.from_int(C5, 5)),)
        L = make_twist(B, tau)
        assert L.units[0].coords[0] == exp_scalar(PadicScalar.from_int(C5, 5))

    def test_nilpotent_twist(self):
        from padic_simpson.algebra import FinAlgebra

        B = FinAlgebra.from_power_relation(C5, [0, 0])  # K[x]/(x^2)
        tau = (B.basis_element(1),)
        L = make_twist(B, tau)
        assert L.units[0] == B.unit() + B.basis_element(1)

    def test_twist_recovers_correspondence(self):
        for seed in range(4):
            H = gen_higgs(5, d=2, rank=3, seed=seed)
            S = spectral_algebra(H)
            L = make_twist(S.algebra, S.tau)
            assert twist_higgs(H, S, L) == higgs_to_rep(H)

    def test_nilpotent_fixture_twist(self):
        H = higgs(C5, NILP)
        S = spectral_algebra(H)
        V = twist_higgs(H, S, make_twist(S.algebra, S.tau))
        assert V.rho[0] == PadicMatrix.from_ints(C5, NILP_EXP)

    def test_algebra_mismatch(self):
        H1 = higgs(C5, NILP)
        H2 = higgs(C5, [[5, 0], [0, 0]])
        S1 = spectral_algebra(H1)
        S2 = spectral_algebra(H2)
        L2 = make_twist(S2.algebra, S2.tau)
        with pytest.raises(AlgebraMismatch):
            twist_higgs(H1, S1, L2)


class TestFunctoriality:
    def test_unit_object(self):
        H = gen_higgs(5, d=2, rank=2, seed=4)
        unit = HiggsModule.trivial(C5, 2, rank=1)
        assert tensor(H, unit).agrees(H, 30)

    def test_dual_involution(self):
        H = gen_higgs(5, d=2, rank=3, seed=5)
        assert dual(dual(H)) == H
        V = higgs_to_rep(H)
        assert dual(dual(V)).agrees(V, 28)

    def test_direct_sum_intertwined(self):
        for seed in range(4):
            a = gen_higgs(3, d=2, rank=2, seed=seed)
            b = gen_higgs(3, d=2, rank=3, seed=seed + 50)
            lhs = higgs_to_rep(direct_sum(a, b))
            rhs = direct_sum(higgs_to_rep(a), higgs_to_rep(b))
            assert lhs.agrees(rhs, 24)

    def test_tensor_intertwined(self):
        for seed in range(3):
            a = gen_higgs(5, d=2, rank=2, seed=seed)
            b = gen_higgs(5, d=2, rank=2, seed=seed + 60)
            lhs = higgs_to_rep(tensor(a, b))
            rhs = tensor(higgs_to_rep(a), higgs_to_rep(b))
            assert lhs.agrees(rhs, 24)

    def test_dual_intertwined(self):
        H = gen_higgs(5, d=2, rank=3, seed=8)
        lhs = higgs_to_rep(dual(H))
        rhs = dual(higgs_to_rep(H))
        assert lhs.agrees(rhs, 24)

    def test_dimension_mismatch(self):
        a = gen_higgs(5, d=2, rank=2, seed=1)
        b = gen_higgs(5, d=3, rank=2, seed=1)
        with pytest.raises(DimensionMismatch):
            direct_sum(a, b)

    def test_components_of_one_square_size(self):
        # a component of another size, a non-square one or one of rank 0
        # is refused where the module is made, before validation or
        # conversion
        two, three = PadicMatrix.zeros(C5, 2), PadicMatrix.zeros(C5, 3)
        wide, empty = PadicMatrix.zeros(C5, 1, 2), PadicMatrix.zeros(C5, 0)
        for cls in (HiggsModule, SmallRep):
            for mats in ([two, three], [three, two], [wide], [two, wide], [empty, empty]):
                with pytest.raises(DimensionMismatch):
                    cls.create(C5, mats)
            assert cls.create(C5, [two, two]).rank == 2


class TestEvaluate:
    def test_zero_exponents(self):
        V = gen_rep(5, d=2, rank=3, seed=2)
        a = [PadicScalar.zero(C5), PadicScalar.zero(C5)]
        assert evaluate_rep(V, a) == PadicMatrix.identity(C5, 3)

    def test_unit_exponent_gives_generator(self):
        V = gen_rep(5, d=2, rank=3, seed=3)
        a = [PadicScalar.from_int(C5, 1), PadicScalar.zero(C5)]
        assert evaluate_rep(V, a).agrees(V.rho[0], 28)

    def test_integer_exponents_match_powers(self):
        V = gen_rep(3, d=2, rank=2, seed=4)
        a = [PadicScalar.from_int(C3, 3), PadicScalar.from_int(C3, 2)]
        expected = (V.rho[0] ** 3) @ (V.rho[1] ** 2)
        assert evaluate_rep(V, a).agrees(expected, 26)

    def test_nilpotent_exact_formula(self):
        # rho = [[1, p],[0,1]], a = 1 + p + p^2: value [[1, p a],[0, 1]]
        V = rep(C5, NILP_EXP)
        aval = 1 + 5 + 25
        a = [PadicScalar.from_int(C5, aval)]
        expected = PadicMatrix.from_ints(C5, [[1, 5 * aval], [0, 1]])
        assert evaluate_rep(V, a).agrees(expected, 30)

    def test_homomorphism_in_exponent(self):
        V = gen_rep(5, d=2, rank=2, seed=6)
        a = [PadicScalar.from_int(C5, 7), PadicScalar.from_int(C5, 2)]
        b = [PadicScalar.from_int(C5, 3), PadicScalar.from_int(C5, 10)]
        ab = [x + y for x, y in zip(a, b)]
        lhs = evaluate_rep(V, ab)
        rhs = evaluate_rep(V, a) @ evaluate_rep(V, b)
        assert lhs.agrees(rhs, 26)

    def test_fractional_exponent_consistency(self):
        # exponents congruent mod p^6 give results congruent mod p^7 (and
        # here not more: the entry is exactly p * exponent)
        V = rep(C5, NILP_EXP)
        a1 = [PadicScalar.from_int(C5, 2)]
        a2 = [PadicScalar.from_int(C5, 2 + 5 ** 6)]
        m1 = evaluate_rep(V, a1)
        m2 = evaluate_rep(V, a2)
        assert m1.agrees(m2, 7)
        assert not m1.agrees(m2, 8)
