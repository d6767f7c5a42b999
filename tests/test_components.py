"""The components layer pinned on a grid: primitive idempotents and
connected components of exact power-relation algebras and of spectral
algebras, for p in {2, 3, 5, 7} and N in {8, 12, 20, 32}.

The digests below were re-recorded when the spectral tensor came to be
read off the multiplication matrices of the theta_i; CHANGES.md lists
each record that moved.  Every coordinate's (v, u, prec, ctx) and every
refusal (exception type and message) must stay as it is.

Below the grid, component_quotient and the basis of _initial_order are
checked against frozen copies of the code they replaced (two
eliminations, and one rank per candidate), with the eliminations and
rank calls they make counted.
"""

import functools
import hashlib
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from padic_simpson import components, linalg
from padic_simpson.algebra import FinAlgebra, Morphism, quotient_by_ideal
from padic_simpson.components import (
    Component,
    _initial_order,
    _Order,
    component_quotient,
    connected_components,
    idempotents,
)
from padic_simpson.context import PrimeContext
from padic_simpson.errors import (
    DivisionByZeroToPrecision,
    IntegralStructureFailure,
    PadicError,
    PrecisionExhausted,
)
from padic_simpson.generate import gen_higgs
from padic_simpson.higgs import spectral_algebra
from padic_simpson.matrix import PadicMatrix
from padic_simpson.scalar import PadicScalar

# a quadratic non-residue mod p (for p = 2, 5 is a non-square unit of Q_2)
NON_SQUARE = {2: 5, 3: 2, 5: 2, 7: 3}

# gen_higgs (d, rank, density, seed) whose spectral algebras are searched
SPECTRAL_INSTANCES = ((1, 3, 0.6, 0), (2, 3, 0.6, 1), (2, 4, 0.5, 2), (3, 6, 0.5, 4),
                      (2, 6, 0.6, 5))


def relations(p):
    """x^s = sum rel[i] x^i: split (x^2 - x, x^2 - 4, x^2 - p^2, x^3 - x,
    x^2 - 1 - p), ramified (x^2 - p, x^2 - p x), non-square (x^2 - c),
    close eigenvalues (x^2 - p^4) and nilpotent parts (x^2 (x - 1),
    x^3 (x - 1))."""
    return ([0, 1], [4, 0], [p * p, 0], [0, 1, 0], [1 + p, 0], [p, 0], [0, p],
            [NON_SQUARE[p], 0], [p ** 4, 0], [0, 0, 1], [0, 0, 0, 1])


def ledger(scalars):
    return [(c.v, c.u, c.prec, c.ctx) for c in scalars]


def components_record(make_algebra):
    """The idempotents, then per component its tensor, unit and the
    images of the projection; a refusal, of the algebra's construction
    too, as (type, message)."""
    try:
        A = make_algebra()
        record = [ledger(e.coords) for e in idempotents(A)]
        for comp in connected_components(A):
            B = comp.algebra
            record.append([ledger(row) for plane in B.mul for row in plane])
            record.append(ledger(B.one))
            record.append([ledger(img.coords) for img in comp.project.images])
    except PadicError as exc:
        return (type(exc).__name__, str(exc))
    return record


def components_grid_digest(p, n):
    ctx = PrimeContext(p, n)
    makers = [lambda rel=rel: FinAlgebra.from_power_relation(ctx, rel) for rel in relations(p)]
    makers += [lambda args=args: spectral_algebra(gen_higgs(p, *args, precision=n)).algebra
               for args in SPECTRAL_INSTANCES]
    digest = hashlib.sha256()
    for make_algebra in makers:
        digest.update(repr(components_record(make_algebra)).encode())
    return digest.hexdigest()[:16]


# re-recorded when spectral_algebra came to read its tensor off the
# multiplication matrices L_i: 52 records moved, every one a spectral
# algebra's (CHANGES.md lists them).  (3, 8) was re-recorded when a lattice
# coordinate of negative valuation came to be a precision shortfall: at
# N = 8, spectral_algebra(gen_higgs(3, 2, 6, 0.6, 5)) is refused with
# PrecisionExhausted on a coordinate of valuation -1 known to 4 digits,
# where it was an IntegralStructureFailure, and passes at N = 32.  Six
# were re-recorded when spectral_algebra came to read its L_i off the
# closure's own reductions: (3, 8), (3, 32) and (5, *), the records of
# gen_higgs(p, 2, 6, 0.6, 5) and gen_higgs(5, 2, 3, 0.6, 1) alone; at
# (3, 8) the refusal's coordinate rests on 5 digits where it rested on 4
COMPONENTS_GRID = {
    (2, 8): "60fe684d081a0bbd", (2, 12): "31ef4e5051ebb444",
    (2, 20): "f4f2941daa1f3229", (2, 32): "06373478b71dd45c",
    (3, 8): "69a73fe78ff54b3e", (3, 12): "dbf65546d2abfbe5",
    (3, 20): "9bc2c4cdcb1be20c", (3, 32): "a64e239f88f22a85",
    (5, 8): "810cf5ab439d5dbc", (5, 12): "2f963c348dc68cb3",
    (5, 20): "c61e0db8400fa4e2", (5, 32): "7b72b1dc3a63a0cb",
    (7, 8): "22e4a8c73b1c764a", (7, 12): "1c9e1df994419ff5",
    (7, 20): "8433e64385b10cb6", (7, 32): "ca6243477e6c1345",
}


@pytest.mark.parametrize("p, n", sorted(COMPONENTS_GRID))
def test_components_grid_pinned(p, n):
    assert components_grid_digest(p, n) == COMPONENTS_GRID[p, n]


# gen_higgs (p, d, rank, density, seed) whose components search runs out of
# digits at N = 8 and succeeds at N = 32
SHORTFALLS = [
    (3, 1, 6, 0.6, 3),  # a lattice coordinate of valuation -1 known to 1 digit
    (5, 3, 6, 0.6, 1),  # the same
    (5, 1, 6, 0.6, 2),  # A / nil(A) fails associativity
    (7, 3, 6, 0.6, 3),  # the reduction mod 7 is not associative
]


@pytest.mark.parametrize("args", SHORTFALLS, ids=[str(a) for a in SHORTFALLS])
def test_shortfall_is_precision_exhausted(args):
    A = spectral_algebra(gen_higgs(*args, precision=8)).algebra
    start = time.perf_counter()
    with pytest.raises(PrecisionExhausted):
        connected_components(A)
    assert time.perf_counter() - start < 1.0
    assert connected_components(spectral_algebra(gen_higgs(*args, precision=32)).algebra)


def test_splitting_mod_p_is_bounded_by_the_dimension():
    # at N = 8 this order's reduction mod 7 has non-associative triples,
    # and splitting along Frobenius-fixed elements never ran out of pieces
    A = spectral_algebra(gen_higgs(7, 3, 6, 0.6, 3, precision=8)).algebra
    with pytest.raises(PrecisionExhausted, match="splitting mod 7 passed 5 pieces"):
        idempotents(A)


def _components_of(p, d, n, seed, precision):
    return connected_components(
        spectral_algebra(gen_higgs(p, d, n, 0.6, seed, precision=precision)).algebra)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_refusals_of_a_shortfall_name_it(p):
    # every refusal at N = 8 of an instance that passes at N = 32 is a
    # precision shortfall, so it must say so (and exit 4 from the CLI),
    # never blame the input; and the search refuses fast
    for d in (1, 2, 3):
        for n in (3, 4, 5, 6):
            for seed in range(6):
                start = time.perf_counter()
                try:
                    _components_of(p, d, n, seed, 8)
                except (PrecisionExhausted, DivisionByZeroToPrecision):
                    pass
                except PadicError as exc:
                    try:
                        _components_of(p, d, n, seed, 32)
                    except PadicError:
                        continue  # a structural refusal at both precisions
                    pytest.fail("%s at N = 8 on %r, which passes at N = 32: %s"
                                % (type(exc).__name__, (p, d, n, 0.6, seed), exc))
                assert time.perf_counter() - start < 1.0, (p, d, n, seed)


def test_zero_idempotent_supplied_is_refused():
    # a caller idempotent that vanishes to precision spans no component:
    # refused by name, before the component quotient is built, also when
    # it follows a valid one; a nonzero one is still taken
    A = FinAlgebra.from_power_relation(PrimeContext(5, 12), [0, 1])
    e = A.basis_element(1)
    for idems, index in (([A.zero()], 0), ([e, A.zero()], 1),
                         ([A.element([c.reduce(0) for c in e.coords])], 0)):
        with pytest.raises(PadicError, match="idempotent %d is zero to precision" % index):
            connected_components(A, idems)
    (comp,) = connected_components(A, [e])
    assert comp.algebra.dim == 1


def test_zero_idempotent_is_refused_by_component_quotient():
    # called directly, a zero idempotent is refused once the one
    # elimination of the e*b_i finds no pivot, before any quotient is
    # built; one that vanishes on no digit is a rank decided on no evidence
    A = FinAlgebra.from_power_relation(PrimeContext(5, 12), [0, 1])
    with pytest.raises(PadicError, match="idempotent spans no component"):
        component_quotient(A, A.zero())
    with pytest.raises(PrecisionExhausted, match="rests on a value vanishing only mod p"):
        component_quotient(A, A.element([c.reduce(0) for c in A.basis_element(1).coords]))


# -- one elimination per component, one span per order ------------------


def counted(monkeypatch, module, name):
    """Record the first argument of every call of module.name."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_component_quotient_eliminates_once(monkeypatch):
    # a split algebra of dim 3 and each of its primitive idempotents: the
    # columns e*b_i are eliminated once, and every coordinate is solved on
    # that elimination
    A = FinAlgebra.from_power_relation(PrimeContext(5, 20), [0, 1, 0])
    idems = idempotents(A)
    calls = counted(monkeypatch, linalg, "eliminate")
    for e in idems:
        calls.clear()
        comp = component_quotient(A, e)
        assert comp.algebra.dim == 1 and len(calls) == 1


def test_initial_order_makes_no_rank_call(monkeypatch):
    # the basis of the first order is completed on one span: no
    # rank_with_margin, one Span.add for 1 and one per basis element
    # tried, e_0 = 1 among them
    S = FinAlgebra.from_power_relation(PrimeContext(3, 20), [0, 1, 0])
    ranks = counted(monkeypatch, linalg, "rank_with_margin")
    adds = counted(monkeypatch, linalg.Span, "add")
    order = _initial_order(S)
    assert len(order.basis) == 3 and ranks == [] and len(adds) == 4


# -- differentials against the code they replace -------------------------


def ref_component_quotient(A, e):
    """component_quotient as it stood: the e*b_i eliminated unreduced to
    choose the basis, then the basis columns eliminated again, reduced, to
    solve on."""
    m = A.dim
    cols = [e * A.basis_element(i) for i in range(m)]
    elim = linalg.eliminate(linalg.transpose([c.row for c in cols]))
    chosen = sorted(j for (_, j) in elim.pivots)
    basis = [cols[j] for j in chosen]
    s = len(basis)
    span = linalg.eliminate(PadicMatrix.stack(A.ctx, [b.row for b in basis], m).int_columns(),
                            reduce_above=True)

    def coords_of(x):
        sol = span.solve_row(x.row)
        if sol is None:
            raise PrecisionExhausted("element does not lie in the component span")
        return sol

    mul = [[coords_of(basis[i] * basis[j]) for j in range(s)] for i in range(s)]
    one = coords_of(e)
    comp = FinAlgebra.create(A.ctx, mul, one, validate=(s <= components._FULL_CHECK_DIM),
                             exact_structure=False)
    proj = Morphism.create(
        A, comp, [comp.element(coords_of(e * A.basis_element(i))) for i in range(m)],
        validate=False,
    )
    return Component(e, comp, proj, Morphism(comp, A, tuple(basis)))


def ref_initial_order(S):
    """_initial_order as it stood: one rank_with_margin per candidate."""
    m = S.dim
    chosen = [S.unit()]
    for i in range(m):
        cand = S.basis_element(i)
        if linalg.rank_with_margin([x.row for x in chosen] + [cand.row])[0] > len(chosen):
            chosen.append(cand)
        if len(chosen) == m:
            break
    if len(chosen) < m:
        raise IntegralStructureFailure("basis completion failed to precision")
    probe = _Order(S, chosen)
    worst = 0
    for x in probe.coords([chosen[i] * chosen[j] for i in range(m) for j in range(i + 1)]):
        v = x.min_valuation()
        if v is not None and v < worst:
            worst = v
    if worst < 0:
        scale = PadicScalar.from_int(S.ctx, S.ctx.p ** (-worst))
        chosen = [chosen[0]] + [b * scale for b in chosen[1:]]
        return _Order(S, chosen)
    return probe


def component_record(quotient, A, e):
    """The component's tensor, unit, projection and embedding images, or
    the refusal."""
    try:
        comp = quotient(A, e)
    except PadicError as exc:
        return type(exc).__name__, str(exc)
    B = comp.algebra
    return ([ledger(B.tensor.scalars()), ledger(B.one.scalars())]
            + [ledger(x.coords) for x in comp.project.images + comp.embed.images])


def order_record(make_order, S):
    try:
        order = make_order(S)
    except PadicError as exc:
        return type(exc).__name__, str(exc)
    return [ledger(b.coords) for b in order.basis] + [order.index_valuation]


@functools.lru_cache(maxsize=None)
def pool_algebra(p, kind, N):
    """A power-relation algebra (kind an index into relations(p)) or a
    spectral algebra (kind - len(relations(p)) an index into
    SPECTRAL_INSTANCES) at N digits."""
    ctx = PrimeContext(p, N)
    rels = relations(p)
    if kind < len(rels):
        return FinAlgebra.from_power_relation(ctx, rels[kind])
    return spectral_algebra(gen_higgs(p, *SPECTRAL_INSTANCES[kind - len(rels)],
                                      precision=N)).algebra


@st.composite
def pool_algebras(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kind = draw(st.integers(0, len(relations(p)) + len(SPECTRAL_INSTANCES) - 1))
    return pool_algebra(p, kind, draw(st.sampled_from([8, 12, 20, 32])))


@st.composite
def elements(draw, A):
    """Coordinates p^v u at valuations from -2 up, zero markers, and
    precisions from 1 to N."""
    ctx = A.ctx
    p, N = ctx.p, ctx.default_precision
    coords = []
    for _ in range(A.dim):
        prec = draw(st.sampled_from([N, draw(st.integers(1, N))]))
        if draw(st.integers(0, 3)) == 0:
            coords.append(PadicScalar.zero(ctx, prec))
            continue
        v = draw(st.integers(-2, min(3, prec - 1)))
        u = draw(st.integers(1, p ** 4))
        coords.append(PadicScalar.from_val_unit(ctx, v, u * p + draw(st.integers(1, p - 1)))
                      .reduce(prec))
    return A.element(coords)


@st.composite
def idempotent_candidates(draw):
    """An algebra of the pool and an element of it: a sum of some of its
    primitive idempotents (one, all, or none), cut to fewer digits half
    the time, or a drawn element; and whether the quotient's tensor is
    validated (else _FULL_CHECK_DIM is 0 for both sides)."""
    A = draw(pool_algebras())
    try:
        idems = idempotents(A)
    except PadicError:
        idems = []
    if idems and draw(st.booleans()):
        picked = draw(st.lists(st.sampled_from(idems), unique_by=id, max_size=len(idems)))
        e = A.zero()
        for x in picked:
            e = e + x
        if draw(st.booleans()):
            e = A.element([c.reduce(draw(st.integers(1, A.ctx.default_precision)))
                           for c in e.coords])
    else:
        e = draw(elements(A))
    return A, e, draw(st.booleans())


DIFF_SETTINGS = settings(max_examples=200, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


@DIFF_SETTINGS
@given(idempotent_candidates())
def test_component_quotient_matches_two_eliminations(case):
    A, e, validated = case
    with pytest.MonkeyPatch.context() as mp:
        if not validated:
            mp.setattr(components, "_FULL_CHECK_DIM", 0)
        try:
            want = component_record(ref_component_quotient, A, e)
        except AttributeError:
            # the old code crashed on an element that spans no column
            with pytest.raises(PadicError, match="idempotent spans no component"):
                component_quotient(A, e)
            return
        assert component_record(component_quotient, A, e) == want


@st.composite
def etale_quotients(draw):
    """The quotient by its nilradical of an algebra of the pool, of dim 2
    or more: where _initial_order runs."""
    A = draw(pool_algebras())
    try:
        S = quotient_by_ideal(A, A._nilradical)[0]
    except PadicError:
        S = A
    assume(S.dim >= 2)
    return S


@st.composite
def drawn_algebras(draw):
    """An unvalidated algebra of dim 2 or more with drawn constants and a
    drawn unit, whose digits may be thin."""
    A = draw(pool_algebras())
    assume(A.dim >= 2)
    m = A.dim
    mul = [[draw(elements(A)).coords for _ in range(m)] for _ in range(m)]
    return FinAlgebra.create(A.ctx, mul, draw(elements(A)).coords, validate=False,
                             exact_structure=False)


@DIFF_SETTINGS
@given(etale_quotients())
def test_initial_order_matches_rank_per_candidate(S):
    assert order_record(_initial_order, S) == order_record(ref_initial_order, S)


@DIFF_SETTINGS
@given(drawn_algebras())
def test_initial_order_parts_from_the_rank_only_by_refusing(S):
    # the span pivots on 1 first, the rank per candidate on the least
    # valuation among 1 and the candidate; on a unit with thin digits the
    # span's ledger can fall below the margin where the rank's did not.
    # Where the two part, the span refuses for precision: it never
    # decides another basis
    new, old = order_record(_initial_order, S), order_record(ref_initial_order, S)
    if new != old:
        assert new[0] == "PrecisionExhausted", (new, old)


def test_initial_order_refuses_a_unit_too_thin_for_its_pivot():
    # 1 = [7^3, O(7^6)]: the span pivots on 7^3, so e_0 = [1, O(7^20)]
    # leaves O(7^3) at entry 1 and is refused; the rank of [1; e_0] pivots
    # on e_0's 1 and leaves 1 with O(7^6), which it decides
    ctx = PrimeContext(7, 20)
    zero = PadicScalar.zero(ctx)
    one = [PadicScalar.from_val_unit(ctx, 3, 1), PadicScalar.zero(ctx, 6)]
    S = FinAlgebra.create(ctx, [[[zero, zero]] * 2] * 2, one, validate=False,
                          exact_structure=False)
    assert order_record(_initial_order, S) == (
        "PrecisionExhausted", "span dependence decided on 3 digits (< 4)")
    assert order_record(ref_initial_order, S)[0] != "PrecisionExhausted"
