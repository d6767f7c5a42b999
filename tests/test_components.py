"""The components layer pinned on a grid: primitive idempotents and
connected components of exact power-relation algebras and of spectral
algebras, for p in {2, 3, 5, 7} and N in {8, 12, 20, 32}.

The digests below were re-recorded when the spectral tensor came to be
read off the multiplication matrices of the theta_i; CHANGES.md lists
each record that moved.  Every coordinate's (v, u, prec, ctx) and every
refusal (exception type and message) must stay as it is.
"""

import hashlib
import time

import pytest

from padic_simpson.algebra import FinAlgebra
from padic_simpson.components import connected_components, idempotents
from padic_simpson.context import PrimeContext
from padic_simpson.errors import DivisionByZeroToPrecision, PadicError, PrecisionExhausted
from padic_simpson.generate import gen_higgs
from padic_simpson.higgs import spectral_algebra

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
