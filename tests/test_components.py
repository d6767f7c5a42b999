"""The components layer pinned on a grid: primitive idempotents and
connected components of exact power-relation algebras and of spectral
algebras, for p in {2, 3, 5, 7} and N in {8, 12, 20, 32}.

The digests below were recorded before the lattice search (_Order) kept
one factorisation of its basis and folded coordinates as matrix products;
every coordinate's (v, u, prec, ctx) and every refusal (exception type and
message) must stay as it was.
"""

import hashlib

import pytest

from padic_simpson.algebra import FinAlgebra
from padic_simpson.components import connected_components, idempotents
from padic_simpson.context import PrimeContext
from padic_simpson.errors import PadicError
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


# (3, 8) holds the refusal of spectral_algebra(gen_higgs(3, 2, 6, 0.6, 5,
# precision=8)) as a PrecisionExhausted, "structure constants not
# associative at (4,4)"; with that record typed PadicError, as the refusal
# was raised before, the entry read "490911d9796dfee8"
COMPONENTS_GRID = {
    (2, 8): "fd121051b3161840", (2, 12): "cd7403c6b2677110",
    (2, 20): "f23e8d6a005cd704", (2, 32): "b26531e70b5bac8d",
    (3, 8): "95c9a5bbea20ed73", (3, 12): "886abf2f85674cd8",
    (3, 20): "deabc21a31c80e8b", (3, 32): "17e71dcc6d4cf953",
    (5, 8): "5229b9820728b851", (5, 12): "5dca42a7dc4d7026",
    (5, 20): "e6df5f944e34478c", (5, 32): "ce68047fcb6fb450",
    (7, 8): "35175194b7cffa42", (7, 12): "a083845294446f2d",
    (7, 20): "1daad72ac96cf34a", (7, 32): "8d005d53683e1834",
}


@pytest.mark.parametrize("p, n", sorted(COMPONENTS_GRID))
def test_components_grid_pinned(p, n):
    assert components_grid_digest(p, n) == COMPONENTS_GRID[p, n]
