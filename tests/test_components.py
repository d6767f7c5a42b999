"""The components layer pinned on a grid: primitive idempotents and
connected components of exact power-relation algebras and of spectral
algebras, for p in {2, 3, 5, 7} and N in {8, 12, 20, 32}.

The digests below were re-recorded when every product-like sum of the
algebra layer came to count every term, zero markers included (element
products, the trace-form Gram matrix, validation's reading of e_i * e_j
and spectral embeddings); CHANGES.md lists each record that moved.  Every
coordinate's (v, u, prec, ctx) and every refusal (exception type and
message) must stay as it is.
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


# at N = 8, the component quotients of spectral_algebra(gen_higgs(2, 2, 4,
# 0.5, 2)) and of spectral_algebra(gen_higgs(3, 2, 3, 0.6, 1)) are refused
# as PrecisionExhausted: a product of their basis lies in the span on 2
# (and 3) digits only
COMPONENTS_GRID = {
    (2, 8): "1b3d715200dce4f4", (2, 12): "67079cac127f7e75",
    (2, 20): "00c4aa642cd856bc", (2, 32): "827dca8bd4f86a51",
    (3, 8): "44706834e3f8f732", (3, 12): "489855c0c3a60c57",
    (3, 20): "f6d08afd4a5a546e", (3, 32): "45bb2052bf31bfe9",
    (5, 8): "d4c9ad746c023dac", (5, 12): "066ab0037c3b9d4a",
    (5, 20): "aa137c149d8a4fe9", (5, 32): "c448e680b28f9899",
    (7, 8): "4881b96e752ea1ad", (7, 12): "116868e78fa0143b",
    (7, 20): "b7d7f2387def7a2d", (7, 32): "0d171420e7e02ed7",
}


@pytest.mark.parametrize("p, n", sorted(COMPONENTS_GRID))
def test_components_grid_pinned(p, n):
    assert components_grid_digest(p, n) == COMPONENTS_GRID[p, n]
