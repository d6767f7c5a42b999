"""Primitive idempotents (connected components) of a finite-dimensional
commutative Q_p-algebra.

Strategy: pass to the etale quotient A/nil, build an order there, saturate
it at p (replace the order by the multiplier ring of its p-radical until
stable, i.e. maximal at p), split the reduction mod p along Frobenius-fixed
elements, and Newton-lift e <- 3e^2 - 2e^3 back to the working precision.
On a maximal order of an etale algebra the mod-p primitive idempotents
biject with the connected components, so the saturation step is what makes
the answer primitive rather than merely idempotent: e.g. Z_p[t]/(t^2 - p t)
reduces to a local algebra, yet Q_p[t]/(t^2 - p t) = Q_p x Q_p splits after
one multiplier-ring step adjoins t/p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgElement, FinAlgebra, Morphism, quotient_by_ideal
from . import linalg
from .errors import IntegralStructureFailure, PrecisionExhausted
from .scalar import PadicScalar

_SATURATION_ROUNDS = 64


# -- GF(p) helpers (plain int matrices) --------------------------------------


def _gf_rref(rows, p):
    work = [[x % p for x in r] for r in rows]
    nr = len(work)
    nc = len(work[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(nr):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return work, pivots


def _gf_rank(rows, p):
    return len(_gf_rref(rows, p)[1]) if rows else 0


def _gf_kernel(rows, p):
    if not rows:
        return []
    nc = len(rows[0])
    work, pivots = _gf_rref(rows, p)
    pivot_of = {c: i for i, c in enumerate(pivots)}
    out = []
    for f in range(nc):
        if f in pivot_of:
            continue
        vec = [0] * nc
        vec[f] = 1
        for c, i in pivot_of.items():
            vec[c] = (-work[i][f]) % p
        out.append(vec)
    return out


class _FpAlgebra:
    """L/pL for an order L: multiplication tensor and unit mod p."""

    def __init__(self, tensor, one, p):
        self.tensor = tensor
        self.one = one
        self.p = p
        self.dim = len(one)

    def mul(self, a, b):
        p, m = self.p, self.dim
        out = [0] * m
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj == 0:
                    continue
                f = (ai * bj) % p
                row = self.tensor[i][j]
                for k in range(m):
                    out[k] = (out[k] + f * row[k]) % p
        return out

    def power(self, a, e):
        acc = self.one
        sq = a
        while e:
            if e & 1:
                acc = self.mul(acc, sq)
            sq = self.mul(sq, sq)
            e >>= 1
        return acc

    def frobenius(self):
        """Matrix of the F_p-linear map x -> x^p, columns = images of basis."""
        m = self.dim
        cols = [self.power([1 if t == i else 0 for t in range(m)], self.p) for i in range(m)]
        return [[cols[j][i] for j in range(m)] for i in range(m)]

    def radical(self):
        """Nilradical = kernel of a high Frobenius power (F_p-linear)."""
        m, p = self.dim, self.p
        frob = self.frobenius()
        s = 1
        power = p
        while power < m:
            power *= p
            s += 1
        mat = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        for _ in range(s):
            mat = [
                [sum(mat[i][t] * frob[t][j] for t in range(m)) % p for j in range(m)]
                for i in range(m)
            ]
        return _gf_kernel(mat, p)

    def primitive_idempotents(self):
        """Split along Frobenius-fixed elements: a fixed element generates a
        split etale subalgebra, so its Lagrange interpolants are exactly
        idempotent, and iterating splits down to the primitive ones."""
        p, m = self.p, self.dim
        frob = self.frobenius()
        eye = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        fixed = _gf_kernel(
            [[(frob[i][j] - eye[i][j]) % p for j in range(m)] for i in range(m)], p
        )
        work = [self.one]
        out = []
        while work:
            E = work.pop()
            efix = [self.mul(E, f) for f in fixed]
            span = [v for v in efix if any(v)]
            if _gf_rank(span, p) <= 1:
                out.append(E)
                continue
            split = next(a for a in efix if _gf_rank([E, a], p) == 2)
            roots = self._split_roots(split, E)
            for lam in roots:
                e = E
                for mu in roots:
                    if mu == lam:
                        continue
                    inv = pow((lam - mu) % p, -1, p)
                    factor = [((x - mu * y) * inv) % p for x, y in zip(split, E)]
                    e = self.mul(e, factor)
                work.append(e)
        return out

    def _split_roots(self, a, E):
        """Roots of the minimal polynomial of a over F_p relative to the
        unit E; splits into distinct linear factors for fixed elements."""
        p, m = self.p, self.dim
        powers = [E]
        cur = E
        coeffs = None
        for _ in range(m + 1):
            cur = self.mul(cur, a)
            if _gf_rank(powers + [cur], p) == _gf_rank(powers, p):
                coeffs = _gf_solve_dependency(powers, cur, p)
                break
            powers.append(cur)
        if coeffs is None:
            raise IntegralStructureFailure("minimal polynomial mod p not found")
        deg = len(coeffs)
        roots = [
            lam
            for lam in range(p)
            if (pow(lam, deg, p) - sum(c * pow(lam, i, p) for i, c in enumerate(coeffs))) % p == 0
        ]
        if len(roots) != deg:
            raise IntegralStructureFailure(
                "fixed-element polynomial did not split; order not maximal"
            )
        return roots


def _gf_solve_dependency(powers, target, p):
    m = len(target)
    ncols = len(powers)
    aug = [[powers[k][i] for k in range(ncols)] + [target[i]] for i in range(m)]
    work, pivots = _gf_rref(aug, p)
    sol = [0] * ncols
    for i, c in enumerate(pivots):
        if c == ncols:
            raise IntegralStructureFailure("inconsistent dependency solve mod p")
        sol[c] = work[i][ncols]
    return sol


# -- orders (Z_p-lattices closed under multiplication) ------------------------


class _Order:
    """Z_p-order inside an etale algebra S, held by a basis of AlgElements."""

    def __init__(self, S: FinAlgebra, basis):
        self.S = S
        self.basis = list(basis)
        mat = [[b.coords[i] for b in self.basis] for i in range(S.dim)]
        inv = linalg.invert(mat)
        if inv is None:
            raise IntegralStructureFailure("lattice basis is singular to precision")
        self._inv_rows = inv

    def coords(self, x: AlgElement):
        return [_dot(row, x.coords) for row in self._inv_rows]

    def element(self, lat_coords) -> AlgElement:
        out = self.S.zero()
        for c, b in zip(lat_coords, self.basis):
            if isinstance(c, int):
                c = PadicScalar.from_int(self.S.ctx, c)
            if not c.is_zero:
                out = out + b * c
        return out

    def reduction(self) -> _FpAlgebra:
        p = self.S.ctx.p
        m = self.S.dim
        tensor = [
            [[_residue_mod_p(c, p) for c in self.coords(self.basis[i] * self.basis[j])]
             for j in range(m)]
            for i in range(m)
        ]
        one = [_residue_mod_p(c, p) for c in self.coords(self.S.unit())]
        return _FpAlgebra(tensor, one, p)

    def index_valuation(self) -> int:
        """val_p(det of the basis matrix), up to a shared normalisation; a
        strictly smaller value means a strictly larger lattice."""
        mat = [[b.coords[i] for b in self.basis] for i in range(self.S.dim)]
        e = linalg.eliminate(mat)
        return sum(e.rows[i][j].v for (i, j) in e.pivots)


def _dot(row, coords):
    acc = None
    for a, b in zip(row, coords):
        t = a * b
        acc = t if acc is None else acc + t
    return acc


def _residue_mod_p(c: PadicScalar, p: int) -> int:
    if c.is_zero or c.v >= 1:
        return 0
    if c.v < 0:
        raise IntegralStructureFailure(
            "order is not multiplicatively closed (coordinate valuation %d)" % c.v
        )
    return c.residue(1)


def _initial_order(S: FinAlgebra) -> _Order:
    """Lattice with 1 as first basis vector, other directions scaled by one
    common p-power so the lattice is closed under multiplication."""
    m = S.dim
    chosen = [S.unit()]
    for i in range(m):
        cand = S.basis_element(i)
        rows_now = [list(x.coords) for x in chosen]
        if linalg.rank_with_margin(rows_now + [list(cand.coords)])[0] > len(chosen):
            chosen.append(cand)
        if len(chosen) == m:
            break
    if len(chosen) < m:
        raise IntegralStructureFailure("basis completion failed to precision")
    probe = _Order(S, chosen)
    worst = 0
    for i in range(m):
        for j in range(i + 1):
            for c in probe.coords(chosen[i] * chosen[j]):
                if not c.is_zero and c.v < worst:
                    worst = c.v
    if worst < 0:
        scale = PadicScalar.from_int(S.ctx, S.ctx.p ** (-worst))
        chosen = [chosen[0]] + [b * scale for b in chosen[1:]]
        return _Order(S, chosen)
    return probe


def _saturate(order: _Order) -> _Order:
    """Pohst-Zassenhaus style p-saturation: replace L by the multiplier ring
    of the pullback J of the radical of L/pL, until stable; the stable
    lattice is maximal at p."""
    S = order.S
    p = S.ctx.p
    m = S.dim
    p_inv = PadicScalar.from_val_unit(S.ctx, -1, 1)
    p_scalar = PadicScalar.from_int(S.ctx, p)
    for _ in range(_SATURATION_ROUNDS):
        rad = order.reduction().radical()
        j_gens = [order.element(v) for v in rad] + [b * p_scalar for b in order.basis]
        J = _Order(S, _triangular_lattice_basis(S, j_gens))
        # x = sum z_i b_i / p lies in the multiplier iff for every generator
        # g of J the J-coordinates of x*g are integral, i.e. B z = 0 mod p
        cond = []
        prods = [[J.coords(b * g) for b in order.basis] for g in J.basis]
        for gi in range(m):
            for coord in range(m):
                cond.append([_residue_mod_p(prods[gi][z][coord], p) for z in range(m)])
        kernel = _gf_kernel(cond, p)
        new_gens = list(order.basis) + [order.element(z) * p_inv for z in kernel]
        enlarged = _Order(S, _triangular_lattice_basis(S, new_gens))
        if enlarged.index_valuation() == order.index_valuation():
            return order
        order = enlarged
    raise IntegralStructureFailure(
        "order saturation did not stabilise; supply idempotents explicitly"
    )


def _triangular_lattice_basis(S: FinAlgebra, gens):
    """Hermite-style column reduction of a generating set to a triangular
    lattice basis, using only unimodular operations over Z_p (scaling by
    units, subtracting p-power multiples)."""
    m = S.dim
    cols = [list(g.coords) for g in gens]
    out = []
    for row in range(m):
        best = None
        for ci, col in enumerate(cols):
            e = col[row]
            if e.is_zero:
                continue
            if best is None or e.v < cols[best][row].v:
                best = ci
        if best is None:
            raise IntegralStructureFailure("lattice generators do not span")
        col = cols.pop(best)
        pivot = col[row]
        unit_inv = PadicScalar(S.ctx, 0, pivot.u, pivot.prec - pivot.v).inv()
        col = [x * unit_inv for x in col]  # pivot becomes the pure power p^v
        for other in cols:
            e = other[row]
            if e.is_zero:
                continue
            f = e * col[row].inv()  # integral since the pivot has minimal valuation
            for k in range(m):
                other[k] = other[k] - f * col[k]
        out.append(col)
    return [S.element(c) for c in out]


# -- public entry points ------------------------------------------------------


def idempotents(A: FinAlgebra):
    """The primitive idempotents of A, pairwise orthogonal, summing to 1.

    Raises IntegralStructureFailure when no usable integral structure
    stabilises; connected_components then accepts caller-supplied
    idempotents as the documented fallback."""
    return list(A._idempotents)


def _primitive_idempotents(A: FinAlgebra):
    if A.dim == 1:
        return [A.unit()]
    S, _, section = quotient_by_ideal(A, A._nilradical)
    if S.dim == 1:
        return [A.unit()]
    order = _saturate(_initial_order(S))
    fp_idems = order.reduction().primitive_idempotents()
    out = []
    for vec in fp_idems:
        e_s = _newton_lift(order.element(vec), S)
        e_a = _newton_lift(section.apply(e_s), A)
        out.append(e_a)
    out.sort(key=_sort_key)
    _check_complete(A, out)
    return out


def _newton_lift(e: AlgElement, A: FinAlgebra) -> AlgElement:
    """Quadratically convergent idempotent refinement e <- 3e^2 - 2e^3
    (division-free, so it works for every p including 2)."""
    three = PadicScalar.from_int(A.ctx, 3)
    two = PadicScalar.from_int(A.ctx, 2)
    cur = e
    for _ in range(A.ctx.default_precision.bit_length() + A.dim + 4):
        sq = cur * cur
        if (sq - cur).is_zero_to_precision():
            break
        cur = sq * three - sq * cur * two
    if not (cur * cur - cur).is_zero_to_precision():
        raise PrecisionExhausted("idempotent refinement did not converge")
    return cur


def _sort_key(e: AlgElement):
    return tuple(
        (1, 0, 0) if c.is_zero else (0, c.v, c.u % c.ctx.p ** min(8, c.prec - c.v))
        for c in e.coords
    )


def _check_complete(A: FinAlgebra, idems):
    total = A.zero()
    for i, e in enumerate(idems):
        if not (e * e) == e:
            raise PrecisionExhausted("lifted element is not idempotent to precision")
        total = total + e
        for f in idems[i + 1:]:
            if not (e * f).is_zero_to_precision():
                raise PrecisionExhausted("lifted idempotents are not orthogonal")
    if not total == A.unit():
        raise PrecisionExhausted("lifted idempotents do not sum to 1")


def is_connected(A: FinAlgebra) -> bool:
    return len(idempotents(A)) == 1


def connected_components(A: FinAlgebra, idems=None):
    """[Component] per primitive idempotent; supply idems explicitly to
    override the automatic search (the documented fallback)."""
    if idems is None:
        return list(A._components)
    return [component_quotient(A, e) for e in idems]


@dataclass(frozen=True, eq=False)
class Component:
    """A factor e*A: the idempotent, the factor as an abstract algebra, the
    projection morphism x -> e*x, and the linear embedding back into A."""

    idempotent: AlgElement
    algebra: FinAlgebra
    project: Morphism
    embed: Morphism


def component_quotient(A: FinAlgebra, e: AlgElement) -> Component:
    m = A.dim
    cols = [(e * A.basis_element(i)).coords for i in range(m)]
    rows = [[cols[j][i] for j in range(m)] for i in range(m)]
    elim = linalg.eliminate(rows)
    chosen = sorted(j for (_, j) in elim.pivots)
    basis = [A.element(cols[j]) for j in chosen]
    s = len(basis)
    basis_mat = [[b.coords[i] for b in basis] for i in range(m)]
    span = linalg.eliminate(basis_mat, reduce_above=True)

    def coords_of(x: AlgElement):
        sols = span.solve([list(x.coords)])
        if sols is None:
            raise PrecisionExhausted("element does not lie in the component span")
        return sols[0]

    mul = [[coords_of(basis[i] * basis[j]) for j in range(s)] for i in range(s)]
    one = coords_of(e)
    comp = FinAlgebra.create(A.ctx, mul, one, validate=(s <= 12), exact_structure=False)
    proj = Morphism.create(
        A, comp, [comp.element(coords_of(e * A.basis_element(i))) for i in range(m)],
        validate=False,
    )
    embed = Morphism(comp, A, tuple(basis))  # linear (non-unital) embedding
    return Component(e, comp, proj, embed)
