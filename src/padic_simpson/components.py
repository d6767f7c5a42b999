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

from .algebra import _FULL_CHECK_DIM, AlgElement, FinAlgebra, Morphism, quotient_by_ideal
from . import linalg
from ._series import mat_mul
from .errors import IntegralStructureFailure, PadicError, PrecisionExhausted
from .matrix import PadicMatrix
from .scalar import PadicScalar, power

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

    def frobenius(self):
        """Matrix of the F_p-linear map x -> x^p, columns = images of basis."""
        m = self.dim
        cols = [power([1 if t == i else 0 for t in range(m)], self.p, self.one, self.mul)
                for i in range(m)]
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
            mat = mat_mul(mat, frob, p)
        return _gf_kernel(mat, p)

    def primitive_idempotents(self):
        """Split along Frobenius-fixed elements: a fixed element generates a
        split etale subalgebra, so its Lagrange interpolants are exactly
        idempotent, and iterating splits down to the primitive ones.

        An associative reduction has at most dim orthogonal idempotents, so
        more than dim pieces mean the tensor mod p is not associative: its
        digits ran short, and the splitting would never end."""
        p, m = self.p, self.dim
        frob = self.frobenius()
        eye = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        fixed = _gf_kernel(
            [[(frob[i][j] - eye[i][j]) % p for j in range(m)] for i in range(m)], p
        )
        work = [self.one]
        out = []
        while work:
            if len(out) + len(work) > m:
                raise PrecisionExhausted(
                    "idempotent splitting mod %d passed %d pieces in dimension %d"
                    % (p, len(out) + len(work), m)
                )
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
            # the reduction of a closed order of an etale algebra is etale,
            # so its fixed elements split: the digits ran short
            raise PrecisionExhausted("fixed-element polynomial did not split")
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
    """Z_p-order inside an etale algebra S, held by a basis of AlgElements.

    The basis matrix is eliminated once, for its inverse and for the
    index valuation."""

    def __init__(self, S: FinAlgebra, basis):
        self.S = S
        self.basis = list(basis)
        m = S.dim
        elim = linalg.eliminate(linalg.transpose([b.row for b in self.basis]),
                                reduce_above=True)
        inverse = elim.inverse()
        if inverse is None:
            raise IntegralStructureFailure("lattice basis is singular to precision")
        self._inverse = PadicMatrix.stack(S.ctx, inverse, m)
        # val_p(det of the basis matrix): the unreduced elimination picks
        # the same pivots, and each pivot inverse has valuation -v(pivot)
        # (parts[0]).  A strictly smaller value means a strictly larger lattice.
        self.index_valuation = -sum(pinv[0] for _, _, pinv in elim.steps)

    def coords(self, xs):
        """Lattice coordinates of each element of xs, one Row each: the
        inverse basis matrix times the column of its S-coordinates."""
        cols = PadicMatrix.stack(self.S.ctx, linalg.transpose([x.row for x in xs]), len(xs))
        return (self._inverse @ cols).int_columns()

    def element(self, lat_coords) -> AlgElement:
        """The element with the integer lattice coordinates lat_coords."""
        out = self.S.zero()
        for c, b in zip(lat_coords, self.basis):
            if c:
                out = out + b * PadicScalar.from_int(self.S.ctx, c)
        return out

    def reduction(self) -> _FpAlgebra:
        p = self.S.ctx.p
        m = self.S.dim
        coords = self.coords([a * b for a in self.basis for b in self.basis] + [self.S.unit()])
        residues = [[_residue_mod_p(x, k) for k in range(m)] for x in coords]
        tensor = [residues[i * m:(i + 1) * m] for i in range(m)]
        return _FpAlgebra(tensor, residues[-1], p)


def _residue_mod_p(coords: linalg.Row, k: int) -> int:
    """The residue mod p of lattice coordinate k of the Row coords.  Every
    order reduced here is closed under multiplication by construction
    (_initial_order, _saturate), so a coordinate of negative valuation
    means the digits ran short."""
    v, u, prec, _ = coords.parts(k)
    if not u or v >= 1:
        return 0
    if v < 0:
        raise PrecisionExhausted(
            "lattice coordinate of valuation %d rests on %d digits" % (v, prec - v)
        )
    return u % coords.pw.p


def _initial_order(S: FinAlgebra) -> _Order:
    """Lattice with 1 as first basis vector, other directions scaled by one
    common p-power so the lattice is closed under multiplication."""
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
        J = _Order(S, _lattice_basis(S, j_gens))
        # x = sum z_i b_i / p lies in the multiplier iff for every generator
        # g of J the J-coordinates of x*g are integral, i.e. B z = 0 mod p
        prods = J.coords([b * g for g in J.basis for b in order.basis])
        cond = [[_residue_mod_p(prods[gi * m + z], coord) for z in range(m)]
                for gi in range(m) for coord in range(m)]
        kernel = _gf_kernel(cond, p)
        new_gens = list(order.basis) + [order.element(z) * p_inv for z in kernel]
        enlarged = _Order(S, _lattice_basis(S, new_gens))
        if enlarged.index_valuation == order.index_valuation:
            return order
        order = enlarged
    raise IntegralStructureFailure(
        "order saturation did not stabilise; supply idempotents explicitly"
    )


def _lattice_basis(S: FinAlgebra, gens):
    """A triangular basis of the lattice the elements gens span."""
    return [S.element(c) for c in linalg.triangular_lattice_rows([g.row for g in gens])]


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
    try:
        S, _, section = quotient_by_ideal(A, A._nilradical)
    except PadicError as exc:
        if type(exc) is not PadicError:
            raise
        # the nilradical is a proper ideal of A, so A/nil(A) is an algebra:
        # a quotient that fails a ring axiom, or the unit ideal, means the
        # digits ran short
        raise PrecisionExhausted(str(exc)) from exc
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


def connected_components(A: FinAlgebra, idems=None):
    """[Component] per primitive idempotent; supply idems explicitly to
    override the automatic search (the documented fallback).  A supplied
    idempotent that is zero to precision spans no component and is
    refused."""
    if idems is None:
        return list(A._components)
    for i, e in enumerate(idems):
        if e.is_zero_to_precision():
            raise PadicError("idempotent %d is zero to precision; it spans no component" % i)
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
    cols = [e * A.basis_element(i) for i in range(m)]
    elim = linalg.eliminate(linalg.transpose([c.row for c in cols]))
    chosen = sorted(j for (_, j) in elim.pivots)
    basis = [cols[j] for j in chosen]
    s = len(basis)
    # the basis as columns: m rows even when the basis is empty
    span = linalg.eliminate(PadicMatrix.stack(A.ctx, [b.row for b in basis], m).int_columns(),
                            reduce_above=True)

    def coords_of(x: AlgElement):
        sol = span.solve_row(x.row)
        if sol is None:
            raise PrecisionExhausted("element does not lie in the component span")
        return sol

    mul = [[coords_of(basis[i] * basis[j]) for j in range(s)] for i in range(s)]
    one = coords_of(e)
    comp = FinAlgebra.create(A.ctx, mul, one, validate=(s <= _FULL_CHECK_DIM),
                             exact_structure=False)
    proj = Morphism.create(
        A, comp, [comp.element(coords_of(e * A.basis_element(i))) for i in range(m)],
        validate=False,
    )
    embed = Morphism(comp, A, tuple(basis))  # linear (non-unital) embedding
    return Component(e, comp, proj, embed)
