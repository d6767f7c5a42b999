"""The three benchmark workloads.

Each workload builds its inputs from the workload seed during set-up and
then offers a pool of items per pass.  run() is the timed operation and
calls only the library's public functions, always through module
attributes so that the traced run sees them.  extract() turns the output
into plain data (untimed, untraced), check() judges that data, and
corruptions() spoils it in ways check() must catch.

The grid p in {2, 3, 5, 7}, d in 1..3, rank n in 1..6 (the CLI's
desk-scale limit) and densities {0, .35, .6, .85} splits into four Latin
blocks: each has every (p, d, n) once and gives each (d, n) all four
densities across the primes, so every block mixes cheap and costly cells
the same way.  The cost of an op depends on the instance's structure
(block sizes, algebra dimension) far more than on its entries, and a run
holds only a few hundred ops, so seed-drawn structures would make the
run-to-run spread exceed any useful bound.  The pipeline therefore draws
fresh instances for every pass and walks the four blocks in turn, and the
spectral pool conjugates fixed base instances of two blocks by seed-drawn
unimodular matrices: the same algebras in other coordinates.  The algebra
pool takes its spectral tau coordinates from fixed instances too, and draws
from the seed only the exact-algebra elements and the square-check seeds.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

from checks import (
    compare_all,
    drop_digits,
    element_triples,
    flip_digit,
    matrix_triples,
    tensor_triples,
)

N = 32
PRIMES = (2, 3, 5, 7)
DENSITIES = (0.0, 0.35, 0.6, 0.85)


def latin_block(b):
    cells = [(p, d, n, DENSITIES[(i + d + n + b) % 4])
             for i, p in enumerate(PRIMES) for d in (1, 2, 3) for n in range(1, 7)]
    random.Random("padic-simpson benchmark grid").shuffle(cells)
    return cells


def instance_seed(seed, idx):
    return seed * 1000003 + idx


def conjugate(lib, H, rng):
    """U H U^-1 for a random unimodular U = L * R with unit diagonals."""
    p, n = H.ctx.p, H.rank
    lower = [[1 if i == j else rng.randrange(p ** 2) if i > j else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else rng.randrange(p ** 2) if i < j else 0 for j in range(n)]
             for i in range(n)]
    from_ints = lib.matrix.PadicMatrix.from_ints
    U = from_ints(H.ctx, lower) @ from_ints(H.ctx, upper)
    U_inv = U.inverse()
    return lib.higgs.HiggsModule.create(H.ctx, [U @ t @ U_inv for t in H.theta])


def _binomial(d, k):
    out = 1
    for i in range(k):
        out = out * (d - i) // (i + 1)
    return out


def _min_prec(*groups):
    return min(t[2] for g in groups for t in g)


def _parse_h(text, label):
    for line in text.splitlines():
        if line.startswith(label + " h ="):
            return [int(x) for x in line.split("=", 1)[1].split()]
    return None


class Pipeline:
    """gen -> to-rep -> to-higgs -> compare through cli.main on files."""

    name = "pipeline"

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.workdir = workdir
        self.seed = seed
        self.warmup_item = ((3, 2, 3, 0.6), instance_seed(seed, -1))

    def pool(self, k):
        cells = latin_block(k % 4)
        return [(cell, instance_seed(self.seed, k * len(cells) + i))
                for i, cell in enumerate(cells)]

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def run(self, item):
        (p, d, n, den), s = item
        H, V, H2 = self._path("H.json"), self._path("V.json"), self._path("H2.json")
        out = io.StringIO()
        codes = []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            for argv in (
                ["gen", "--p", str(p), "--d", str(d), "--rank", str(n),
                 "--density", str(den), "--seed", str(s), "--out", H],
                ["to-rep", H, "--out", V],
                ["to-higgs", V, "--out", H2],
                ["compare", H],
            ):
                codes.append(self.lib.cli.main(argv))
                if codes[-1] != 0:
                    break
        return codes, out.getvalue()

    def extract(self, item, raw):
        codes, text = raw
        data = {"codes": codes, "h_higgs": _parse_h(text, "higgs"),
                "h_group": _parse_h(text, "group")}
        if codes != [0, 0, 0, 0]:
            data["text"] = text[-200:]
            if codes[-1] in (2, 4):  # the CLI's validation/precision refusals
                data["refused"] = "exit %d: %s" % (codes[-1], data["text"])
            return data
        io_json = self.lib.io_json

        def load(name, reader):
            obj, _ = io_json.load_instance(self._path(name))
            return reader(obj)

        H = load("H.json", io_json.higgs_from_json)
        V = load("V.json", io_json.rep_from_json)
        H2 = load("H2.json", io_json.higgs_from_json)
        data["H"] = [t for m in H.theta for t in matrix_triples(m)]
        data["H2"] = [t for m in H2.theta for t in matrix_triples(m)]
        data["V"] = [t for m in V.rho for t in matrix_triples(m)]
        data["trivial"] = all(t[0] is None for t in data["H"])
        return data

    def check(self, item, data):
        (p, d, n, _), _ = item
        if data["codes"] != [0, 0, 0, 0]:
            return [("wrong", "exit codes %s: %s" % (data["codes"], data.get("text", "")))]
        hh, hg = data["h_higgs"], data["h_group"]
        if hh is None or hg is None or len(hh) != d + 1:
            return [("wrong", "compare printed no h-vectors")]
        problems = []
        if hh != hg:
            problems.append(("wrong", "h-vectors differ: higgs %s, group %s" % (hh, hg)))
        for h in (hh, hg):
            if sum((-1) ** k * x for k, x in enumerate(h)) != 0:
                problems.append(("wrong", "h-vector %s breaks the Euler characteristic" % h))
        if data["trivial"] and hh != [n * _binomial(d, k) for k in range(d + 1)]:
            problems.append(("wrong", "trivial instance with h = %s" % hh))
        return problems + compare_all(data["H2"], data["H"], p, N - 8, "H2 against H")

    def digits(self, data):
        return _min_prec(data["V"], data["H2"])

    def label(self, item):
        return list(item[0])

    def fields(self, data):
        return [data["codes"], data["h_higgs"], data["h_group"],
                _min_prec(data["V"]), _min_prec(data["H2"])]

    def corruptions(self, item, data):
        dropped = dict(data, H2=drop_digits(data["H2"], N - 9))
        wrong_h = dict(data, h_group=[data["h_group"][0] + 1] + data["h_group"][1:])
        return [("digits dropped", dropped), ("wrong h-vector", wrong_h)]


class Spectral:
    """spectral_algebra, make_twist, the twist identity, and a twist file
    written and read back."""

    name = "spectral"

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.path = os.path.join(workdir, "twist.json")
        gen = lib.generate.gen_higgs
        rng = random.Random("spectral:%d" % seed)
        self.items = [(cell, conjugate(lib, gen(*cell, seed=i, precision=N), rng))
                      for i, cell in enumerate(latin_block(0) + latin_block(2))]
        self.warmup_item = ((3, 2, 3, 0.6),
                            conjugate(lib, gen(3, 2, 3, 0.6, seed=-1, precision=N), rng))

    def pool(self, k):
        return self.items

    def run(self, item):
        _, H = item
        higgs, io_json = self.lib.higgs, self.lib.io_json
        S = higgs.spectral_algebra(H)
        L = higgs.make_twist(S.algebra, S.tau)
        twisted = higgs.twist_higgs(H, S, L)
        direct = higgs.higgs_to_rep(H)
        io_json.write_instance(self.path, io_json.twist_to_json(S.algebra, S.tau, L.units))
        obj, _ = io_json.load_instance(self.path)
        B2, tau2 = io_json.twist_from_json(obj)
        return H, S, L, twisted, direct, B2, tau2

    def extract(self, item, raw):
        H, S, L, twisted, direct, B2, tau2 = raw
        return {
            "dim": S.algebra.dim,
            "dim2": B2.dim,
            "trivial": H.is_trivial(),
            "tensor": tensor_triples(S.algebra),
            "tensor2": tensor_triples(B2),
            "tau": [t for x in S.tau for t in element_triples(x)],
            "tau2": [t for x in tau2 for t in element_triples(x)],
            "units": [t for x in L.units for t in element_triples(x)],
            "twisted": [t for m in twisted.rho for t in matrix_triples(m)],
            "direct": [t for m in direct.rho for t in matrix_triples(m)],
        }

    def check(self, item, data):
        p = item[0][0]
        problems = []
        if data["trivial"] and data["dim"] != 1:
            problems.append(("wrong", "theta = 0 but the spectral algebra has dim %d"
                             % data["dim"]))
        problems += compare_all(data["twisted"], data["direct"], p, None,
                                "twist identity against higgs_to_rep")
        if data["dim2"] != data["dim"] or len(data["tau2"]) != len(data["tau"]):
            return problems + [("wrong", "reloaded twist changed shape")]
        problems += compare_all(data["tensor"], data["tensor2"], p, None, "reloaded tensor")
        return problems + compare_all(data["tau"], data["tau2"], p, None, "reloaded tau")

    def digits(self, data):
        return _min_prec(data["tensor"], data["tau"], data["units"], data["twisted"])

    def label(self, item):
        return list(item[0])

    def fields(self, data):
        return [data["dim"], _min_prec(data["tensor"]), _min_prec(data["units"]),
                _min_prec(data["twisted"])]

    def corruptions(self, item, data):
        keep = _min_prec(data["tensor"]) - 1
        return [("wrong digit", dict(data, twisted=flip_digit(data["twisted"], item[0][0]))),
                ("digits dropped", dict(data, tensor2=drop_digits(data["tensor2"], keep)))]


def _nonsquare_unit(p):
    if p == 2:
        return 3  # 3 = -1 mod 4 is not a square in Q_2
    return next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)


class Algebra:
    """alg_log(alg_exp(x)) round trips and cart_square_check batteries."""

    name = "algebra"
    # round trips on exact tensors per family and prime; with the spectral
    # tau coordinates the square checks take about three quarters of the time
    EXACT_PER_FAMILY = 3
    TAU_CELLS = ((1, 3, 0.6), (2, 3, 0.85), (1, 4, 0.85), (2, 4, 0.6))

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        alg, ctxmod = lib.algebra, lib.context
        per_prime = []
        for p in PRIMES:
            ctx = ctxmod.PrimeContext(p, N)
            e0 = ctx.e0
            rng = random.Random("algebra:%d:%d" % (p, seed))
            c = _nonsquare_unit(p)
            families = (("x^2", [0, 0]), ("x^3", [0, 0, 0]), ("x^4", [0, 0, 0, 0]),
                        ("x^2-x", [0, 1]), ("x^2-4", [4, 0]), ("x^2-%d" % c, [c, 0]))
            trips = []
            for name, rel in families:
                A = alg.FinAlgebra.from_power_relation(ctx, rel)
                for _ in range(self.EXACT_PER_FAMILY):
                    x = A.from_ints([p ** e0 * rng.randrange(p ** 8) for _ in range(A.dim)])
                    trips.append(("rt", "%s p=%d" % (name, p), x, N - 4))
            for i, (d, n, den) in enumerate(self.TAU_CELLS):
                # fixed instances, as in the spectral pool: whether a round
                # trip is refused or loses digits depends on the instance,
                # so seed-drawn ones would change the failure count per seed
                H = lib.generate.gen_higgs(p, d, n, den, seed=i, precision=N)
                S = lib.higgs.spectral_algebra(H)
                for k, t in enumerate(S.tau):
                    # solve-derived tensor: checked at every digit claimed
                    trips.append(("rt", "tau%d dim %d p=%d" % (k, S.algebra.dim, p), t, None))
            rng.shuffle(trips)
            squares = [("sq", "%s p=%d" % (name, p), A, f, seed * 7 + j)
                       for j, (A, f, name) in enumerate(self._square_cases(ctx, c))]
            stride = max(1, len(trips) // len(squares))
            mixed = []
            for j, sq in enumerate(squares):
                mixed.append(sq)
                mixed.extend(trips[j * stride:(j + 1) * stride])
            mixed.extend(trips[len(squares) * stride:])
            per_prime.append(mixed)
        self.items = [g[i] for i in range(max(map(len, per_prime)))
                      for g in per_prime if i < len(g)]
        self.warmup_item = next(it for it in per_prime[1] if it[0] == "rt" and it[3])

    def pool(self, k):
        return self.items

    def _square_cases(self, ctx, c):
        alg = self.lib.algebra
        K = alg.FinAlgebra.field(ctx)
        cases = [(K, alg.Morphism.create(K, K, [K.unit()]), "K")]
        for rel, name in (([0, 0], "x^2"), ([0, 0, 0], "x^3"), ([0, 1], "x^2-x")):
            A = alg.FinAlgebra.from_power_relation(ctx, rel)
            images = [K.unit()] + [K.zero()] * (A.dim - 1)
            cases.append((A, alg.Morphism.create(A, K, images), name))
        two = K.scalar_element(self.lib.scalar.PadicScalar.from_int(ctx, 2))
        A = alg.FinAlgebra.from_power_relation(ctx, [4, 0])
        cases.append((A, alg.Morphism.create(A, K, [K.unit(), two]), "x^2-4"))
        A = alg.FinAlgebra.from_power_relation(ctx, [c, 0])
        ident = alg.Morphism.create(A, A, [A.basis_element(0), A.basis_element(1)])
        cases.append((A, ident, "x^2-%d" % c))
        return cases

    def run(self, item):
        if item[0] == "sq":
            _, _, A, f, s = item
            return self.lib.unitgroup.cart_square_check(A, f, seed=s)
        x = item[2]
        y = self.lib.algebra.alg_exp(x)
        return y, self.lib.algebra.alg_log(y)

    def extract(self, item, raw):
        if item[0] == "sq":
            return {"failures": len(raw.failures), "pullback": raw.pullback_checked,
                    "pushout": raw.pushout_checked, "kernel": raw.kernel_checked}
        y, z = raw
        return {"x": element_triples(item[2]), "y": element_triples(y),
                "z": element_triples(z)}

    def check(self, item, data):
        if item[0] == "sq":
            if data["failures"] or not data["pushout"]:
                return [("wrong", "square check: %d failures, %d pushout checks"
                         % (data["failures"], data["pushout"]))]
            return []
        return compare_all(data["z"], data["x"], item[2].algebra.ctx.p, item[3],
                           "log(exp(x)) against x")

    def digits(self, data):
        return _min_prec(data["y"], data["z"]) if "z" in data else None

    def label(self, item):
        return item[1]

    def fields(self, data):
        if "z" not in data:
            return [data["pullback"], data["pushout"], data["kernel"]]
        return [_min_prec(data["y"]), _min_prec(data["z"])]

    def corruptions(self, item, data):
        if item[0] == "sq":
            return [("failure hidden in the report", dict(data, failures=1))]
        p = item[2].algebra.ctx.p
        out = [("wrong digit", dict(data, z=flip_digit(data["z"], p, item[3] and item[3] - 1)))]
        if item[3] is not None:
            out.append(("digits dropped", dict(data, z=drop_digits(data["z"], item[3] - 1))))
        return out


WORKLOADS = {w.name: w for w in (Pipeline, Spectral, Algebra)}
