"""Per-layer tracing, installed from outside the library.

Tracer.install() replaces each layer entry point where the other modules
look it up: the module attribute in every padic_simpson module that holds
the function (so `linalg.solve`, `cli.gen_higgs` and `koszul.higgs_to_rep`
are all covered), the CLI's command table, and the methods of the value
classes.  Nothing under src/ changes; uninstall() puts the originals back.

Each wrapped call made while an op is running records one span (name,
start, end, parent span, op id) in memory; write() saves them at the end.  Scalar arithmetic is far too
frequent for spans, so PadicScalar add/mul/inv and AlgElement.min_poly are
only counted.  A span's self time is its duration minus the time its child
spans cover; the program is single-threaded and synchronous, so no layer
ever waits on another and there is no wait time to record.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

IO_WRITE = ("io_json.higgs_to_json", "io_json.rep_to_json", "io_json.twist_to_json",
            "io_json.algebra_to_json", "io_json.write_instance", "io_json.file_hash")
IO_READ = ("io_json.load_instance", "io_json.higgs_from_json", "io_json.rep_from_json",
           "io_json.twist_from_json", "io_json.algebra_from_json")
LINALG_CHECKED = ("linalg.eliminate", "linalg.solve", "linalg.rank_with_margin",
                  "linalg.kernel_basis", "linalg.invert")

# module-level functions that get a span: module -> names
SPAN_FUNCTIONS = {
    "cli": ("main",),
    "io_json": tuple(n.split(".")[1] for n in IO_WRITE + IO_READ),
    "generate": ("gen_higgs", "gen_rep"),
    "higgs": ("validate_higgs", "validate_rep", "higgs_to_rep", "rep_to_higgs",
              "spectral_algebra", "make_twist", "twist_higgs"),
    "matrix": ("mat_exp", "mat_log", "expm1_quotient"),
    "_series": ("exp_matrix", "log_matrix", "expm1_quotient_matrix"),
    "linalg": tuple(n.split(".")[1] for n in LINALG_CHECKED),
    "koszul": ("higgs_cohomology", "group_cohomology", "compare_cohomology"),
    "algebra": ("alg_exp", "alg_log", "nilradical"),
    "components": ("idempotents",),
    "unitgroup": ("cart_square_check",),
}
# (module, class, method) -> span
SPAN_METHODS = (
    ("matrix", "PadicMatrix", "__matmul__"),
    ("matrix", "PadicMatrix", "inverse"),
    ("koszul", "KoszulComplex", "__init__"),
    ("koszul", "KoszulComplex", "cohomology"),
    ("algebra", "FinAlgebra", "create"),
)
COUNT_METHODS = (
    ("scalar", "PadicScalar", "__add__"),
    ("scalar", "PadicScalar", "__mul__"),
    ("scalar", "PadicScalar", "inv"),
    ("algebra", "AlgElement", "min_poly"),
)

# Per-layer metrics: name -> (unit, kind, span or counter names).  "self"
# sums self time, "incl" sums the duration of the outermost spans of those
# names (for entry points whose work is mostly in lower layers), "calls"
# counts spans, "count" reads a counter, "reuse" is solve calls per distinct
# coefficient matrix, "margin" the smallest elimination margin and
# "witness" is described below.  Times are per op; counts are totals over
# the traced ops.
METRICS = {
    "cli.parse_ms": ("ms", "self", ("cli.main",)),
    "io_json.write_ms": ("ms", "self", IO_WRITE),
    "io_json.read_ms": ("ms", "self", IO_READ),
    "io_json.bytes": ("B", "count", ("io_json.bytes",)),
    "io_json.reload_failures": ("count", "count", ("io_json.reload_failures",)),
    "generate.gen_ms": ("ms", "self", ("generate.gen_higgs", "generate.gen_rep")),
    "higgs.validate_calls": ("count", "calls", ("higgs.validate_higgs", "higgs.validate_rep")),
    "higgs.validate_ms": ("ms", "self", ("higgs.validate_higgs", "higgs.validate_rep")),
    "higgs.to_rep_ms": ("ms", "incl", ("higgs.higgs_to_rep",)),
    "higgs.to_higgs_ms": ("ms", "incl", ("higgs.rep_to_higgs",)),
    "higgs.spectral_ms": ("ms", "incl", ("higgs.spectral_algebra",)),
    "higgs.twist_ms": ("ms", "incl", ("higgs.make_twist", "higgs.twist_higgs")),
    "matrix.matmul_calls": ("count", "calls", ("matrix.PadicMatrix.__matmul__",)),
    "matrix.matmul_ms": ("ms", "self", ("matrix.PadicMatrix.__matmul__",)),
    "matrix.exp_ms": ("ms", "self", ("matrix.mat_exp", "matrix.expm1_quotient")),
    "matrix.log_ms": ("ms", "self", ("matrix.mat_log",)),
    "matrix.inverse_calls": ("count", "calls", ("matrix.PadicMatrix.inverse",)),
    "series.calls": ("count", "calls", ("_series.exp_matrix", "_series.log_matrix",
                                        "_series.expm1_quotient_matrix")),
    "series.exp_ms": ("ms", "self", ("_series.exp_matrix", "_series.expm1_quotient_matrix")),
    "series.log_ms": ("ms", "self", ("_series.log_matrix",)),
    "scalar.add_calls": ("count", "count", ("scalar.PadicScalar.__add__",)),
    "scalar.mul_calls": ("count", "count", ("scalar.PadicScalar.__mul__",)),
    "scalar.inv_calls": ("count", "count", ("scalar.PadicScalar.inv",)),
    "linalg.eliminate_calls": ("count", "calls", ("linalg.eliminate",)),
    "linalg.eliminate_ms": ("ms", "self", ("linalg.eliminate",)),
    "linalg.solve_calls": ("count", "calls", ("linalg.solve",)),
    "linalg.solve_reuse": ("ratio", "reuse", ("linalg.solve",)),
    "linalg.rank_ms": ("ms", "incl", ("linalg.rank_with_margin",)),
    "linalg.margin_min": ("digits", "margin", ()),
    "linalg.precision_exhausted": ("count", "count", ("linalg.precision_exhausted",)),
    "koszul.build_ms": ("ms", "incl", ("koszul.KoszulComplex.__init__",)),
    "koszul.cohomology_ms": ("ms", "incl", ("koszul.KoszulComplex.cohomology",)),
    "koszul.compare_ms": ("ms", "incl", ("koszul.compare_cohomology",)),
    "koszul.witness_ms": ("ms", "witness", ("koszul.compare_cohomology",)),
    "algebra.create_ms": ("ms", "incl", ("algebra.FinAlgebra.create",)),
    "algebra.exp_ms": ("ms", "incl", ("algebra.alg_exp",)),
    "algebra.log_ms": ("ms", "incl", ("algebra.alg_log",)),
    "algebra.min_poly_calls": ("count", "count", ("algebra.AlgElement.min_poly",)),
    "algebra.nilradical_calls": ("count", "calls", ("algebra.nilradical",)),
    "components.idempotents_calls": ("count", "calls", ("components.idempotents",)),
    "components.idempotents_ms": ("ms", "incl", ("components.idempotents",)),
    "unitgroup.cart_square_ms": ("ms", "incl", ("unitgroup.cart_square_check",)),
}
# koszul.witness_ms: compare_cohomology minus its two cohomologies and
# higgs_to_rep, i.e. the unit-witness checks
WITNESS_EXCLUDES = ("koszul.higgs_cohomology", "koszul.group_cohomology",
                    "higgs.higgs_to_rep")


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.op = None  # id of the running op; None records nothing
        self.spans = []  # (name, start, end, parent index, op)
        self.stack = []
        self.counts = Counter()
        self.margins = []
        self.solve_keys = set()
        self._last_error = {}
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        lib = self.lib
        hooks = {
            "linalg.eliminate": self._on_eliminate,
            "linalg.solve": self._on_solve,
            "io_json.write_instance": self._on_write,
        }
        for mod, names in SPAN_FUNCTIONS.items():
            for fname in names:
                name = "%s.%s" % (mod, fname)
                original = getattr(getattr(lib, mod), fname)
                self._replace_everywhere(original, self._span(name, original, hooks.get(name)))
        commands = lib.cli._COMMANDS
        for key, original in list(commands.items()):
            self._set_item(commands, key, self._span("cli.command", original))
        for mod, cls_name, meth in SPAN_METHODS + COUNT_METHODS:
            cls = getattr(getattr(lib, mod), cls_name)
            name = "%s.%s.%s" % (mod, cls_name, meth)
            raw = cls.__dict__[meth]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if (mod, cls_name, meth) in SPAN_METHODS:
                wrapped = self._span(name, fn)
            else:
                wrapped = self._counter(name, fn)
            self._set_attr(cls, meth, staticmethod(wrapped) if isinstance(raw, staticmethod)
                           else wrapped)

    def uninstall(self):
        while self._undo:
            restore = self._undo.pop()
            restore()

    def _set_attr(self, obj, attr, value):
        original = vars(obj)[attr]
        setattr(obj, attr, value)
        self._undo.append(lambda: setattr(obj, attr, original))

    def _set_item(self, mapping, key, value):
        original = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def _replace_everywhere(self, original, wrapped):
        for modname, module in list(sys.modules.items()):
            if modname != "padic_simpson" and not modname.startswith("padic_simpson."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set_attr(module, attr, wrapped)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, hook=None):
        tracer = self
        spans, stack = self.spans, self.stack
        padic_error = self.lib.errors.PadicError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except padic_error as exc:
                tracer._on_error(name, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, tracer.op)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- observations at layer boundaries --------------------------------

    def _on_eliminate(self, args, result):
        if result.margin is not None:
            self.margins.append(result.margin)

    def _on_solve(self, args, result):
        mat = args[0]
        self.solve_keys.add((self.op, tuple((x.v, x.u, x.prec) for row in mat for x in row)))

    def _on_write(self, args, result):
        self.counts["io_json.bytes"] += len(result.encode())

    def _on_error(self, name, exc):
        # an exception passes through every enclosing span: count it once,
        # in the layer that raised it
        if name in LINALG_CHECKED:
            key, wanted = "linalg.precision_exhausted", self.lib.errors.PrecisionExhausted
        elif name in IO_READ:
            key, wanted = "io_json.reload_failures", self.lib.errors.PadicError
        else:
            return
        if isinstance(exc, wanted) and self._last_error.get(key) is not exc:
            self._last_error[key] = exc
            self.counts[key] += 1

    def write(self, path):
        """The spans as JSON, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, start - t0, end - t0, parent, op]
                for name, start, end, parent, op in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": rows}, fh)

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, ops):
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = Counter(s[0] for s in spans)
        out = {}
        for metric, (unit, kind, names) in METRICS.items():
            if kind == "self":
                total = sum(s[2] - s[1] - covered[i] for i, s in enumerate(spans)
                            if s[0] in names)
                value = 1000.0 * total / ops
            elif kind == "incl":
                total = sum(s[2] - s[1] for i, s in enumerate(spans)
                            if s[0] in names and not self._inside(i, names))
                value = 1000.0 * total / ops
            elif kind == "witness":
                value = 1000.0 * self._witness(names[0]) / ops
            elif kind == "calls":
                value = sum(calls[n] for n in names)
            elif kind == "count":
                value = sum(self.counts[n] for n in names)
            elif kind == "reuse":
                value = calls[names[0]] / len(self.solve_keys) if self.solve_keys else 0.0
            else:  # margin
                value = min(self.margins) if self.margins else 0
            out[metric] = {"value": value, "unit": unit}
        return out

    def _inside(self, i, names):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def _witness(self, name):
        spans = self.spans
        total = 0.0
        parents = set()
        for i, s in enumerate(spans):
            if s[0] == name:
                total += s[2] - s[1]
                parents.add(i)
        for s in spans:
            if s[3] in parents and s[0] in WITNESS_EXCLUDES:
                total -= s[2] - s[1]
        return total
