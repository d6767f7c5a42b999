"""The value classes: unhashable, and never written to after construction.

PadicScalar, AlgElement and PadicMatrix are plain slotted classes, so
nothing stops an assignment to a field at run time; the immutability the
rest of the package relies on is checked here instead, once, over the
source.  The same check covers linalg.Row, the integer form of a row of
scalars, the shape and grid of a PadicMatrix and the row of an
AlgElement, each one Row: the Rows an algebra keeps for its constants and
unit and a morphism for its images, the rows of elements, and the grids
and the row and column slices of matrices, are shared by every product
made with them, so neither a field nor an entry of one of its lists may
be written.  Equality is
precision-relative (7 mod 5^10 equals 7 mod 5^32), so no hash can agree
with it and the values refuse one.
"""

import ast
from pathlib import Path

import pytest

from padic_simpson.algebra import FinAlgebra
from padic_simpson.context import PrimeContext
from padic_simpson.matrix import PadicMatrix
from padic_simpson.scalar import PadicScalar

SRC = Path(__file__).resolve().parent.parent / "src" / "padic_simpson"

# the fields of the value classes and of linalg.Row (and the ctx of every
# other value)
VALUE_FIELDS = frozenset({"ctx", "v", "u", "prec", "algebra", "coords", "entries", "tensor",
                          "nrows", "ncols", "grid", "row",
                          "res", "base", "pw", "N"})


def test_values_are_unhashable():
    ctx = PrimeContext(5, 32)
    A = FinAlgebra.from_power_relation(ctx, [0, 0])
    for value in (PadicScalar.from_int(ctx, 7), A.from_ints([1, 5]),
                  PadicMatrix.identity(ctx, 2), A):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    assert PadicScalar.from_int(ctx, 7, 10) == PadicScalar.from_int(ctx, 7)
    assert hash(ctx) == hash(PrimeContext(5, 32))


def field_writes(tree):
    """(line, text) of every write to a field in VALUE_FIELDS: an assignment,
    augmented or annotated assignment or del of an attribute or of a
    subscript of one (x.res[k] = ...), and every setattr or __setattr__
    call whose name is such a field or not a literal.  Writes to
    self.<field> inside an __init__ are allowed."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
                node.ctx, (ast.Store, ast.Del)):
            target = node
            while isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute) and target.attr in VALUE_FIELDS:
                own = isinstance(target.value, ast.Name) and target.value.id == "self"
                if not (own and func == "__init__"):
                    found.append((node.lineno, ast.unparse(node)))
        if isinstance(node, ast.Call) and len(node.args) >= 2:
            f = node.func
            named = ((isinstance(f, ast.Name) and f.id == "setattr")
                     or (isinstance(f, ast.Attribute) and f.attr == "__setattr__"))
            name = node.args[1]
            literal = isinstance(name, ast.Constant) and isinstance(name.value, str)
            if named and (not literal or name.value in VALUE_FIELDS):
                found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_value_fields_are_never_written():
    writes = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        writes += ["%s:%d: %s" % (path.name, line, text) for line, text in field_writes(tree)]
    assert writes == []


@pytest.mark.parametrize("source", [
    "def f(x):\n    x.prec = 3\n",
    "def f(x):\n    x.coords += (1,)\n",
    "def f(x):\n    x.entries: tuple = ()\n",
    "def f(x):\n    a, x.v = 1, 2\n",
    "def f(x):\n    del x.u\n",
    "def f(x):\n    setattr(x, 'ctx', None)\n",
    "def f(x, name):\n    setattr(x, name, None)\n",
    "def f(x):\n    object.__setattr__(x, 'algebra', None)\n",
    "class C:\n    def reset(self):\n        self.prec = 0\n",
    "class C:\n    def __init__(self, x):\n        x.prec = 0\n",
    "def f(x):\n    x.res = []\n",
    "def f(x):\n    x.prec += [1]\n",
    "def f(x):\n    x.ctx: PrimeContext = None\n",
    "def f(x):\n    a, x.base = 1, 2\n",
    "def f(x):\n    setattr(x, 'pw', None)\n",
    "def f(x):\n    x.res[0] = 1\n",
    "def f(x):\n    x.prec[0] += 1\n",
    "def f(x):\n    del x.res[1:]\n",
    "def f(x):\n    x.pw[2][0], y = 1, 2\n",
    "class C:\n    def reset(self):\n        self.res[0] = 0\n",
    "def f(m):\n    m.grid = None\n",
    "def f(m):\n    m.nrows, m2 = 0, 1\n",
    "def f(x):\n    x.N -= 1\n",
    "def f(x):\n    x.row = None\n",
])
def test_field_writes_are_found(source):
    assert len(field_writes(ast.parse(source))) == 1


def test_own_fields_set_in_init_are_allowed():
    source = ("class C:\n    def __init__(self, ops):\n        self.ctx = ops[0].ctx\n"
              "        self.precs = []\n        setattr(self, 'width', 1)\n"
              "        self.res = [0]\n        self.res[0] = 1\n        res = [1]\n"
              "        res[0] = 2\n")
    assert field_writes(ast.parse(source)) == []
