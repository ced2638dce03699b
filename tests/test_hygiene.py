"""Source hygiene: no unused imports (in the tests and demos too), no
unreferenced private helpers, no ring test but ``rings.leaf_kind``
picking a kernel's path, no dataclass field that nothing reads, no
optional parameter that no call sets, no cross reference in a docstring
or comment that names nothing, no series product or comparison in the
command line, no run of statements written out twice, no private
function that takes its orientation as a ``sign`` or ``ascending`` flag,
and no engine module that imports the windowed-matrix apparatus, in the
library modules (stdlib ``ast`` only)."""

import ast
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "whlaurent"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
IMPORTERS = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree):
    """Every bare name in a module, the roots of attribute chains
    (``np`` in ``np.linalg.det``) and annotations included."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _references(tree):
    """Bare names and attribute names in a module; a ``def`` or ``class``
    statement's own name is neither."""
    out = _used_names(tree)
    out |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return out


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used_names(tree)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    assert sorted(set(imported) - used) == []


def test_every_private_definition_is_referenced():
    trees = {p.name: _tree(p) for p in SRC.glob("*.py")}
    refs = set().union(*(_references(t) for t in trees.values()))
    private = [(name, node.name) for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert [p for p in private if p[1] not in refs] == []


RING_TESTS = {"is_rational", "leaf_ring"}


def _stand_ins(tree, exempt):
    """Line numbers of ring tests that stand in for ``rings.leaf_kind``: a
    definition, import or use of ``is_rational`` or ``leaf_ring``,
    ``isinstance(x.zero, ...)`` or ``type(x.zero)``, and ``x.base.base``.
    The body of the function named ``exempt`` is not searched."""
    skip = {id(n) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == exempt
            for n in ast.walk(node) if n is not node}
    out = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        name = (getattr(node, "id", None) or getattr(node, "attr", None)
                or getattr(node, "name", None))
        if name in RING_TESTS:
            out.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("isinstance", "type") and node.args
              and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "zero"):
            out.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "base"
              and isinstance(node.value, ast.Attribute) and node.value.attr == "base"):
            out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_kernel_paths_are_picked_by_leaf_kind(path):
    exempt = "leaf_kind" if path.name == "rings.py" else None
    assert _stand_ins(_tree(path), exempt) == []


def test_stand_in_search_finds_each_form():
    src = ("from .exact import is_rational\n"
           "def leaf_ring(r): pass\n"
           "x = exact.is_rational(r)\n"
           "y = isinstance(r.zero, Fraction)\n"
           "z = type(r.base.zero)\n"
           "w = r.base.base\n"
           "def leaf_kind(r): return type(r.zero)\n")
    assert _stand_ins(ast.parse(src), "leaf_kind") == [1, 2, 3, 4, 5, 6]


def _dataclass_fields(tree):
    """``(class, field)`` for each annotated field of a ``@dataclass``
    class, with or without arguments or the module prefix."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        names = [getattr(d, "id", None) or getattr(d, "attr", None)
                 for d in (dec.func if isinstance(dec, ast.Call) else dec
                           for dec in node.decorator_list)]
        if "dataclass" in names:
            out += [(node.name, stmt.target.id) for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return out


def _write_only_fields(trees):
    """Dataclass fields that no ``x.field`` reads (an assignment to
    ``x.field`` is no read)."""
    reads = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f for tree in trees for f in _dataclass_fields(tree) if f[1] not in reads]


def test_every_dataclass_field_is_read():
    assert _write_only_fields([_tree(p) for p in SRC.glob("*.py")]) == []


def test_field_search_finds_a_write_only_field():
    src = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
           "@dataclasses.dataclass\nclass B:\n    z: int\n"
           "class C:\n    u: int\n"
           "def f(a, b):\n    a.y = 1\n    return a.x + b.z\n")
    assert _write_only_fields([ast.parse(src)]) == [("A", "y")]


def _optional_params(tree):
    """``(name, parameter, position)`` for each parameter with a default of
    every ``def`` in a module.  A call names a function or method by its
    own name and ``__init__`` by its class; ``position`` is the index of
    the parameter among such a call's positional arguments (``self`` or
    ``cls`` is none of them), None for a keyword-only parameter."""
    classes = {id(stmt): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        name, skip = node.name, 0
        if id(node) in classes:
            skip = 0 if any(getattr(d, "id", None) == "staticmethod"
                            for d in node.decorator_list) else 1
            if name == "__init__":
                name = classes[id(node)]
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [(name, p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
        out += [(name, p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
    return out


def _calls(tree):
    """``(name, positional arguments, keywords)`` for each call of a bare or
    attribute name; a ``*args`` counts as every position and a ``**kwargs``
    as every keyword (the keyword None)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            out.append((name, math.inf if starred else len(node.args),
                        {k.arg for k in node.keywords}))
    return out


def _unset_params(defined, callers):
    """The ``(name, parameter)`` of ``defined`` (module trees) that no call
    in ``callers`` (module trees) sets, by keyword or by position."""
    calls = [c for tree in callers for c in _calls(tree)]
    return sorted((f, p) for tree in defined for f, p, pos in _optional_params(tree)
                  if not any(name == f and (p in kws or None in kws
                                            or (pos is not None and npos > pos))
                             for name, npos, kws in calls))


def test_every_optional_parameter_is_set():
    callers = [_tree(p) for d in ("src", "tests", "demos", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert _unset_params([_tree(p) for p in SRC.glob("*.py")], callers) == []


def test_parameter_search_finds_an_unset_parameter():
    src = ("class A:\n"
           "    def __init__(self, x, y=0): pass\n"
           "    def m(self, u=1, v=2): pass\n"
           "    @staticmethod\n"
           "    def s(p, q=0): pass\n"
           "def f(a, b=1, *, c=2): pass\n"
           "def g(d=0): pass\n"
           "A(1, 2).m(5)\n"
           "A.s(1)\n"
           "f(0, c=3)\n"
           "g(*args)\n")
    tree = ast.parse(src)
    assert _unset_params([tree], [tree]) == [("f", "b"), ("m", "v"), ("s", "q")]


REFERENCE = re.compile(r":(func|meth|attr|data|class|mod):`([^`]*)`")


def _definitions(tree):
    """The names a module defines: its top-level functions, classes and
    assigned names, and the members of each class, bare and as
    ``Class.member``."""
    def names(body):
        out = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.add(node.name)
            elif isinstance(node, ast.Assign):
                out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                out.add(node.target.id)
        return out

    out = names(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            members = names(node.body)
            out |= members | {node.name + "." + m for m in members}
    return out


def _unresolved(sources):
    """``(module, reference)`` for each ``:func:``, ``:meth:``, ``:attr:``,
    ``:data:``, ``:class:`` or ``:mod:`` reference in ``sources`` (module
    name to source text) that names nothing.  The package prefix
    ``whlaurent.`` is dropped; ``:mod:`` must name a module, ``mod.name``
    something that module defines, and any other name something that
    some module defines."""
    defs = {name: _definitions(ast.parse(src)) for name, src in sources.items()}
    out = []
    for module, src in sources.items():
        for role, ref in REFERENCE.findall(src):
            name = ref.removeprefix("whlaurent.")
            head, _, rest = name.partition(".")
            if role == "mod":
                found = name in defs
            elif head in defs and rest:
                found = rest in defs[head]
            else:
                found = any(name in d for d in defs.values())
            if not found:
                out.append((module, ref))
    return out


def test_every_cross_reference_resolves():
    assert _unresolved({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_reference_search_finds_an_unresolved_reference():
    a = ('"""See :func:`f`, :meth:`K.m`, :attr:`x`, :data:`a.N`, :class:`whlaurent.a.K`,\n'
         ':mod:`whlaurent.a`, :func:`b.g` and :attr:`K.x`; not :func:`a.gone`,\n'
         ':meth:`K.gone`, :func:`b.f`, :mod:`whlaurent.c`, :func:`nowhere` or :func:`f()`."""\n'
         "N = 1\ndef f(): pass\nclass K:\n    x: int\n    def m(self): pass\n")
    assert _unresolved({"a": a, "b": "def g(): pass\n"}) == [
        ("a", "a.gone"), ("a", "K.gone"), ("a", "b.f"), ("a", "whlaurent.c"),
        ("a", "nowhere"), ("a", "f()")]


def _products_and_comparisons(tree):
    """Line numbers of the ``.mul(`` and ``.sup_diff(`` calls in a module."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("mul", "sup_diff"))


def test_cli_leaves_the_certificate_to_certify():
    # verify mode checks a triple by factorization.certify alone, so the
    # command line multiplies and compares no series of its own
    assert _products_and_comparisons(_tree(SRC / "cli.py")) == []


def test_product_search_finds_each_call():
    src = ("recon = pm.mul(pt).mul(pp)\n"
           "r = recon.truncate(w).sup_diff(a)\n"
           "x = ring.add(mul(p, q), sup_diff)\n"
           "y = ring.mul(\n    p, q)\n")
    assert _products_and_comparisons(ast.parse(src)) == [1, 1, 2, 4]


RUN = 3  # statements per run
RUN_SIZE = 200  # characters of ast.dump below which a run is too small to flag


def _repeated_runs(trees):
    """``[(module, line), ...]`` for each run of :data:`RUN` consecutive
    statements of one body (a module, function, class, loop, branch or
    handler body; docstrings and imports left out) whose ``ast.dump``, at
    least :data:`RUN_SIZE` characters long, some other such run repeats."""
    seen = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            for field in ("body", "orelse", "finalbody"):
                stmts = getattr(node, field, None)
                body = [s for s in (stmts if isinstance(stmts, list) else [])
                        if not isinstance(s, (ast.Import, ast.ImportFrom))
                        and not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)
                                 and isinstance(s.value.value, str))]
                for i in range(len(body) - RUN + 1):
                    key = "\n".join(ast.dump(s) for s in body[i:i + RUN])
                    if len(key) >= RUN_SIZE:
                        seen.setdefault(key, []).append((name, body[i].lineno))
    return sorted(v for v in seen.values() if len(v) > 1)


def test_no_statement_run_is_written_twice():
    assert _repeated_runs({p.name: _tree(p) for p in SRC.glob("*.py")}) == []


def test_run_search_finds_a_repeated_run():
    # the tail of f repeats in g's branch; h repeats all of f's body but its
    # last statement, and k repeats l, neither of them flagged
    tail = ("    recon = pi_m.mul(pi_t).mul(pi_p)\n"
            "    residual = recon.sup_diff(a.truncate(recon.window))\n"
            "    return FactorizationResult(pi_m, pi_t, pi_p, residual, p)\n")
    head = 'def %s(a):\n    """Doc."""\n    from .series import LaurentSeries\n'
    a = (head % "f" + tail
         + "def g(a):\n    if a:\n        x = 1\n" + tail.replace("    ", "        ")
         + head % "h" + "".join(tail.splitlines(keepends=True)[:2]) + "    return None\n"
         + "def k(a):\n    x\n    y\n    z\n")
    b = "def l():\n    x\n    y\n    z\n"  # below RUN_SIZE
    assert _repeated_runs({"a.py": ast.parse(a), "b.py": ast.parse(b)}) == [
        [("a.py", 4), ("a.py", 10)]]


ORIENTATION_FLAGS = {"sign", "ascending", "mirror"}


def _is_flag(param, default):
    """A parameter is a flag if it is named in :data:`ORIENTATION_FLAGS`,
    annotated ``bool`` or defaults to ``True`` or ``False``."""
    ann = param.annotation
    return (param.arg in ORIENTATION_FLAGS
            or (isinstance(ann, ast.Name) and ann.id == "bool")
            or (isinstance(ann, ast.Constant) and ann.value == "bool")
            or (isinstance(default, ast.Constant) and isinstance(default.value, bool)))


def _orientation_flags(tree):
    """``(function, parameter)`` for each private function (its name starts
    with one underscore) that takes a flag (:func:`_is_flag`)."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                and not node.name.startswith("__")):
            args = node.args
            pos = args.posonlyargs + args.args
            defaults = [None] * (len(pos) - len(args.defaults)) + args.defaults
            out += [(node.name, p.arg)
                    for p, d in zip(pos + args.kwonlyargs, defaults + args.kw_defaults)
                    if _is_flag(p, d)]
    return out


def test_no_private_function_takes_an_orientation_flag():
    # the antiholomorphic side is the holomorphic one of a(1/z)
    # (LaurentSeries.reflect, the mirror block), so each kernel is
    # written for one orientation, and no private function switches on a
    # boolean
    assert [f for p in MODULES for f in _orientation_flags(_tree(p))] == []


def test_flag_search_finds_each_form():
    src = ("def _k(jp, sign, zero): pass\n"
           "def _div(x, u, *, ascending=True): pass\n"
           "class A:\n    def _m(self, sign): pass\n"
           "def outer(sign):\n    def _inner(ascending): pass\n"
           "def public(sign): pass\n"
           "def __dunder__(sign): pass\n"
           "def _fine(signs, step, n: int = 0, *, tol=None): pass\n"
           "def _block(pair, mirror): pass\n"
           "def _check(b, strict: bool): pass\n"
           "def _scan(x, y=1, /, z=False, *, w: 'bool', v=True): pass\n")
    assert _orientation_flags(ast.parse(src)) == [
        ("_k", "sign"), ("_div", "ascending"), ("_block", "mirror"), ("_check", "strict"),
        ("_scan", "z"), ("_scan", "w"), ("_scan", "v"), ("_m", "sign"), ("_inner", "ascending")]


# the modules that may read the windowed-matrix apparatus: itself, the
# command line (``matrix-dump``) and the package's exports
APPARATUS_READERS = {"matrices.py", "cli.py", "__init__.py"}


def _apparatus_imports(tree):
    """Line numbers of the imports of ``matrices`` in a module, anywhere in
    it: ``from .matrices import ...``, ``from . import matrices`` and their
    absolute forms through ``whlaurent``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = (node.level == 1 and node.module is None) or node.module == "whlaurent"
            if ((node.level == 1 and node.module == "matrices")
                    or node.module == "whlaurent.matrices"
                    or (package and any(a.name == "matrices" for a in node.names))):
                out.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name == "whlaurent.matrices"
                                                  for a in node.names):
            out.append(node.lineno)
    return sorted(out)


def test_engine_imports_nothing_of_the_apparatus():
    # the engine computes the projections from finite blocks alone; the
    # infinite-matrix closed forms read the engine, never the reverse
    assert [(p.name, line) for p in sorted(SRC.glob("*.py")) if p.name not in APPARATUS_READERS
            for line in _apparatus_imports(_tree(p))] == []


def test_apparatus_import_search_finds_each_form():
    src = ("from .matrices import WindowedMatrix\n"
           "from . import matrices as mx\n"
           "from whlaurent.matrices import Lattice\n"
           "import whlaurent.matrices\n"
           "from whlaurent import series, matrices\n"
           "def f():\n    from .matrices import _reflect\n"
           "from .series import matrices\n"
           "from . import series\n"
           "from ..matrices import x\n"
           "import matrices_util\n")
    assert _apparatus_imports(ast.parse(src)) == [1, 2, 3, 4, 5, 7]
