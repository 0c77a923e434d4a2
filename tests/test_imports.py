"""Every name a package module imports is used in that module, every
module-level private function or class is used somewhere in the package,
and every docstring example in the package runs.  Six decisions have one
owner each: only field_arith builds or looks inside an echelon, only
field_arith knows how a scalar is stored, one function raises
DimensionCapExceeded, one raises DegreeOutOfRange, one compares two
objects' ambient dimensions and fields, and one, field_arith._vector,
checks a dense vector's length and coerces its entries.  No json.dumps
call passes indent: cli's one writer prints indented JSON."""

import ast
import doctest
import importlib
from collections import Counter
from pathlib import Path

import liecohom

MODULES = sorted(p for p in Path(liecohom.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_and_used(source):
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


def test_every_imported_name_is_used():
    assert {p.name for p in MODULES} >= {"field_arith.py", "lie_core.py", "ce_complex.py"}
    unused = []
    for path in MODULES:
        imported, used = imported_and_used(path.read_text(encoding="utf-8"))
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_detects_an_unused_import():
    imported, used = imported_and_used("import os\nfrom math import comb, lcm\nlcm(2, 3)\n")
    assert [name for name in imported if name not in used] == ["os", "comb"]


def private_defs_and_references(source):
    """(module-level private functions and classes by name -> line, names
    referenced outside the definition that binds them)."""
    tree = ast.parse(source)
    defined, referenced = {}, set()
    for node in tree.body:
        own = None
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = node.name
            if own.startswith("_") and not own.startswith("__"):
                defined[own] = node.lineno
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            elif isinstance(sub, ast.alias):
                name = sub.name
            else:
                continue
            if name != own:
                referenced.add(name)
    return defined, referenced


def test_every_private_helper_is_used():
    defined, referenced = {}, set()
    for path in MODULES + [Path(liecohom.__file__)]:
        names, refs = private_defs_and_references(path.read_text(encoding="utf-8"))
        defined.update(("%s:%d %s" % (path.name, line, name), name)
                       for name, line in names.items())
        referenced |= refs
    assert sorted(where for where, name in defined.items() if name not in referenced) == []


def test_detects_a_dead_private_helper():
    defined, referenced = private_defs_and_references(
        "def _dead(n):\n    return _dead(n - 1)\n\n"
        "def _used():\n    pass\n\n"
        "class _Kept:\n    pass\n\n"
        "def public():\n    return _used(), _Kept\n")
    assert [name for name in defined if name not in referenced] == ["_dead"]


def test_docstring_examples_run():
    failed = attempted = 0
    for name in ["liecohom"] + ["liecohom." + p.stem for p in MODULES]:
        result = doctest.testmod(importlib.import_module(name))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 1


ECHELON_READERS = {"_echelon_insert"}


def _calls(node, names):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names)


def _echelon_bindings(func):
    """(name, source) for each assignment in func that may bind a name to an
    echelon: source is None when the name is bound by a call of _echelon or
    as the first target of a _rank_and_kernel unpacking, and the Name read
    when the name is assigned from another name."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        for target in node.targets:
            if isinstance(target, ast.Name) and _calls(value, {"_echelon"}):
                yield target.id, None
            elif isinstance(target, ast.Name) and isinstance(value, ast.Name):
                yield target.id, value
            elif (isinstance(target, ast.Tuple) and target.elts
                  and isinstance(target.elts[0], ast.Name)
                  and _calls(value, {"_rank_and_kernel"})):
                yield target.elts[0].id, None


def echelon_misuses(source):
    """Functions that build or read an echelon by hand: a call of
    _echelon_insert whose first argument is not an
    echelon name, or a use of an echelon name anywhere but there or as the
    value assigned to another echelon name.  An echelon name is bound in
    its function only by a call of _echelon, as the first target of a
    _rank_and_kernel unpacking, or by assignment from an echelon name."""
    tree = ast.parse(source)
    misuses = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = Counter()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound[node.id] += 1
            elif isinstance(node, ast.arg):
                bound[node.arg] += 1
        bindings = list(_echelon_bindings(func))
        echelons = set()
        while True:
            counted = Counter(name for name, value in bindings
                              if value is None or value.id in echelons)
            grown = {name for name, count in counted.items() if bound[name] == count}
            if grown == echelons:
                break
            echelons = grown
        handed_back = {id(value) for name, value in bindings
                       if value is not None and name in echelons and value.id in echelons}
        for node in ast.walk(func):
            if _calls(node, ECHELON_READERS):
                first = node.args[0] if node.args else None
                if isinstance(first, ast.Name) and first.id in echelons:
                    handed_back.add(id(first))
                else:
                    misuses.add(func.name)
        for node in ast.walk(func):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in echelons and id(node) not in handed_back):
                misuses.add(func.name)
    return misuses


def test_only_field_arith_builds_or_reads_an_echelon():
    misuses = []
    for path in MODULES:
        if path.name != "field_arith.py":
            misuses += ["%s:%s" % (path.name, name) for name in
                        sorted(echelon_misuses(path.read_text(encoding="utf-8")))]
    assert misuses == []


def test_detects_an_echelon_built_or_read_by_hand():
    source = (
        "def listed(rows):\n    e = []\n    for r in rows:\n        _echelon_insert(e, r)\n\n"
        "def measured(rows):\n    e = _echelon(rows)\n    return len(e)\n\n"
        "def rebound(rows, r):\n    e = _echelon(rows)\n    e = list(e)\n"
        "    return _echelon_insert(e, r)\n\n"
        "def passed_in(e, r):\n    return _echelon_insert(e, r)\n\n"
        "def owned(rows, r):\n    e = _echelon()\n    _echelon_insert(e, r)\n"
        "    return _echelon_insert(e, r)\n\n"
        "def unpacked_measured(c, one):\n    e, p, k = _rank_and_kernel(c, one)\n"
        "    return len(e)\n\n"
        "def unpacked_owned(c, one, v):\n    e, p, k = _rank_and_kernel(c, one)\n"
        "    return _echelon_insert(e, v)\n")
    assert sorted(echelon_misuses(source)) == ["listed", "measured", "passed_in", "rebound",
                                               "unpacked_measured"]


SCALAR_INSIDES = {"Poly", "RationalFunction", "_POLY_ONE", "poly_gcd"}
# a Poly keeps integer numerators ints over one integer denominator denom
SCALAR_PARTS = {"num", "den", "numerator", "denominator", "ints", "denom"}


def scalar_insides(source):
    """(line, name) of every import or use of field_arith's polynomial and
    rational-function names, and of every read of a numerator or
    denominator attribute, a Poly's integer storage included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in SCALAR_INSIDES:
            found.add((node.lineno, node.id))
        elif isinstance(node, ast.alias) and node.name in SCALAR_INSIDES:
            found.add((node.lineno, node.name))
        elif isinstance(node, ast.Attribute) and node.attr in SCALAR_INSIDES | SCALAR_PARTS:
            found.add((node.lineno, node.attr))
    return sorted(found)


def test_only_field_arith_looks_inside_a_scalar():
    # field_arith clears denominators and sums the minors of evaluation;
    # __init__, which re-exports RationalFunction, is not among MODULES
    uses = []
    for path in MODULES:
        if path.name != "field_arith.py":
            uses += ["%s:%d %s" % (path.name, line, name) for line, name in
                     scalar_insides(path.read_text(encoding="utf-8"))]
    assert uses == []


def test_detects_a_look_inside_a_scalar():
    source = ("from .field_arith import Poly as P, format_scalar\n"
              "import fractions\n"
              "def f(x, fa):\n"
              "    return x.numerator, x.den, fa.poly_gcd, format_scalar(x)\n"
              "def g(x):\n"
              "    return x.denominators, x.numer, _POLY_ONE * RationalFunction\n"
              "def h(x, ints, denom):\n"
              "    return x.num.ints, x.den.denom, x.num.coeffs, ints, denom\n")
    assert scalar_insides(source) == [(1, "Poly"), (4, "den"), (4, "numerator"),
                                      (4, "poly_gcd"), (6, "RationalFunction"),
                                      (6, "_POLY_ONE"), (8, "den"), (8, "denom"),
                                      (8, "ints"), (8, "num")]


def raising_functions(source, error):
    """Names of the functions with a raise of error in their own body."""
    found = set()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == error:
                found.add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_one_function_refuses_an_algebra_past_the_cap():
    raisers = []
    for path in MODULES + [Path(liecohom.__file__)]:
        raisers += ["%s:%s" % (path.name, name) for name in
                    sorted(raising_functions(path.read_text(encoding="utf-8"),
                                             "DimensionCapExceeded"), key=str)]
    assert raisers == ["ce_complex.py:_admit"]


def test_detects_a_second_raiser():
    source = ("def a(n):\n    raise E('x')\n\n"
              "class C:\n    def b(self):\n        if self:\n            raise E\n"
              "        raise F('y')\n\n"
              "def c():\n    raise F\n")
    assert raising_functions(source, "E") == {"a", "b"}


def test_one_function_refuses_a_form_degree():
    raisers = []
    for path in MODULES + [Path(liecohom.__file__)]:
        raisers += ["%s:%s" % (path.name, name) for name in
                    sorted(raising_functions(path.read_text(encoding="utf-8"),
                                             "DegreeOutOfRange"), key=str)]
    assert raisers == ["ce_complex.py:_check_degree"]


def test_detects_a_degree_refused_by_hand():
    source = ("def _check_degree(k, n=None):\n    raise DegreeOutOfRange('k')\n\n"
              "def d_apply(L, form):\n    if form.degree > L.dim:\n"
              "        raise DegreeOutOfRange('past n')\n"
              "    _check_degree(form.degree, L.dim)\n")
    assert raising_functions(source, "DegreeOutOfRange") == {"_check_degree", "d_apply"}


SPACE_ATTRS = {"field", "ambient", "ambient_dim"}


def space_comparisons(source):
    """Names of the functions with a != whose operand reads a .field,
    .ambient or .ambient_dim attribute."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Compare)
                    and any(isinstance(op, ast.NotEq) for op in node.ops)
                    and any(isinstance(x, ast.Attribute) and x.attr in SPACE_ATTRS
                            for x in [node.left, *node.comparators])):
                found.add(func.name)
    return found


def test_only_check_same_space_compares_two_spaces():
    # lie_core._check_same_space takes both objects' dimensions and fields
    # as values, so no function of the package compares the attributes
    compared = []
    for path in MODULES + [Path(liecohom.__file__)]:
        compared += ["%s:%s" % (path.name, name) for name in
                     sorted(space_comparisons(path.read_text(encoding="utf-8")))]
    assert compared == []
    source = Path(liecohom.__file__).with_name("lie_core.py").read_text(encoding="utf-8")
    assert "_check_same_space" in raising_functions(source, "DimensionMismatch")
    assert "_check_same_space" in raising_functions(source, "MixedFields")


def test_detects_a_space_compared_by_hand():
    source = ("def ideal_check(L, h):\n    if h.field != L.field:\n        raise E\n\n"
              "class F:\n    def add(self, o):\n        if self.ambient != o.ambient:\n"
              "            raise E\n\n"
              "def horizontal(L, h):\n    return L.dim != h.ambient_dim\n\n"
              "def same(a, b):\n    return a.field == b.field and a.dim != b.dim\n\n"
              "def lengths(v, ambient):\n    return len(v) != ambient\n")
    assert space_comparisons(source) == {"add", "horizontal", "ideal_check"}


def _raises(node, error):
    if not (isinstance(node, ast.Raise) and node.exc is not None):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == error


def _qualified_walk(node, name=None):
    """(qualified name of the enclosing function or class, node) for every
    node under node, a method named Class.method."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        name = node.name if name is None else "%s.%s" % (name, node.name)
    yield name, node
    for child in ast.iter_child_nodes(node):
        yield from _qualified_walk(child, name)


def length_refusals(source):
    """Qualified names of the functions that raise DimensionMismatch under
    an if whose test compares a len(...) call."""
    found = set()
    for name, node in _qualified_walk(ast.parse(source)):
        if not isinstance(node, ast.If):
            continue
        compares_length = any(
            isinstance(sub, ast.Compare)
            and any(_calls(x, {"len"}) for x in [sub.left, *sub.comparators])
            for sub in ast.walk(node.test))
        if compares_length and any(_raises(sub, "DimensionMismatch")
                                   for stmt in node.body + node.orelse
                                   for sub in ast.walk(stmt)):
            found.add(name)
    return found


def test_only_the_gate_refuses_a_vector_by_its_length():
    # ExteriorForm.__init__ compares an index tuple's length with the degree
    refusals = []
    for path in MODULES + [Path(liecohom.__file__)]:
        refusals += ["%s:%s" % (path.name, name) for name in
                     sorted(length_refusals(path.read_text(encoding="utf-8")))]
    assert refusals == ["ce_complex.py:ExteriorForm.__init__", "field_arith.py:_vector"]


def test_detects_a_length_refused_by_hand():
    source = ("def _vector(field, values, length):\n    if len(values) != length:\n"
              "        raise DimensionMismatch('length')\n\n"
              "def bracket(L, x, y):\n    if len(x) != L.dim or len(y) != L.dim:\n"
              "        raise DimensionMismatch\n\n"
              "def prepared(args, n):\n    if any(len(v) != n for v in args):\n"
              "        raise DimensionMismatch('args')\n\n"
              "class M:\n    def mul_vec(self, v):\n        if self.cols == len(v):\n"
              "            return v\n        else:\n            raise DimensionMismatch('v')\n\n"
              "def shape(rows):\n    if rows < 0:\n        raise DimensionMismatch('rows')\n\n"
              "def arity(args, k):\n    if len(args) != k:\n        raise ArityMismatch('k')\n")
    assert length_refusals(source) == {"_vector", "bracket", "prepared", "M.mul_vec"}


def _is_coerce(node):
    return isinstance(node, ast.Attribute) and node.attr == "coerce"


def coerce_maps(source):
    """Qualified names of the functions with a comprehension whose element
    is a .coerce call, or a map over a .coerce method."""
    found = set()
    for name, node in _qualified_walk(ast.parse(source)):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            element = node.value if isinstance(node, ast.DictComp) else node.elt
            if isinstance(element, ast.Call) and _is_coerce(element.func):
                found.add(name)
        elif _calls(node, {"map"}) and node.args and _is_coerce(node.args[0]):
            found.add(name)
    return found


def test_only_the_gate_coerces_a_vector():
    # a single scalar, like a bracket coefficient, is coerced where it is read
    maps = []
    for path in MODULES + [Path(liecohom.__file__)]:
        maps += ["%s:%s" % (path.name, name) for name in
                 sorted(coerce_maps(path.read_text(encoding="utf-8")))]
    assert maps == ["field_arith.py:_vector"]


def test_detects_a_vector_coerced_by_hand():
    source = ("def bracket(L, x):\n    return [L.field.coerce(c) for c in x]\n\n"
              "def subspace(basis, field):\n"
              "    return [[field.coerce(x) for x in v] for v in basis]\n\n"
              "class M:\n    def mul_vec(self, v):\n"
              "        return tuple(self.field.coerce(x) for x in v)\n\n"
              "def keyed(f, v):\n    return {i: f.coerce(x) for i, x in enumerate(v)}\n\n"
              "def mapped(f, v):\n    return list(map(f.coerce, v))\n\n"
              "def scalar(f, x):\n    return f.coerce(x)\n\n"
              "def text(v):\n    return [str(x) for x in v]\n")
    assert coerce_maps(source) == {"bracket", "subspace", "M.mul_vec", "keyed", "mapped"}


def indented_dumps(source):
    """Lines of the json.dumps and json.dump calls, under any name imported
    from json, that pass indent: with indent set, json runs its
    pure-Python encoder."""
    tree = ast.parse(source)
    names = {"dumps", "dump"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            names |= {alias.asname for alias in node.names
                      if alias.name in ("dumps", "dump") and alias.asname}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                lines.append(node.lineno)
    return sorted(lines)


def test_no_json_dumps_call_passes_indent():
    calls = []
    for path in MODULES + [Path(liecohom.__file__)]:
        calls += ["%s:%d" % (path.name, line)
                  for line in indented_dumps(path.read_text(encoding="utf-8"))]
    assert calls == []


def test_detects_an_indented_json_dumps():
    source = ("import json\nfrom json import dumps as to_text, loads\n"
              "json.dumps(x, indent=2)\n"
              "json.dumps(x)\n"
              "print(to_text({'a': 1}, sort_keys=True, indent=None))\n"
              "json.dump(x, fh, indent=4)\n"
              "loads(s)\n"
              "f(x, indent=2)\n"
              "json.dumps(x, separators=(',', ':'))\n")
    assert indented_dumps(source) == [3, 5, 6]
