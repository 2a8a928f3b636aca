"""Every name a library module imports is used there or exported, every
public definition is used by the library, and ``import halfline`` loads
neither scipy nor mpmath."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import halfline
from halfline.datum import make_datum
from halfline.oracles import heat_neumann_solution
from halfline.problems import builtin_catalog
from halfline.quadrature import ray_monomial_tail

SOURCE = Path(halfline.__file__).parent
# imports kept on purpose, each marked ``# noqa: F401`` on its line: the
# benchmark's tracer patches segment_nodes at spectral's binding and
# solve_grid at verify's, which verify_problem no longer calls, and its
# own test asserts that both bindings exist
KEPT = {("spectral.py", "segment_nodes"), ("verify.py", "solve_grid")}


def _unused_imports(source: str) -> tuple:
    """(unused, kept): names bound by the module's imports that no
    expression reads and ``__all__`` does not list, split by whether their
    import line is marked ``noqa: F401``; each as (line, name)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used and name not in exported)
    kept = [item for item in unused if "noqa: F401" in lines[item[0] - 1]]
    return [item for item in unused if item not in kept], kept


def test_unused_import_guard_finds_an_unused_name():
    source = ("import math\nimport json  # noqa: F401\n"
              "from os import path, sep\n"
              "__all__ = ['sep']\nx = path.join('a')\n")
    assert _unused_imports(source) == ([(1, "math")], [(2, "json")])


def test_library_modules_import_only_what_they_use():
    found, kept = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        unused, marked = _unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[path.name] = unused
        kept |= {(path.name, name) for _, name in marked}
    assert not found, found
    assert kept == KEPT


# public definitions no library module uses, kept on purpose
_SPANS = ("the benchmark's tracer patches it by name; retired with the next "
          "benchmark change")
KEPT_PUBLIC = {
    "cli.main": "the console script",
    "quadrature.integrate_segment": _SPANS,
    "quadrature.IntegralResult.require": _SPANS,
    "quadrature.ray_monomial_tail": _SPANS,
    "charmatrix.CharMatrix.entry": _SPANS,
    "charmatrix.CharMatrix.cofactor_det": _SPANS,
    "boundary.concomitant_value": "the Green identity's reference in "
                                  "tests/test_boundary.py",
}


def _unused_public(sources: dict) -> list:
    """Public functions, classes, methods and properties of the modules
    ``sources`` ({file name: text}) that no module references, as
    ``module.name`` or ``module.Class.method``.  A method counts as
    referenced by any attribute of its name; a function or class by a
    name or attribute outside ``__init__.py``, whose imports only
    re-export."""
    defined, names, attrs, outside = [], set(), set(), set()
    for fname, source in sources.items():
        tree = ast.parse(source)
        module = fname.removesuffix(".py")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                defined.append((f"{module}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item.name, True)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if fname != "__init__.py":
                    outside.add(node.attr)
            elif isinstance(node, ast.Name) and fname != "__init__.py":
                names.add(node.id)
    return sorted(qual for qual, name, method in defined
                  if name not in (attrs if method else names | outside))


def test_public_api_guard_finds_an_unused_definition():
    sources = {
        "__init__.py": "from .a import f, g, h\n",
        "a.py": ("def f():\n    return g()\n"
                 "def g():\n    return C().m\n"
                 "def h():\n    pass\n"
                 "def _private():\n    pass\n"
                 "class C:\n    def m(self):\n        pass\n"
                 "    def n(self):\n        pass\n"),
        "b.py": "from . import a\nx = a.f\n",
    }
    assert _unused_public(sources) == ["a.C.n", "a.h"]


def test_every_public_definition_is_used_by_the_library():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SOURCE.glob("*.py"))}
    assert set(_unused_public(sources)) == set(KEPT_PUBLIC)


# run in a fresh interpreter: the library paths first, then the heat
# oracle, which loads no package, and ray_monomial_tail, which loads mpmath
# on its first call
_FRESH = """
import json, math, sys
import halfline, halfline.cli
from halfline.datum import make_datum
from halfline.evolution import solve_grid
from halfline.oracles import heat_neumann_solution
from halfline.problems import HalfLineProblem, builtin_catalog
from halfline.quadrature import ray_monomial_tail
from halfline.transforms import TransformPair
from halfline.verify import data_trio

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "mpmath"))

def problem_and_datum(name):
    p = builtin_catalog()[name]
    return p, make_datum(p, p.datum_kernel, seed=0)

p, f = problem_and_datum("reverse-lkdv")
TransformPair(p).reconstruct(f, [0.2, 0.5])
p, f = problem_and_datum("heat-dirichlet")
solve_grid(TransformPair(p), f, [0.2, 0.5], [0.1])
data_trio(HalfLineProblem(2, 1.0, [[2.0, 1.0]]))
out = {"library": loaded()}
v = heat_neumann_solution(problem_and_datum("heat-neumann")[1], 0.3, 0.1).value
out["neumann"] = repr(complex(v))
out["tail"] = repr(complex(ray_monomial_tail(math.pi / 2, 1.0, 0.5, 2)))
out["after"] = sorted({m.split(".")[0] for m in loaded()})
print(json.dumps(out))
"""


def test_fresh_interpreter_loads_neither_scipy_nor_mpmath():
    """``import halfline``, the CLI, a reconstruction, an evolution and the
    data of a problem outside the catalog load no scipy or mpmath
    module, nor does the heat oracle; ``ray_monomial_tail`` loads mpmath
    on its first call; both return the values of this process."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    run = subprocess.run([sys.executable, "-c", _FRESH], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["library"] == []
    assert out["after"] == ["mpmath"]
    p = builtin_catalog()["heat-neumann"]
    v = heat_neumann_solution(make_datum(p, p.datum_kernel, seed=0), 0.3, 0.1)
    assert out["neumann"] == repr(complex(v.value))
    assert out["tail"] == repr(complex(ray_monomial_tail(math.pi / 2, 1.0, 0.5, 2)))
