import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import conefan


def test_no_assert_statements_in_package():
    # python -O strips assert statements; internal checks must raise
    # InternalError explicitly so that they survive it, and a plain
    # AssertionError would escape the CLI's exit code 3
    found = []
    for path in sorted(Path(conefan.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_elimination_projection_in_package():
    # project() runs through the double description; Fourier-Motzkin with
    # LP pruning lives on only as the test oracle in tests/helpers.py
    banned = {"maximize_over_h", "_prune_rows", "_FM_ROW_BUDGET"}
    found = []
    for path in sorted(Path(conefan.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname}
            else:
                continue
            for name in sorted(names & banned):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}:{name}")
    assert not found, found


def test_limit_newton_runs_no_double_description():
    # the representation polytope's vertices are its basic solutions; its
    # double description lives on only as the test oracle in
    # tests/helpers.py:representation_vertices_reference.  The limit hull's
    # vertices come from facet incidences, and the containment check and
    # the vertex lookup against it run no double description either
    path = Path(conefan.__file__).parent / "graded.py"
    tree = ast.parse(path.read_text(), str(path))
    banned = {"dual_description", "from_rows"}
    checked = {
        "asymptotic_newton",
        "_limit_points",
        "_basic_solutions",
        "_orthant_vertices",
        "_check_inside",
        "_missing_vertex",
    }
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in checked:
            names = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            found[node.name] = sorted(names & banned)
    assert found == {name: [] for name in checked}


def test_frames_come_from_the_integer_echelon():
    # a coordinate frame is the pivot list of linalg.int_echelon, with no
    # search over coordinate combinations and no Fraction rref.
    # linalg._basis_table runs combinations over the vectors, for the
    # bases it tabulates; _basic_solutions reads the system's table, with
    # no echelon or adjugate of its own
    banned = {"combinations", "rref", "hermite_basis_det"}
    checked = {
        ("fans.py", "_ray_frame"): banned,
        ("linalg.py", "_basis_table"): banned - {"combinations"},
        ("graded.py", "_basic_solutions"): banned | {"int_echelon", "int_adjugate"},
    }
    found = {}
    for (module, name), names in checked.items():
        path = Path(conefan.__file__).parent / module
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                used = {
                    n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node)
                    if isinstance(n, (ast.Name, ast.Attribute))
                }
                found[module, name] = sorted(used & names)
    assert found == {key: [] for key in checked}


def test_bases_are_enumerated_in_one_routine():
    # linalg._basis_table is the one enumeration of the bases of a span,
    # which the cuts and the representation polytope's vertices both read;
    # every_cost_linear_on keeps its own as the exact chamber test, and the
    # other combinations are pairs of cones
    expected = {
        ("fans.py", "check_valid"),
        ("fans.py", "every_cost_linear_on"),
        ("linalg.py", "_basis_table"),
    }
    found = set()
    for path in sorted(Path(conefan.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(n, ast.Name) and n.id == "combinations"
                for n in ast.walk(node)
            ):
                found.add((path.name, node.name))
    assert found == expected


def _functions_using(names):
    """{(module, function or <module>): sorted names of `names` it uses},
    from every Name, Attribute, import alias and definition in the
    package, for the functions that use any."""
    found = {}

    def walk(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name in names:
                    found.setdefault((path.name, scope), set()).add(child.name)
                walk(child, path, child.name)
                continue
            if isinstance(child, ast.Name):
                used = {child.id}
            elif isinstance(child, ast.Attribute):
                used = {child.attr}
            elif isinstance(child, ast.alias):
                used = {child.name, child.asname}
            else:
                used = set()
            if used & names:
                found.setdefault((path.name, scope), set()).update(used & names)
            walk(child, path, scope)

    for path in sorted(Path(conefan.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path, "<module>")
    return {key: sorted(val) for key, val in found.items()}


def test_one_gauss_jordan_loop():
    # _kernel.gauss_jordan is the package's one Gauss-Jordan elimination:
    # the fraction-free pivot is reached only through it and the simplex,
    # the determinant pass, the Fraction reduction modulo equalities and
    # the minor loop are gone, rank reads pivots with no Fraction, and _dd
    # and polyhedra canonicalize with no rref
    pivot_users = {module for module, _ in _functions_using({"_pivot"})}
    assert pivot_users == {"_kernel.py", "_simplex.py"}
    assert _functions_using({"_pivot_det", "_reduce_mod_equalities"}) == {}
    banned = {
        ("linalg.py", "echelon_lattice_det"): {"combinations", "gcd", "int_adjugate"},
        ("linalg.py", "rank"): {"rref", "rref_frac", "Fraction", "frac", "qvec"},
    }
    for key, names in banned.items():
        assert key not in _functions_using(names), key
    for module in ("_dd.py", "polyhedra.py"):
        assert not [key for key in _functions_using({"rref", "rref_frac"}) if key[0] == module]


# Every HPolyhedron row is an int row, so "/" between two of its entries
# is int / int, a float, where the verifier must stay exact.  Each listed
# function divides by a Fraction, at most the given number of times; any
# other true division must get a Fraction operand and a place here, or be
# floor division.
_TRUE_DIVISION_ALLOWED = {
    ("fans.py", "caratheodory_reduce"): 2,
    ("graded.py", "asymptotic_limit_check"): 1,
}


def _true_divisions(node, scope):
    """Innermost enclosing function name (or <module>) of each "/"."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _true_divisions(child, child.name)
            continue
        if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(
            child.op, ast.Div
        ):
            yield scope
        yield from _true_divisions(child, scope)


def test_true_division_only_in_allowed_functions():
    found = {}
    for path in sorted(Path(conefan.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for scope in _true_divisions(tree, "<module>"):
            key = (path.name, scope)
            found[key] = found.get(key, 0) + 1
    extra = {
        key: count
        for key, count in found.items()
        if count > _TRUE_DIVISION_ALLOWED.get(key, 0)
    }
    assert not extra, extra


def test_package_keeps_no_module_memos():
    # no result may depend on what an earlier call left behind: repeated
    # work is kept by the run (_RunPolyhedra) or the object (cached
    # properties) that made it, and goes away with it
    found = []
    for info in pkgutil.iter_modules(conefan.__path__):
        module = importlib.import_module(f"conefan.{info.name}")
        for obj in vars(module).values():
            # an imported name is listed in the module that defines it
            if getattr(obj, "__module__", None) == module.__name__ and hasattr(
                obj, "cache_clear"
            ):
                found.append(f"{module.__name__}.{obj.__qualname__}")
    assert not found, sorted(found)


def test_cli_imports_no_dataclasses_inspect_or_typing():
    # the value classes come from _value.Frozen and the annotation types
    # from collections.abc: dataclasses (which imports inspect) and typing
    # were most of what importing conefan cost.  -S keeps site, and what
    # its .pth files import, out of the check
    src = Path(conefan.__file__).parent.parent
    proc = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, conefan.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
