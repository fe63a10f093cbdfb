"""Mutation census of the verdict, certificate and elimination code.

Usage: python tools/mutants.py [--budget SECONDS] [--only NAME ...]

For each function in TARGETS, every single-node mutation below is made in
turn in a copy of src/ in a temporary directory, and pytest runs the test
files that cover the function against that copy, with -x and a fixed
Hypothesis seed.  A mutant is killed when the tests fail or run past
three times the unmutated run's time, and survives when they pass.
Each survivor is printed as it is found, as "SURVIVED module:function:
line:column mutation", then one summary line with the kill rate;
mutants left when --budget seconds (default 3600) are spent are counted
as not run.  --only keeps the functions with the given names.

The mutations (DeMillo, Lipton & Sayward, IEEE Computer 11, 1978; Offutt
et al., ACM TOSEM 5, 1996):
  - a comparison flipped to its negation (< to >=, == to !=, in to not in)
    or shifted (< to <=, > to >=, and back);
  - `and` and `or` swapped;
  - an integer constant, not a bool, plus or minus one;
  - the condition of an if, while, conditional expression or
    comprehension filter negated;
  - a return of a truth value (a comparison, `and`/`or`, `not`, any, all
    or a bool constant) replaced by `return True` and by `return False`,
    whichever differs from it.

It needs nothing outside the standard library and the test dependencies,
and is not part of the test suite: a census runs for tens of minutes.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")

_ELIMINATION = ["test_kernel.py", "test_linalg.py", "test_polyhedra.py"]
_VERDICT = ["test_graded.py", "test_cli.py", "test_lp.py", "test_kernel.py"]

# (module, function): the test files that cover it, in the order run
TARGETS = {
    ("_kernel.py", "gauss_jordan"): _ELIMINATION,
    ("linalg.py", "int_adjugate"): ["test_linalg.py", "test_fans.py"],
    ("linalg.py", "echelon_lattice_det"): ["test_linalg.py", "test_fans.py"],
    ("_dd.py", "_canonical_basis"): ["test_polyhedra.py", "test_kernel.py"],
    ("polyhedra.py", "_hform_from_dd"): ["test_polyhedra.py", "test_kernel.py"],
    ("graded.py", "_cone_certified"): _VERDICT,
    ("graded.py", "_check_tuple"): _VERDICT,
    ("graded.py", "_check_inside"): _VERDICT,
    ("graded.py", "_missing_vertex"): _VERDICT,
    ("graded.py", "_stabilize"): _VERDICT,
    ("graded.py", "_check_limit_polyhedra"): _VERDICT,
    ("graded.py", "_facets"): _VERDICT,
    ("graded.py", "_least"): _VERDICT,
    ("graded.py", "_separating_weight"): _VERDICT,
    ("_simplex.py", "_check_optimal"): ["test_lp.py", "test_kernel.py"],
    ("_simplex.py", "_check_farkas"): ["test_lp.py", "test_kernel.py"],
    ("_simplex.py", "_check_ray"): ["test_lp.py", "test_kernel.py"],
    ("fans.py", "every_cost_linear_on"): ["test_fans.py", "test_cli.py"],
}

_FLIP = {
    ast.Lt: ast.GtE, ast.LtE: ast.Gt, ast.Gt: ast.LtE, ast.GtE: ast.Lt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_SHIFT = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
_OP_TEXT = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in",
}


def _is_truth_value(node) -> bool:
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return True
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("any", "all")
    )


def _mutations(node):
    """(description, apply) for each mutation of this one node; apply
    changes a copy of the node in place."""
    out = []
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        op = type(node.ops[0])
        for table, kind in ((_FLIP, "flip"), (_SHIFT, "shift")):
            if op in table:
                new = table[op]
                out.append((
                    f"{kind} {_OP_TEXT[op]} to {_OP_TEXT[new]}",
                    lambda n, new=new: n.ops.__setitem__(0, new()),
                ))
    elif isinstance(node, ast.BoolOp):
        swap = ast.Or if isinstance(node.op, ast.And) else ast.And
        out.append((
            f"{type(node.op).__name__.lower()} to {swap.__name__.lower()}",
            lambda n, swap=swap: setattr(n, "op", swap()),
        ))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for step in (1, -1):
            out.append((
                f"constant {node.value} to {node.value + step}",
                lambda n, step=step: setattr(n, "value", n.value + step),
            ))
    elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
        out.append((
            f"negate {type(node).__name__} condition",
            lambda n: setattr(n, "test", ast.UnaryOp(ast.Not(), n.test)),
        ))
    elif isinstance(node, ast.comprehension) and node.ifs:
        out.append((
            "negate comprehension filter",
            lambda n: n.ifs.__setitem__(0, ast.UnaryOp(ast.Not(), n.ifs[0])),
        ))
    elif isinstance(node, ast.Return) and node.value is not None:
        if _is_truth_value(node.value):
            same = getattr(node.value, "value", None)
            for value in (v for v in (True, False) if v is not same):
                out.append((
                    f"return {value}",
                    lambda n, value=value: setattr(n, "value", ast.Constant(value)),
                ))
    return out


def _function(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no function {name}")


def mutants(source: str, name: str):
    """("line:column", description, mutated module source) for every
    mutation of one node of the function `name`, in walk order."""
    tree = ast.parse(source)
    nodes = list(ast.walk(_function(tree, name)))
    for index, node in enumerate(nodes):
        for description, apply in _mutations(node):
            mutated = copy.deepcopy(tree)
            target = list(ast.walk(_function(mutated, name)))[index]
            apply(target)
            ast.fix_missing_locations(mutated)
            where = f"{getattr(node, 'lineno', 0)}:{getattr(node, 'col_offset', 0)}"
            yield where, description, ast.unparse(mutated)


def run_tests(src: str, files, timeout: float) -> tuple[bool, float]:
    """(passed, seconds) of pytest -x on the files against src; a run
    past the timeout counts as failed."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *[os.path.join(TESTS, f) for f in files],
    ]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=os.path.dirname(src), env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return proc.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=float, default=3600.0)
    parser.add_argument("--only", nargs="*", default=None)
    args = parser.parse_args(argv)
    targets = {
        key: files
        for key, files in TARGETS.items()
        if args.only is None or key[1] in args.only
    }
    deadline = time.perf_counter() + args.budget
    counts = {"killed": 0, "survived": 0, "not run": 0}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(
            os.path.join(ROOT, "src"), src,
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
        baselines = {}
        for (module, name), files in targets.items():
            path = os.path.join(src, "conefan", module)
            with open(path) as fh:
                original = fh.read()
            key = tuple(files)
            if key not in baselines:
                passed, seconds = run_tests(src, files, None)
                if not passed:
                    print(f"tests {' '.join(files)} fail unmutated", file=sys.stderr)
                    return 2
                baselines[key] = seconds
            try:
                for where, description, text in mutants(original, name):
                    if time.perf_counter() > deadline:
                        counts["not run"] += 1
                        continue
                    with open(path, "w") as fh:
                        fh.write(text)
                    passed, _ = run_tests(src, files, 3 * baselines[key] + 10)
                    if passed:
                        counts["survived"] += 1
                        print(f"SURVIVED {module}:{name}:{where} {description}", flush=True)
                    else:
                        counts["killed"] += 1
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
    run = counts["killed"] + counts["survived"]
    rate = f"{100 * counts['killed'] / run:.1f}%" if run else "n/a"
    print(
        f"{run} mutants run: {counts['killed']} killed ({rate}), "
        f"{counts['survived']} survived; {counts['not run']} not run (budget)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
