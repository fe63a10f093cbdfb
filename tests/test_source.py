import ast
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
