import ast
from pathlib import Path

import conefan


def test_no_assert_statements_in_package():
    # python -O strips assert statements; internal checks must raise
    # AssertionError explicitly so that they survive it
    found = []
    for path in sorted(Path(conefan.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
