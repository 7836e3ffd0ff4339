"""The package defines no public name that the package itself never uses."""

import ast
from pathlib import Path

import cagu

PACKAGE = Path(cagu.__file__).parent

# public names the package defines for readers outside it, each with its reason
OUTSIDE_READERS = {
    "dense_adjacency": "acceptance criterion 03 compares the graph densely",
    "edge_rows": "the benchmark's tracer counts graph.edges from it",
}


def test_every_public_definition_is_used_in_the_package():
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = {name: where for name, where in defined.items() if name not in used}
    assert set(unused) == set(OUTSIDE_READERS), unused
