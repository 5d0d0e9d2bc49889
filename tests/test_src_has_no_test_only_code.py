"""Every top-level function and class in src/pairsieve is reached from the
package itself or from the benchmark in perfbench/, not only from tests.

A name counts as referenced where it is read as a name or an attribute, or
where a string constant equals it (the benchmark tracer looks functions up
by name, and __all__ lists names as strings). An import alone is not a
reference, and neither is a use inside the definition's own body.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pairsieve"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _referenced():
    used = set()
    for path in CALLERS:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            names = set(_names_used(stmt))
            if isinstance(stmt, DEFINITIONS):
                names.discard(stmt.name)
            used |= names
    return used


def test_every_definition_in_src_has_a_caller_outside_tests():
    used = _referenced()
    unreached = [
        f"{path.stem}.{stmt.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text(), str(path)).body
        if isinstance(stmt, DEFINITIONS) and stmt.name not in used
    ]
    assert not unreached, ("defined in src/ but referenced only by tests (move them to "
                           f"tests/oracles.py or delete them): {', '.join(unreached)}")
