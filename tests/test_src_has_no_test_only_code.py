"""src/pairsieve holds no code that only tests reach.

Every top-level function and class in src/pairsieve is reached from the
package itself or from the benchmark in perfbench/, not only from tests.
A name counts as referenced where it is read as a name or an attribute, or
where a string constant equals it (the benchmark tracer looks functions up
by name, and __all__ lists names as strings). An import alone is not a
reference, and neither is a use inside the definition's own body.

Every dataclass field and @property in src/pairsieve is read through an
attribute (`.name`) somewhere in src/ or perfbench/. Every field of a
dataclass passed to dataclasses.fields, astuple or asdict counts as read.
Matching is by name alone, so a read of one class's attribute covers any
other's of the same name: `row.loss_lvc` on an EpochMetrics would hide an
unread `loss_lvc` field or property elsewhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pairsieve"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FIELD_READERS = {"fields", "astuple", "asdict"}


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


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _members(class_node):
    """(dataclass fields, property names) declared in a class body."""
    fields = []
    if any(_decorator_name(d) == "dataclass" for d in class_node.decorator_list):
        fields = [s.target.id for s in class_node.body
                  if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    props = [s.name for s in class_node.body if isinstance(s, ast.FunctionDef)
             and any(_decorator_name(d) == "property" for d in s.decorator_list)]
    return fields, props


def _attribute_reads():
    """Attribute names read anywhere in CALLERS, and the classes whose every
    field a fields, astuple or asdict call reads: its argument names the
    class, or is self inside it."""
    reads, whole = set(), set()
    for path in CALLERS:
        tree = ast.parse(path.read_text(), str(path))
        reads |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        scopes = [(None, tree)] + [(n.name, n) for n in ast.walk(tree)
                                   if isinstance(n, ast.ClassDef)]
        for owner, scope in scopes:
            for node in ast.walk(scope):
                if (isinstance(node, ast.Call) and _decorator_name(node) in FIELD_READERS
                        and node.args and isinstance(node.args[0], ast.Name)):
                    arg = node.args[0].id
                    whole.add(owner if arg == "self" else arg)
    return reads, whole


def test_every_field_and_property_in_src_is_read_outside_tests():
    reads, whole = _attribute_reads()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields, props = _members(cls)
            if cls.name in whole:
                fields = []
            unread += [f"{path.stem}.{cls.name}.{name}" for name in fields + props
                       if name not in reads]
    assert not unread, ("fields or properties in src/ that nothing in src/ or perfbench/ "
                        f"reads (delete them, or compute them in tests): {', '.join(unread)}")
