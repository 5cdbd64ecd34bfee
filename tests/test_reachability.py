"""Every def and method in src/ is reached by src/; every oracle by a test.

Reached means reachable from the module-level code of src/, through the
bodies of reached definitions only. A method (named Class.method) is
reached when its class is and a reached line reads an attribute of that
name; an attribute of an imported module (np.isfinite, math.log)
reaches none. Dunder methods run through operators and dataclass hooks,
so they go with their class. Code that only tests reach is deleted: the
scalar reference oracles live in tests/oracles.py, and each function
there is called by some tests/test_*.py.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jacobilab"

def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


SOURCES = sorted(PACKAGE.glob("*.py"))

# names bound by `import` in src/: np, math, os, ...
MODULES = {alias.asname or alias.name.split(".")[0]
           for path in SOURCES for node in ast.walk(_parse(path))
           if isinstance(node, ast.Import) for alias in node.names}


def _loaded_names(nodes):
    """Names read by the given nodes: plain loads and attribute accesses."""
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _read_attributes(nodes):
    """Attributes read by the given nodes, except those of an imported module."""
    for node in nodes:
        if isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if not (isinstance(base, ast.Name) and base.id in MODULES):
                yield node.attr


def _is_method(node):
    return (isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__")))


def _definitions():
    """(module, name) -> def node, for every top-level def in src/ and
    every method (not a dunder) of a top-level class, named Class.method."""
    defs = {}
    for path in SOURCES:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(path.stem, node.name)] = node
            if isinstance(node, ast.ClassDef):
                defs.update(((path.stem, f"{node.name}.{item.name}"), item)
                            for item in node.body if _is_method(item))
    return defs


def _own_nodes(node):
    """The nodes of a def, without those of its class's methods."""
    skip = set()
    if isinstance(node, ast.ClassDef):
        skip = {id(n) for item in node.body if _is_method(item)
                for n in ast.walk(item)}
    return [n for n in ast.walk(node) if id(n) not in skip]


def _unreached():
    """(module, name) of defs and methods not reachable from src/.

    The roots are the statements of src/ outside top-level defs; a def is
    reached when a reached line reads its name,
    a method when its class is reached and a reached line reads it as an
    attribute, and then its body is reached too. An import that is never
    used reads nothing, and a def reached only from its own body stays
    unreached.
    """
    defs = _definitions()
    roots = [n for path in SOURCES for node in _parse(path).body
             if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
             for n in ast.walk(node)]
    names, attributes = set(_loaded_names(roots)), set(_read_attributes(roots))
    reached, grew = set(), True
    while grew:
        grew = False
        for (module, name), node in defs.items():
            cls, _, method = name.rpartition(".")
            if cls:
                found = method in attributes and (module, cls) in reached
            else:
                found = name in names
            if not found or (module, name) in reached:
                continue
            reached.add((module, name))
            nodes = _own_nodes(node)
            names.update(_loaded_names(nodes))
            attributes.update(_read_attributes(nodes))
            grew = True
    return set(defs) - reached


def test_every_src_definition_is_reached_outside_tests():
    assert sorted(_unreached()) == []


def test_each_oracle_is_called_by_a_test():
    oracles = _parse(ROOT / "tests" / "oracles.py").body
    called = {node.func.id
              for path in sorted((ROOT / "tests").glob("test_*.py"))
              for node in ast.walk(_parse(path))
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)}
    defs = [node.name for node in oracles
            if isinstance(node, ast.FunctionDef)]
    assert defs
    assert sorted(set(defs) - called) == []
