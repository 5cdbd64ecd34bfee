"""Every def and method in src/ is reached by src/ or scripts/.

Reached means reachable from the module-level code of src/ or from
scripts/, through the bodies of reached definitions only. A method
(named Class.method) is reached when its class is and a reached line
reads an attribute of that name; an attribute of an imported module
(np.isfinite, math.log) reaches none. Dunder methods run through
operators and dataclass hooks, so they go with their class. Code that
only tests reach is deleted, except the scalar reference oracles in
ORACLES: each names the test that compares the production path against
it, and must not be reached from src/ or scripts/ itself. The helpers
and methods an oracle alone reads are listed in ORACLE_PARTS with that
oracle.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jacobilab"

# (module, name) -> the test that compares against the oracle
ORACLES = {
    ("core", "transfer_product"):
        "tests/test_core.py::test_solve_forward_matches_transfer_columns",
    ("core", "naive_power"):
        "tests/test_core.py::test_fast_power_matches_naive",
    ("ac_criterion", "log_t2_stream"):
        "tests/test_ac_criterion.py::"
        "test_energy_lanes_match_scalar_stream_bit_for_bit",
    ("randpert", "zero_distribution"):
        "tests/test_singular.py::test_stability_zero_model_ratios_exactly_one",
    ("randpert", "uniform_over_n"):
        "tests/test_randpert.py::test_series_tail_moment_within_bound",
    ("subordinacy", "wronskian"):
        "tests/test_subordinacy.py::test_wronskian_constant_one",
    ("variation", "correction_recursion"):
        "tests/test_variation.py::test_correction_unimodular_and_dual_path",
    ("variation", "neumann_series"):
        "tests/test_variation.py::test_neumann_series_matches_direct_loop",
}

# (module, name) -> the oracle in ORACLES whose body reads it
ORACLE_PARTS = {
    ("variation", name): ("variation", "correction_recursion")
    for name in ("CorrectionState", "_transfer_sequence",
                 "conjugated_generators", "k_conjugate", "perturbed_spec")
} | {
    ("core", f"Mat2.{name}"): ("variation", "correction_recursion")
    for name in ("from_array", "inv_unimodular", "scaled", "sub", "to_array")
} | {
    ("variation", name): ("variation", "neumann_series")
    for name in ("NeumannReport", "decay_condition_check", "n_quarter_site")
} | {
    ("core", f"Mat2.{name}"): ("core", "transfer_product")
    for name in ("isfinite", "max_abs", "norm")
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


SOURCES = {"src": sorted(PACKAGE.glob("*.py")),
           "scripts": sorted((ROOT / "scripts").glob("*.py"))}

# names bound by `import` in src/ or scripts/: np, math, os, ...
MODULES = {alias.asname or alias.name.split(".")[0]
           for paths in SOURCES.values() for path in paths
           for node in ast.walk(_parse(path))
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
    for path in SOURCES["src"]:
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
    """(module, name) of defs and methods not reachable from src/ or scripts/.

    The roots are the statements of src/ outside top-level defs and every
    line of scripts/; a def is reached when a reached line reads its name,
    a method when its class is reached and a reached line reads it as an
    attribute, and then its body is reached too. An import that is never
    used reads nothing, and a def reached only from its own body stays
    unreached.
    """
    defs = _definitions()
    roots = [n for path in SOURCES["src"] for node in _parse(path).body
             if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
             for n in ast.walk(node)]
    roots += [n for path in SOURCES["scripts"] for n in ast.walk(_parse(path))]
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
    unreached = _unreached()
    expected = set(ORACLES) | set(ORACLE_PARTS)
    assert sorted(unreached - expected) == []
    # an oracle or part that production code now reaches is not test-only
    assert sorted(expected - unreached) == []


def test_each_oracle_part_is_read_by_its_oracle():
    defs = _definitions()
    for (module, name), oracle in ORACLE_PARTS.items():
        assert oracle in ORACLES, (module, name)
        cls, _, method = name.rpartition(".")
        nodes = list(ast.walk(defs[oracle]))
        read = _read_attributes(nodes) if cls else _loaded_names(nodes)
        assert method in set(read), oracle


def test_each_oracle_names_a_test_that_uses_it():
    for (module, name), test_id in ORACLES.items():
        test_file, test_name = test_id.split("::")
        tree = _parse(ROOT / test_file)
        [test] = [n for n in tree.body if isinstance(n, ast.FunctionDef)
                  and n.name == test_name]
        assert name in set(_loaded_names(ast.walk(test))), test_id
