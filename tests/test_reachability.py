"""Every top-level function and class in src/ is reached by src/ or scripts/.

Code that only tests reach is deleted, except the scalar reference oracles
in ORACLES: each names the test that compares the production path against
it, and must not be referenced from src/ or scripts/ itself.
"""

import ast
import collections
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


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(nodes):
    """Names read by the given nodes: plain loads and attribute accesses."""
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _unreferenced():
    """(module, name) of top-level defs no src/ or scripts/ line reads.

    A definition's own body (recursion, docstrings) does not count, and
    neither does an import that is never used.
    """
    sources = sorted(PACKAGE.glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py"))
    trees = {path: _parse(path) for path in sources}
    reads = collections.Counter(
        _loaded_names(n for tree in trees.values() for n in ast.walk(tree)))
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = collections.Counter(_loaded_names(ast.walk(node)))
            if reads[node.name] == own[node.name]:
                out.add((path.stem, node.name))
    return out


def test_every_src_definition_is_reached_outside_tests():
    unreached = _unreferenced()
    assert sorted(unreached - set(ORACLES)) == []
    # an oracle that production code now calls is no longer test-only
    assert sorted(set(ORACLES) - unreached) == []


def test_each_oracle_names_a_test_that_uses_it():
    for (module, name), test_id in ORACLES.items():
        test_file, test_name = test_id.split("::")
        tree = _parse(ROOT / test_file)
        [test] = [n for n in tree.body if isinstance(n, ast.FunctionDef)
                  and n.name == test_name]
        assert name in set(_loaded_names(ast.walk(test))), test_id
