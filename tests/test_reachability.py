"""Every top-level function and class in src/ is reached by src/ or scripts/.

Reached means reachable from the module-level code of src/ or from
scripts/, through the bodies of reached definitions only. Code that only
tests reach is deleted, except the scalar reference oracles in ORACLES:
each names the test that compares the production path against it, and
must not be reached from src/ or scripts/ itself. The helpers an oracle
alone reads are listed in ORACLE_PARTS with that oracle.
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
    ("variation", name): ("variation", "neumann_series")
    for name in ("NeumannReport", "decay_condition_check", "n_quarter_site")
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


def _definitions():
    """(module, name) -> top-level def node, for every def in src/."""
    return {(path.stem, node.name): node
            for path in sorted(PACKAGE.glob("*.py"))
            for node in _parse(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _unreached():
    """(module, name) of top-level defs not reachable from src/ or scripts/.

    The roots are the statements of src/ outside top-level defs and every
    line of scripts/; a def is reached when a reached line reads its name,
    and then its body is reached too. An import that is never used reads
    nothing, and a def reached only from its own body stays unreached.
    """
    defs = _definitions()
    seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        seen.update(_loaded_names(
            n for node in _parse(path).body
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for n in ast.walk(node)))
    for path in sorted((ROOT / "scripts").glob("*.py")):
        seen.update(_loaded_names(ast.walk(_parse(path))))
    reached, grew = set(), True
    while grew:
        grew = False
        for key, node in defs.items():
            if key not in reached and key[1] in seen:
                reached.add(key)
                seen.update(_loaded_names(ast.walk(node)))
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
        assert name in set(_loaded_names(ast.walk(defs[oracle]))), oracle


def test_each_oracle_names_a_test_that_uses_it():
    for (module, name), test_id in ORACLES.items():
        test_file, test_name = test_id.split("::")
        tree = _parse(ROOT / test_file)
        [test] = [n for n in tree.body if isinstance(n, ast.FunctionDef)
                  and n.name == test_name]
        assert name in set(_loaded_names(ast.walk(test))), test_id
