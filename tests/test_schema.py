"""The config-schema walker against jsonschema, the reference validator."""

import copy
import math

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobilab.errors import ConfigError
from jacobilab.harness import CONFIG_SCHEMA, EXPERIMENTS, _validate

# jsonschema.validate picks the validator of the schema's draft and checks
# the schema against its meta-schema on every call; both are done once here
ORACLE_CLASS = jsonschema.validators.validator_for(CONFIG_SCHEMA)
ORACLE_CLASS.check_schema(CONFIG_SCHEMA)
ORACLE = ORACLE_CLASS(CONFIG_SCHEMA)

# ---------------------------------------------------------------------------
# valid configs
# ---------------------------------------------------------------------------

reals = st.floats(-10.0, 10.0)
positive = st.floats(0.01, 10.0)


def some_of(**fields):
    """Dicts holding any subset of `fields` (key -> value strategy)."""
    return st.fixed_dictionaries({}, optional=fields)


dists = st.fixed_dictionaries(
    {"kind": st.sampled_from(["zero", "uniform", "rademacher", "tgauss"])},
    optional={"amplitude": reals, "decay": reals, "trunc": positive})

valid_configs = st.fixed_dictionaries(
    {"experiment": st.sampled_from(list(EXPERIMENTS))},
    optional={
        "spec": st.fixed_dictionaries(
            {"type": st.sampled_from(["free", "constant", "sparse"])},
            optional={"a": positive, "b": reals, "v": reals,
                      "gamma": st.integers(2, 20),
                      "j_max": st.integers(1, 40)}),
        "model": some_of(b=dists, a=dists, delta=st.floats(0.01, 0.99)),
        "E_grid": st.one_of(
            st.lists(reals, min_size=1, max_size=3),
            st.fixed_dictionaries({"start": reals, "stop": reals,
                                   "step": positive})),
        "seeds": some_of(base=st.integers(0, 100), count=st.integers(1, 50)),
        "grids": some_of(
            N_j_max=st.integers(4, 40), L_max=st.floats(1.5, 1e5),
            L_decades=st.integers(2, 5), n_max=st.integers(10, 10 ** 5),
            N1=st.integers(1, 10), N2=st.integers(2, 20),
            r=st.floats(0.0, 10.0), trials=st.integers(1, 10 ** 4),
            n_tail=st.integers(1, 100), s=positive,
            n_cut=st.integers(100, 10 ** 5),
            checkpoints=st.lists(st.integers(1, 1000), min_size=1,
                                max_size=3)),
        "output": st.text(max_size=4),
        "workers": st.integers(1, 8),
    })

# ---------------------------------------------------------------------------
# one mutation each
# ---------------------------------------------------------------------------

MUTATIONS = ("wrong type", "bool for a number", "integral float",
             "bound", "unknown key", "missing key", "E_grid")
OTHER_TYPES = ["x", None, [], {}, [1.0], {"k": 1}, 1.5, 3]
BAD_E_GRIDS = [
    [],
    [{"start": 0.0, "stop": 1.0, "step": 0.5}],
    {"start": 0.0, "stop": 1.0, "step": 0.5, "values": [0.5]},
    {"start": 0.0, "stop": 1.0},
]


def nodes(value, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from nodes(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from nodes(v, path + (i,))


def replaced(doc, path, new):
    """A copy of `doc` with the node at `path` set to `new`."""
    if not path:
        return new
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return out


def mutated(cfg, kind, draw):
    """`cfg` with one mutation of the given kind."""
    everything = list(nodes(cfg))
    by_path = dict(everything)
    numbers = [p for p, v in everything
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if kind == "wrong type":
        path = draw(st.sampled_from([p for p, _ in everything]))
        return replaced(cfg, path, draw(st.sampled_from(OTHER_TYPES)))
    if kind == "bool for a number" and numbers:
        return replaced(cfg, draw(st.sampled_from(numbers)),
                        draw(st.booleans()))
    ints = [p for p in numbers if isinstance(by_path[p], int)]
    if kind == "integral float" and ints:
        path = draw(st.sampled_from(ints))
        return replaced(cfg, path, float(by_path[path]))
    bounded = [p for p in numbers if bounds_at(p)]
    if kind == "bound" and bounded:
        path = draw(st.sampled_from(bounded))
        bound = draw(st.sampled_from(bounds_at(path)))
        return replaced(cfg, path, draw(st.sampled_from(
            [bound, bound - 1, bound + 0.5, float(bound), math.nan,
             math.inf])))
    keyed = [p for p, _ in everything
             if p and isinstance(by_path[p[:-1]], dict)]
    if kind == "missing key" and keyed:
        path = draw(st.sampled_from(keyed))
        return replaced(cfg, path[:-1], {k: v for k, v
                                         in by_path[path[:-1]].items()
                                         if k != path[-1]})
    if kind == "E_grid":
        return replaced(cfg, ("E_grid",), draw(st.sampled_from(BAD_E_GRIDS)))
    path = draw(st.sampled_from([p for p, v in everything
                                 if isinstance(v, dict)]))
    return replaced(cfg, path, {**by_path[path], "bogus": 1})


def bounds_at(path):
    """The numeric bounds CONFIG_SCHEMA sets on the node at `path`."""
    schema = CONFIG_SCHEMA
    for key in path:
        if "oneOf" in schema:  # E_grid: a list of energies or a range
            schema = schema["oneOf"][0 if isinstance(key, int) else 1]
        schema = schema["items"] if isinstance(key, int) else (
            schema["properties"][key])
    return [schema[k] for k in ("minimum", "exclusiveMinimum",
                                "exclusiveMaximum") if k in schema]


def assert_path_present(doc, path):
    node = doc
    for key in path:
        if isinstance(node, dict):
            assert key in node, path
        else:
            assert isinstance(node, list) and 0 <= key < len(node), path
        node = node[key]


def assert_walker_agrees(cfg):
    """_validate accepts `cfg` iff jsonschema does, and a rejection names
    a path present in `cfg`."""
    try:
        ORACLE.validate(cfg)
        oracle_error = None
    except jsonschema.ValidationError as exc:
        oracle_error = exc
    try:
        _validate(cfg, CONFIG_SCHEMA)
    except ConfigError as exc:
        assert oracle_error is not None, (
            f"walker rejects a valid config at {exc.path}: {exc.message}")
        assert_path_present(cfg, exc.path)
    else:
        assert oracle_error is None, (
            f"walker accepts an invalid config: {oracle_error.message}")


@settings(max_examples=200, deadline=None)
@given(valid_configs, st.data())
def test_walker_agrees_with_jsonschema(cfg, data):
    assert_walker_agrees(cfg)
    for kind in MUTATIONS:
        assert_walker_agrees(mutated(cfg, kind, data.draw))


@pytest.mark.parametrize("cfg", [
    {"experiment": "transfer", "spec": {"type": "constant", "b": True}},
    {"experiment": "transfer", "grids": {"n_max": True}},
    {"experiment": "transfer", "spec": {"type": "constant", "a": 0}},
    {"experiment": "transfer", "grids": {"n_max": 1000.0}},
    {"experiment": "transfer", "model": {"delta": 1}},
    {"experiment": "transfer", "E_grid": []},
    {"experiment": "transfer", "E_grid": {"start": 0, "stop": 1,
                                          "step": 0}},
])
def test_walker_agrees_on_edge_cases(cfg):
    assert_walker_agrees(cfg)


@pytest.mark.parametrize("value, valid", [
    (3, False), (2.0, False), (2.5, True), (True, False), ("x", False),
    (math.nan, True),
])
def test_one_of_needs_exactly_one_match(value, valid):
    # 2.0 is an integer and a number; a bool is neither
    schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    assert jsonschema.Draft202012Validator(schema).is_valid(value) == valid
    try:
        _validate(value, schema)
        assert valid
    except ConfigError:
        assert not valid


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^x$"},
    {"type": "object", "properties": {"k": {"maximum": 1}}},
    {"type": "object", "additionalProperties": {"type": "number"}},
])
def test_unknown_keyword_raises(schema):
    value = {"k": 0} if schema["type"] == "object" else "x"
    with pytest.raises(NotImplementedError):
        _validate(value, schema)
