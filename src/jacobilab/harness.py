"""Configuration, orchestration, and data emission for all experiments.

A single JSON config file drives every experiment. Each experiment accepts
only the keys it reads (KEYS), and their defaults are materialized before
hashing, so the provenance copy pins the exact run. All emitted files are
written atomically and are byte-deterministic for a given config: floats
are serialized with their shortest round-trip representation and cells
are reduced in key order regardless of worker count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import numbers
import operator
import os
import sys
import tempfile
from dataclasses import dataclass, field
from decimal import Decimal
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from . import __version__
from .ac_criterion import cesaro_scan, default_n_grid, gamma_membership
from .core import OperatorSpec, constant_spec, free_laplacian
from .errors import (
    ConfigError,
    DivergentSeriesError,
    InsufficientDataError,
    InternalConsistencyError,
    InvalidArgumentError,
    OverflowSiteError,
    UnsupportedModelError,
)
from .randpert import (
    PerturbationModel,
    SiteDistribution,
    maximal_inequality_check,
    series_convergence_check,
)
from .singular import stability_experiment, terminal_ratio_verdict
from .sparse import SparseSpec, perturbed_sparse_experiment
from .subordinacy import default_l_grid, detect_subordinate
from .variation import correction_ensemble

E_GRID_POINTS_MAX = 10 ** 5  # range-form energies; a typo in step is refused
# the keys every experiment reads besides those of READS
RUNTIME = ("experiment", "output", "workers")


class Experiment(NamedTuple):  # a row of EXPERIMENTS
    columns: str  # of its CSV, space-separated
    # compute's form: "lane pass", (config, energies) -> cells, in one pass;
    # "one cell each", (config, E) -> cell, a cell being (rows, traces);
    # "none", config -> (rows, summary)
    energies: str
    compute: Callable[..., Any]
    floors: Tuple[Tuple[str, str, int], ...] = ()  # (block, shared key, min)


# ---------------------------------------------------------------------------
# per-experiment computations (module-level for process-pool pickling)
# ---------------------------------------------------------------------------

def _seeds(config: Dict[str, Any]) -> List[int]:
    base = config["seeds"]["base"]
    return list(range(base, base + config["seeds"]["count"]))


def _transfer(config: Dict[str, Any], energies: List[float]) -> list:
    scan = cesaro_scan(build_spec(config), energies,
                       default_n_grid(config["grids"]["N_j_max"]))
    return [([[E, N, avg, int(rep.bounded_flag)]
              for N, avg in zip(scan.N_grid, rep.averages)],
             {f"cesaro_E{E}": list(zip(map(float, scan.N_grid),
                                       rep.averages))})
            for E, rep in zip(energies, scan.reports)]


def _ac_scan(config: Dict[str, Any], energies: List[float]) -> list:
    g = config["grids"]
    scan = cesaro_scan(build_spec(config), energies,
                       default_n_grid(g["N_j_max"]), build_model(config),
                       g["n_max"])
    verdicts = gamma_membership(g["n_max"], scan)
    return [([[E, rep.liminf_proxy, int(rep.bounded_flag), int(m), psum]], {})
            for E, rep, (m, psum) in zip(energies, scan.reports, verdicts)]


def _subordinacy(config: Dict[str, Any], E: float) -> tuple:
    g = config["grids"]
    res = detect_subordinate(build_spec(config), E, L_grid=default_l_grid(
        g["L_max"], g["L_decades"]))
    return [[E, res.classification,
             res.theta_star if res.theta_star is not None else math.nan,
             res.beta, res.eta if res.eta is not None else math.nan,
             res.growth_exponent, int(res.regular)]], {
        f"ratio_E{E}": [(L, r) for L, r in res.ratio_trace]}


def _variation(config: Dict[str, Any], E: float) -> tuple:
    base = config["grids"]["checkpoints"]
    cps = sorted(set(base) | {2 * c for c in base})
    snaps = correction_ensemble(build_spec(config), build_model(config),
                                E, _seeds(config), cps)
    rows = []
    for c in sorted(set(base)):
        i, j = cps.index(c), cps.index(2 * c)
        dev = np.linalg.norm(snaps[:, j] - snaps[:, i], axis=(1, 2))
        rows.append([E, c, float(np.median(dev)),
                     float(np.mean(snaps[:, i, 0, 0])),
                     float(np.mean(snaps[:, i, 1, 1]))])
    return rows, {}


def _singular_stability(config: Dict[str, Any], E: float) -> tuple:
    g = config["grids"]
    L_grid = default_l_grid(g["L_max"], g["L_decades"])
    rep = stability_experiment(build_spec(config), build_model(config),
                               E, seeds=_seeds(config), L_grid=L_grid)
    return [[E, rep.beta, rep.eta, rep.eta_tilde, int(rep.lambda_member),
             rep.ratio_psi1[-1][1], rep.ratio_psi2[-1][1],
             int(terminal_ratio_verdict(rep)), rep.exp1, rep.exp2,
             int(rep.sandwich_ok)]], {f"psi1_E{E}": rep.ratio_psi1,
                                      f"psi2_E{E}": rep.ratio_psi2}


def _sparse(config: Dict[str, Any], E: float) -> tuple:
    g = config["grids"]
    rep = perturbed_sparse_experiment(build_spec(config), g["s"],
                                      _seeds(config), E, n_cut=g["n_cut"])
    return [[E, rep.s, rep.s_thr, rep.theta_star, rep.fit_unpert.beta1_hat,
             rep.fit_unpert.beta2_hat, rep.beta1_pert_median,
             rep.beta2_pert_median, rep.max_median_diff,
             int(rep.sandwich_ok)]], {}


def _inequality(config: Dict[str, Any]) -> tuple:
    g = config["grids"]
    rep = maximal_inequality_check(build_model(config), g["N1"], g["N2"],
                                   g["r"], trials=g["trials"],
                                   seed=config["seeds"]["base"])
    p = rep.empirical_prob
    se = math.sqrt(max(p * (1 - p), 1e-12) / rep.trials)
    return [[g["N1"], g["N2"], g["r"], p, rep.bound, int(rep.exact),
             rep.trials]], {"bound_holds": bool(p <= rep.bound + 3.0 * se)}


def _series(config: Dict[str, Any]) -> tuple:
    g = config["grids"]
    rep = series_convergence_check(build_model(config), g["n_tail"],
                                   trials=g["trials"], n_max=g["n_max"],
                                   seed=config["seeds"]["base"])
    t2, se, tail = (rep.tail_second_moment, rep.tail_second_moment_se,
                    rep.tail_variance)
    return [[int(c), float(med), float(p95)] for c, med, p95
            in zip(rep.checkpoints, rep.tail_sup_median, rep.tail_sup_p95)], {
        "tail_second_moment": t2, "tail_second_moment_se": se,
        "variance_bound": rep.variance_bound, "tail_variance": tail,
        "bound_holds": bool(t2 <= rep.variance_bound + 3.0 * se),
        "tail_variance_holds": bool(abs(t2 - tail) <= 3.0 * se)}


# one row per experiment, in the CLI's order. ac-scan sums its Gamma decades
# to 10^3 at least, and the SE of the series tail moment needs two trials
EXPERIMENTS: Dict[str, Experiment] = {
    "transfer": Experiment("E N average bounded", "lane pass", _transfer),
    "subordinacy": Experiment(
        "E classification theta_star beta eta growth_exponent regular",
        "one cell each", _subordinacy),
    "ac-scan": Experiment("E liminf_proxy bounded member partial_sum",
                          "lane pass", _ac_scan, (("grids", "n_max", 1000),)),
    "inequality": Experiment("N1 N2 r empirical_prob bound exact trials",
                             "none", _inequality),
    "series": Experiment("checkpoint tail_sup_median tail_sup_p95", "none",
                         _series, (("grids", "trials", 2),)),
    "variation": Experiment("E n median_cauchy_dev mean_D11 mean_D22",
                            "one cell each", _variation),
    "sparse": Experiment("E s s_thr theta_star beta1_unpert beta2_unpert "
                         "beta1_pert beta2_pert max_diff sandwich_ok",
                         "one cell each", _sparse),
    "singular-stability": Experiment(
        "E beta eta eta_tilde lambda_member ratio_psi1_terminal "
        "ratio_psi2_terminal in_band exp1 exp2 sandwich_ok",
        "one cell each", _singular_stability),
}
LANE_EXPERIMENTS = tuple(e for e, row in EXPERIMENTS.items()
                         if row.energies == "lane pass")
# experiments with one cell per energy; the others read no spec or E_grid
PER_ENERGY = tuple(e for e, row in EXPERIMENTS.items()
                   if row.energies != "none")


class Key(NamedTuple):  # a row of KEYS
    node: Dict[str, Any]  # the key's JSON Schema node
    default: Any  # None: the key has none
    readers: Tuple[str, ...]  # the experiments that read the key


def _object(properties: Dict[str, Any], *required: str) -> Dict[str, Any]:
    return {"type": "object", "additionalProperties": False,
            "properties": properties, **({"required": list(required)}
                                         if required else {})}


def _num(**bounds: float) -> Dict[str, Any]:
    return {"type": "number", **bounds}


def _int(minimum: int) -> Dict[str, Any]:
    return {"type": "integer", "minimum": minimum}


# the keys of a site distribution (model.b, model.a): (node, default)
DIST_KEYS = {
    "kind": ({"enum": ["zero", "uniform", "rademacher", "tgauss"]}, None),
    "amplitude": (_num(), 1.0), "decay": (_num(), 1.0),
    "trunc": (_num(exclusiveMinimum=0), 2.0),
}
# the keys of each spec type besides type: (node, default)
SPEC_KEYS = {
    "free": {},
    "constant": {"a": (_num(exclusiveMinimum=0), 1.0), "b": (_num(), 0.0)},
    "sparse": {"v": (_num(), 0.2), "gamma": (_int(2), 8),
               "j_max": (_int(1), 30)},
}
_DIST = _object({k: node for k, (node, _) in DIST_KEYS.items()}, "kind")
_SPEC = _object({"type": {"enum": list(SPEC_KEYS)},
                 **{k: node for keys in SPEC_KEYS.values()
                    for k, (node, _) in keys.items()}}, "type")

# every config key, a dotted name being one key of a block. materialize
# refuses a key its experiment does not read, and fills the defaults of
# those it reads
KEYS: Dict[str, Key] = {
    "experiment": Key({"enum": list(EXPERIMENTS)}, None, tuple(EXPERIMENTS)),
    "spec": Key(_SPEC, {"type": "free"}, PER_ENERGY),
    "model.b": Key(_DIST, {"kind": "uniform"}, ("ac-scan", "variation",
                   "singular-stability", "inequality", "series")),
    "model.a": Key(_DIST, None, ("ac-scan",)),
    "model.delta": Key(_num(exclusiveMinimum=0, exclusiveMaximum=1), 0.5,
                       ("ac-scan",)),
    "E_grid": Key({"oneOf": [
        {"type": "array", "items": _num(), "minItems": 1},
        _object({"start": _num(), "stop": _num(),
                 "step": _num(exclusiveMinimum=0)}, "start", "stop", "step"),
    ]}, [0.5], PER_ENERGY),
    "seeds.base": Key(_int(0), 0, ("variation", "singular-stability",
                                   "sparse", "inequality", "series")),
    "seeds.count": Key(_int(1), 20,
                       ("variation", "singular-stability", "sparse")),
    "grids.N_j_max": Key(_int(4), 30, LANE_EXPERIMENTS),
    "grids.L_max": Key(_num(exclusiveMinimum=1), 1e4,
                       ("subordinacy", "singular-stability")),
    "grids.L_decades": Key(_int(2), 4, ("subordinacy", "singular-stability")),
    "grids.n_max": Key(_int(10), 10 ** 4, ("ac-scan", "series")),
    "grids.N1": Key(_int(1), 1, ("inequality",)),
    "grids.N2": Key(_int(2), 10, ("inequality",)),
    "grids.r": Key(_num(minimum=0), 1.0, ("inequality",)),
    "grids.trials": Key(_int(1), 10 ** 4, ("inequality", "series")),
    "grids.n_tail": Key(_int(1), 100, ("series",)),
    "grids.s": Key(_num(exclusiveMinimum=0), 1.0, ("sparse",)),
    "grids.n_cut": Key(_int(100), 10 ** 5, ("sparse",)),
    "grids.checkpoints": Key({"type": "array", "items": _int(1),
                              "minItems": 1}, [100, 1000, 10000],
                             ("variation",)),
    "output": Key({"type": "string"}, "out", tuple(EXPERIMENTS)),
    "workers": Key(_int(1), 1, tuple(EXPERIMENTS)),
}

# one property per row of KEYS; a dotted row is a property of its block
CONFIG_SCHEMA = _object({
    top: KEYS[top].node if top in KEYS else _object({
        name.split(".")[1]: key.node for name, key in KEYS.items()
        if name.startswith(top + ".")})
    for top in dict.fromkeys(name.split(".")[0] for name in KEYS)},
    "experiment")
# the keys each experiment reads besides RUNTIME
READS: Dict[str, Tuple[str, ...]] = {
    exp: tuple(name for name, key in KEYS.items()
               if exp in key.readers and name not in RUNTIME)
    for exp in EXPERIMENTS}

# the JSON Schema keywords _validate implements; CONFIG_SCHEMA uses no other
_KEYWORDS = frozenset({
    "type", "enum", "properties", "required", "additionalProperties",
    "items", "minItems", "minimum", "exclusiveMinimum", "exclusiveMaximum",
    "oneOf",
})
_PYTHON_TYPES = {"object": dict, "array": list, "string": str}
# (keyword, the comparison that fails it, the relation it asks for); a
# failing comparison, not a negated passing one, lets NaN pass as it does
# in JSON Schema validators
_BOUNDS = (("minimum", operator.lt, ">="),
           ("exclusiveMinimum", operator.le, ">"),
           ("exclusiveMaximum", operator.ge, "<"))


def _is_type(value: Any, name: str) -> bool:
    """JSON Schema types: a bool is no number, and 2.0 is an integer."""
    if name not in ("number", "integer"):
        return isinstance(value, _PYTHON_TYPES[name])
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        return False
    return (name == "number" or isinstance(value, int)
            or (isinstance(value, float) and value.is_integer()))


def _validate(value: Any, schema: Dict[str, Any],
              path: Tuple[Any, ...] = ()) -> None:
    """Raise ConfigError unless `value` satisfies `schema`.

    Implements the keywords in _KEYWORDS with the semantics of JSON Schema
    (draft 2020-12): numeric bounds apply only to numbers, object and array
    keywords only to objects and arrays, and oneOf needs exactly one match.
    Any other keyword raises NotImplementedError, so a schema edit cannot
    be ignored silently. `path` locates `value` in the config.
    """
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise NotImplementedError(f"schema keywords {sorted(unknown)} "
                                  "are not implemented")
    if "type" in schema and not _is_type(value, schema["type"]):
        raise ConfigError(f"{value!r} is not of type {schema['type']!r}", path)
    if "enum" in schema and not any(
            e == value and isinstance(e, bool) == isinstance(value, bool)
            for e in schema["enum"]):
        raise ConfigError(f"{value!r} is not one of {schema['enum']!r}", path)
    if "oneOf" in schema:
        matches = 0
        for sub in schema["oneOf"]:
            try:
                _validate(value, sub, path)
                matches += 1
            except ConfigError:
                pass
        if matches != 1:
            raise ConfigError(f"{value!r} matches "
                              f"{'more than one' if matches else 'none'} "
                              "of the allowed forms", path)
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigError(f"{key!r} is a required property", path)
        if "additionalProperties" in schema:
            if schema["additionalProperties"] is not False:
                raise NotImplementedError(
                    "additionalProperties other than false")
            for key in value:
                if key not in props:
                    raise ConfigError(f"{key!r} is not an allowed key",
                                      path + (key,))
        for key, sub in props.items():
            if key in value:
                _validate(value[key], sub, path + (key,))
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ConfigError(f"{value!r} has fewer than "
                              f"{schema['minItems']} items", path)
        if "items" in schema:
            for i, item in enumerate(value):
                _validate(item, schema["items"], path + (i,))
    elif _is_type(value, "number"):
        for key, fails, relation in _BOUNDS:
            if key in schema and fails(value, schema[key]):
                raise ConfigError(f"{value!r} must be {relation} "
                                  f"{schema[key]!r}", path)


def _integral_ints(value: Any, schema: Dict[str, Any]) -> Any:
    """`value`, valid under `schema`, with the numbers at its integer
    nodes made ints: JSON Schema takes 2.0 for an integer, range() not.
    It walks properties and items; no oneOf form holds an integer."""
    if schema.get("type") == "integer":
        return int(value)
    if isinstance(value, dict):
        return {k: _integral_ints(v, schema.get("properties", {}).get(k, {}))
                for k, v in value.items()}
    if isinstance(value, list):
        return [_integral_ints(v, schema.get("items", {})) for v in value]
    return value


def materialize(config: Dict[str, Any]) -> Dict[str, Any]:
    """Validate and fill in every default; returns the canonical config.

    A number at an integer key becomes an int, so 2.0 and 2 run and hash
    alike. A key the experiment does not read (READS), or a spec key of
    another spec type, raises ConfigError at its path.
    """
    _validate(config, CONFIG_SCHEMA)
    out = _integral_ints(json.loads(json.dumps(config)), CONFIG_SCHEMA)
    exp = out["experiment"]
    names = READS[exp] + RUNTIME
    tops = {name.split(".")[0] for name in names}
    for key, val in out.items():
        if key not in tops:
            raise ConfigError(f"experiment {exp!r} does not read {key!r}",
                              (key,))
        if key not in names:  # a block whose keys are read one by one
            for sub in val:
                if f"{key}.{sub}" not in names:
                    raise ConfigError(f"experiment {exp!r} does not read "
                                      f"{key}.{sub}", (key, sub))
    eg = out.get("E_grid")
    if isinstance(eg, dict):
        _energy_range(eg)  # refuses a stop below start and too many points
    for name in names:
        *block, key = name.split(".")
        parent = out.setdefault(block[0], {}) if block else out
        default = json.loads(json.dumps(KEYS[name].default))  # a copy
        if default is not None:
            parent.setdefault(key, default)
    for block, key, minimum in EXPERIMENTS[exp].floors:
        if out[block][key] < minimum:
            raise ConfigError(f"experiment {exp!r} needs {key} >= {minimum}, "
                              f"got {out[block][key]}", (block, key))
    if "spec" in out:
        sd = out["spec"]
        if exp == "sparse" and sd["type"] != "sparse":
            raise ConfigError(f"experiment 'sparse' needs spec type "
                              f"'sparse', got {sd['type']!r}", ("spec", "type"))
        for k in sd:
            if k != "type" and k not in SPEC_KEYS[sd["type"]]:
                raise ConfigError(f"spec type {sd['type']!r} has no key "
                                  f"{k!r}", ("spec", k))
        for k, (_, v) in SPEC_KEYS[sd["type"]].items():
            sd.setdefault(k, v)
    for dist in ("b", "a"):
        if dist in out.get("model", {}):
            for k, (_, v) in DIST_KEYS.items():  # kind, required, is set
                out["model"][dist].setdefault(k, v)
    return out


def config_hash(config: Dict[str, Any]) -> str:
    """Hash of the result-determining part of the config.

    Output location and worker count cannot change any computed value,
    so they are excluded: runs differing only in them emit identical
    file bodies.
    """
    scrubbed = {k: v for k, v in config.items()
                if k not in ("output", "workers")}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_spec(config: Dict[str, Any]) -> OperatorSpec | SparseSpec:
    """The spec of the config; its consumers read only .coefficients."""
    sd = config["spec"]
    if sd["type"] == "free":
        return free_laplacian()
    if sd["type"] == "constant":
        return constant_spec(sd["a"], sd["b"])
    return SparseSpec(v=sd["v"], gamma=sd["gamma"], j_max=sd["j_max"])


def build_model(config: Dict[str, Any]) -> PerturbationModel:
    """The model of the materialized block: the keys its experiment reads."""
    fields = {"b": "b_dist", "a": "a_dist", "delta": "delta"}
    return PerturbationModel(exp_id=config["experiment"], **{
        fields[k]: v if k == "delta" else SiteDistribution(**v)
        for k, v in config["model"].items()})


def _energy_range(eg: Dict[str, Any]) -> Tuple[Decimal, Decimal, int]:
    """start, step and point count of a range-form E_grid, in decimal."""
    start, stop, step = (Decimal(repr(float(eg[k])))
                         for k in ("start", "stop", "step"))
    if stop < start:
        raise ConfigError("stop is below start", ("E_grid", "stop"))
    if stop - start >= E_GRID_POINTS_MAX * step:  # count > the cap
        raise ConfigError(f"step {eg['step']!r} gives more than "
                          f"{E_GRID_POINTS_MAX} energies", ("E_grid", "step"))
    return start, step, int((stop - start) // step) + 1


def energy_grid(config: Dict[str, Any]) -> List[float]:
    """The energies of a run; a range is stepped in decimal arithmetic.

    start + i*step in binary floating point drifts (-2.5 + 7*0.1 gives
    -1.7999999999999998), so range points are computed from the shortest
    decimal forms of start, stop and step, rounded once; none passes stop.
    """
    eg = config["E_grid"]
    if isinstance(eg, dict):
        start, step, count = _energy_range(eg)
        return [float(start + i * step) for i in range(count)]
    return [float(e) for e in eg]


@dataclass
class EnsembleReport:
    experiment: str
    columns: List[str]
    rows: List[List[Any]]
    summary: Dict[str, Any]
    provenance: Dict[str, Any]
    traces: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


def _guarded_chunk(config: Dict[str, Any], energies: List[float]
                   ) -> List[Tuple[float, Optional[tuple], Optional[str]]]:
    """Per energy, (E, cell, None) on success, (E, None, failure text).

    A lane experiment computes the whole chunk in one pass; if that raises,
    each energy is rerun alone, so a failure stays with its own energy.
    The text is formatted in the process that ran the cell: an exception
    pickled back from a pool worker is rebuilt from its args alone and can
    lose its message (OverflowSiteError does).
    """
    row = EXPERIMENTS[config["experiment"]]
    lanes = row.energies == "lane pass"
    if lanes and len(energies) > 1:
        try:
            return [(E, cell, None) for E, cell
                    in zip(energies, row.compute(config, energies))]
        except Exception:  # isolated below
            pass
    results = []
    for E in energies:
        try:
            results.append((E, row.compute(config, [E])[0] if lanes
                            else row.compute(config, E), None))
        except Exception as exc:  # cell marked failed
            results.append((E, None, f"E={E}: {exc!r}"))
    return results


def run(config: Dict[str, Any]) -> EnsembleReport:
    """Dispatch, compute all cells, and assemble the deterministic report."""
    config = materialize(config)
    exp = config["experiment"]
    if "model.a" in READS[exp]:
        build_model(config).validate_against(build_spec(config))
    provenance = {"config": config, "config_hash": config_hash(config),
                  "version": __version__,
                  "seed_policy": "philox(experiment-id, stream, seed, site)"}
    row = EXPERIMENTS[exp]
    report = EnsembleReport(experiment=exp, columns=row.columns.split(),
                            rows=[], summary={}, provenance=provenance)
    if row.energies == "none":
        report.rows, report.summary = row.compute(config)
        return report
    energies = energy_grid(config)
    workers = config["workers"]
    if row.energies == "lane pass":  # one contiguous chunk per worker
        n, w = len(energies), min(workers, len(energies))
        chunks = [energies[i * n // w:(i + 1) * n // w] for i in range(w)]
    else:
        chunks = [[E] for E in energies]
    if workers == 1 or not chunks:
        results = [_guarded_chunk(config, chunk) for chunk in chunks]
    else:
        with concurrent.futures.ProcessPoolExecutor(
                min(workers, len(chunks))) as pool:
            results = list(pool.map(_guarded_chunk,
                                    [config] * len(chunks), chunks))
    # deterministic reduction: sort by energy regardless of worker count
    for E, cell, failure in sorted((r for chunk in results for r in chunk),
                                   key=lambda t: t[0]):
        if failure is not None:
            report.failures.append(failure)
            continue
        report.rows.extend(cell[0])
        report.traces.update(cell[1])
    report.summary["n_cells"] = len(energies)
    report.summary["n_failed"] = len(report.failures)
    return report


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _fmt(v: Any) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(report: EnsembleReport, out_dir: str) -> List[str]:
    """Write CSV / summary / plotdata files; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise OSError(f"output directory {out_dir} is not writable")
    chash = report.provenance["config_hash"]
    header = (f"# experiment: {report.experiment}\n"
              f"# config_hash: {chash}\n"
              f"# version: {report.provenance['version']}\n")
    written = []
    lines = [header + ",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(_fmt(v) for v in row))
    path = os.path.join(out_dir, f"{report.experiment}.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    written.append(path)
    payload = {"experiment": report.experiment,
               "config_hash": chash,
               "version": report.provenance["version"],
               "summary": report.summary,
               "failures": report.failures,
               "provenance": report.provenance}
    path = os.path.join(out_dir, "summary.json")
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2,
                                   default=_fmt) + "\n")
    written.append(path)
    for name, trace in sorted(report.traces.items()):
        lines = [header.rstrip()]
        for x, y in trace:
            lines.append(f"{_fmt(float(x))} {_fmt(float(y))}")
        path = os.path.join(out_dir, f"trace_{name}.dat")
        _atomic_write(path, "\n".join(lines) + "\n")
        written.append(path)
    # provenance copy of the materialized config
    path = os.path.join(out_dir, "config.json")
    _atomic_write(path, json.dumps(report.provenance["config"],
                                   sort_keys=True, indent=2) + "\n")
    written.append(path)
    return written


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _finite_float(token: str) -> float:
    """float(token); NaN, Infinity and a float past the double range,
    which json.load takes, are refused, as no schema bound refuses NaN."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def _finite_int(token: str) -> int:
    """int(token), refused like a float past the double range."""
    _finite_float(token)
    return int(token)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="transfer-cocycle laboratory: run a configured experiment",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seeds", type=int, help="override seed count")
    parser.add_argument("--workers", type=int,
                        help="worker processes (default: the config's "
                             "workers, else 1)")
    parser.add_argument("--out", help="override output directory")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as f:
            config = json.load(f, parse_float=_finite_float,
                               parse_int=_finite_int,
                               parse_constant=_finite_float)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if isinstance(config, dict):  # materialize refuses any other file
        config["experiment"] = args.experiment
        for key, value in (("output", args.out), ("workers", args.workers)):
            if value is not None:
                config[key] = value
        if args.seeds is not None and isinstance(
                config.setdefault("seeds", {}), dict):
            config["seeds"]["count"] = args.seeds

    try:
        config = materialize(config)
    except ConfigError as exc:
        path = "/".join(str(p) for p in exc.path) or "<root>"
        print(f"config error at {path}: {exc.message}", file=sys.stderr)
        return 2
    try:
        report = run(config)
    except (InternalConsistencyError, OverflowSiteError, DivergentSeriesError,
            InvalidArgumentError, UnsupportedModelError,
            InsufficientDataError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    paths = emit(report, config["output"])
    for p in paths:
        print(p)
    if report.failures:
        for msg in report.failures:
            print(f"failed cell: {msg}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
