"""Config handling, orchestration, emission, and the CLI."""

import json
import os
import subprocess
import sys

import pytest

from jacobilab import harness
from jacobilab.core import MIN_LANES
from jacobilab.errors import ConfigError, InvalidArgumentError
from jacobilab.harness import (
    EnsembleReport,
    config_hash,
    emit,
    energy_grid,
    main,
    materialize,
    run,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_materialize_fills_defaults():
    cfg = materialize({"experiment": "transfer"})
    assert cfg["spec"] == {"type": "free"}
    assert cfg["E_grid"] == [0.5]
    assert cfg["grids"]["N_j_max"] == 30
    assert cfg["workers"] == 1
    assert "seeds" not in cfg  # transfer reads no seeds
    cfg = materialize({"experiment": "variation"})
    assert cfg["seeds"] == {"base": 0, "count": 20}
    assert cfg["grids"]["checkpoints"] == [100, 1000, 10000]


def test_materialize_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        materialize({"experiment": "transfer", "bogus": 1})
    with pytest.raises(ConfigError):
        materialize({"experiment": "transfer", "grids": {"nope": 2}})
    with pytest.raises(ConfigError):
        materialize({"experiment": "not-an-experiment"})


def test_config_hash_ignores_output_and_workers():
    a = materialize({"experiment": "transfer", "output": "x", "workers": 1})
    b = materialize({"experiment": "transfer", "output": "y", "workers": 8})
    assert config_hash(a) == config_hash(b)
    c = materialize({"experiment": "transfer", "E_grid": [0.25]})
    assert config_hash(a) != config_hash(c)


@pytest.mark.parametrize("short,full", [
    ({"type": "sparse"},
     {"type": "sparse", "v": 0.2, "gamma": 8, "j_max": 30}),
    ({"type": "sparse", "gamma": 4},
     {"type": "sparse", "v": 0.2, "gamma": 4, "j_max": 30}),
    ({"type": "constant"}, {"type": "constant", "a": 1.0, "b": 0.0}),
])
def test_spec_defaults_filled_before_hashing(tmp_path, short, full):
    def emitted(spec, name):
        cfg = {"experiment": "transfer", "spec": spec, "E_grid": [0.5],
               "grids": {"N_j_max": 4}, "output": "out"}
        rep = run(cfg)
        emit(rep, str(tmp_path / name))
        return rep.provenance["config_hash"], {
            f: (tmp_path / name / f).read_bytes()
            for f in ("config.json", "transfer.csv")}

    assert emitted(short, "short") == emitted(full, "full")


def test_checkpoints_default_filled_before_hashing(tmp_path, capsys):
    # variation's default checkpoints are materialized, so the implicit
    # and the explicit default give one config hash and config.json
    def emitted(grids, name):
        cfg = write_config(tmp_path, {"E_grid": [0.5], "seeds": {"count": 2},
                                      "grids": grids}, f"{name}.json")
        assert main(["variation", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 0
        return {f: (tmp_path / "out" / f).read_bytes()
                for f in ("config.json", "variation.csv")}

    implicit = emitted({}, "implicit")
    assert implicit == emitted({"checkpoints": [100, 1000, 10000]},
                               "explicit")
    assert len(implicit["variation.csv"].splitlines()) == 4 + 3
    # an empty list is refused, not replaced by the default
    cfg = write_config(tmp_path, {"grids": {"checkpoints": []}})
    assert main(["variation", "--config", cfg,
                 "--out", str(tmp_path / "empty")]) == 2
    assert "config error at grids/checkpoints:" in capsys.readouterr().err
    assert not (tmp_path / "empty").exists()


def test_materialize_makes_integral_floats_at_integer_keys_ints():
    cfg = materialize({"experiment": "variation", "seeds": {"count": 4.0},
                       "grids": {"checkpoints": [100.0, 1000]},
                       "E_grid": [1.0], "workers": 2.0})
    assert [type(v) for v in (cfg["seeds"]["count"], cfg["workers"],
                              *cfg["grids"]["checkpoints"])] == [int] * 4
    assert type(cfg["E_grid"][0]) is float  # a number key keeps its float
    assert cfg == materialize({"experiment": "variation",
                               "seeds": {"count": 4},
                               "grids": {"checkpoints": [100, 1000]},
                               "E_grid": [1.0], "workers": 2})


def test_no_one_of_form_holds_an_integer():
    # materialize makes ints along properties and items alone
    def one_of_forms(node):
        if isinstance(node, dict):
            yield from node.get("oneOf", ())
            for value in node.values():
                yield from one_of_forms(value)
        elif isinstance(node, list):
            for value in node:
                yield from one_of_forms(value)

    forms = list(one_of_forms(harness.CONFIG_SCHEMA))
    assert forms and '"integer"' not in json.dumps(forms)


@pytest.mark.parametrize("experiment, int_form, float_form", [
    ("inequality", {"grids": {"trials": 200}},
     {"grids": {"trials": 200.0}}),
    ("sparse",
     {"spec": {"type": "sparse", "v": 0.2, "gamma": 8, "j_max": 14},
      "E_grid": [0.6], "seeds": {"count": 2}, "grids": {"n_cut": 3000}},
     {"spec": {"type": "sparse", "v": 0.2, "gamma": 8.0, "j_max": 14},
      "E_grid": [0.6], "seeds": {"count": 2}, "grids": {"n_cut": 3000}}),
    ("variation", {"seeds": {"count": 4}, "grids": {"checkpoints": [100]}},
     {"seeds": {"count": 4.0}, "grids": {"checkpoints": [100]}}),
])
def test_cli_integral_float_at_an_integer_key_runs_as_its_int(
        tmp_path, experiment, int_form, float_form):
    # JSON Schema takes 2.0 for an integer: the run is that of 2, and the
    # CSV body, config_hash header included, is the int form's
    bodies = []
    for name, cfg in (("int", int_form), ("float", float_form)):
        out = tmp_path / name
        assert main([experiment, "--config",
                     write_config(tmp_path, cfg, f"{name}.json"),
                     "--out", str(out)]) == 0
        bodies.append((out / f"{experiment}.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_energy_grid_range_form():
    cfg = materialize({"experiment": "transfer",
                       "E_grid": {"start": -1.0, "stop": 1.0, "step": 0.5}})
    assert energy_grid(cfg) == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])
    # 1/0.6 rounds to 2, but the range stops at the last point before stop
    cfg = materialize({"experiment": "transfer",
                       "E_grid": {"start": 0.0, "stop": 1.0, "step": 0.6}})
    assert energy_grid(cfg) == [0.0, 0.6]


def test_cli_energy_range_stop_below_start_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "E_grid": {"start": 1.0, "stop": 0.5, "step": 0.1}})
    rc = main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error at E_grid/stop:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_energy_range_of_too_many_points_exits_2(tmp_path, capsys,
                                                     monkeypatch):
    # 10^12 + 1 energies are refused from the decimal range before any
    # list is built; a run that got past the check would reach
    # energy_grid, which raises here instead of listing them
    def no_list(config):
        raise AssertionError("energy_grid reached")

    monkeypatch.setattr(harness, "energy_grid", no_list)
    cfg = write_config(tmp_path, {
        "E_grid": {"start": 0, "stop": 1, "step": 1e-12}})
    rc = main(["ac-scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert ("config error at E_grid/step: step 1e-12 gives more than "
            f"{harness.E_GRID_POINTS_MAX} energies") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_energy_range_cap_counts_points():
    top = harness.E_GRID_POINTS_MAX
    cfg = materialize({"experiment": "transfer",
                       "E_grid": {"start": 0, "stop": top - 1, "step": 1}})
    assert len(energy_grid(cfg)) == top  # exactly the cap passes
    # one point more, and a quotient beyond 28 decimal digits
    for stop, step in ((top, 1), (1, 5e-324)):
        with pytest.raises(ConfigError) as exc:
            materialize({"experiment": "transfer",
                         "E_grid": {"start": 0, "stop": stop, "step": step}})
        assert exc.value.path == ("E_grid", "step")


def test_energy_grid_range_has_no_drift(tmp_path):
    cfg = materialize({"experiment": "ac-scan",
                       "E_grid": {"start": -2.5, "stop": 2.5, "step": 0.1}})
    assert energy_grid(cfg) == [k / 10 for k in range(-25, 26)]
    rep = run({"experiment": "transfer",
               "E_grid": {"start": -2.5, "stop": -1.8, "step": 0.1},
               "grids": {"N_j_max": 8}})
    emit(rep, str(tmp_path))
    assert (tmp_path / "trace_cesaro_E-1.8.dat").exists()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_transfer_free_E0_averages_one():
    rep = run({"experiment": "transfer", "E_grid": [0.0],
               "grids": {"N_j_max": 20}})
    assert rep.columns == ["E", "N", "average", "bounded"]
    for row in rep.rows:
        assert row[2] == pytest.approx(1.0, abs=1e-12)
        assert row[3] == 1


def test_ac_scan_bounded_inside_band():
    rep = run({"experiment": "ac-scan",
               "E_grid": [-3.0, -1.0, 0.0, 1.0, 2.0, 3.0],
               "grids": {"N_j_max": 24, "n_max": 2000}})
    flags = {row[0]: row[2] for row in rep.rows}
    assert flags[-1.0] == 1 and flags[0.0] == 1 and flags[1.0] == 1
    assert flags[-3.0] == 0 and flags[2.0] == 0 and flags[3.0] == 0


def test_inequality_summary_verdict():
    rep = run({"experiment": "inequality",
               "model": {"b": {"kind": "rademacher", "decay": 0.0}},
               "grids": {"N1": 1, "N2": 10, "r": 3.0}})
    assert rep.summary["bound_holds"]
    row = rep.rows[0]
    assert row[4] == pytest.approx(10.0 / 9.0)
    assert row[5] == 1  # exact enumeration


def test_inequality_default_run_can_see_an_exceedance():
    # the default r lies below the window's largest partial sum,
    # sum_{n<=10} 1/n, so the probability the run estimates is not 0 by
    # construction
    rep = run({"experiment": "inequality"})
    N1, N2, r, prob, bound, exact, trials = rep.rows[0]
    assert (N1, N2, exact, trials) == (1, 10, 0, 10 ** 4)
    assert r < sum(1.0 / n for n in range(N1, N2 + 1))
    assert 0.0 < prob <= bound
    assert rep.summary["bound_holds"]


def test_worker_failure_collected():
    # singular-stability at an energy with no decaying branch candidate is
    # a per-cell failure when run through the pool
    rep = run({"experiment": "subordinacy", "E_grid": [0.0, 3.0],
               "grids": {"L_max": 1000.0, "L_decades": 3}, "workers": 2})
    assert rep.summary["n_failed"] == 0
    assert len(rep.rows) == 2


def test_failed_cell_handled_alike_for_any_worker_count(tmp_path):
    # |E| >= 2 is outside the fast sparse propagation, so that cell fails
    cfg = write_config(tmp_path, {
        "spec": {"type": "sparse", "v": 0.2, "gamma": 8, "j_max": 14},
        "E_grid": [2.5, 0.6], "seeds": {"base": 0, "count": 2},
        "grids": {"s": 2.0, "n_cut": 1000}})
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        rc = main(["sparse", "--config", cfg, "--workers", str(workers),
                   "--out", str(out)])
        assert rc == 4
        summary = json.loads((out / "summary.json").read_text())
        outputs.append(((out / "sparse.csv").read_text(),
                        summary["failures"]))
    assert outputs[0] == outputs[1]
    csv, failures = outputs[0]
    rows = csv.splitlines()[4:]
    assert len(rows) == 1 and rows[0].startswith("0.6,")
    assert failures == [
        "E=2.5: UnsupportedModelError('fast sparse propagation requires "
        "|E| < 2 (elliptic free blocks)')"]


def test_ac_scan_worker_count_does_not_change_csv(tmp_path):
    # 48 energies, E and -E exact negatives: the contiguous chunks hold
    # 48, 24 and 16 energies. On the free spec E and -E share their
    # lanes, so the chunks run 48 lanes (one worker), 48 (two: the
    # mirror of each energy is in the other chunk) and 32, 16 and 32
    # (three), and every worker count runs the numpy lane loop; |E| > 2
    # rescales
    base = {"experiment": "ac-scan",
            "E_grid": {"start": -2.35, "stop": 2.35, "step": 0.1},
            "grids": {"N_j_max": 20, "n_max": 1000}}
    energies = energy_grid(base)
    assert energies == [-E for E in reversed(energies)]
    for w in (1, 2, 3):
        for i in range(w):
            chunk = energies[i * 48 // w:(i + 1) * 48 // w]
            assert 2 * len({abs(E) for E in chunk}) >= MIN_LANES
    bodies = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        rep = run({**base, "workers": workers})
        assert rep.summary == {"n_cells": 48, "n_failed": 0}
        emit(rep, str(out))
        bodies.append((out / "ac-scan.csv").read_bytes())
    assert bodies[0] == bodies[1] == bodies[2]
    assert len(bodies[0].decode().splitlines()) == 4 + 48


def test_more_workers_than_energies_keeps_every_energy(tmp_path):
    # 2 energies on 4 workers: two one-energy chunks, no energy dropped
    base = {"experiment": "transfer", "E_grid": [0.5, -0.3],
            "grids": {"N_j_max": 12}}
    bodies = []
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        rep = run({**base, "workers": workers})
        assert rep.summary == {"n_cells": 2, "n_failed": 0}
        emit(rep, str(out))
        bodies.append((out / "transfer.csv").read_bytes())
    assert bodies[0] == bodies[1]
    rows = bodies[0].decode().splitlines()[4:]
    assert sorted({row.split(",")[0] for row in rows}) == ["-0.3", "0.5"]


def test_ac_scan_failing_cells_alike_for_any_worker_count(tmp_path):
    # a = 2000 fails the growth check: every cell fails, one by one
    cfg = write_config(tmp_path, {"spec": {"type": "constant", "a": 2000.0},
                                  "E_grid": [1.0, -0.5, 0.0]})
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        rc = main(["ac-scan", "--config", cfg, "--workers", str(workers),
                   "--out", str(out)])
        assert rc == 4
        summary = json.loads((out / "summary.json").read_text())
        outputs.append(((out / "ac-scan.csv").read_text().splitlines()[4:],
                        summary["failures"]))
    assert outputs[0] == outputs[1]
    rows, failures = outputs[0]
    assert rows == []
    assert failures == [
        f"E={E}: InvalidArgumentError('spec fails the finite-truncation "
        "growth check')" for E in (-0.5, 0.0, 1.0)]


def test_lane_chunk_failure_stays_with_its_energy(monkeypatch):
    # an energy that raises on its own fails alone, not its whole chunk
    real = harness.gamma_membership

    def gamma_membership(N_max, scan):
        if any(rep.E == 0.0 for rep in scan.reports):
            raise InvalidArgumentError("no verdict at E = 0")
        return real(N_max, scan)

    monkeypatch.setattr(harness, "gamma_membership", gamma_membership)
    rep = run({"experiment": "ac-scan", "E_grid": [1.0, 0.0, -1.0],
               "grids": {"N_j_max": 12, "n_max": 1000}})
    assert [row[0] for row in rep.rows] == [-1.0, 1.0]
    assert rep.failures == [
        "E=0.0: InvalidArgumentError('no verdict at E = 0')"]


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------

def test_emit_files_and_header(tmp_path):
    rep = run({"experiment": "transfer", "E_grid": [0.0],
               "grids": {"N_j_max": 12}})
    paths = emit(rep, str(tmp_path / "out"))
    names = {os.path.basename(p) for p in paths}
    assert "transfer.csv" in names
    assert "summary.json" in names
    assert "config.json" in names
    csv = (tmp_path / "out" / "transfer.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == "# experiment: transfer"
    assert lines[1].startswith("# config_hash: ")
    assert lines[2].startswith("# version: ")
    assert lines[3] == "E,N,average,bounded"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config_hash"] == rep.provenance["config_hash"]
    # plotdata trace: two whitespace-separated columns
    trace = [p for p in paths if "trace_" in p]
    assert trace
    body = open(trace[0]).read().splitlines()
    assert all(len(l.split()) == 2 for l in body if not l.startswith("#"))


def test_emit_empty_report_header_only(tmp_path):
    rep = EnsembleReport(experiment="transfer",
                         columns=["E", "N", "average", "bounded"], rows=[],
                         summary={},
                         provenance={"config": {}, "config_hash": "abc",
                                     "version": "0"})
    emit(rep, str(tmp_path))
    lines = (tmp_path / "transfer.csv").read_text().splitlines()
    assert len(lines) == 4  # 3 comment lines + column header, no data rows


def test_byte_determinism(tmp_path):
    cfg = {"experiment": "ac-scan", "E_grid": [0.4, 1.3],
           "grids": {"N_j_max": 20, "n_max": 1000}}
    emit(run(dict(cfg)), str(tmp_path / "a"))
    emit(run(dict(cfg)), str(tmp_path / "b"))
    assert (tmp_path / "a" / "ac-scan.csv").read_bytes() == \
        (tmp_path / "b" / "ac-scan.csv").read_bytes()


def test_worker_count_does_not_change_output(tmp_path):
    # the CSV and trace bodies are identical across worker counts and
    # output directories (summary.json and config.json record both)
    base = {"experiment": "transfer", "E_grid": [0.0, 0.5, 1.0],
            "grids": {"N_j_max": 16}}
    bodies = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        emit(run({**base, "workers": workers, "output": str(out)}), str(out))
        bodies.append({p.name: p.read_bytes() for p in out.iterdir()
                       if p.suffix == ".csv" or p.name.startswith("trace_")})
    assert len(bodies[0]) == 4  # the CSV and one trace per energy
    assert bodies[0] == bodies[1]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_success_and_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, {"E_grid": [0.0],
                                  "grids": {"N_j_max": 12}})
    rc = main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "transfer.csv" in out
    assert (tmp_path / "o" / "transfer.csv").exists()


def test_cli_missing_config_exits_2(tmp_path, capsys):
    rc = main(["transfer", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text, flags, path", [
    ("[]", [], "<root>"),
    ("3", [], "<root>"),
    ('{"seeds": 5}', ["--seeds", "2"], "seeds"),
])
def test_cli_config_that_is_not_an_object_exits_2(tmp_path, capsys, text,
                                                  flags, path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = main(["variation", "--config", str(cfg), *flags,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config error at {path}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


BIG_INT = "1" + "0" * 400  # an integer whose float() overflows


@pytest.mark.parametrize("experiment, text, token", [
    # NaN passes every schema bound; unrefused, the first three run to a
    # bound of inf (exit 0), a NaN row (exit 0) and a failed cell (exit 4)
    ("inequality", '{"grids": {"r": NaN}}', "NaN"),
    ("transfer", '{"E_grid": [NaN]}', "NaN"),
    ("subordinacy", '{"grids": {"L_max": NaN}}', "NaN"),
    ("transfer", '{"E_grid": [0.5, -Infinity]}', "-Infinity"),
    ("inequality", '{"grids": {"r": 1e400}}', "1e400"),
    # the schema's number type takes an int; unrefused, the next three
    # crash with OverflowError (exit 1) and the last fails its cell (exit 4)
    pytest.param("transfer", f'{{"E_grid": [{BIG_INT}]}}', BIG_INT,
                 id="transfer-big-int-energy"),
    pytest.param("transfer", f'{{"E_grid": {{"start": 0, "stop": {BIG_INT}, '
                 f'"step": 1}}}}', BIG_INT, id="transfer-big-int-stop"),
    pytest.param("series", f'{{"model": {{"b": {{"kind": "uniform", '
                 f'"amplitude": {BIG_INT}}}}}}}', BIG_INT,
                 id="series-big-int-amplitude"),
    pytest.param("subordinacy", f'{{"grids": {{"L_max": {BIG_INT}}}}}',
                 BIG_INT, id="subordinacy-big-int-L_max"),
])
def test_cli_non_finite_number_exits_2(tmp_path, capsys, experiment, text,
                                       token):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = main([experiment, "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert (f"config error: {token} is not a finite number"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_cli_schema_error_names_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grids": {"N_j_max": 1}})
    rc = main(["transfer", "--config", cfg])
    assert rc == 2
    assert "grids/N_j_max" in capsys.readouterr().err


def test_cli_sparse_needs_a_sparse_spec_exits_2(tmp_path, capsys):
    # the sparse experiment reads v, gamma and j_max of a sparse spec
    for spec in ({"type": "free"}, {"type": "constant"}, None):
        cfg = write_config(tmp_path, {"E_grid": [0.6]} if spec is None
                           else {"spec": spec, "E_grid": [0.6]})
        rc = main(["sparse", "--config", cfg,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error at spec/type" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    with pytest.raises(ConfigError) as exc:
        materialize({"experiment": "sparse", "spec": {"type": "free"}})
    assert exc.value.path == ("spec", "type")


def test_cli_numeric_error_exits_3(tmp_path, capsys):
    # variance series ~ 1/n diverges: the series experiment must refuse
    cfg = write_config(tmp_path, {
        "model": {"b": {"kind": "uniform", "decay": 0.5}},
        "grids": {"trials": 10, "n_max": 1000}})
    rc = main(["series", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numeric error" in capsys.readouterr().err


def test_cli_unconverged_neumann_sum_fails_its_cell_exit_4(tmp_path, capsys):
    # undecayed b~ up to 3 on 200 sites: the layers still grow at the
    # layer cap, so the amplitude sum of the cell did not converge
    cfg = write_config(tmp_path, {
        "E_grid": [0.5], "seeds": {"base": 0, "count": 1},
        "grids": {"L_max": 200},
        "model": {"b": {"kind": "uniform", "amplitude": 3, "decay": 0}}})
    rc = main(["singular-stability", "--config", cfg,
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert ("failed cell: E=0.5: DivergentSeriesError('Neumann sum of "
            "column [0, 1] did not converge in 100 layers: last sups [") \
        in capsys.readouterr().err


def test_cli_delta_constraint_violation_exits_3(tmp_path, capsys):
    # a/(a+~a) reaches 1/(1-0.9) = 10 >= 1/delta at site 1
    cfg = write_config(tmp_path, {
        "model": {"a": {"kind": "uniform", "amplitude": 0.9, "decay": 0},
                  "delta": 0.6},
        "E_grid": [0.5], "grids": {"N_j_max": 8, "n_max": 1000}})
    rc = main(["ac-scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "delta constraint fails at site 1" in capsys.readouterr().err


def test_cli_ac_scan_n_max_below_1000_exits_2(tmp_path, capsys):
    # ac-scan runs at the n_max it records; below 1000 it refuses it
    grids = {"N_j_max": 8, "n_max": 999}
    cfg = write_config(tmp_path, {"E_grid": [0.5], "grids": grids})
    rc = main(["ac-scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert ("config error at grids/n_max: experiment 'ac-scan' needs "
            "n_max >= 1000, got 999") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    grids["n_max"] = 1000
    cfg = write_config(tmp_path, {"E_grid": [0.5], "grids": grids})
    rc = main(["ac-scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    prov = json.loads((tmp_path / "o" / "config.json").read_text())
    assert prov["grids"]["n_max"] == 1000


def test_cli_seed_and_worker_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, {"E_grid": [0.0],
                                  "grids": {"checkpoints": [100]}})
    rc = main(["variation", "--config", cfg, "--seeds", "7", "--workers",
               "2", "--out", str(tmp_path / "o")])
    assert rc == 0
    prov = json.loads((tmp_path / "o" / "config.json").read_text())
    assert prov["seeds"]["count"] == 7
    assert prov["workers"] == 2
    # experiments that read no seed count
    cfg = write_config(tmp_path, {}, "empty.json")
    for experiment, path in (("transfer", "seeds"), ("ac-scan", "seeds"),
                             ("subordinacy", "seeds"),
                             ("inequality", "seeds/count"),
                             ("series", "seeds/count")):
        rc = main([experiment, "--config", cfg, "--seeds", "7",
                   "--out", str(tmp_path / experiment)])
        assert rc == 2
        assert f"config error at {path}:" in capsys.readouterr().err
        assert not (tmp_path / experiment).exists()


def test_cli_config_workers_reach_config_json(tmp_path):
    # without --workers the config file's own worker count is used
    cfg = write_config(tmp_path, {"E_grid": [0.0, 0.5],
                                  "grids": {"N_j_max": 12}, "workers": 2})
    rc = main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    prov = json.loads((tmp_path / "o" / "config.json").read_text())
    assert prov["workers"] == 2


# a small config of each experiment that sets every key it reads
SMALL_CONFIGS = {
    "transfer": {"spec": {"type": "free"}, "E_grid": [0.5],
                 "grids": {"N_j_max": 8}},
    "ac-scan": {"spec": {"type": "constant", "a": 1.0, "b": 0.1},
                "E_grid": [-0.5, 0.5],
                "model": {"b": {"kind": "rademacher"},
                          "a": {"kind": "uniform", "amplitude": 0.1},
                          "delta": 0.4},
                "grids": {"N_j_max": 8, "n_max": 1000}},
    "subordinacy": {"spec": {"type": "free"}, "E_grid": [0.3],
                    "grids": {"L_max": 300.0, "L_decades": 2}},
    "variation": {"spec": {"type": "free"}, "E_grid": [0.5],
                  "model": {"b": {"kind": "uniform"}},
                  "seeds": {"base": 3, "count": 2},
                  "grids": {"checkpoints": [100]}},
    "singular-stability": {
        "spec": {"type": "sparse", "v": 0.2, "gamma": 8, "j_max": 14},
        "E_grid": [0.6], "model": {"b": {"kind": "uniform"}},
        "seeds": {"base": 0, "count": 2},
        "grids": {"L_max": 1e3, "L_decades": 3}},
    "sparse": {"spec": {"type": "sparse", "v": 0.2, "gamma": 8, "j_max": 14},
               "E_grid": [0.6], "seeds": {"base": 0, "count": 2},
               "grids": {"s": 2.0, "n_cut": 1000}},
    "inequality": {"model": {"b": {"kind": "rademacher"}},
                   "seeds": {"base": 0},
                   "grids": {"N1": 1, "N2": 10, "r": 3.0, "trials": 200}},
    "series": {"model": {"b": {"kind": "uniform"}}, "seeds": {"base": 0},
               "grids": {"trials": 200, "n_max": 1000, "n_tail": 50}},
}
# the experiments that draw only b~ from the model
B_ONLY = ("inequality", "series", "singular-stability", "variation")
RUNTIME = {"experiment", "output", "workers"}
# the config blocks whose keys harness.READS names one by one
BLOCKS = ("model", "seeds", "grids")


def names_of(config):
    """The table names of the keys a config sets: a block key by key."""
    names = set()
    for key, val in config.items():
        if key in BLOCKS:
            names.update(f"{key}.{sub}" for sub in val)
        else:
            names.add(key)
    return names


# every settable key of CONFIG_SCHEMA (a block key by key), with a value;
# model.a draws a nonzero a~, which the experiments that draw only b~
# would otherwise ignore
SCHEMA_VALUES = {
    "spec": {"type": "free"}, "E_grid": [0.5],
    "model.b": {"kind": "zero"},
    "model.a": {"kind": "uniform", "amplitude": 0.1},
    "model.delta": 0.5, "seeds.base": 0, "seeds.count": 2,
    "grids.N_j_max": 8, "grids.L_max": 100.0, "grids.L_decades": 2,
    "grids.n_max": 1000, "grids.N1": 1, "grids.N2": 10, "grids.r": 3.0,
    "grids.trials": 10, "grids.n_tail": 10, "grids.s": 2.0,
    "grids.n_cut": 1000, "grids.checkpoints": [100],
}


def test_schema_values_cover_the_schema():
    props = harness.CONFIG_SCHEMA["properties"]
    keys = {f"{key}.{sub}" for key in BLOCKS
            for sub in props[key]["properties"]}
    assert set(SCHEMA_VALUES) == keys | {"spec", "E_grid"}
    assert set(props) == {"spec", "E_grid", "model", "seeds", "grids",
                          "experiment", "output", "workers"}


def test_keys_cover_the_schema():
    # one row of KEYS per schema property, a block's key by key, holding
    # the node the schema validates; the sub-tables hold a spec's and a
    # site distribution's keys
    props = harness.CONFIG_SCHEMA["properties"]
    nodes = {f"{key}.{sub}": node for key in BLOCKS
             for sub, node in props[key]["properties"].items()}
    nodes.update({key: props[key] for key in props if key not in BLOCKS})
    assert nodes == {name: key.node for name, key in harness.KEYS.items()}
    assert set(SCHEMA_VALUES) == set(harness.KEYS) - RUNTIME
    assert set(props["spec"]["properties"]) == {"type"}.union(
        *harness.SPEC_KEYS.values())
    assert props["spec"]["properties"]["type"]["enum"] == list(
        harness.SPEC_KEYS)
    assert set(props["model"]["properties"]["b"]["properties"]) == set(
        harness.DIST_KEYS)


def readme_table(header):
    """The cells of the rows of README's table with this header line."""
    with open(os.path.join(REPO, "README.md")) as f:
        lines = f.read().splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


BOUNDS = {"minimum": "≥", "exclusiveMinimum": ">", "exclusiveMaximum": "<"}


def described(node):
    """README's type-and-bound cell of a schema node."""
    if "enum" in node:
        return "one of " + ", ".join(f"`{v}`" for v in node["enum"])
    if "oneOf" in node:
        return ", or ".join(described(form) for form in node["oneOf"])
    if node["type"] == "object":
        return "object of " + ", ".join(f"`{k}`" for k in node["properties"])
    if node["type"] == "array":
        return (f"list of at least {node['minItems']} "
                f"{described(node['items'])}")
    bounds = ", ".join(f"{BOUNDS[k]} {v}" for k, v in node.items()
                       if k in BOUNDS)
    return f"{node['type']} {bounds}".rstrip()


def default_cell(value):
    return "—" if value is None else f"`{json.dumps(value)}`"


def test_readme_key_tables_are_the_tables_of_harness():
    assert readme_table("| key | type and bound | default | read by |") == [
        [f"`{name}`", described(key.node), default_cell(key.default),
         "all" if key.readers == harness.EXPERIMENTS
         else ", ".join(f"`{e}`" for e in key.readers)]
        for name, key in harness.KEYS.items()]
    assert readme_table("| spec type | key | type and bound | default |") == [
        [f"`{spec}`", f"`{key}`", described(node), default_cell(value)]
        for spec, keys in harness.SPEC_KEYS.items()
        for key, (node, value) in keys.items()]
    assert readme_table("| key | type and bound | default |") == [
        [f"`{key}`", described(node), default_cell(value)]
        for key, (node, value) in harness.DIST_KEYS.items()]


@pytest.mark.parametrize("experiment, name", [
    (experiment, name) for experiment in harness.EXPERIMENTS
    for name in SCHEMA_VALUES if name not in harness.READS[experiment]])
def test_unread_key_is_refused_at_its_path(tmp_path, capsys, experiment,
                                           name):
    # the path is the key itself, or its block when the experiment reads
    # no key of that block
    block, _, key = name.partition(".")
    cfg = json.loads(json.dumps(SMALL_CONFIGS[experiment]))
    if key:
        cfg.setdefault(block, {})[key] = SCHEMA_VALUES[name]
    else:
        cfg[block] = SCHEMA_VALUES[name]
    reads_block = any(n.startswith(block + ".")
                      for n in harness.READS[experiment])
    path = (block, key) if key and reads_block else (block,)
    with pytest.raises(ConfigError) as exc:
        materialize(dict(cfg, experiment=experiment))
    assert exc.value.path == path
    rc = main([experiment, "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config error at {'/'.join(path)}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec, key", [
    ({"type": "free", "a": 2.0}, "a"),
    ({"type": "free", "j_max": 3}, "j_max"),
    ({"type": "constant", "v": 0.5}, "v"),
    ({"type": "sparse", "b": 0.1}, "b"),
])
def test_spec_key_of_another_type_is_refused(tmp_path, capsys, spec, key):
    # a free spec has no a; accepting one would run a = 1 silently
    with pytest.raises(ConfigError) as exc:
        materialize({"experiment": "transfer", "spec": spec})
    assert exc.value.path == ("spec", key)
    cfg = write_config(tmp_path, {"spec": spec, "E_grid": [0.5]})
    assert main(["subordinacy", "--config", cfg]) == 2
    assert f"config error at spec/{key}:" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_materialize_is_idempotent_and_fills_only_read_keys(experiment):
    cfg = {"experiment": experiment}
    if experiment == "sparse":
        cfg["spec"] = {"type": "sparse"}
    for given in (cfg, dict(SMALL_CONFIGS[experiment], **cfg)):
        full = materialize(given)
        assert materialize(full) == full
        # model.a alone has no default
        assert names_of(full) - RUNTIME == (
            (set(harness.READS[experiment]) - {"model.a"})
            | (names_of(given) - RUNTIME))


class Recorder(dict):
    """A config whose reads are recorded in `seen` as table names.

    The blocks model, seeds and grids are Recorders too, so a read of a
    block's key records the key's dotted name; a read of the block alone
    records nothing.
    """

    def __init__(self, data, seen, prefix=""):
        super().__init__({k: Recorder(v, seen, k + ".")
                          if not prefix and k in BLOCKS else v
                          for k, v in data.items()})
        self.seen, self.prefix = seen, prefix

    def _read(self, key):
        if self.prefix or key not in BLOCKS:
            self.seen.add(self.prefix + key)

    def __getitem__(self, key):
        self._read(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._read(key)
        return super().get(key, default)

    def __contains__(self, key):
        self._read(key)
        return super().__contains__(key)

    def items(self):
        for key in self.keys():
            self._read(key)
        return super().items()


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_runs_read_exactly_the_table(monkeypatch, experiment):
    # a key the table lists but the run ignores would be accepted and
    # hashed without changing a result
    seen = set()
    config = Recorder(materialize(dict(SMALL_CONFIGS[experiment],
                                       experiment=experiment)), seen)
    # both read every key by design: materialize copies, the hash digests
    monkeypatch.setattr(harness, "materialize", lambda c: c)
    monkeypatch.setattr(harness, "config_hash", lambda c: "0" * 16)
    report = run(config)
    assert report.rows and not report.failures
    assert seen - RUNTIME == set(harness.READS[experiment])


def test_config_json_pins_the_run(tmp_path):
    # each experiment's config.json holds exactly its keys, and rerunning
    # lab on it reproduces the CSV and trace bodies
    assert sorted(SMALL_CONFIGS) == sorted(harness.EXPERIMENTS)
    for experiment, cfg in SMALL_CONFIGS.items():
        assert names_of(cfg) == set(harness.READS[experiment])
        first, second = tmp_path / experiment, tmp_path / f"{experiment}-2"
        assert main([experiment, "--config", write_config(tmp_path, cfg),
                     "--out", str(first)]) == 0
        pinned = json.loads((first / "config.json").read_text())
        assert pinned == materialize(dict(cfg, experiment=experiment,
                                          output=str(first)))
        assert names_of(pinned) - RUNTIME == set(harness.READS[experiment])
        assert main([experiment, "--config", str(first / "config.json"),
                     "--out", str(second)]) == 0
        bodies = [{p.name: p.read_bytes() for p in out.iterdir()
                   if p.suffix in (".csv", ".dat")}
                  for out in (first, second)]
        assert bodies[0] and bodies[0] == bodies[1]


@pytest.mark.parametrize("experiment", B_ONLY)
def test_cli_model_a_where_only_b_is_drawn_exits_2(tmp_path, capsys,
                                                   experiment):
    cfg = write_config(tmp_path, dict(SMALL_CONFIGS[experiment], model={
        "a": {"kind": "uniform", "amplitude": 0.1}}))
    rc = main([experiment, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error at model/a" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# cold start
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config, unused", [
    # the tiny ac-scan benchmark config
    ({"experiment": "ac-scan", "spec": {"type": "free"},
      "E_grid": {"start": -2.5, "stop": 2.5, "step": 1.0},
      "grids": {"N_j_max": 12, "n_max": 1000}, "workers": 1},
     ("jsonschema", "scipy", "mpmath")),
    # the tiny sparse benchmark config; its long blocks need mpmath
    ({"experiment": "sparse",
      "spec": {"type": "sparse", "v": 0.2, "gamma": 8, "j_max": 14},
      "E_grid": [0.6], "seeds": {"base": 0, "count": 4},
      "grids": {"s": 2.0, "n_cut": 3000}, "workers": 1},
     ("jsonschema", "scipy")),
])
def test_run_loads_no_unused_dependency(config, unused):
    code = ("import json, sys\n"
            "import jacobilab.harness as harness\n"
            "report = harness.run(json.loads(sys.argv[1]))\n"
            "assert report.rows and not report.failures\n"
            "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules}"
            " & set(sys.argv[2:]))))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(REPO, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(config),
                           *unused], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    assert json.loads(proc.stdout) == []
