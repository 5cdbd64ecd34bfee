"""Output checks: comparison with the reference outputs, and output digests.

One cell is one CSV row (one energy) for the per-energy experiments; the
whole ``series`` output is one cell. On the reference seed, and on every seed
for a workload that takes no seed, every column is compared with
``reference/<workload>.csv`` at the tolerances in ``tolerances.json``; on
another seed only the workload's seed-independent columns are. Columns with
an ``at_most`` bound and the summary verdicts listed in ``tolerances.json``
are checked on every seed.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
from typing import Dict, List, Tuple

from workloads import REFERENCE_SEED

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

with open(os.path.join(HERE, "tolerances.json")) as _f:
    TOLERANCES = json.load(_f)


def reference_path(workload: str, tiny: bool) -> str:
    suffix = ".tiny.csv" if tiny else ".csv"
    return os.path.join(REFERENCE_DIR, workload + suffix)


def read_csv(path: str) -> Tuple[List[str], List[List[str]]]:
    """Column names and rows of an emitted CSV, without its '#' header."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def digests(out_dir: str) -> Dict[str, str]:
    """sha256 of every emitted CSV and plot-data body.

    summary.json and config.json embed the output directory, which
    changes on every run, so they are left out.
    """
    paths = (glob.glob(os.path.join(out_dir, "*.csv"))
             + glob.glob(os.path.join(out_dir, "trace_*.dat")))
    out = {}
    for p in sorted(paths):
        with open(p, "rb") as f:
            out[os.path.basename(p)] = hashlib.sha256(f.read()).hexdigest()
    return out


def _float_ok(value: float, ref: float, tol: dict) -> bool:
    if math.isnan(ref) or math.isnan(value):
        return math.isnan(ref) and math.isnan(value)
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    allowed = max(tol.get("abs", 0.0), tol.get("rel", 0.0) * abs(ref))
    return abs(value - ref) <= allowed


def _row_problems(columns: List[str], row: List[str], ref: List[str],
                  tolerances: dict, checked) -> List[str]:
    problems = []
    if len(row) != len(columns):
        return [f"row has {len(row)} fields, expected {len(columns)}"]
    values = dict(zip(columns, row))
    for col, got, want in zip(columns, row, ref):
        tol = tolerances[col]
        if isinstance(tol, dict) and "at_most" in tol:
            if not float(got) <= tol["at_most"]:
                problems.append(f"{col}={got} (at most {tol['at_most']})")
                continue
        if col not in checked:
            continue
        if tol == "exact":
            ok = got == want
        elif "relation" in tol:
            # the only relation in use: eta = (1 - beta) / beta
            beta = float(values["beta"])
            expect = (1.0 - beta) / beta if beta > 0.0 else math.nan
            ok = _float_ok(float(got), expect, tol)
        else:
            ok = _float_ok(float(got), float(want), tol)
        if not ok:
            problems.append(f"{col}={got} (reference {want})")
    return problems


def check_outputs(workload, out_dir: str, seed: int,
                  tiny: bool) -> Tuple[int, int, List[str]]:
    """(cells attempted, cells failed, problem descriptions) for one run."""
    name = workload.name
    ref_cols, ref_rows = read_csv(reference_path(name, tiny))
    n_cells = 1 if name == "series" else len(ref_rows)
    tolerances = TOLERANCES["columns"][name]
    checked = (set(ref_cols)
               if seed == REFERENCE_SEED or workload.streams is None
               else set(workload.seed_checked))

    csv_path = os.path.join(out_dir, f"{workload.config['experiment']}.csv")
    if not os.path.exists(csv_path):
        return n_cells, n_cells, [f"{csv_path} was not written"]
    columns, rows = read_csv(csv_path)
    if columns != ref_cols or len(rows) != len(ref_rows):
        return n_cells, n_cells, [
            f"{name}: {len(rows)} rows of {columns}, reference has "
            f"{len(ref_rows)} rows of {ref_cols}"]

    problems = []
    failed_rows = 0
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        row_problems = _row_problems(columns, row, ref, tolerances, checked)
        if row_problems:
            failed_rows += 1
            problems.append(f"{name} row {i}: " + "; ".join(row_problems))

    expected = TOLERANCES["summary"].get(name, {})
    if expected:
        with open(os.path.join(out_dir, "summary.json")) as f:
            summary = json.load(f)["summary"]
        problems += [f"{name} summary {key}={summary.get(key)} "
                     f"(expected {want})"
                     for key, want in expected.items()
                     if summary.get(key) != want]

    if name == "series":
        return 1, int(bool(problems)), problems
    return n_cells, failed_rows, problems
