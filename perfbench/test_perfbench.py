"""Self-test of the benchmark: every workload once at tiny size, both modes."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


def bench(workload, trace, cwd=ROOT, seed=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(record)["record"], json.loads(result)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_tiny(workload):
    plain_record, plain = parse(bench(workload, 0))
    traced_record, traced = parse(bench(workload, 1))

    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in BENCH[section]}

    wall = max(traced_record["traced_run_s"])
    for name, metric in traced["metrics"].items():
        if metric["unit"] == "s":
            assert 0.0 <= metric["value"] <= wall, name

    # tracing must not change results
    assert plain_record["digests"]
    assert traced_record["digests"] == plain_record["digests"]


def copy_benchmark(dest, with_source):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(os.path.join(ROOT, "perfbench"), dest / "perfbench",
                    ignore=ignore)
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src", ignore=ignore)


@pytest.mark.parametrize("workload,column", [
    ("ac-scan", "liminf_proxy"),   # takes no seed: checked in full
    ("sparse", "theta_star"),      # fixed before the seed loop
])
def test_check_fails_on_a_wrong_value_at_another_seed(tmp_path, workload,
                                                      column):
    copy_benchmark(tmp_path, with_source=True)
    ref = tmp_path / "perfbench" / "reference" / f"{workload}.tiny.csv"
    lines = ref.read_text().splitlines(keepends=True)
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[header].rstrip("\n").split(",").index(column)
    row = lines[header + 1].rstrip("\n").split(",")
    row[col] = repr(float(row[col]) * 1.001 + 1e-3)
    lines[header + 1] = ",".join(row) + "\n"
    ref.write_text("".join(lines))

    _, result = parse(bench(workload, 0, cwd=tmp_path, seed=3))
    assert not result["correct"]
    assert result["failed"] >= 1


def test_fails_without_the_source(tmp_path):
    copy_benchmark(tmp_path, with_source=False)
    proc = bench("series", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
