"""Self-test of the benchmark at minimal input size.

    python3 -m pytest bench/test_bench.py -q

Each workload runs once untraced and once traced with `--tiny`; every metric
BENCHMARK.json names must come out with its unit, and no check may fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

from run import parse_importtime, tail  # noqa: E402


def run_bench(cwd, workload, trace):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
            "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    run = run_bench(ROOT, workload, trace)
    assert run.returncode == 0, run.stderr[-4000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0.0  # fail_frac
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        assert result["metrics"]["fail_frac"]["value"] == 0.0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    run = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert run.returncode != 0
    assert '"metrics"' not in run.stdout


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 41)]
    pct, value = tail(samples)
    assert (pct, value) == (75.0, 30.0)
    assert sum(s > value for s in samples) == 10
    assert tail(samples[:10]) == (0.0, 0.0)


def test_importtime_attributes_nested_imports_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       mpmath",
        "import time:        20 |         30 |     sympy.core",
        "import time:        40 |         70 |   sympy",
        "import time:         5 |          5 |     scipy._lib",
        "import time:        15 |         20 |   scipy.stats",
        "import time:         1 |         91 | surfquant",
    ])
    assert parse_importtime(log) == {"surfquant": 91e-6, "scipy": 20e-6, "sympy": 70e-6}
