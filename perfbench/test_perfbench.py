"""Tests of the benchmark itself: exact work counts and trace transparency.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

Workload runs use shrunken copies of the workload configs (one pool input
each) so that the file runs in seconds; the counting and tracing code paths
are the same.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SHRINK = {
    "hum-eps": (("N = 32", "N = 20"), ("M = 8", "M = 4")),
    "sweep-t": (("m_per_time = 6", "m_per_time = 3"),),
    "carleman-fine": (("N = 128", "N = 24"), ("samples = 32", "samples = 1")),
}

COUNT_METRICS = ("spde.tree_forward.calls", "spde.tree_backward.calls", "spde.rows_solved",
                 "spde.bytes_computed", "spde.stepper_init.calls", "grid.gradient.calls",
                 "grid.weak_divergence.calls", "scenario.calls", "control.hum_forward.calls",
                 "control.cg_iterations", "control.cg_iterations.eps1e-1",
                 "control.cg_iterations.eps1e-2", "control.cg_iterations.eps1e-3",
                 "control.cg_iterations.eps1e-4", "control.gram_applies",
                 "experiments.observability_constant.calls", "experiments.sweeps_per_row",
                 "carleman.ratio_backward.calls", "carleman.sweeps_per_instance")


def _traced_run(name: str, tmp_path: Path) -> dict:
    text = WORKLOADS[name].config_text(7)
    for old, new in SHRINK[name]:
        assert old in text
        text = text.replace(old, new)
    config = tmp_path / f"{name}.ini"
    config.write_text(text)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", name,
                           "--config", str(config), "--seconds", "0", "--trace", "1"],
                          env=run._child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_and_tracing_changes_no_output(name, tmp_path):
    first = _traced_run(name, tmp_path)
    second = _traced_run(name, tmp_path)
    counts = {k: first["layers"][k]["value"] for k in COUNT_METRICS}
    assert counts == {k: second["layers"][k]["value"] for k in COUNT_METRICS}
    assert counts["spde.rows_solved"] > 0
    cg = counts["control.cg_iterations"]
    assert (cg > 0) == (name == "hum-eps")
    assert cg == sum(counts[f"control.cg_iterations.eps{e}"] for e in tracer.EPS_ROWS)
    # the first timed task is traced, the second is not; both repeat the
    # untraced warm-up output bit for bit
    (traced, out_traced), (plain, out_plain) = first["timed_outputs"]
    assert traced and not plain
    assert out_traced == out_plain == first["warmup_output"]
    assert first["failed"] == 0, first["problems"]
    # every timed task has a reference time from the probes around it
    assert len(first["ref_times"]) == len(first["times"]) >= 2
    assert first["probes"] >= len(first["times"]) + 1
    assert all(r > 0.0 for r in first["ref_times"])


def test_one_sweep_hand_count():
    """One tree sweep of depth M is M solves over sum_{n=1..M} 2^n rows."""
    import spcontrol as spc

    N, M = 6, 5
    grid = spc.build_grid(1.0, N, (0.2, 0.8), (0.4, 0.6))
    tree = spc.build_tree(M, 1.0)
    coeffs = spc.ProblemCoefficients(a=1.0, a1=0.3, a2=0.2, b1=0.1, b2=0.1, b=0.2)
    stepper = spc.TreeStepper(grid, tree, coeffs)
    rows = sum(2 ** n for n in range(1, M + 1))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.task = 0
        y = stepper.forward(np.ones(N)).y
        tracer.task = 1
        stepper.backward(y[M], mode="adjoint_1_3")
    finally:
        tracer.uninstall()
    for task, name in ((0, "spde.tree_forward"), (1, "spde.tree_backward")):
        assert tracer.counts[task]["solves"] == M
        assert tracer.counts[task]["rows_solved"] == rows
        assert tracer.counts[task]["bytes_computed"] == 2 * 8 * N * rows
        assert tracer.totals()[task][name][0] == 1
    assert not hasattr(spc.TreeStepper.forward, "__wrapped__")


def test_tail_percentile():
    assert run.tail(list(range(2000))) == (pytest.approx(1989.005), 99.5, 10)
    assert run.tail(list(range(20))) == (pytest.approx(17.1), 90.0, 2)
    assert run.tail([3.0, 1.0, 2.0]) == (pytest.approx(2.8), 90.0, 1)
    assert run.tail([5.0]) == (5.0, 90.0, 0)
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sweep-t",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
