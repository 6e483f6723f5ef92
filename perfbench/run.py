"""spcontrol benchmark: one workload, one seed, --seconds of timed tasks.

    python3 perfbench/run.py --workload hum-eps --seed 1234 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload's INI config is
generated from the seed under .bench_work/ and handed to worker processes
that import the package from src/ with the BLAS thread count fixed.

--trace 0 measures the end-to-end metrics.  Tasks run in a closed loop in
SEGMENTS measuring processes, --seconds / SEGMENTS each, and their task times
are pooled; set-up is timed in each of them and in set-up-only processes
started before each and after the last (median).  Task times are reported in `ref` units: each
task's wall time divided by the time of a fixed reference computation run
next to it (see worker.py), which cancels the host's speed drift; the wall
times are in the `detail` record.  --trace 1 runs the loop in one process for
--seconds with every other task traced and reports the per-layer metrics.

Human-readable lines (the metric table and a `detail` JSON record with the
provenance, sample counts and check results) come first; the last stdout
line is the JSON result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "spcontrol"
WORK = ROOT / ".bench_work"

# The ref-unit task time of one process differs from the next by about 5 %
# with the same seed and code, so a run pools the tasks of SEGMENTS measuring
# processes.  A set-up-only process runs before each of them and after the
# last, so set-up is sampled 2 * SEGMENTS + 1 times, spread over the run.
SEGMENTS = 3
BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DEADLINE_S = 170  # a run, all its worker processes included, ends within this
# The tail in the detail record: the highest percentile with TAIL_BEYOND tasks
# beyond it, and at least TAIL_FLOOR_PCT, so that runs of few tasks report one.
# Neither it nor p90 is a result metric: from 6 to 20 tasks a run (hum-eps,
# sweep-t) they are too noisy to gate, and at p99 (carleman-fine) they follow
# the host's sub-second stalls more than the program (see README.md).
TAIL_BEYOND = 10
TAIL_FLOOR_PCT = 90.0

END_TO_END_UNITS = {"task_p50_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    return env


def _spawn(worker_args: list, deadline: float) -> tuple[float, dict]:
    """Run one worker process; returns (monotonic start, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=max(deadline - started, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list, pct: float) -> float:
    """The pct-th percentile, by linear interpolation between ranks, so that it
    moves smoothly as the number of values changes."""
    ordered = sorted(values)
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def tail(times: list) -> tuple[float, float, int]:
    """(value, percentile, tasks beyond it), at percentile
    max(TAIL_FLOOR_PCT, 100 (n - TAIL_BEYOND) / n) of n tasks."""
    n = len(times)
    pct = max(TAIL_FLOOR_PCT, 100.0 * (n - TAIL_BEYOND) / n)
    value = percentile(times, pct)
    return value, pct, sum(t > value for t in times)


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def provenance(versions: dict) -> dict:
    sources = sorted(PACKAGE.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {key: BLAS_THREADS for key in BLAS_ENV},
        **versions,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "src_spcontrol_lines": lines,
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no spcontrol sources at {PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}"
    config = WORK / f"{stem}.ini"
    config.write_text(wl.config_text(args.seed))
    base = ["--workload", wl.name, "--config", str(config)]
    deadline = time.monotonic() + RUN_DEADLINE_S

    segments = 1 if args.trace else SEGMENTS
    measure = base + ["--seconds", str(args.seconds / segments), "--trace", str(args.trace)]
    if args.trace:
        measure += ["--spans", str(WORK / f"spans-{stem}.json")]
    setup_samples, parts = [], []

    def probe_setup() -> None:
        if not args.trace:
            started, probe = _spawn(base + ["--seconds", "0", "--setup-only"], deadline)
            setup_samples.append(probe["ready"] - started)

    try:
        for _ in range(segments):
            probe_setup()
            started, part = _spawn(measure, deadline)
            setup_samples.append(part["ready"] - started)
            parts.append(part)
        probe_setup()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    res = parts[0]
    times = [t for p in parts for t in p["times"]]
    ref_times = [r for p in parts for r in p["ref_times"]]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    problems = [f"process {i}: {x}" for i, p in enumerate(parts) for x in p["problems"]]
    # same seed, same inputs: every process must produce the same outputs
    problems += [f"process {i}: outputs differ from process 0"
                 for i, p in enumerate(parts) if p["summary"] != res["summary"]]
    rel = [t / r for t, r in zip(times, ref_times)]
    tail_value, tail_p, tail_beyond = tail(rel)
    if args.trace:
        metrics = res["layers"]
    else:
        values = {
            "task_p50_ref": statistics.median(rel),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    correct = failed == 0 and not problems
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "processes": segments, "tasks_timed": len(times),
        "task_p90_ref": percentile(rel, 90.0), "task_tail_ref": tail_value,
        "task_tail_percentile": tail_p, "task_tail_beyond": tail_beyond,
        "setup_samples_s": setup_samples,
        "wall": {"task_p50_s": statistics.median(times), "task_tail_s": tail(times)[0],
                 "tasks_per_s": len(times) / sum(times),
                 "ref_p50_s": statistics.median(ref_times),
                 "ref_probes": sum(p["probes"] for p in parts)},
        "failed_frac": failed / attempted,
        "reference_checked": res["reference_checked"], "reference_rtol": res["reference_rtol"],
        "problems": problems[:20], "outputs": res["summary"],
        "provenance": provenance(res["versions"]),
    }
    final = {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    (WORK / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": final, "task_ref": rel}, indent=1))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:<24.10g} {m['unit']}")
    print("detail " + json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
