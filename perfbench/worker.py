"""One workload process: set-up, an untimed warm-up pass, then the timed window.

Started by run.py with the generated config; prints one JSON object as its
last stdout line.  `ready` is the CLOCK_MONOTONIC reading when set-up ends,
so the parent can time set-up from before it started this interpreter.

Tasks run back to back in a closed loop, one at a time.  The window starts
no task that the previous task's duration says would end past `--seconds`.
With `--trace 1` tasks alternate between traced (even) and untraced (odd);
the tracer is installed only around traced tasks, so untraced tasks run the
package code unwrapped.

Between tasks the loop times a fixed reference computation (`speed_probe`),
which does not touch spcontrol.  The shared host this benchmark was built on
changes speed by 15-40 % over tens of seconds to minutes, for all code much
alike; a task's time divided by the reference time measured on both sides of
it cancels most of that drift and keeps what the program's own code costs.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Reference probes between two tasks take at least this share of the previous
# task's time (and at least one probe), so a long task gets a steady reference.
PROBE_SHARE = 0.05
# A task's reference is the median of at least REF_PROBES probes, from the
# groups nearest to it: one probe is too noisy for a short task's ratio.
REF_PROBES = 16


def _probe_operands():
    from scipy.linalg import cholesky_banded

    ab = np.zeros((2, 32))
    ab[0, 1:] = -1.0
    ab[1] = 2.5
    return cholesky_banded(ab), np.linspace(0.0, 1.0, 32)[:, None]


def speed_probe(chol, y0) -> float:
    """Time one pass of the reference computation, a miniature tree sweep in
    plain numpy and scipy: banded solves on 32 rows over levels of 1 to 2048
    columns, down and back up (5 to 7 ms on a 2 GHz Xeon).  Its mix of
    per-call overhead and growing working sets follows the workloads' speed
    better than a fixed-size kernel does.  It must never change: every `ref`
    metric is in its units."""
    from scipy.linalg import cho_solve_banded

    start = time.perf_counter()
    x = y0
    for _ in range(11):
        y = cho_solve_banded((chol, False), x)
        d = np.diff(y, axis=0, prepend=0.0)
        x = np.concatenate([y + 0.1 * d, y - 0.1 * d], axis=1)
        x = x / (1.0 + np.abs(x).max())
    for _ in range(11):
        x = cho_solve_banded((chol, False), 0.5 * (x[:, 0::2] + x[:, 1::2]))
    return time.perf_counter() - start


def _reference(groups: list, i: int) -> float:
    """Median probe time around task i: groups i and i + 1 (just before and
    just after it), widened on both sides until they hold REF_PROBES probes."""
    lo, hi = i, i + 2
    while sum(map(len, groups[lo:hi])) < REF_PROBES and (lo > 0 or hi < len(groups)):
        lo, hi = max(lo - 1, 0), min(hi + 1, len(groups))
    return statistics.median(t for g in groups[lo:hi] for t in g)


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), value


def compare(got: dict, want: dict, rtol: float) -> list:
    """Keys of `want` whose value in `got` differs by more than rtol (relative)."""
    have = dict(_flatten(got))
    bad = []
    for key, ref in _flatten(want):
        val = have.get(key)
        if isinstance(ref, bool) or not isinstance(ref, (int, float)):
            ok = val == ref
        else:
            ok = (isinstance(val, (int, float)) and math.isfinite(val)
                  and abs(val - ref) <= rtol * abs(ref))
        if not ok:
            bad.append(f"{key}: got {val!r}, want {ref!r}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import spcontrol as spc
    import spcontrol.cli  # noqa: F401 - the command-line front end users start from
    import_s = time.perf_counter() - t0
    import numpy
    import scipy

    state = wl.capture(spc)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    cfg = spc.cli.parse_config(args.config)
    grid, tree, coeffs = cfg.build_problem()
    wl.setup(spc, cfg, grid, tree, coeffs, state)
    if tracer:
        tracer.uninstall()
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    ref = json.loads(REFERENCE.read_text())
    pool = wl.inputs(spc, cfg, grid, tree, state)
    problems: list = []
    attempted = failed = 0

    def run_task(k: int, traced: bool):
        nonlocal attempted, failed
        attempted += 1
        if traced:
            tracer.task = k
            tracer.install()
        out, found = None, []
        start = time.perf_counter()
        try:
            out = wl.task(spc, cfg, grid, tree, coeffs, state, pool[k % len(pool)])
        except Exception as exc:  # noqa: BLE001 - a failed task is counted, the run goes on
            found.append(f"task {k}: {type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
                tracer.task = -1
        if out is not None:
            found += [f"task {k}: {p}" for p in wl.check(out)]
            if k >= len(pool) and first[k % len(pool)] is not None:
                found += [f"task {k}: differs from the warm-up output: {p}"
                          for p in compare(out, first[k % len(pool)], ref["rtol"])]
        if found:
            failed += 1
            problems.extend(found)
        return out, elapsed

    # warm-up: one untimed pass over the input pool, whose outputs are checked
    # and kept as the values every later task must repeat
    first = [run_task(k, False)[0] for k in range(len(pool))]

    operands = _probe_operands()
    for _ in range(5):
        speed_probe(*operands)

    def probe_group(after_task_s: float) -> list:
        group = [speed_probe(*operands)]
        while sum(group) < PROBE_SHARE * after_task_s:
            group.append(speed_probe(*operands))
        return group

    # groups[i] is timed just before task i of the window, groups[-1] after the last
    times, groups, traced_flags, kept = [], [probe_group(0.0)], [], []
    start = time.perf_counter()
    k = len(pool)
    min_tasks = 2 if tracer else 1  # a traced run needs an untraced task too
    while len(times) < min_tasks or time.perf_counter() - start + times[-1] <= args.seconds:
        traced = bool(tracer) and (k - len(pool)) % 2 == 0
        out, elapsed = run_task(k, traced)
        if len(kept) < 2:
            kept.append([traced, out])
        times.append(elapsed)
        groups.append(probe_group(elapsed))
        traced_flags.append(traced)
        k += 1
    ref_times = [_reference(groups, i) for i in range(len(times))]

    summary = None
    if all(o is not None for o in first):
        summary = wl.summary(first)
        problems += wl.check_run(summary)
        if cfg.experiment.seed == ref["seed"]:
            problems += [f"reference {p}" for p in compare(summary, ref[wl.name], ref["rtol"])]

    result.update({
        "times": times, "ref_times": ref_times,
        "probes": sum(len(g) for g in groups),
        "attempted": attempted, "failed": failed, "problems": problems,
        "summary": summary, "warmup_output": first[0], "timed_outputs": kept,
        "reference_checked": cfg.experiment.seed == ref["seed"],
        "reference_rtol": ref["rtol"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    if tracer:
        rel = [t / r for t, r in zip(times, ref_times)]
        traced_rel = [x for x, f in zip(rel, traced_flags) if f]
        plain_rel = [x for x, f in zip(rel, traced_flags) if not f]
        overhead = statistics.median(traced_rel) / statistics.median(plain_rel) - 1.0
        traced_ids = [len(pool) + i for i, f in enumerate(traced_flags) if f]
        result["layers"] = layer_metrics(tracer, traced_ids, import_s, overhead)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
