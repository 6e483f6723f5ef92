"""Spans and work counters recorded from outside the spcontrol package.

`Tracer.install()` replaces the package attributes through which the layers
call each other (class methods, and the names each module imported from
another) with timing wrappers; `uninstall()` puts the originals back.  No
package file is edited, so an untraced task runs exactly the package code.

Each span is kept in memory as (name, start, end, self, parent, task); self
time is the span's duration minus the time covered by its child spans.
Counters record work at the same boundaries: implicit-solve rows and bytes,
CG iterations, Gramian applications.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module, attribute path, span name); each module is listed where the
# attribute is looked up at call time, so package-internal calls are seen.
SPANS = (
    ("spcontrol.spde", "TreeStepper.forward", "spde.tree_forward"),
    ("spcontrol.spde", "TreeStepper.backward", "spde.tree_backward"),
    ("spcontrol.spde", "_StepperBase.__init__", "spde.stepper_init"),
    ("spcontrol.spde", "gradient", "grid.gradient"),
    ("spcontrol.spde", "weak_divergence", "grid.weak_divergence"),
    ("spcontrol.carleman", "gradient", "grid.gradient"),
    ("spcontrol.control", "mean_square_norm", "scenario"),
    ("spcontrol.experiments", "build_tree", "scenario"),
    ("spcontrol.cli", "build_tree", "scenario"),
    ("spcontrol.cli", "mean_square_norm", "scenario"),
    ("spcontrol.scenario", "expectation", "scenario"),
    ("spcontrol.scenario", "qt_integral", "scenario"),
    ("spcontrol.control", "hum_forward", "control.hum_forward"),
    ("spcontrol.experiments", "hum_forward", "control.hum_forward"),
    ("spcontrol.experiments", "epsilon_sweep", "experiments.epsilon_sweep"),
    ("spcontrol.experiments", "cost_scaling_sweep", "experiments.cost_scaling_sweep"),
    ("spcontrol.experiments", "observability_constant", "experiments.observability_constant"),
    ("spcontrol.carleman", "eval_weights", "carleman.eval_weights"),
    ("spcontrol.carleman", "carleman_ratio_backward", "carleman.ratio_backward"),
    ("spcontrol.cli", "parse_config", "cli.parse_config"),
    ("spcontrol.cli", "RunConfig.build_problem", "cli.build_problem"),
)

FIELDS = ("name", "start", "end", "self", "parent", "task")
_SWEEPS = ("spde.tree_forward", "spde.tree_backward")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory span recorder; `task` tags every span and counter it records."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.task = -1
        self._stack: list = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[self.task][key] += amount

    def _wrap_span(self, name: str, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]  # child time covered so far
            parent = stack[-1][1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((frame, index))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0][0] += dur
                spans[index] = (name, start, end, dur - frame[0], parent, self.task)
            self._observe(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name: str, result) -> None:
        """Work counts read off a layer's return value."""
        if name == "control.hum_forward":
            rep = result.report
            eps = f"{rep.epsilon:.0e}".replace("e-0", "e-")
            self.count(f"cg_iterations.eps{eps}", rep.cg_iterations)
        elif name == "experiments.epsilon_sweep":
            self.count("experiment_rows", len(result))
        elif name == "experiments.cost_scaling_sweep":
            self.count("experiment_rows", len(result.rows))

    def _wrap_solve(self, fn):
        def wrapper(stepper, level, rhs):
            out = fn(stepper, level, rhs)
            counts = self.counts[self.task]
            counts["solves"] += 1
            counts["rows_solved"] += rhs.shape[0]
            counts["bytes_computed"] += rhs.nbytes + out.nbytes
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_cg(self, fn):
        def wrapper(*args, **kwargs):
            x, trace = fn(*args, **kwargs)
            counts = self.counts[self.task]
            counts["cg_calls"] += 1
            counts["cg_converged"] += bool(trace["converged"])
            counts["cg_iterations"] += trace["iterations"]
            return x, trace

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gram(self, fn):
        def wrapper(*args, **kwargs):
            self.counts[self.task]["gram_applies"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, module: str, path: str, make) -> None:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, path, name in SPANS:
            self._patch(module, path, lambda fn, name=name: self._wrap_span(name, fn))
        self._patch("spcontrol.spde", "_StepperBase._solve", self._wrap_solve)
        self._patch("spcontrol.control", "_cg", self._wrap_cg)
        self._patch("spcontrol.experiments", "_cg", self._wrap_cg)
        self._patch("spcontrol.control", "_ForwardDual.gram", self._wrap_gram)
        self._patch("spcontrol.control", "_BackwardDual.gram", self._wrap_gram)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict:
        """{task: {span name: [calls, total_s, self_s]}}; task -1 is set-up.

        The pseudo-name "sweeps_under.<layer>" counts the tree sweeps that ran
        inside an experiments.* or a carleman.ratio_backward span.
        """
        spans = self.spans
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for name, start, end, self_s, parent, task in spans:
            row = out[task][name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
            if name in _SWEEPS:
                while parent >= 0:
                    owner = spans[parent][0]
                    if owner.startswith("experiments.") or owner == "carleman.ratio_backward":
                        out[task]["sweeps_under." + owner.split(".")[0]][0] += 1
                        break
                    parent = spans[parent][4]
        return out

    def dump(self, path) -> None:
        """Write every span (names interned) and the per-task counters as JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans]
        with open(path, "w") as f:
            json.dump({"fields": FIELDS, "names": names, "spans": rows,
                       "counts": {str(k): dict(v) for k, v in self.counts.items()}}, f)


# -- per-layer metrics ------------------------------------------------------

EPS_ROWS = ("1e-1", "1e-2", "1e-3", "1e-4")

# name -> unit.  Values are per traced task (the mean over traced tasks),
# except the cli.* and setup.* names, which time the set-up phase once.
PER_LAYER = {
    "spde.tree_forward.calls": "count/task",
    "spde.tree_forward.self_s": "s/task",
    "spde.tree_backward.calls": "count/task",
    "spde.tree_backward.self_s": "s/task",
    "spde.rows_solved": "count/task",
    "spde.bytes_computed": "B/task",
    "spde.self_us_per_row": "us/row",
    "spde.stepper_init.calls": "count/task",
    "spde.stepper_init.s": "s/task",
    "grid.gradient.calls": "count/task",
    "grid.gradient.s": "s/task",
    "grid.weak_divergence.calls": "count/task",
    "grid.weak_divergence.s": "s/task",
    "scenario.calls": "count/task",
    "scenario.self_s": "s/task",
    "control.hum_forward.calls": "count/task",
    "control.hum_forward.self_s": "s/task",
    "control.cg_iterations": "count/task",
    **{f"control.cg_iterations.eps{e}": "count/task" for e in EPS_ROWS},
    "control.gram_applies": "count/task",
    "control.cg_converged_frac": "ratio",
    "experiments.epsilon_sweep.self_s": "s/task",
    "experiments.cost_scaling_sweep.self_s": "s/task",
    "experiments.observability_constant.calls": "count/task",
    "experiments.observability_constant.self_s": "s/task",
    "experiments.sweeps_per_row": "count/row",
    "carleman.eval_weights.calls": "count/task",
    "carleman.eval_weights.self_s": "s/task",
    "carleman.ratio_backward.calls": "count/task",
    "carleman.ratio_backward.self_s": "s/task",
    "carleman.sweeps_per_instance": "count",
    "cli.parse_config.s": "s",
    "cli.build_problem.s": "s",
    "setup.import_s": "s",
    "setup.stepper_init.s": "s",
    "setup.eval_weights.s": "s",
    "trace.overhead_frac": "ratio",
}

def _task_metrics(tot: dict, cnt: dict) -> dict:
    """Per-task layer metrics from one task's span totals and counters."""

    def calls(name):
        return float(tot[name][0])

    def total_s(name):
        return tot[name][1]

    def self_s(name):
        return tot[name][2]

    rows = cnt.get("rows_solved", 0.0)
    sweep_self = self_s("spde.tree_forward") + self_s("spde.tree_backward")
    exp_rows = cnt.get("experiment_rows", 0.0)
    instances = 1.0 if calls("carleman.ratio_backward") else 0.0  # one per task
    cg_calls = cnt.get("cg_calls", 0.0)
    out = {
        "spde.tree_forward.calls": calls("spde.tree_forward"),
        "spde.tree_forward.self_s": self_s("spde.tree_forward"),
        "spde.tree_backward.calls": calls("spde.tree_backward"),
        "spde.tree_backward.self_s": self_s("spde.tree_backward"),
        "spde.rows_solved": rows,
        "spde.bytes_computed": cnt.get("bytes_computed", 0.0),
        "spde.self_us_per_row": 1e6 * sweep_self / rows if rows else 0.0,
        "spde.stepper_init.calls": calls("spde.stepper_init"),
        "spde.stepper_init.s": total_s("spde.stepper_init"),
        "grid.gradient.calls": calls("grid.gradient"),
        "grid.gradient.s": total_s("grid.gradient"),
        "grid.weak_divergence.calls": calls("grid.weak_divergence"),
        "grid.weak_divergence.s": total_s("grid.weak_divergence"),
        "scenario.calls": calls("scenario"),
        "scenario.self_s": self_s("scenario"),
        "control.hum_forward.calls": calls("control.hum_forward"),
        "control.hum_forward.self_s": self_s("control.hum_forward"),
        "control.cg_iterations": cnt.get("cg_iterations", 0.0),
        **{f"control.cg_iterations.eps{e}": cnt.get(f"cg_iterations.eps{e}", 0.0)
           for e in EPS_ROWS},
        "control.gram_applies": cnt.get("gram_applies", 0.0),
        "control.cg_converged_frac": cnt.get("cg_converged", 0.0) / cg_calls if cg_calls else 0.0,
        "experiments.epsilon_sweep.self_s": self_s("experiments.epsilon_sweep"),
        "experiments.cost_scaling_sweep.self_s": self_s("experiments.cost_scaling_sweep"),
        "experiments.observability_constant.calls": calls("experiments.observability_constant"),
        "experiments.observability_constant.self_s": self_s("experiments.observability_constant"),
        "experiments.sweeps_per_row":
            calls("sweeps_under.experiments") / exp_rows if exp_rows else 0.0,
        "carleman.eval_weights.calls": calls("carleman.eval_weights"),
        "carleman.eval_weights.self_s": self_s("carleman.eval_weights"),
        "carleman.ratio_backward.calls": calls("carleman.ratio_backward"),
        "carleman.ratio_backward.self_s": self_s("carleman.ratio_backward"),
        "carleman.sweeps_per_instance":
            calls("sweeps_under.carleman") / instances if instances else 0.0,
    }
    return out


def layer_metrics(tracer: Tracer, traced_tasks: list, import_s: float,
                  overhead_frac: float) -> dict:
    """Every PER_LAYER metric: task metrics averaged over traced tasks, plus set-up."""
    totals = tracer.totals()
    per_task = [_task_metrics(totals[t], tracer.counts[t]) for t in traced_tasks]
    out = {name: sum(m[name] for m in per_task) / len(per_task) for name in per_task[0]}
    setup = totals[-1]
    out["cli.parse_config.s"] = setup["cli.parse_config"][1]
    out["cli.build_problem.s"] = setup["cli.build_problem"][1]
    out["setup.import_s"] = import_s
    out["setup.stepper_init.s"] = setup["spde.stepper_init"][1]
    out["setup.eval_weights.s"] = setup["carleman.eval_weights"][1]
    out["trace.overhead_frac"] = overhead_frac
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}
