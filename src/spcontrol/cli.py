"""Batch front-end: INI-style config, subcommands, CSV + text reports.

Output files are deterministic for a fixed config and seed: headers echo the
resolved configuration, floats are printed with 17 significant digits, no
timestamps.  Exit codes: 0 success, 1 config/validation error, 2 numerical
failure (partial outputs are kept).  A CG solve that misses its tolerance in
control-forward, control-backward or sweep-eps is a numerical failure too:
every output is written as usual, then the command reports the failure on
stderr and exits 2.  The output directory is created at the first write, so a
command that fails on its input leaves none.
"""

from __future__ import annotations

import argparse
import ast
import math
import sys
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .carleman import (_backward_ratios, build_psi, eval_weights, lambda_threshold,
                       leading_order_check)
from .control import HumConfig, hum_backward, hum_forward
from .errors import NumericsError
from .experiments import (DIRECTIONS, MIN_POWER_ITERS, SweepError, cost_scaling_sweep,
                          epsilon_sweep, observability_constant)
from .grid import build_grid
from .scenario import AdaptedField, build_tree, mean_square_norm
from .spde import ProblemCoefficients, TreeStepper, _sample

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]


class ConfigError(ValueError):
    """Config problem with file/line context."""


# -- coefficient expressions ------------------------------------------------

_ALLOWED_FUNCS = {name: getattr(np, name) for name in
                  ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")}
_ALLOWED_NAMES = {"pi": math.pi, "e": math.e, **_ALLOWED_FUNCS}
_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
                  ast.Call, ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                  ast.Mod, ast.USub, ast.UAdd)


def compile_expression(text: str, where: str):
    """Compile an arithmetic expression in (t, x) into a coefficient callable.

    An expression that names neither t nor x is a constant and comes back as
    its float value, which ProblemCoefficients samples in one assignment
    instead of one evaluation per time level (the tables are the same).
    """
    try:
        node = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"{where}: cannot parse expression {text!r}: {exc.msg}") from None
    for sub in ast.walk(node):
        if not isinstance(sub, _ALLOWED_NODES):
            raise ConfigError(f"{where}: disallowed syntax {type(sub).__name__!r} in {text!r}")
        if isinstance(sub, ast.Name) and sub.id not in _ALLOWED_NAMES and sub.id not in ("t", "x"):
            raise ConfigError(f"{where}: unknown name {sub.id!r} in {text!r}")
        if isinstance(sub, ast.Call):
            if not isinstance(sub.func, ast.Name) or sub.func.id not in _ALLOWED_FUNCS:
                raise ConfigError(f"{where}: only {sorted(_ALLOWED_FUNCS)} may be called in {text!r}")
    code = compile(node, "<coefficient>", "eval")

    def fn(t, x):
        return eval(code, {"__builtins__": {}}, {**_ALLOWED_NAMES, "t": t, "x": x})

    try:
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            probe = np.asarray(fn(0.1, np.array([0.25, 0.5])), dtype=float)
    except Exception as exc:  # noqa: BLE001 - surface any evaluation problem at parse time
        raise ConfigError(f"{where}: expression {text!r} fails to evaluate: {exc}") from None
    if any(isinstance(sub, ast.Name) and sub.id in ("t", "x") for sub in ast.walk(node)):
        return fn
    return float(probe)


# -- config schema -----------------------------------------------------------


@dataclass
class ProblemSection:
    L: float = 1.0
    N: int = 32
    M: int = 8
    T: float = 1.0
    g0: tuple = (0.3, 0.8)
    g1: tuple = (0.45, 0.65)
    a: str = "1.0"
    a1: str = "0.0"
    a2: str = "0.0"
    b1: str = "0.0"
    b2: str = "0.0"
    b: str = "0.0"


@dataclass
class CarlemanSection:
    mu: float = 1.0
    c0: float = 1.0
    exclude: int = 1
    lambda_multiples: tuple = (1.0, 2.0, 4.0)
    samples: int = 20
    mu_values: tuple = (8.0, 16.0, 32.0, 64.0)


@dataclass
class HumSection:
    epsilon: str = "auto"
    cg_tol: float = 1e-9
    cg_max_iter: int = 2000
    bound_c: float = 1.0


@dataclass
class ExperimentSection:
    seed: int = 1234
    t_values: tuple = (0.25, 0.5, 1.0, 2.0)
    eps_values: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    m_per_time: float = 32.0
    power_iters: int = 30
    direction: str = "forward_1_5"
    output_dir: str = "out"


@dataclass
class RunConfig:
    problem: ProblemSection
    carleman: CarlemanSection
    hum: HumSection
    experiment: ExperimentSection
    _built: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def build_problem(self):
        """(grid, tree, coeffs) of [problem].

        Built once, when parse_config validates the file, and kept; built
        again only if [problem] has been edited since.
        """
        key = astuple(self.problem)
        if self._built[0] != key:
            p = self.problem
            grid = build_grid(p.L, p.N, p.g0, p.g1)
            tree = build_tree(p.M, p.T)
            coeffs = ProblemCoefficients(**{name: compile_expression(getattr(p, name),
                                                                     f"[problem] {name}")
                                            for name in ("a", "a1", "a2", "b1", "b2", "b")})
            self._built = (key, (grid, tree, coeffs))
        return self._built[1]

    def epsilon(self, grid) -> float:
        if self.hum.epsilon == "auto":
            return grid.h ** 2
        try:
            return float(self.hum.epsilon)
        except ValueError:
            raise ValueError("epsilon must be 'auto' or a number") from None

    def hum_config(self, grid) -> HumConfig:
        return HumConfig(epsilon=self.epsilon(grid), cg_tol=self.hum.cg_tol,
                         cg_max_iter=self.hum.cg_max_iter, bound_c=self.hum.bound_c)

    def echo(self) -> list[str]:
        """Header of every CSV and report: the seed, then the resolved configuration."""
        lines = [f"seed = {self.experiment.seed}"]
        for section_name, section in (("problem", self.problem), ("carleman", self.carleman),
                                       ("hum", self.hum), ("experiment", self.experiment)):
            for f in fields(section):
                val = getattr(section, f.name)
                if isinstance(val, tuple):
                    val = ", ".join(_fmt(v) for v in val)
                lines.append(f"{section_name}.{f.name} = {val}")
        return lines


def _parse_scalar(raw: str, kind, where: str):
    """`raw` as an int or float where the default is one; other keys keep the text."""
    if kind not in (int, float):
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {raw!r}") from None


def _parse_tuple(raw: str, where: str) -> tuple:
    try:
        vals = tuple(float(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated numbers, got {raw!r}") from None
    if not vals:
        raise ConfigError(f"{where}: empty list")
    return vals


_SECTION_TYPES = {"problem": ProblemSection, "carleman": CarlemanSection,
                  "hum": HumSection, "experiment": ExperimentSection}


def parse_config(path) -> RunConfig:
    """Parse and fully validate an INI-style config file.

    Unknown sections or keys are rejected with the offending line number; a
    [problem] section must be present, everything else falls back to
    defaults (which are echoed into every output header).
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    sections: dict[str, dict] = {}
    current = None
    for lineno, rawline in enumerate(path.read_text().splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTION_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {rawline.strip()!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside of any section")
        key, _, value = line.partition("=")
        current[key.strip()] = (value.strip(), lineno)

    if "problem" not in sections:
        raise ConfigError(f"{path}: missing required section [problem]")

    built = {}
    for name, cls in _SECTION_TYPES.items():
        defaults = cls()
        known = {f.name: f for f in fields(cls)}
        for key, (value, lineno) in sections.get(name, {}).items():
            where = f"{path}:{lineno}: [{name}] {key}"
            if key not in known:
                raise ConfigError(f"{where}: unknown key")
            default = getattr(defaults, key)
            if isinstance(default, tuple):
                setattr(defaults, key, _parse_tuple(value, where))
            else:
                setattr(defaults, key, _parse_scalar(value, type(default), where))
        built[name] = defaults

    cfg = RunConfig(problem=built["problem"], carleman=built["carleman"],
                    hum=built["hum"], experiment=built["experiment"])
    _validate(cfg, path)
    return cfg


def _validate(cfg: RunConfig, path) -> None:
    p = cfg.problem
    if len(p.g0) != 2 or len(p.g1) != 2:
        raise ConfigError(f"{path}: [problem] g0/g1 must be two numbers each")
    try:
        grid, _, _ = cfg.build_problem()
    except ConfigError as exc:  # a coefficient expression; its message names the key
        raise ConfigError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: [problem] {exc}") from None
    try:
        cfg.hum_config(grid)
    except ValueError as exc:
        raise ConfigError(f"{path}: [hum] {exc}") from None
    c, e = cfg.carleman, cfg.experiment
    positive = (lambda v: 0.0 < v < np.inf, "positive and finite")  # NaN fails every comparison
    at_least_1 = (lambda v: 1.0 <= v < np.inf, "finite and >= 1")
    for key, values, (test, rule) in (
            ("[carleman] mu", c.mu, at_least_1), ("[carleman] c0", c.c0, positive),
            ("[carleman] lambda_multiples", c.lambda_multiples, positive),
            ("[carleman] mu_values", c.mu_values, at_least_1),
            ("[carleman] samples", c.samples, (lambda v: v >= 1, ">= 1")),
            ("[experiment] seed", e.seed, (lambda v: v >= 0, ">= 0")),
            ("[experiment] power_iters", e.power_iters,
             (lambda v: v >= MIN_POWER_ITERS, f">= {MIN_POWER_ITERS}")),
            ("[experiment] m_per_time", e.m_per_time, positive),
            ("[experiment] t_values", e.t_values, positive),
            ("[experiment] eps_values", e.eps_values, positive)):
        if not all(map(test, np.atleast_1d(values))):
            raise ConfigError(f"{path}: {key} must be {rule}")
    if e.direction not in DIRECTIONS:
        raise ConfigError(f"{path}: [experiment] direction must be {' or '.join(DIRECTIONS)}")


# -- output helpers ----------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write(path: Path, lines) -> None:
    """Write one output file; its directory is created at the first write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="\n") as f:
        f.writelines(line + "\n" for line in lines)


def _write_csv(path: Path, cfg: RunConfig, command: str, header: list[str], rows) -> None:
    _write(path, [f"# {line}" for line in (f"command = {command}", *cfg.echo())]
           + [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows])


def _write_report(path: Path, cfg: RunConfig, command: str, lines: list[str]) -> None:
    _write(path, [f"{command} report", "=" * (len(command) + 7), *cfg.echo(), "", *lines])


def _cg_exit(failures: list[str]) -> int:
    """Exit code once every output is written: 2 if any CG solve did not converge."""
    if not failures:
        return 0
    print(f"numerical failure: CG did not converge ({'; '.join(failures)})", file=sys.stderr)
    return 2


# -- subcommands -------------------------------------------------------------


def _cmd_simulate(cfg, out):
    grid, tree, coeffs = cfg.build_problem()
    sol = TreeStepper(grid, tree, coeffs).forward(np.sin(np.pi * grid.x / grid.L))
    rows = [(n, tree.times[n], mean_square_norm(tree, grid, sol.y, n)) for n in range(tree.M + 1)]
    _write_csv(out / "simulate.csv", cfg, "simulate", ["level", "t", "mean_square_norm"], rows)
    _write_report(out / "simulate_report.txt", cfg, "simulate", [
        f"initial mean-square norm = {_fmt(rows[0][2])}",
        f"terminal mean-square norm = {_fmt(rows[-1][2])}",
    ])
    return 0


def _hum_command(cfg, out, which: str):
    grid, tree, coeffs = cfg.build_problem()
    hum_cfg = cfg.hum_config(grid)
    if which == "forward":
        res = hum_forward(grid, tree, coeffs, np.sin(np.pi * grid.x / grid.L), hum_cfg)
        exp_name = "K"
    else:
        yT = np.tile(np.sin(np.pi * grid.x / grid.L), (tree.n_nodes(tree.M), 1))
        res = hum_backward(grid, tree, coeffs, yT, hum_cfg)
        exp_name = "M"
    r = res.report
    trace_rows = [(k + 1, rr, vv) for k, (rr, vv) in
                  enumerate(zip(res.cg_trace["residuals"], res.cg_trace["values"]))]
    name = f"control-{which}"
    _write_csv(out / f"{name}.csv", cfg, name, ["iteration", "relative_residual", "dual_value"],
               trace_rows)
    _write_report(out / f"{name}_report.txt", cfg, name, [
        f"epsilon = {_fmt(r.epsilon)}",
        f"terminal_norm = {_fmt(r.terminal_norm)}",
        f"uncontrolled_norm = {_fmt(r.uncontrolled_norm)}",
        f"control_cost = {_fmt(r.control_cost)}",
        f"{exp_name} = {_fmt(r.cost_exponent)}",
        f"bound_ratio = {_fmt(r.bound_ratio)}",
        f"cg_iterations = {r.cg_iterations}",
        f"cg_converged = {r.cg_converged}",
        f"identity_residual = {_fmt(r.identity_residual)}",
    ])
    return _cg_exit([] if r.cg_converged else
                    [f"{r.cg_iterations} iterations, relative residual {_fmt(r.cg_residual)}"])


def _cmd_observability(cfg, out):
    grid, tree, coeffs = cfg.build_problem()
    est = observability_constant(grid, tree, coeffs, direction=cfg.experiment.direction,
                                 iters=cfg.experiment.power_iters, seed=cfg.experiment.seed)
    rows = [(k + 1, v) for k, v in enumerate(est.rayleigh)]
    _write_csv(out / "observability.csv", cfg, "observability", ["iteration", "rayleigh"], rows)
    _write_report(out / "observability_report.txt", cfg, "observability", [
        f"direction = {est.direction}",
        *([] if est.epsilon is None else [f"epsilon = {_fmt(est.epsilon)}"]),
        f"c_obs = {_fmt(est.c_obs)}",
        f"iterations = {est.iterations}",
        f"last_relative_change = {_fmt(est.residual)}",
    ])
    return 0


def _cmd_carleman_check(cfg, out):
    grid, tree, coeffs = cfg.build_problem()
    psi = build_psi(grid)
    mu = cfg.carleman.mu
    lam0 = lambda_threshold(mu, psi, tree.T, c0=cfg.carleman.c0)
    st = TreeStepper(grid, tree, coeffs)
    rng = np.random.default_rng(cfg.experiment.seed)
    instances = [(rng.standard_normal((tree.n_nodes(tree.M), grid.N)),
                  AdaptedField.random(tree, grid.N, rng, n_levels=tree.M),
                  AdaptedField.random(tree, grid.N, rng, n_levels=tree.M))
                 for _ in range(cfg.carleman.samples)]
    mults = cfg.carleman.lambda_multiples
    weight_sets = [eval_weights(psi, mult * lam0, mu, tree) for mult in mults]
    # the backward solution does not depend on lambda: one solve per instance
    results = [_backward_ratios(st, weight_sets, zT, mode="sources", f0=f0, f_div=fd,
                                exclude=cfg.carleman.exclude) for zT, f0, fd in instances]
    rows = []
    medians = []
    for j, mult in enumerate(mults):
        ratios = [res[j].ratio for res in results]
        rows += [(k, mult, res[j].lhs, res[j].rhs, res[j].ratio) for k, res in enumerate(results)]
        medians.append((mult, float(np.median(ratios)), float(np.max(ratios))))
    _write_csv(out / "carleman-check.csv", cfg, "carleman-check",
               ["sample", "lambda_multiple", "lhs", "rhs", "ratio"], rows)
    lines = [f"mu = {_fmt(mu)}", f"lambda_threshold = {_fmt(lam0)}"]
    lines += [f"lambda x{_fmt(m)}: median_ratio = {_fmt(med)}, max_ratio = {_fmt(mx)}"
              for m, med, mx in medians]
    _write_report(out / "carleman-check_report.txt", cfg, "carleman-check", lines)
    return 0


def _cmd_appendix_check(cfg, out):
    grid, tree, coeffs = cfg.build_problem()
    psi = build_psi(grid)
    # the coefficient formulas need analytic space/time derivatives of a; the
    # config surface only supports the constant case
    samples = _sample(coeffs.a, np.array([0.0, 0.5 * tree.T, tree.T]), grid.x)
    if samples.max() - samples.min() > 1e-14 * max(abs(samples.max()), 1.0):
        raise ConfigError("appendix-check requires a constant diffusion coefficient a")
    rows = leading_order_check(psi, float(samples[0, 0]), cfg.carleman.mu_values, tree.T,
                               grid, c0=cfg.carleman.c0)
    out_rows = [(r.mu, r.lam, r.dev_A, r.dev_B, r.min_B, r.c11_margin) for r in rows]
    _write_csv(out / "appendix-check.csv", cfg, "appendix-check",
               ["mu", "lambda", "dev_A", "dev_B", "min_B_ratio", "c11_margin"], out_rows)
    lines = []
    if len(rows) >= 2:
        slope = np.polyfit(np.log([r.mu for r in rows]), np.log([r.dev_A for r in rows]), 1)[0]
        lines.append(f"dev_A log-log slope = {_fmt(float(slope))}")
    _write_report(out / "appendix-check_report.txt", cfg, "appendix-check", lines)
    return 0


def _cmd_sweep_t(cfg, out):
    grid, _, coeffs = cfg.build_problem()
    if len(set(cfg.experiment.t_values)) < 4:
        raise ConfigError("sweep-T needs at least 4 distinct T values in [experiment] t_values")

    def write_csv(rows):
        _write_csv(out / "sweep-T.csv", cfg, "sweep-T", ["T", "M", "collapsed", "value", "exponent"],
                   [(r["T"], r["M"], r["collapsed"], r["value"], r["exponent"]) for r in rows])

    try:
        table = cost_scaling_sweep(coeffs, grid, cfg.experiment.t_values,
                                   quantity="observability", direction=cfg.experiment.direction,
                                   m_per_time=cfg.experiment.m_per_time,
                                   iters=cfg.experiment.power_iters, seed=cfg.experiment.seed)
    except SweepError as exc:
        write_csv(exc.partial)
        raise
    write_csv(table.rows)
    _write(out / "sweep-T.dat", [f"{_fmt(1.0 / r['T'])} {_fmt(np.log(r['value']))}" for r in table.rows])
    _write_report(out / "sweep-T_report.txt", cfg, "sweep-T", [
        f"quantity = {table.quantity}",
        # the penalty observability_constant puts on the backward quotient
        *([f"epsilon = {_fmt(grid.h ** 2)}"] if cfg.experiment.direction == "backward_1_3" else []),
        f"fit log(value) = slope / T + intercept",
        f"slope = {_fmt(table.slope)}",
        f"intercept = {_fmt(table.intercept)}",
        f"r2 = {_fmt(table.r2)}",
        f"r2 against 1/T^4 (reported only) = {_fmt(table.r2_alt)}",
    ])
    return 0


def _cmd_sweep_eps(cfg, out):
    grid, tree, coeffs = cfg.build_problem()
    columns = ["epsilon", "terminal_norm", "control_cost", "cg_iterations", "cg_converged"]

    def write_csv(rows):
        _write_csv(out / "sweep-eps.csv", cfg, "sweep-eps", columns,
                   [tuple(r[c] for c in columns) for r in rows])

    try:
        rows = epsilon_sweep(coeffs, grid, tree, np.sin(np.pi * grid.x / grid.L),
                             cfg.experiment.eps_values, cg_tol=cfg.hum.cg_tol,
                             cg_max_iter=cfg.hum.cg_max_iter)
    except SweepError as exc:
        write_csv(exc.partial)
        raise
    write_csv(rows)
    _write(out / "sweep-eps.dat", [f"{_fmt(r['epsilon'])} {_fmt(r['terminal_norm'])}" for r in rows])
    decreasing = all(a["terminal_norm"] > b["terminal_norm"] for a, b in zip(rows, rows[1:]))
    costs = [r["control_cost"] for r in rows]
    _write_report(out / "sweep-eps_report.txt", cfg, "sweep-eps", [
        f"rows = {len(rows)}",
        f"terminal_norm strictly decreasing = {decreasing}",
        f"control_cost variation (max/min) = {_fmt(max(costs) / min(costs))}",
        f"uncontrolled_norm = {_fmt(rows[-1]['uncontrolled_norm'])}",
    ])
    return _cg_exit([f"eps = {_fmt(r['epsilon'])} after {r['cg_iterations']} iterations"
                     for r in rows if not r["cg_converged"]])


_DISPATCH = {
    "simulate": _cmd_simulate,
    "control-forward": lambda cfg, out: _hum_command(cfg, out, "forward"),
    "control-backward": lambda cfg, out: _hum_command(cfg, out, "backward"),
    "observability": _cmd_observability,
    "carleman-check": _cmd_carleman_check,
    "appendix-check": _cmd_appendix_check,
    "sweep-T": _cmd_sweep_t,
    "sweep-eps": _cmd_sweep_eps,
}
SUBCOMMANDS = tuple(_DISPATCH)


def run(subcommand: str, config: RunConfig) -> int:
    """Dispatch a subcommand; returns the process exit code."""
    if subcommand not in _DISPATCH:
        raise ConfigError(f"unknown subcommand {subcommand!r}; expected one of {SUBCOMMANDS}")
    return _DISPATCH[subcommand](config, Path(config.experiment.output_dir))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spcontrol",
                                     description="Null-control experiments for stochastic "
                                                 "parabolic equations on scenario trees.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the INI-style config file")
    parser.add_argument("--output-dir", default=None, help="override [experiment] output_dir")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.output_dir is not None:
            cfg.experiment.output_dir = args.output_dir
        code = run(args.subcommand, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericsError, SweepError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
