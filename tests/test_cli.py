import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spcontrol import cli, experiments
from spcontrol.cli import ConfigError, compile_expression, main, parse_config, run
from spcontrol.errors import NumericsError
from spcontrol.spde import ProblemCoefficients, TreeStepper, _sample


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = """
[problem]
N = 16
M = 4
g0 = 0.25, 0.8
g1 = 0.4, 0.6
"""

DESK = MINIMAL + """
a = 0.2
a1 = 0.5
a2 = 0.3
b1 = 0.2
b2 = 0.2
b = 0.3

[hum]
epsilon = 1e-2
cg_max_iter = 500

[experiment]
seed = 3
power_iters = 10
"""


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.problem.N == 16 and cfg.problem.M == 4
    assert cfg.problem.L == 1.0 and cfg.problem.T == 1.0  # defaults
    assert cfg.hum.cg_tol == 1e-9
    assert cfg.experiment.seed == 1234
    assert cfg.carleman.mu == 1.0


def test_expression_arithmetic():
    fn = compile_expression("1 + 0.5*x", "[problem] a")
    assert fn(0.0, 0.5) == pytest.approx(1.25)
    fn2 = compile_expression("sin(pi*x) * exp(-t)", "[problem] a1")
    assert fn2(0.0, np.array([0.5]))[0] == pytest.approx(1.0)


def test_expression_rejections():
    with pytest.raises(ConfigError, match="disallowed|unknown|only"):
        compile_expression("__import__('os')", "test")
    with pytest.raises(ConfigError, match="unknown name"):
        compile_expression("q * x", "test")
    with pytest.raises(ConfigError, match="cannot parse"):
        compile_expression("1 +", "test")


@pytest.mark.parametrize("text", ["0.15", "sqrt(2) * exp(-1) / 3", "2 ** -0.5 + pi", "-log(7)"])
def test_constant_expression_samples_like_its_callable(grid16, tree6, text):
    const = compile_expression(text, "[problem] a1")
    assert isinstance(const, float)

    def callable_form(t, x):
        return eval(text, {"__builtins__": {}}, dict(cli._ALLOWED_NAMES))

    tabs = [ProblemCoefficients(a=1.0, a1=spec, b=spec).sample(grid16, tree6.times)
            for spec in (const, callable_form)]
    assert np.array_equal(tabs[0].a1, tabs[1].a1)
    assert np.array_equal(tabs[0].b, tabs[1].b)


@pytest.mark.parametrize("text", ["1 + 0.5*x", "0.5 * sin(pi * x)", "exp(-x) * x ** 2 - 0.0"])
def test_x_only_expression_is_sampled_once_like_every_time(grid16, tree6, text):
    fn = compile_expression(text, "[problem] b1")
    assert fn.time_independent is True
    calls = []

    def counted(t, x):
        calls.append(t)
        return fn(t, x)

    counted.time_independent = True
    table = _sample(counted, tree6.times, grid16.x)
    assert calls == [tree6.times[0]]
    per_time = np.stack([np.asarray(fn(t, grid16.x), dtype=float) for t in tree6.times])
    assert table.tobytes() == per_time.tobytes()
    tabs = [ProblemCoefficients(a=1.0, b1=spec, b=spec).sample(grid16, tree6.times)
            for spec in (fn, lambda t, x: fn(t, x))]
    assert tabs[0].b1.tobytes() == tabs[1].b1.tobytes()
    assert tabs[0].b.tobytes() == tabs[1].b.tobytes()


@pytest.mark.parametrize("spec", [compile_expression("x + t", "[problem] a1"),
                                  compile_expression("1 + 0 * t", "[problem] a1"),
                                  lambda t, x: 1.0 + x])
def test_time_dependent_expressions_and_callables_are_sampled_every_time(grid16, tree6, spec):
    assert not getattr(spec, "time_independent", False)
    calls = []
    table = _sample(lambda t, x: calls.append(t) or spec(t, x), tree6.times, grid16.x)
    assert calls == list(tree6.times)
    assert table.tobytes() == np.stack([np.broadcast_to(np.asarray(spec(t, grid16.x), dtype=float),
                                                        grid16.x.shape) for t in tree6.times]).tobytes()


@pytest.mark.parametrize("specs,message", [
    ({"a1": "log(x - 0.5)"}, "coefficient a1 is not finite at t = 0"),
    ({"a": "0.1 + 0 * x", "b2": "0.45 + 0 * x"},
     "coefficients a and b2 violate stochastic parabolicity: min(2a - b2^2) = -0.0025 <= 0 at t = 0"),
])
def test_x_only_expression_errors_keep_their_messages(grid16, tree6, specs, message):
    compiled = {k: compile_expression(v, f"[problem] {k}") for k, v in specs.items()}
    per_time = {k: (lambda fn: lambda t, x: fn(t, x))(fn) for k, fn in compiled.items()}
    for coeffs in (compiled, per_time):
        with pytest.raises(ValueError) as err:
            ProblemCoefficients(**coeffs).sample(grid16, tree6.times)
        assert str(err.value) == message


def test_constant_expression_errors_keep_their_messages(tmp_path, capsys):
    with pytest.raises(ConfigError, match="fails to evaluate"):
        compile_expression("1 / 0", "[problem] a1")
    with pytest.raises(ConfigError, match="cannot parse"):
        compile_expression("(2", "[problem] a1")
    cfg_path = write(tmp_path, MINIMAL + f"a1 = log(0)\n\n[experiment]\n"
                                         f"output_dir = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: coefficient a1 is not finite at t = 0\n"


def test_problem_is_built_once_per_run(tmp_path, monkeypatch):
    compiled = []
    original = cli.compile_expression
    monkeypatch.setattr(cli, "compile_expression",
                        lambda text, where: compiled.append(where) or original(text, where))
    cfg_path = write(tmp_path, DESK + f"output_dir = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert len(compiled) == 6  # parse_config's validation build is the one the command uses
    cfg = parse_config(cfg_path)
    assert cfg.build_problem() is cfg.build_problem()
    cfg.problem.N = 8  # an edited [problem] is built again
    assert cfg.build_problem()[0].N == 8


def test_invalid_region_names_both_intervals(tmp_path):
    path = write(tmp_path, "[problem]\ng0 = 0.3, 0.8\ng1 = 0.1, 0.6\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert "0.1" in msg and "0.3" in msg  # both intervals named


@pytest.mark.parametrize("text,message", [
    ("[problem]\nN = 2\n", ": [problem] N must be >= 4, got 2"),
    ("[problem]\ng0 = 0.3, 0.8\ng1 = 0.1, 0.6\n",
     ": [problem] g1 = (0.1, 0.6) is not strictly contained in g0 = (0.3, 0.8)"),
    (MINIMAL + "a = 1 +\n", ": [problem] a: cannot parse expression '1 +': invalid syntax"),
    (MINIMAL + "\n[hum]\nepsilon = x\n", ": [hum] epsilon must be 'auto' or a number"),
    (MINIMAL + "\n[hum]\ncg_max_iter = 1.5\n", ":9: [hum] cg_max_iter: expected int, got '1.5'"),
    (MINIMAL + "\n[experiment]\ndirection = up\n",
     ": [experiment] direction must be forward_1_5 or backward_1_3"),
    # NaN fails every comparison, so a check written as `x <= 0` lets it through
    (MINIMAL + "\n[hum]\nepsilon = nan\n", ": [hum] epsilon must be positive and finite, got nan"),
    (MINIMAL + "T = nan\n", ": [problem] T must be positive and finite, got nan"),
    (MINIMAL + "L = inf\n", ": [problem] L must be positive and finite, got inf"),
    (MINIMAL + "\n[hum]\nbound_c = nan\n", ": [hum] bound_c must be finite, got nan"),
    (MINIMAL + "\n[carleman]\nmu = nan\n", ": [carleman] mu must be finite and >= 1"),
    (MINIMAL + "\n[carleman]\nc0 = nan\n", ": [carleman] c0 must be positive and finite"),
    (MINIMAL + "\n[carleman]\nexclude = -1\n", ": [carleman] exclude must be >= 0"),
    (MINIMAL + "\n[experiment]\npower_iters = 3\n", ": [experiment] power_iters must be >= 5"),
    (MINIMAL + "\n[experiment]\nt_values = -1, 0.5, 1, 2\n",
     ": [experiment] t_values must be positive and finite"),
    (MINIMAL + "\n[experiment]\nm_per_time = nan\n",
     ": [experiment] m_per_time must be positive and finite"),
    (MINIMAL + "\n[experiment]\nseed = -1\n", ": [experiment] seed must be >= 0"),
], ids=["N", "g1", "a", "epsilon", "int", "direction", "epsilon-nan", "T-nan", "L-inf", "bound_c-nan",
        "mu-nan", "c0-nan", "exclude", "power_iters", "t_values", "m_per_time-nan", "seed"])
def test_validation_messages(tmp_path, text, message):
    # the exact text after the config path
    path = write(tmp_path, text)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}{message}"


@pytest.mark.parametrize("line,key", [("power_iters = 3", "power_iters"),
                                      ("t_values = -1, 0.5, 1, 2", "t_values"),
                                      ("m_per_time = -3", "m_per_time"),
                                      ("m_per_time = nan", "m_per_time")])
def test_experiment_values_fail_at_parse_time(tmp_path, capsys, line, key):
    # checked before any sweep row runs: exit 1 naming the key, no output directory;
    # DESK sets power_iters, so the line replaces it rather than repeating the key
    desk = DESK.replace("power_iters = 10\n", "")
    cfg_path = write(tmp_path, desk + f"{line}\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["sweep-T", "--config", str(cfg_path)]) == 1
    assert f"[experiment] {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_key_and_section_with_location(tmp_path):
    path = write(tmp_path, "[problem]\nwibble = 3\n")
    with pytest.raises(ConfigError, match=r":2:.*wibble"):
        parse_config(path)
    path = write(tmp_path, "[wrong]\nx = 1\n")
    with pytest.raises(ConfigError, match=r":1:.*wrong"):
        parse_config(path)
    path = write(tmp_path, "x = 1\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config(path)


@pytest.mark.parametrize("text,message", [
    (MINIMAL + "N = 24\n", ":7: [problem] N repeated (first at line 3)"),
    (MINIMAL + "\n[hum]\nepsilon = 1e-2\n[problem]\nM = 6\n", ":10: [problem] repeated (first at line 2)"),
], ids=["key", "section"])
def test_repeated_key_or_section_exits_1_naming_both_lines(tmp_path, capsys, text, message):
    # the last value used to win silently (N = 24 ran), and a second header merged into the first
    path = write(tmp_path, text + f"\n[experiment]\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}{message}\n"
    assert not (tmp_path / "out").exists()


def test_missing_problem_section(tmp_path):
    path = write(tmp_path, "[hum]\nepsilon = 1e-2\n")
    with pytest.raises(ConfigError, match="problem"):
        parse_config(path)


def test_simulate_outputs_and_determinism(tmp_path):
    cfg_path = write(tmp_path, DESK + f"output_dir = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    csv = (tmp_path / "out" / "simulate.csv").read_bytes()
    assert csv.startswith(b"# command = simulate\n# seed = 3\n")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "simulate.csv").read_bytes() == csv


def test_control_forward_report_contents(tmp_path):
    cfg_path = write(tmp_path, DESK + f"output_dir = {tmp_path / 'out'}\n")
    assert main(["control-forward", "--config", str(cfg_path)]) == 0
    report = (tmp_path / "out" / "control-forward_report.txt").read_text()
    for key in ("terminal_norm", "control_cost", "K =", "bound_ratio"):
        assert key in report


@pytest.mark.parametrize("command", ["control-forward", "control-backward"])
def test_bound_ratio_at_a_short_horizon(tmp_path, command):
    """At T = 1e-3 the cost exponent passes 1000, so e^{bound_c K} overflows from bound_c
    ~ 0.708 on: the ratio then comes from logs, with no RuntimeWarning (an error in this
    suite), and continues the direct quotient's values across the overflow."""
    ratios = {}
    for bound_c in (0.7, 0.71, 1.0):
        out = tmp_path / str(bound_c)
        text = DESK.replace("M = 4\n", "M = 4\nT = 0.001\n").replace(
            "cg_max_iter = 500\n", f"cg_max_iter = 500\nbound_c = {bound_c}\n")
        assert main([command, "--config", str(write(tmp_path, text + f"output_dir = {out}\n"))]) == 0
        exponent, ratios[bound_c] = _report(out / f"{command}_report.txt",
                                            "K" if command == "control-forward" else "M", "bound_ratio")
    assert 0.7 * exponent < 709.0 < 0.71 * exponent
    assert ratios[0.71] > 0.0
    assert ratios[0.7] / ratios[0.71] == pytest.approx(np.exp(0.01 * exponent), rel=1e-9)
    assert ratios[1.0] == 0.0  # about 1e-434: below the least subnormal


@pytest.mark.parametrize("command", ["control-forward", "control-backward"])
def test_log10_bound_ratio_reads_at_every_horizon(tmp_path, command):
    """At T = 1e-3 the ratio (about 1e-434) prints 0, and its log10 still reads, from logs:
    log10(cost) - bound_c K log10(e) - log10(|y0|^2).  At the config's T = 1 it is
    log10(bound_ratio).  The line follows bound_ratio."""
    name = "K" if command == "control-forward" else "M"
    for horizon in ("T = 0.001\n", ""):
        out = tmp_path / (horizon.strip() or "T = 1")
        cfg_path = write(tmp_path, DESK.replace("M = 4\n", "M = 4\n" + horizon) + f"output_dir = {out}\n")
        assert main([command, "--config", str(cfg_path)]) == 0
        lines = (out / f"{command}_report.txt").read_text().splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert keys.index("log10_bound_ratio") == keys.index("bound_ratio") + 1
        cost, exponent, ratio, log10_ratio = _report(out / f"{command}_report.txt", "control_cost", name,
                                                     "bound_ratio", "log10_bound_ratio")
        if horizon:
            grid = parse_config(cfg_path).build_problem()[0]
            y0 = np.sin(np.pi * grid.x / grid.L)
            assert ratio == 0.0 and np.isfinite(log10_ratio)
            assert log10_ratio == pytest.approx(
                np.log10(cost) - exponent * np.log10(np.e) - np.log10(grid.inner(y0, y0)), rel=1e-12)
        else:
            assert ratio > 0.0 and log10_ratio == pytest.approx(np.log10(ratio), rel=1e-12)


def test_carleman_check_csv_columns(tmp_path):
    cfg = DESK + f"output_dir = {tmp_path / 'out'}\n\n[carleman]\nsamples = 3\n"
    cfg_path = write(tmp_path, cfg)
    assert main(["carleman-check", "--config", str(cfg_path)]) == 0
    lines = (tmp_path / "out" / "carleman-check.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "sample,lambda_multiple,lhs,rhs,ratio"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 3 * 3  # samples x lambda multiples


def test_carleman_check_solves_each_instance_once(tmp_path, monkeypatch):
    # the backward solution does not depend on lambda: one fold per sample,
    # shared by every lambda multiple
    calls = []
    sweep = TreeStepper.fold
    monkeypatch.setattr(TreeStepper, "fold",
                        lambda self, *a, **k: calls.append(1) or sweep(self, *a, **k))
    cfg = DESK + f"output_dir = {tmp_path / 'out'}\n\n[carleman]\nsamples = 3\n"
    assert main(["carleman-check", "--config", str(write(tmp_path, cfg))]) == 0
    assert len(calls) == 3


def test_carleman_check_names_a_lambda_below_1_before_any_solve(tmp_path, capsys, monkeypatch):
    # demos/desk.ini at T = 0.1 has lambda_threshold 0.748906: the multiple 1 gives lambda < 1
    def no_fold(*args, **kwargs):
        raise AssertionError("a backward fold ran")

    monkeypatch.setattr(TreeStepper, "fold", no_fold)
    desk = Path(__file__).resolve().parents[1] / "demos" / "desk.ini"
    cfg_path = write(tmp_path, desk.read_text().replace("T = 1.0", "T = 0.1"))
    assert main(["carleman-check", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: [carleman] lambda_multiples: 1 x lambda_threshold 0.748906 "
                                       "is below 1; raise the multiple or [carleman] c0\n")
    assert not (tmp_path / "out").exists()


def test_carleman_check_names_an_exclude_that_leaves_no_quadrature_level(tmp_path, capsys, monkeypatch):
    # demos/desk.ini has M = 8: exclude 3 keeps level 4 alone, exclude 4 keeps none
    desk = (Path(__file__).resolve().parents[1] / "demos" / "desk.ini").read_text()
    for exclude, code in ((3, 0), (4, 1)):
        cfg_path = write(tmp_path, desk + f"\n[carleman]\nexclude = {exclude}\nsamples = 1\n")
        out = tmp_path / f"out{exclude}"
        assert main(["carleman-check", "--config", str(cfg_path), "--output-dir", str(out)]) == code
    assert capsys.readouterr().err == ("error: [carleman] exclude = 4 leaves no quadrature level: "
                                       "[problem] M = 8 must be >= 2 + 2 x exclude = 10\n")
    assert not out.exists()
    monkeypatch.setattr(cli, "TreeStepper", lambda *args: pytest.fail("a stepper was built"))
    assert main(["carleman-check", "--config", str(cfg_path), "--output-dir", str(out)]) == 1


def _table(path, *columns):
    """The named CSV columns as floats, one row per data line."""
    lines = [l.split(",") for l in path.read_text().splitlines() if not l.startswith("#")]
    index = [lines[0].index(c) for c in columns]
    return np.array([[float(l[i]) for i in index] for l in lines[1:]])


def _report(path, *keys):
    """The numbers on the report lines `key = value[, max_ratio = value]`, in key order."""
    body = path.read_text().split("\n\n", 1)[1].replace(", max_ratio = ", " = ")
    fields = dict(l.split(" = ", 1) for l in body.splitlines() if " = " in l)
    return [float(v) for k in keys for v in fields[k].split(" = ")]


def test_desk_outputs_match_recorded_values(tmp_path):
    # drift guard on every subcommand: physical values recorded on this config;
    # CG residuals, traces and iteration counts are not compared
    cfg_path = write(tmp_path, DESK + f"output_dir = {tmp_path / 'out'}\n")
    commands = ("simulate", "control-forward", "control-backward", "observability",
                "carleman-check", "appendix-check", "sweep-T", "sweep-eps")
    for command in commands:
        assert main([command, "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{c}{suffix}" for c in commands for suffix in (".csv", "_report.txt")]
        + ["sweep-T.dat", "sweep-eps.dat"])
    close = dict(rtol=1e-7, atol=0.0)
    np.testing.assert_allclose(_table(out / "simulate.csv", "mean_square_norm")[:, 0],
                               [0.5, 0.29435389891089253, 0.1684065236431602,
                                0.09490258238127704, 0.05307691439982745], **close)
    np.testing.assert_allclose(
        _report(out / "control-backward_report.txt", "terminal_norm", "uncontrolled_norm",
                "control_cost", "M", "bound_ratio"),
        [0.00016872668805660812, 0.0067859723808719758, 0.039619959616861614,
         3.4899605249474366, 0.002416982056015953], **close)
    np.testing.assert_allclose(_report(out / "observability_report.txt", "c_obs"),
                               [0.91110046933825117], **close)
    np.testing.assert_allclose(
        _report(out / "carleman-check_report.txt", "lambda_threshold",
                *(f"lambda x{m}: median_ratio" for m in (1, 2, 4))),
        [8.3890560989306504, 1.0213234275207861, 1.0409087913260986, 1.0050052456409122,
         1.0097024663606635, 1.0010833828877628, 1.0021865363051785], **close)
    rows = _table(out / "carleman-check.csv", "lambda_multiple", "lhs", "rhs")
    np.testing.assert_allclose(
        [rows[rows[:, 0] == m][:, 1:].sum(axis=0) for m in (1, 2, 4)],
        [[3716579.1650392856, 3627861.4498910005], [28873477.224703327, 28708857.126860857],
         [229841205.80117607, 229555989.82262403]], **close)
    np.testing.assert_allclose(
        _report(out / "control-forward_report.txt", "terminal_norm", "uncontrolled_norm",
                "control_cost", "K", "bound_ratio"),
        [0.00038374810018379469, 0.053076914399827646, 0.24840885274359753,
         3.7881009996031532, 0.011247233299205829], **close)
    np.testing.assert_allclose(
        _table(out / "sweep-eps.csv", "epsilon", "terminal_norm", "control_cost"),
        [[1e-1, 0.0063250789707594074, 0.11524526630902204],
         [1e-2, 0.00038374810018379469, 0.24840885274359753],
         [1e-3, 7.5628817307479143e-05, 0.33162419536298482],
         [1e-4, 8.4122281103578581e-06, 0.53194457411739604]], **close)
    np.testing.assert_allclose(
        _report(out / "sweep-eps_report.txt", "control_cost variation (max/min)",
                "uncontrolled_norm"),
        [4.6157607262672657, 0.053076914399827646], **close)
    np.testing.assert_allclose(
        _table(out / "sweep-T.csv", "T", "M", "value", "exponent"),
        [[0.25, 8, 22.304681324899711, 5.9799605249474359],
         [0.5, 16, 1.5777126380491853, 4.1499605249474367],
         [1.0, 32, 0.1038318898113126, 3.4899605249474366],
         [2.0, 64, 0.00070305664743919088, 3.6699605249474367]], **close)
    np.testing.assert_allclose(
        _report(out / "sweep-T_report.txt", "slope", "intercept", "r2",
                "r2 against 1/T^4 (reported only)"),
        [2.5904903807638298, -6.3482400988452863, 0.82037776131149065, 0.5251313453375841],
        **close)
    # dev_A at mu = 64 (4.8e-16) sits at rounding level, so its pin holds for one
    # numpy/libm build; the slope leaves it out (dev_A <= 64 eps) and is fitted
    # through mu = 8, 16, 32 alone
    np.testing.assert_allclose(
        _table(out / "appendix-check.csv", "mu", "lambda", "dev_A", "dev_B", "min_B_ratio",
               "c11_margin"),
        [[8, 8886111.5205078721, 7.2702330236812434e-05, 4.1198872052996807,
          0.19531680287114203, 0.58595042143192722],
         [16, 78962960182681.688, 3.1143428896835688e-07, 0.67319658524562498,
          0.59765840357198685, 1.7929752107159638],
         [32, 6.2351490808116167e+27, 2.2860272398196709e-11, 0.25183205341546855,
          0.79882920178599359, 2.3964876053579816],
         [64, 3.8877084059945954e+55, 4.8390168646169765e-16, 0.11183429644919682,
          0.89941460089299663, 2.6982438026789901]], **close)
    np.testing.assert_allclose(_report(out / "appendix-check_report.txt", "dev_A log-log slope"),
                               [-10.800363790301741], **close)
    assert "left out of the slope fit, dev_A <= 64 eps: mu = 64\n" in (
        out / "appendix-check_report.txt").read_text()


def test_fresh_interpreter_writes_the_in_process_bytes(tmp_path):
    """`python -m spcontrol.cli` (LAPACK loaded as a cold process does) matches main() to the byte."""
    root = Path(__file__).resolve().parents[1]
    desk = str(root / "demos" / "desk.ini")
    src = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    for command, n_files in (("control-forward", 2), ("control-backward", 2), ("sweep-eps", 3)):
        fresh, here = tmp_path / "fresh" / command, tmp_path / "here" / command
        done = subprocess.run([sys.executable, "-m", "spcontrol.cli", command, "--config", desk,
                               "--output-dir", str(fresh)],
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert main([command, "--config", desk, "--output-dir", str(here)]) == 0
        names = sorted(p.name for p in here.iterdir())
        assert names == sorted(p.name for p in fresh.iterdir()) and len(names) == n_files
        for name in names:  # the echoed output_dir line is the one place the runs differ
            echoed = (fresh / name).read_bytes().replace(os.fsencode(fresh), os.fsencode(here))
            assert echoed == (here / name).read_bytes()


def test_sweep_t_requires_four_values(tmp_path):
    cfg = DESK + f"t_values = 0.5, 1.0, 2.0\noutput_dir = {tmp_path / 'out'}\n"
    cfg_path = write(tmp_path, cfg)
    assert main(["sweep-T", "--config", str(cfg_path)]) == 1


def test_sweep_t_requires_four_distinct_values(tmp_path, capsys):
    cfg = DESK + f"t_values = 1, 1, 1, 1\noutput_dir = {tmp_path / 'out'}\n"
    cfg_path = write(tmp_path, cfg)
    assert main(["sweep-T", "--config", str(cfg_path)]) == 1
    assert "4 distinct T values in [experiment] t_values" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["observability", "sweep-T"])
def test_backward_reports_print_their_epsilon(tmp_path, command):
    for direction in ("forward_1_5", "backward_1_3"):
        out = tmp_path / direction
        cfg_path = write(tmp_path, DESK + f"m_per_time = 4\ndirection = {direction}\n"
                                          f"output_dir = {out}\n")
        assert main([command, "--config", str(cfg_path)]) == 0
        report = (out / f"{command}_report.txt").read_text()
        h = parse_config(cfg_path).build_problem()[0].h
        if direction == "backward_1_3":
            assert f"\nepsilon = {cli._fmt(h * h)}\n" in report
        else:
            assert "\nepsilon = " not in report


def test_sweep_eps_outputs(tmp_path):
    cfg = DESK + f"eps_values = 1e-1, 1e-2, 1e-3\noutput_dir = {tmp_path / 'out'}\n"
    cfg_path = write(tmp_path, cfg)
    assert main(["sweep-eps", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "sweep-eps.dat").exists()
    report = (tmp_path / "out" / "sweep-eps_report.txt").read_text()
    assert "strictly decreasing = True" in report


@pytest.mark.parametrize("eps_values,variation", [("1e300, 1e299, 1e298", "nan"),
                                                   ("1e300, 1e299, 1e-2", "inf")])
def test_sweep_eps_reports_a_zero_control_cost(tmp_path, eps_values, variation):
    # every cost underflows to 0 at eps = 1e298..1e300; max/min used to raise ZeroDivisionError
    cfg_path = write(tmp_path, DESK + f"eps_values = {eps_values}\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["sweep-eps", "--config", str(cfg_path)]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "sweep-eps.csv", "sweep-eps.dat", "sweep-eps_report.txt"]
    costs = _table(tmp_path / "out" / "sweep-eps.csv", "control_cost")[:, 0]
    assert costs[0] == costs[1] == 0.0
    assert costs[2] == 0.0 if variation == "nan" else costs[2] > 0.0
    report = (tmp_path / "out" / "sweep-eps_report.txt").read_text()
    assert f"\ncontrol_cost variation (max/min) = {variation}\n" in report


@pytest.mark.parametrize("eps_values", ["1e-1, 1e-2", "1e-1, 1e-2, 1e-2", "1e-3, 1e-2, 1e-1"])
def test_sweep_eps_values_must_decrease_strictly(tmp_path, capsys, eps_values):
    cfg_path = write(tmp_path, DESK + f"eps_values = {eps_values}\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["sweep-eps", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == ("error: sweep-eps needs at least 3 strictly decreasing values "
                                       "in [experiment] eps_values\n")
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exit_code_with_partial_output(tmp_path):
    # diffusion goes nonpositive beyond t = 1.5: the T = 2 sweep row fails
    cfg = MINIMAL + f"""
a = 1.0 - 0.6*t

[experiment]
t_values = 0.25, 0.5, 1.0, 2.0
output_dir = {tmp_path / 'out'}
"""
    cfg_path = write(tmp_path, cfg)
    assert main(["sweep-T", "--config", str(cfg_path)]) == 2
    lines = (tmp_path / "out" / "sweep-T.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 3  # partial rows preserved
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["sweep-T.csv"]


def test_failed_sweep_eps_row_leaves_the_csv_of_its_completed_rows(tmp_path, capsys, monkeypatch):
    calls, solve = [], experiments.hum_forward

    def failing_second_row(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NumericsError("injected failure")
        return solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "hum_forward", failing_second_row)
    cfg_path = write(tmp_path, DESK + f"eps_values = 1e-1, 1e-2, 1e-3\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["sweep-eps", "--config", str(cfg_path)]) == 2
    assert "numerical failure: sweep row eps = 0.01 failed: injected failure" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["sweep-eps.csv"]
    assert _table(tmp_path / "out" / "sweep-eps.csv", "epsilon")[:, 0].tolist() == [0.1]


@pytest.mark.parametrize("command,outputs", [
    ("control-forward", ("control-forward.csv", "control-forward_report.txt")),
    ("control-backward", ("control-backward.csv", "control-backward_report.txt")),
    ("sweep-eps", ("sweep-eps.csv", "sweep-eps.dat", "sweep-eps_report.txt")),
])
def test_cg_nonconvergence_exit_code_with_outputs(tmp_path, capsys, command, outputs):
    cfg = DESK.replace("cg_max_iter = 500", "cg_max_iter = 5\ncg_tol = 1e-300")
    cfg_path = write(tmp_path, cfg + f"output_dir = {tmp_path / 'out'}\n")
    assert main([command, "--config", str(cfg_path)]) == 2
    assert "numerical failure: CG did not converge" in capsys.readouterr().err
    for name in outputs:
        assert (tmp_path / "out" / name).exists()
    if command != "sweep-eps":
        assert "cg_converged = False" in (tmp_path / "out" / outputs[1]).read_text()


@pytest.mark.parametrize("budget", [0, -3])
def test_cg_max_iter_must_be_positive(tmp_path, capsys, budget):
    cfg = DESK.replace("cg_max_iter = 500", f"cg_max_iter = {budget}")
    cfg_path = write(tmp_path, cfg + f"output_dir = {tmp_path / 'out'}\n")
    with pytest.raises(ConfigError, match=r"\[hum\] cg_max_iter"):
        parse_config(cfg_path)
    assert main(["control-forward", "--config", str(cfg_path)]) == 1
    assert "[hum] cg_max_iter must be >= 1" in capsys.readouterr().err


def test_nonfinite_coefficient_exit_code(tmp_path, capsys):
    cfg_path = write(tmp_path, MINIMAL + f"a = sqrt(x - 0.5)\n\n[experiment]\n"
                                         f"output_dir = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    assert "coefficient a is not finite" in capsys.readouterr().err



def test_stochastic_parabolicity_exit_code(tmp_path, capsys):
    cfg_path = write(tmp_path, MINIMAL + f"a = 0.1\nb2 = 0.45\n\n[experiment]\n"
                                         f"output_dir = {tmp_path / 'out'}\n")
    assert main(["control-forward", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "coefficients a and b2 violate stochastic parabolicity" in err and "at t = 0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,rows,key", [
    ("appendix-check", 4, "dev_A log-log slope = "),
    ("observability", 10, "c_obs = "),
    ("sweep-T", 4, "slope = "),
])
def test_subcommand_smoke(tmp_path, command, rows, key):
    cfg_path = write(tmp_path, DESK + f"m_per_time = 4\noutput_dir = {tmp_path / 'out'}\n")
    assert main([command, "--config", str(cfg_path)]) == 0
    lines = (tmp_path / "out" / f"{command}.csv").read_text().splitlines()
    assert len([l for l in lines if not l.startswith("#")]) == 1 + rows
    assert key in (tmp_path / "out" / f"{command}_report.txt").read_text()
    if command == "sweep-T":
        assert len((tmp_path / "out" / "sweep-T.dat").read_text().splitlines()) == rows


def test_appendix_slope_needs_two_rows_above_rounding_level(tmp_path):
    # dev_A at mu = 64 is rounding noise on this config, so mu = 32 alone is left to fit
    cfg_path = write(tmp_path, DESK + f"output_dir = {tmp_path / 'out'}\n\n"
                                      "[carleman]\nmu_values = 32, 64\n")
    assert main(["appendix-check", "--config", str(cfg_path)]) == 0
    report = (tmp_path / "out" / "appendix-check_report.txt").read_text()
    assert "left out of the slope fit, dev_A <= 64 eps: mu = 64\n" in report
    assert "dev_A log-log slope" not in report
    assert len(_table(tmp_path / "out" / "appendix-check.csv", "mu")) == 2


def test_appendix_check_rejects_variable_diffusion(tmp_path, capsys):
    cfg_path = write(tmp_path, DESK.replace("a = 0.2", "a = 0.2 + 0.1*x")
                     + f"output_dir = {tmp_path / 'out'}\n")
    assert main(["appendix-check", "--config", str(cfg_path)]) == 1
    assert "constant diffusion coefficient" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

def test_appendix_check_rejects_time_dependent_diffusion(tmp_path, capsys):
    # at the default T = 1 this a takes one value at t = 0, T/2 and T, to rounding
    cfg_path = write(tmp_path, DESK.replace("a = 0.2", "a = 0.2 + 0.1 * sin(2 * pi * t)")
                     + f"output_dir = {tmp_path / 'out'}\n")
    assert main(["appendix-check", "--config", str(cfg_path)]) == 1
    assert "constant diffusion coefficient" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_appendix_slope_needs_two_distinct_mu(tmp_path):
    cfg_path = write(tmp_path, DESK + f"output_dir = {tmp_path / 'out'}\n\n"
                                      "[carleman]\nmu_values = 8, 8\n")
    assert main(["appendix-check", "--config", str(cfg_path)]) == 0
    assert "dev_A log-log slope" not in (tmp_path / "out" / "appendix-check_report.txt").read_text()
    assert len(_table(tmp_path / "out" / "appendix-check.csv", "mu")) == 2


def test_depth_cap_applies_where_nodes_are_counted(tmp_path, capsys):
    # M = 20 parses; commands that size per-node arrays exit 1 naming M and the
    # cap and leave no output directory, while the observability pencils of both
    # directions (N x N recursions over the levels) run at that depth
    cfg = DESK.replace("M = 4", "M = 20") + f"output_dir = {tmp_path / 'out'}\n"
    for command, direction, code in (
            ("simulate", "forward_1_5", 1), ("control-forward", "forward_1_5", 1),
            ("control-backward", "forward_1_5", 1), ("carleman-check", "forward_1_5", 1),
            ("sweep-eps", "forward_1_5", 1), ("observability", "backward_1_3", 0),
            ("observability", "forward_1_5", 0)):
        cfg_path = write(tmp_path, cfg + f"direction = {direction}\n")
        assert main([command, "--config", str(cfg_path)]) == code
        if code:
            assert "M = 20 exceeds the depth cap 16" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
    assert (tmp_path / "out" / "observability_report.txt").exists()


def test_bad_config_exit_code(tmp_path):
    path = write(tmp_path, "[problem]\nN = 2\n")
    assert main(["simulate", "--config", str(path)]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.ini")]) == 1


def test_run_rejects_unknown_subcommand(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    with pytest.raises(ConfigError):
        run("frobnicate", cfg)


def test_epsilon_auto_rule(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    grid, _, _ = cfg.build_problem()
    assert cfg.epsilon(grid) == pytest.approx(grid.h ** 2)
