import numpy as np
import pytest

from spcontrol.cli import ConfigError, compile_expression, main, parse_config, run


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


def test_invalid_region_names_both_intervals(tmp_path):
    path = write(tmp_path, "[problem]\ng0 = 0.3, 0.8\ng1 = 0.1, 0.6\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert "0.1" in msg and "0.3" in msg  # both intervals named


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


def test_carleman_check_csv_columns(tmp_path):
    cfg = DESK + f"output_dir = {tmp_path / 'out'}\n\n[carleman]\nsamples = 3\n"
    cfg_path = write(tmp_path, cfg)
    assert main(["carleman-check", "--config", str(cfg_path)]) == 0
    lines = (tmp_path / "out" / "carleman-check.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "sample,lambda_multiple,lhs,rhs,ratio"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 3 * 3  # samples x lambda multiples


def test_sweep_t_requires_four_values(tmp_path):
    cfg = DESK + f"t_values = 0.5, 1.0, 2.0\noutput_dir = {tmp_path / 'out'}\n"
    cfg_path = write(tmp_path, cfg)
    assert main(["sweep-T", "--config", str(cfg_path)]) == 1


def test_sweep_eps_outputs(tmp_path):
    cfg = DESK + f"eps_values = 1e-1, 1e-2, 1e-3\noutput_dir = {tmp_path / 'out'}\n"
    cfg_path = write(tmp_path, cfg)
    assert main(["sweep-eps", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "sweep-eps.dat").exists()
    report = (tmp_path / "out" / "sweep-eps_report.txt").read_text()
    assert "strictly decreasing = True" in report


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


@pytest.mark.parametrize("command,outputs", [
    ("control-forward", ("control-forward.csv", "control-forward_report.txt")),
    ("control-backward", ("control-backward.csv", "control-backward_report.txt")),
    ("sweep-eps", ("sweep-eps.csv", "sweep-eps.dat", "sweep-eps_report.txt")),
])
def test_cg_nonconvergence_exit_code_with_outputs(tmp_path, capsys, command, outputs):
    cfg = DESK.replace("cg_max_iter = 500", "cg_max_iter = 5")
    cfg_path = write(tmp_path, cfg + f"output_dir = {tmp_path / 'out'}\n")
    assert main([command, "--config", str(cfg_path)]) == 2
    assert "numerical failure: CG did not converge" in capsys.readouterr().err
    for name in outputs:
        assert (tmp_path / "out" / name).exists()
    if command != "sweep-eps":
        assert "cg_converged = False" in (tmp_path / "out" / outputs[1]).read_text()


def test_nonfinite_coefficient_exit_code(tmp_path, capsys):
    cfg_path = write(tmp_path, MINIMAL + f"a = sqrt(x - 0.5)\n\n[experiment]\n"
                                         f"output_dir = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    assert "coefficient a is not finite" in capsys.readouterr().err



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


def test_appendix_check_rejects_variable_diffusion(tmp_path, capsys):
    cfg_path = write(tmp_path, DESK.replace("a = 0.2", "a = 0.2 + 0.1*x")
                     + f"output_dir = {tmp_path / 'out'}\n")
    assert main(["appendix-check", "--config", str(cfg_path)]) == 1
    assert "constant diffusion coefficient" in capsys.readouterr().err

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
