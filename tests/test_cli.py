import csv
import os
import re
from pathlib import Path

import numpy as np
import pytest

from linking_saddle import (
    ConfigError,
    RunConfig,
    brouwer_degree_small,
    cli,
    discretize,
    homotopy_chart_map,
    linking,
    load_config,
    parse_config,
    shipped_deformations,
)
from linking_saddle.cli import main
from linking_saddle.config import PRESETS, format_config, to_problem_spec
from linking_saddle.reporting import write_csv, write_manifest, write_pgm, write_svg_trace
from linking_saddle.solver import INITS, METHODS

TOY = """
domain.dimension = 1
domain.nx = 1
problem.preset = power
"""

ZERO = """
domain.dimension = 1
domain.nx = 7
problem.preset = zero
"""

LINE_D2 = """
domain.dimension = 1
domain.nx = 15
problem.preset = power
frame.d_y = 2
"""

SQUARE = """
domain.dimension = 2
domain.nx = 8
domain.ny = 8
problem.preset = power
"""


def cfg_file(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def test_parse_round_trip_default():
    cfg = RunConfig()
    again = parse_config(format_config(cfg))
    assert format_config(again) == format_config(cfg)


def test_parse_round_trip_custom():
    text = TOY + "solver.grad_tol = 3.5e-9\nframe.r = 1.25\nframe.rho = 7.5\n"
    cfg = parse_config(text)
    assert cfg.solver.grad_tol == 3.5e-9
    assert cfg.frame.r == 1.25
    again = parse_config(format_config(cfg))
    assert format_config(again) == format_config(cfg)


def test_parse_accepts_lambda_alias():
    cfg = parse_config("problem.lambda = 0.25\n")
    assert cfg.problem.lam == 0.25
    assert "problem.lambda = 0.25" in format_config(cfg)


README = Path(__file__).resolve().parents[1] / "README.md"
# a comment that only names values: "1 or 2", "power | zero", "or eigen | zero"
VALUE_LIST = re.compile(r"^(?:or\s+)?[\w.-]+(?:\s*(?:\||\bor\b)\s*[\w.-]+)+$")


def test_readme_config_values_parse():
    text = README.read_text(encoding="utf-8")
    block = text.split("All keys with their defaults:", 1)[1].split("```", 2)[1]
    assert format_config(parse_config(block)) == format_config(RunConfig())
    named = {}
    for line in block.strip().splitlines():
        body, _, comment = line.partition("#")
        key, value = (part.strip() for part in body.split("=", 1))
        values = [value]
        comment = comment.strip()
        if VALUE_LIST.match(comment):
            values = re.split(r"\s*(?:\||\bor\b)\s*", comment.removeprefix("or ").strip())
            named[key] = set(values)
        for val in values:
            parse_config(f"{key} = {val}\n")
    assert named["problem.preset"] == set(PRESETS)
    assert named["solver.method"] == set(METHODS)
    assert named["solver.init"] == set(INITS)


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("# fine\nproblem.quux = 1\n")


def test_parse_rejects_bad_exponent():
    with pytest.raises(ConfigError, match="p > 2"):
        parse_config("problem.p = 2.0\n")


def test_parse_rejects_half_auto():
    with pytest.raises(ConfigError):
        parse_config("frame.r = 1.0\n")  # rho left on auto


def test_parse_rejects_bad_dimension():
    with pytest.raises(ConfigError):
        parse_config("domain.dimension = 3\n")


def test_parse_rejects_bad_method():
    with pytest.raises(ConfigError):
        parse_config("solver.method = annealing\n")


def test_to_problem_spec_matches_blocks():
    cfg = parse_config(SQUARE)
    spec = to_problem_spec(cfg)
    assert spec.domain.dimension == 2
    assert spec.domain.interior_counts == (8, 8)


def test_manifest_reparses(tmp_path):
    cfg = parse_config(TOY)
    path = tmp_path / "manifest.cfg"
    write_manifest(str(path), cfg, {"command": "test"}, [("stage", "ok")])
    text = path.read_text()
    assert text.startswith("# run manifest")
    assert format_config(load_config(str(path))) == format_config(cfg)


def test_cli_check(tmp_path, capsys):
    rc = main(["check", "--config", cfg_file(tmp_path, TOY), "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_csv(tmp_path / "out" / "check_report.csv")
    assert all(r["passed"] == "true" for r in rows if r["required"] == "true")
    assert capsys.readouterr().out.strip().endswith("required checks passed")


def test_cli_geometry_power_certifies(tmp_path):
    rc = main(["geometry", "--config", cfg_file(tmp_path, TOY), "--out", str(tmp_path / "g"), "--quiet"])
    assert rc == 0
    (row,) = read_csv(tmp_path / "g" / "geometry_report.csv")
    assert row["certified"] == "true"
    assert float(row["margin"]) > 0.0


def test_cli_geometry_zero_fails(tmp_path, capsys):
    rc = main(["geometry", "--config", cfg_file(tmp_path, ZERO), "--out", str(tmp_path / "g")])
    assert rc == 1
    assert "geometry" in capsys.readouterr().err
    (row,) = read_csv(tmp_path / "g" / "geometry_report.csv")
    assert row["certified"] == "false"


def test_cli_intersect(tmp_path):
    rc = main(["intersect", "--config", cfg_file(tmp_path, TOY), "--out", str(tmp_path / "i"), "--quiet"])
    assert rc == 0
    rows = read_csv(tmp_path / "i" / "intersection_report.csv")
    assert len(rows) == 3
    assert all(r["degree_end"] == "1" for r in rows)
    assert all(r["ok"] == "true" for r in rows)


def test_cli_intersect_sweeps_each_distinct_map_once(tmp_path, monkeypatch):
    sweeps = []
    sweep = linking._root_sweep

    def counting_sweep(*args, **kwargs):
        sweeps.append(args[0])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(linking, "_root_sweep", counting_sweep)
    rc = main(["intersect", "--config", cfg_file(tmp_path, TOY), "--out", str(tmp_path / "i"),
               "--quiet"])
    assert rc == 0
    # one t = 0 sweep for the frame, one t = 1 sweep per shipped deformation
    assert len(sweeps) == 1 + 3


def test_cli_intersect_degree_start_is_each_deformations_own(tmp_path):
    path = cfg_file(tmp_path, LINE_D2)
    rc = main(["intersect", "--config", path, "--out", str(tmp_path / "i"), "--quiet"])
    assert rc == 0
    rows = read_csv(tmp_path / "i" / "intersection_report.csv")
    cfg = load_config(path)
    frame, _, _ = cli._frame_and_samples(cfg, discretize(to_problem_spec(cfg)), "intersect",
                                         [], 16, 12)
    gammas = shipped_deformations(frame)
    assert [r["deformation"] for r in rows] == [g.name for g in gammas]
    for row, gamma in zip(rows, gammas):
        own = brouwer_degree_small(homotopy_chart_map(frame, gamma, 0.0), frame)
        assert int(row["degree_start"]) == own.degree


def test_cli_intersect_start_degree_failure_fails_every_row(tmp_path, monkeypatch, capsys):
    chart_map = cli.homotopy_chart_map

    def vanishing_start(frame, gamma, t):
        if t == 0.0:
            return lambda xi: np.zeros(frame.chart_dim)
        return chart_map(frame, gamma, t)

    monkeypatch.setattr(cli, "homotopy_chart_map", vanishing_start)
    rc = main(["intersect", "--config", cfg_file(tmp_path, TOY), "--out", str(tmp_path / "i"),
               "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    rows = read_csv(tmp_path / "i" / "intersection_report.csv")
    assert len(rows) == 3
    for row in rows:
        assert row["ok"] == "false"
        assert f"{row['deformation']} (map vanishes on the frame boundary" in err


def test_cli_solve_toy(tmp_path, capsys):
    out = tmp_path / "s"
    rc = main(["solve", "--config", cfg_file(tmp_path, TOY), "--out", str(out)])
    assert rc == 0
    assert "saddle certified" in capsys.readouterr().out
    (row,) = read_csv(out / "saddle_report.csv")
    assert float(row["critical_value"]) == pytest.approx(16.0, abs=1e-10)
    assert row["nontrivial"] == "true"
    assert row["minimax_ok"] == "true"
    # 1D run: no heatmaps
    assert not (out / "solution_u.pgm").exists()
    assert (out / "trace.csv").exists()
    assert (out / "solution.csv").exists()


def test_cli_solve_zero_names_stage(tmp_path, capsys):
    rc = main(["solve", "--config", cfg_file(tmp_path, ZERO), "--out", str(tmp_path / "z")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "hypotheses" in err


def test_cli_solve_square_writes_heatmaps(tmp_path):
    out = tmp_path / "sq"
    rc = main(["solve", "--config", cfg_file(tmp_path, SQUARE), "--out", str(out), "--quiet"])
    assert rc == 0
    header = (out / "solution_u.pgm").read_text().splitlines()
    assert header[0] == "P2"
    assert (out / "solution_v.pgm").exists()
    sol = read_csv(out / "solution.csv")
    assert len(sol) == 64
    assert set(sol[0]) == {"x", "y", "u", "v"}


def test_cli_solve_deterministic(tmp_path):
    cfg = cfg_file(tmp_path, SQUARE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(a), "--quiet"]) == 0
    assert main(["solve", "--config", cfg, "--out", str(b), "--quiet"]) == 0
    for name in ("saddle_report.csv", "trace.csv", "solution.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_refine(tmp_path):
    out = tmp_path / "r"
    rc = main(["refine", "--config", cfg_file(tmp_path, TOY), "--out", str(out),
               "--levels", "3", "--quiet"])
    assert rc == 0
    rows = read_csv(out / "refine_table.csv")
    assert [r["n"] for r in rows] == ["1", "3", "7"]
    assert all(r["converged"] == "true" for r in rows)
    assert float(rows[-1]["cauchy_ratio"]) > 1.0


def test_cli_refine_keeps_rectangle_aspect(tmp_path, monkeypatch):
    shapes = []
    solve_level = cli._refine_level

    def recording(cfg, shape):
        problem, report = solve_level(cfg, shape)
        shapes.append(problem.grid.shape)
        return problem, report

    monkeypatch.setattr(cli, "_refine_level", recording)
    text = "domain.dimension = 2\ndomain.nx = 12\ndomain.ny = 5\nproblem.preset = power\n"
    assert main(["refine", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "r"),
                 "--levels", "2", "--quiet"]) == 0
    assert sorted(shapes) == [(12, 5), (25, 11)]


def test_cli_config_error_exit_code(tmp_path, capsys):
    rc = main(["solve", "--config", cfg_file(tmp_path, "problem.p = 2.0\n")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_missing_config_exit_code(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2


def test_cli_refine_deterministic(tmp_path):
    cfg = cfg_file(tmp_path, TOY)
    for name in ("r1", "r2"):
        assert main(["refine", "--config", cfg, "--out", str(tmp_path / name),
                     "--levels", "3", "--quiet"]) == 0
    a = (tmp_path / "r1" / "refine_table.csv").read_bytes()
    b = (tmp_path / "r2" / "refine_table.csv").read_bytes()
    assert a == b


def test_cli_solve_rerun_rewrites_identical_files(tmp_path):
    cfg = cfg_file(tmp_path, SQUARE + "frame.seed = 41\noutput.svg = true\n")
    out = tmp_path / "same"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"manifest.cfg", "solution_u.pgm", "solution_v.pgm", "trace.svg",
            "saddle_report.csv", "trace.csv", "solution.csv"} <= set(first)
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert second == first


# configurations near the edge of what the pipeline accepts
RESONANT = "domain.dimension = 1\ndomain.nx = 31\nproblem.lambda = 9.8696\nproblem.delta = 9.8696\n"
NEAR_QUADRATIC = "domain.dimension = 1\ndomain.nx = 31\nproblem.p = 2.000001\nproblem.mu = 2.000001\n"
HUGE_EXTENT = "domain.dimension = 1\ndomain.nx = 31\ndomain.extent_x = 1e8\n"
ZERO_SQUARE = "domain.dimension = 2\ndomain.nx = 8\ndomain.ny = 8\nproblem.preset = zero\n"
SINGLE_SQUARE = "domain.dimension = 2\ndomain.nx = 1\ndomain.ny = 1\n"
WIDE_CHART = TOY + "frame.d_y = 5\n"
WIDE_CHART_31 = "domain.dimension = 1\ndomain.nx = 31\nframe.d_y = 5\n"
NO_NEWTON_BUDGET = TOY + "solver.max_iter = 0\n"


@pytest.mark.parametrize("command, text, expected", [
    ("solve", TOY, 0),
    ("solve", SINGLE_SQUARE, 0),
    ("solve", NEAR_QUADRATIC, 1),
    ("solve", ZERO_SQUARE, 1),
    ("solve", RESONANT, 1),
    ("solve", HUGE_EXTENT, 1),
    ("intersect", WIDE_CHART, 2),
    ("intersect", WIDE_CHART_31, 2),
    ("geometry", WIDE_CHART_31, 0),
    ("solve", WIDE_CHART_31, 0),
    ("solve", NO_NEWTON_BUDGET, 2),
    ("refine", NEAR_QUADRATIC, 1),
    ("refine", ZERO_SQUARE, 1),
    ("refine", RESONANT, 1),
    ("refine", HUGE_EXTENT, 1),
    ("geometry", TOY + "frame.modes = 32\n", 2),
], ids=["solve-1d-nx1", "solve-2d-1x1", "solve-p-near-2", "solve-zero-2d", "solve-resonant",
        "solve-huge-extent", "intersect-d_y5", "intersect-d_y5-nx31", "geometry-d_y5-nx31",
        "solve-d_y5-nx31", "solve-max_iter0", "refine-p-near-2", "refine-zero-2d",
        "refine-resonant", "refine-huge-extent", "geometry-frame-modes"])
def test_cli_adversarial_configs_exit_cleanly(tmp_path, capsys, command, text, expected):
    extra = ["--levels", "2"] if command == "refine" else []
    rc = main([command, "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "o"),
               "--quiet", *extra])
    assert rc == expected
    if rc:
        assert capsys.readouterr().err


def test_cli_intersect_rejects_wide_chart_before_any_work(tmp_path, capsys, monkeypatch):
    def unreachable(spec):
        raise AssertionError("intersect discretized a config it cannot certify")

    monkeypatch.setattr(cli, "discretize", unreachable)
    rc = main(["intersect", "--config", cfg_file(tmp_path, WIDE_CHART_31),
               "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2
    assert "d_y + 1 <= 4" in capsys.readouterr().err


def test_parse_rejects_d_y_above_node_count():
    with pytest.raises(ConfigError, match="node count 3"):
        parse_config("domain.nx = 3\nframe.d_y = 4\n")
    with pytest.raises(ConfigError, match="node count 6"):
        parse_config("domain.dimension = 2\ndomain.nx = 3\ndomain.ny = 2\nframe.d_y = 7\n")
    assert parse_config("domain.dimension = 2\ndomain.nx = 3\ndomain.ny = 2\n"
                        "frame.d_y = 6\n").frame.d_y == 6


def test_cli_refine_fails_on_trivial_levels(tmp_path, capsys):
    out = tmp_path / "r"
    rc = main(["refine", "--config", cfg_file(tmp_path, NEAR_QUADRATIC), "--out", str(out),
               "--levels", "2", "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "FAILED at stage 'refine'" in err
    assert "levels [0, 1] converged to the trivial state" in err
    rows = read_csv(out / "refine_table.csv")
    assert all(r["converged"] == "true" for r in rows)


def test_seed_override_lands_in_manifest(tmp_path):
    out = tmp_path / "m"
    assert main(["geometry", "--config", cfg_file(tmp_path, TOY), "--out", str(out),
                 "--seed", "777", "--quiet"]) == 0
    assert "frame.seed = 777" in (out / "manifest.cfg").read_text()


def test_write_csv_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b", "c"], [(1.5, True, "x"), (0.1 + 0.2, False, "y")])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1.5,true,x"
    # shortest-exact float formatting keeps every bit
    assert float(lines[2].split(",")[0]) == 0.1 + 0.2


def test_write_pgm_constant_field(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(str(path), np.ones((3, 4)))
    body = path.read_text().split()
    assert body[0] == "P2"
    assert body[-12:] == ["128"] * 12
    with pytest.raises(ValueError):
        write_pgm(str(tmp_path / "bad.pgm"), np.ones(5))


def test_write_svg_trace(tmp_path):
    path = tmp_path / "trace.svg"
    write_svg_trace(str(path), [1.0, 2.0, 1.5], [1.0, 0.1, 0.01])
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
