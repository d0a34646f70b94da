import csv
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import linking_saddle.grid as grid_module
import linking_saddle.splitting as splitting_module
from linking_saddle import (
    ConfigError,
    RunConfig,
    brouwer_degree_small,
    cli,
    discretize,
    functional,
    homotopy_chart_map,
    linking,
    load_config,
    parse_config,
    shipped_deformations,
)
from linking_saddle.cli import main
from linking_saddle.config import PRESETS, format_config, to_problem_spec
from linking_saddle.reporting import (_cell, write_csv, write_manifest, write_pgm,
                                     write_svg_trace)

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
    paths, lattices = [], []
    path_root, start_lattice = linking._path_root, linking._start_lattice

    def counting_path(*args, **kwargs):
        paths.append(args[0])
        return path_root(*args, **kwargs)

    monkeypatch.setattr(linking, "_path_root", counting_path)
    monkeypatch.setattr(linking, "_start_lattice",
                        lambda *args: lattices.append(args) or start_lattice(*args))
    rc = main(["intersect", "--config", cfg_file(tmp_path, TOY), "--out", str(tmp_path / "i"),
               "--quiet"])
    assert rc == 0
    # one t = 1 path per shipped deformation, which the certificate reuses; the
    # t = 0 degree is proved, and no start lattice is built
    assert len(paths) == 3 and len(set(map(id, paths))) == 3
    assert lattices == []


def test_cli_intersect_line255_maps_twenty_stencil_blocks(tmp_path, monkeypatch):
    # the benchmark's intersect job: d_y 1 and 2 on a 255-node line, six paths;
    # each maps its start and every Newton iterate at t = 1 with its stencil
    stencils = []
    stencil = linking._stencil
    monkeypatch.setattr(linking, "_stencil", lambda xi: stencils.append(xi.size) or stencil(xi))
    for d_y in (1, 2):
        text = f"domain.dimension = 1\ndomain.nx = 255\nproblem.preset = power\nframe.d_y = {d_y}\n"
        assert main(["intersect", "--config", cfg_file(tmp_path, text, f"dy{d_y}.cfg"),
                     "--out", str(tmp_path / f"dy{d_y}"), "--quiet"]) == 0
    assert len(stencils) == 20
    assert sorted(set(stencils)) == [2, 3]


def test_cli_intersect_draws_the_degree_boundary_once_per_frame(tmp_path, monkeypatch):
    draws, degrees, times = [], [], []
    boundary_rows, degree = linking._boundary_rows, cli.brouwer_degree_small
    chart_map = cli.homotopy_chart_map

    def counting_rows(rng, dim, rho, count):
        draws.append((dim, rho, count))
        return boundary_rows(rng, dim, rho, count)

    def counting_degree(map_fn, frame):
        degrees.append((id(frame), frame.rho))
        return degree(map_fn, frame)

    def timed_chart_map(gamma, t):
        times.append(t)
        return chart_map(gamma, t)

    monkeypatch.setattr(linking, "_boundary_rows", counting_rows)
    monkeypatch.setattr(cli, "brouwer_degree_small", counting_degree)
    monkeypatch.setattr(cli, "homotopy_chart_map", timed_chart_map)
    rc = main(["intersect", "--config", cfg_file(tmp_path, LINE_D2), "--out",
               str(tmp_path / "i"), "--quiet"])
    assert rc == 0
    # three degree counts on one frame and rho, all at t = 1: the start degree is
    # proved; the 6 corners and 150 + 150 rows are drawn once
    assert len(degrees) == 3 and len(set(degrees)) == 1
    assert times == [1.0] * 3
    assert [d for d in draws if d[2] == 306] == [(3, degrees[0][1], 306)]


def test_cli_intersect_degree_start_is_each_deformations_own(tmp_path):
    path = cfg_file(tmp_path, LINE_D2)
    rc = main(["intersect", "--config", path, "--out", str(tmp_path / "i"), "--quiet"])
    assert rc == 0
    rows = read_csv(tmp_path / "i" / "intersection_report.csv")
    cfg = load_config(path)
    frame, _, _ = cli._frame_and_geometry(cfg, discretize(to_problem_spec(cfg)), "intersect",
                                          [])
    gammas = shipped_deformations(frame)
    assert [r["deformation"] for r in rows] == [g.name for g in gammas]
    for row, gamma in zip(rows, gammas):
        own = brouwer_degree_small(homotopy_chart_map(gamma, 0.0), frame)
        assert int(row["degree_start"]) == own.degree


def test_cli_intersect_boundary_failure_fails_every_row(tmp_path, capsys):
    # r = 1e-7 puts H_1 within 1e-6 of zero at the base center, sample 0, for every
    # deformation; each t = 1 degree count reports it on its own row
    text = TOY.replace("domain.nx = 1", "domain.nx = 63") + "frame.r = 1e-7\nframe.rho = 1.0\n"
    rc = main(["intersect", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "i"),
               "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    rows = read_csv(tmp_path / "i" / "intersection_report.csv")
    assert len(rows) == 3
    for row in rows:
        assert row["ok"] == "false"
        assert (f"{row['deformation']} (map vanishes on the frame boundary "
                "(min 1.000e-07 at sample 0))") in err


def test_cli_intersect_certifies_a_root_near_the_cap(tmp_path):
    # r = 31 of rho = 32: the path's root and its stencil sit 1 from the cap
    text = (TOY.replace("domain.nx = 1", "domain.nx = 63")
            + "frame.d_y = 3\nframe.r = 31.0\nframe.rho = 32.0\n")
    rc = main(["intersect", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "i"),
               "--quiet"])
    assert rc == 0
    rows = read_csv(tmp_path / "i" / "intersection_report.csv")
    assert [r["ok"] for r in rows] == ["true"] * 3
    assert all(r["degree_end"] == "1" and float(r["radius_residual"]) <= 1e-8 for r in rows)


def test_cli_solve_computes_the_principal_pair_once(tmp_path, monkeypatch):
    # radii, frame and solver read one cached pair; the frame's chart modes included
    calls = []
    eigenpairs = grid_module.eigenpairs

    def counting_eigenpairs(grid, op, count):
        calls.append(count)
        return eigenpairs(grid, op, count)

    for module in (grid_module, functional, splitting_module):
        monkeypatch.setattr(module, "eigenpairs", counting_eigenpairs)
    text = TOY.replace("domain.nx = 1", "domain.nx = 63")
    rc = main(["solve", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "s"),
               "--quiet"])
    assert rc == 0
    assert calls == [1]


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


def test_cli_solve_stall_names_its_gradient_norm_and_tolerance(tmp_path, capsys):
    # a tolerance far below rounding: both Newton runs stall near 1e-14, and each
    # stall says where, on stderr and in the manifest's solve step
    text = TOY.replace("domain.nx = 1", "domain.nx = 63") + "solver.grad_tol = 1e-30\n"
    rc = main(["solve", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "s"),
               "--quiet"])
    assert rc == 1
    stall = r"line search stalled at gradient norm (\S+), tolerance 1e-30"
    err = capsys.readouterr().err
    found = re.fullmatch(rf"FAILED at stage 'solve': diagonal route: {stall}; {stall}\n", err)
    assert found and all(0.0 < float(gn) < 1e-12 for gn in found.groups()), err
    manifest = (tmp_path / "s" / "manifest.cfg").read_text()
    assert f"# step solve: {err.split(': ', 1)[1]}" in manifest


def test_cli_solve_square_writes_heatmaps(tmp_path):
    out = tmp_path / "sq"
    rc = main(["solve", "--config", cfg_file(tmp_path, SQUARE), "--out", str(out), "--quiet"])
    assert rc == 0
    u_lines = (out / "solution_u.pgm").read_text().splitlines()
    v_lines = (out / "solution_v.pgm").read_text().splitlines()
    assert u_lines[0] == "P2"
    # the diagonal route ends at u == v bitwise: one image under two comments
    assert read_csv(out / "saddle_report.csv")[0]["method"] == "diagonal-newton"
    assert (u_lines[1], v_lines[1]) == ("# u component", "# v component")
    assert u_lines[:1] + u_lines[2:] == v_lines[:1] + v_lines[2:]
    sol = read_csv(out / "solution.csv")
    assert len(sol) == 64
    assert set(sol[0]) == {"x", "y", "u", "v"}


def test_cli_solve_releases_its_samples_before_the_solve(tmp_path, monkeypatch):
    # the geometry is proved in closed form, so solve draws no samples to hold
    drawn, solved = [], []
    draw, solve = cli.sample_sets, cli.solve_saddle

    def tracked_draw(*args, **kwargs):
        samples = draw(*args, **kwargs)
        drawn.append(weakref.ref(samples))
        return samples

    def checked_solve(*args, **kwargs):
        solved.append([ref() is None for ref in drawn])
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_sets", tracked_draw)
    monkeypatch.setattr(cli, "solve_saddle", checked_solve)
    rc = main(["solve", "--config", cfg_file(tmp_path, SQUARE), "--out", str(tmp_path / "sq"),
               "--quiet"])
    assert rc == 0
    assert solved == [[]]


def test_cli_solve_deterministic(tmp_path):
    cfg = cfg_file(tmp_path, SQUARE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(a), "--quiet"]) == 0
    assert main(["solve", "--config", cfg, "--out", str(b), "--quiet"]) == 0
    for name in ("saddle_report.csv", "trace.csv", "solution.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_solve_same_bytes_at_one_and_two_blas_threads(tmp_path):
    cfg = cfg_file(tmp_path, "domain.dimension = 2\ndomain.nx = 32\ndomain.ny = 32\n"
                             "problem.preset = power\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                     else []))
        out = tmp_path / f"threads{threads}"
        done = subprocess.run([sys.executable, "-m", "linking_saddle", "solve", "--config", cfg,
                               "--out", str(out), "--quiet"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        outs.append(out)
    for name in ("saddle_report.csv", "trace.csv", "solution.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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


LINE = "domain.dimension = 1\ndomain.nx = {}\nproblem.preset = power\n"


def test_cli_solve_runs_on_a_1023_node_line(tmp_path):
    # the closed-form sine modes pass the modal residual check at 1023 nodes
    out = tmp_path / "s"
    assert main(["solve", "--config", cfg_file(tmp_path, LINE.format(1023)), "--out", str(out),
                 "--quiet"]) == 0
    assert read_csv(out / "saddle_report.csv")[0]["converged"] == "true"


@pytest.mark.parametrize("command, steps", [
    ("solve", ["hypotheses: ok", "geometry: failed"]),
    ("geometry", ["radii: failed"]),
    ("intersect", ["radii: failed"]),
])
def test_cli_names_the_stage_where_the_2047_node_modes_fail(tmp_path, capsys, command, steps):
    # from 2047 nodes the closed-form sine modes miss the modal residual check
    out = tmp_path / "o"
    assert main([command, "--config", cfg_file(tmp_path, LINE.format(2047)), "--out", str(out),
                 "--quiet"]) == 1
    assert re.fullmatch(r"FAILED at stage 'geometry': modal basis: eigenpair 0 relative "
                        r"residual \S+ exceeds 1e-10\n", capsys.readouterr().err)
    manifest = (out / "manifest.cfg").read_text().splitlines()
    assert [line for line in manifest if line.startswith("# step ")] == [
        f"# step {step}" for step in steps]


def test_cli_refine_names_its_stage_where_the_2047_node_modes_fail(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["refine", "--config", cfg_file(tmp_path, LINE.format(2047)), "--out", str(out),
                 "--levels", "2", "--quiet"]) == 1
    assert re.fullmatch(r"FAILED at stage 'refine': modal basis: eigenpair 0 relative "
                        r"residual \S+ exceeds 1e-10\n", capsys.readouterr().err)
    manifest = (out / "manifest.cfg").read_text().splitlines()
    assert [line for line in manifest if line.startswith("# step ")] == [
        "# step levels: 2", "# step refine: failed"]
    assert not (out / "refine_table.csv").exists()


@pytest.mark.parametrize("text", [
    "domain.dimension = 2\ndomain.nx = 16\ndomain.ny = 16\n", LINE.format(255),
], ids=["16sq", "1d255"])
def test_cli_solve_and_refine_level_0_report_the_same_value(tmp_path, text):
    # both start on the principal diagonal mode, so they take the same route
    cfg = cfg_file(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s"), "--quiet"]) == 0
    assert main(["refine", "--config", cfg, "--out", str(tmp_path / "r"), "--levels", "2",
                 "--quiet"]) == 0
    (row,) = read_csv(tmp_path / "s" / "saddle_report.csv")
    level0 = read_csv(tmp_path / "r" / "refine_table.csv")[0]
    assert row["critical_value"] == level0["critical_value"]


def test_cli_refine_reaches_1023_nodes_from_255(tmp_path):
    out = tmp_path / "r"
    assert main(["refine", "--config", cfg_file(tmp_path, LINE.format(255)), "--out", str(out),
                 "--levels", "3", "--quiet"]) == 0
    rows = read_csv(out / "refine_table.csv")
    assert [r["n"] for r in rows] == ["255", "511", "1023"]
    assert all(r["converged"] == "true" for r in rows)


def test_cli_config_error_exit_code(tmp_path, capsys):
    rc = main(["solve", "--config", cfg_file(tmp_path, "problem.p = 2.0\n")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["geometry", "solve", "intersect"])
def test_cli_rejects_the_interior_sample_count(tmp_path, capsys, command):
    # no command reads a configured interior count, so there is no key for one
    rc = main([command, "--config", cfg_file(tmp_path, TOY + "frame.interior_samples = 8\n"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "frame.interior_samples: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command, interior", [("geometry", 0), ("solve", 0), ("intersect", 12)])
def test_cli_draws_only_the_sample_families_it_reads(tmp_path, monkeypatch, command, interior):
    # only intersect reads samples, the interior rows of its displacement check
    drawn = []
    draw = cli.sample_sets

    def recorded_draw(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(cli, "sample_sets", recorded_draw)
    rc = main([command, "--config", cfg_file(tmp_path, LINE_D2), "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 0
    assert [rows.shape for rows in drawn] == [(interior, 3)] * bool(interior)


@pytest.mark.parametrize("key, value", [("problem.mu", "4"), ("solver.init", "anchor"),
                                        ("solver.method", "newton"), ("solver.eta", "0.1"),
                                        ("solver.flow_step", "0.25"),
                                        ("solver.flow_max_iter", "400")])
def test_cli_rejects_the_exponent_and_start_keys(tmp_path, capsys, key, value):
    # the power preset's exponent mu is p, a solve takes one route from the
    # crest of the principal diagonal mode, the triviality screen scales with
    # that crest, and the flow's step and budget are constants
    text = LINE.format(63) + f"{key} = {value}\n"
    rc = main(["solve", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{key}: unknown key" in capsys.readouterr().err


def test_cli_small_coupling_solution_is_nontrivial(tmp_path):
    # the solution's energy norm is 0.050, below an absolute 0.1 but 0.99 of
    # the principal crest's, so the screen that scales with the crest passes it
    text = LINE.format(63) + "problem.scale = 5e4\n"
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    (row,) = read_csv(out / "saddle_report.csv")
    assert (row["converged"], row["nontrivial"], row["minimax_ok"]) == ("true", "true", "true")
    assert float(row["state_norm"]) == pytest.approx(0.0502, abs=1e-4)
    assert float(row["critical_value"]) == pytest.approx(6.2995e-4, rel=1e-4)


def test_cli_power_preset_reads_mu_from_p(tmp_path):
    text = LINE.format(63) + "problem.p = 3\n"
    assert to_problem_spec(parse_config(text)).nonlinearity.mu == 3.0
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    (row,) = read_csv(out / "saddle_report.csv")
    assert (row["converged"], row["nontrivial"], row["minimax_ok"]) == ("true", "true", "true")
    assert float(row["critical_value"]) == pytest.approx(218.748056896, rel=1e-9)


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


# runs whose Newton stage does most of the work; each converged to the
# reference level, but stopped on a step of energy norm 1.1e-06 and
# 3.3e-06, so the compactness check failed their tail
NEWTON_FINISHED = {
    "flow_tol-1d63": "domain.dimension = 1\ndomain.nx = 63\nsolver.flow_tol = 0.01\n",
    "flow_tol-20x13": "domain.dimension = 2\ndomain.nx = 20\ndomain.ny = 13\nsolver.flow_tol = 0.01\n",
}


@pytest.mark.parametrize("text", NEWTON_FINISHED.values(), ids=NEWTON_FINISHED.keys())
def test_cli_solve_newton_finish_passes_compactness(tmp_path, text):
    out = tmp_path / "s"
    assert main(["solve", "--config", cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    (row,) = read_csv(out / "saddle_report.csv")
    assert (row["converged"], row["ps_tail_cauchy"], row["minimax_ok"]) == ("true",) * 3
    # the default route reaches the same level
    default = "".join(line + "\n" for line in text.splitlines() if not line.startswith("solver."))
    assert main(["solve", "--config", cfg_file(tmp_path, default, "default.cfg"),
                 "--out", str(tmp_path / "d"), "--quiet"]) == 0
    (ref,) = read_csv(tmp_path / "d" / "saddle_report.csv")
    level = float(ref["critical_value"])
    assert abs(float(row["critical_value"]) - level) <= 1e-12 * level


def test_cli_solve_newton_cut_off_fails_its_tail(tmp_path, capsys):
    # the diagonal Newton needs four steps to cluster on 32^2
    text = "domain.dimension = 2\ndomain.nx = 32\ndomain.ny = 32\nsolver.max_iter = 2\n"
    out = tmp_path / "s"
    assert main(["solve", "--config", cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "FAILED at stage 'solve': iteration budget exhausted\n"
    (row,) = read_csv(out / "saddle_report.csv")
    assert (row["converged"], row["ps_tail_cauchy"]) == ("false", "false")
    assert "# step compactness: failed" in (out / "manifest.cfg").read_text()


# configurations near the edge of what the pipeline accepts
RESONANT = "domain.dimension = 1\ndomain.nx = 31\nproblem.lambda = 9.8696\nproblem.delta = 9.8696\n"
NEAR_QUADRATIC = "domain.dimension = 1\ndomain.nx = 31\nproblem.p = 2.000001\n"
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
    ("intersect", WIDE_CHART_31, 0),
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


@pytest.mark.parametrize("p, expected, stderr", [
    (80, 0, ""),
    (120, 0, ""),
    # k = 1/p and c0 (about 1.6e-121 at p = 400) are finite; the sampled growth
    # bound is not, as 100^(p - 1) overflows
    (200, 1, "FAILED at stage 'geometry': not certified: growth hypotheses failed\n"),
    (400, 1, "FAILED at stage 'geometry': not certified: growth hypotheses failed\n"),
])
def test_cli_geometry_at_a_large_power_names_the_constant(tmp_path, p, expected, stderr):
    _check_geometry_run(tmp_path, f"problem.p = {p}\n", expected, stderr,
                        step="geometry: not certified")


def test_cli_geometry_names_an_overflowing_embedding_constant(tmp_path):
    # on a wide interval G = max diag K^-1 = 2.5e5, and G^59 overflows
    _check_geometry_run(
        tmp_path, "problem.p = 120\ndomain.extent_x = 1e6\n", 1,
        "FAILED at stage 'geometry': embedding constant c0 is not finite: inf\n")


def test_cli_geometry_takes_the_grid_floor_near_p_2(tmp_path):
    # at p = 2.001 the closed-form maximizer of the floor (5^2000, about 1e1398)
    # overflows, so the grid's best s = 1e4 sets r = sqrt(2) 5e3. The ray's
    # crest is as far out, so no doubling of r brings the cap ceiling to 0
    _check_geometry_run(
        tmp_path, "problem.p = 2.001\n", 1,
        "FAILED at stage 'geometry': no doubling of r=7071.07 gave a nonpositive cap "
        "ceiling within 40 tries\n")


@pytest.mark.parametrize("lines", [
    "problem.p = 2.5\nproblem.scale = 1e-80\nframe.r = 1.0\nframe.rho = 1e155\n",
    "problem.p = 4\nframe.r = 1.0\nframe.rho = 1e160\n",
], ids=["p2.5-rho1e155", "p4-rho1e160"])
def test_cli_geometry_refuses_an_overflowing_cap_ceiling(tmp_path, lines):
    # rho * rho overflows, so the ceiling peak - rho^2 / 2 is inf - inf; a nan
    # ceiling once read as a boundary maximum of 0 and certified the frame
    _check_geometry_run(tmp_path, lines, 1,
                        "FAILED at stage 'geometry': cap ceiling is not finite: nan\n")


@pytest.mark.parametrize("command", ["intersect", "solve"])
def test_cli_stops_at_an_overflowing_cap_ceiling(tmp_path, capsys, command):
    text = LINE.format(63) + "problem.p = 2.5\nproblem.scale = 1e-80\nframe.r = 1.0\n" \
                             "frame.rho = 1e155\n"
    rc = main([command, "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "FAILED at stage 'geometry': cap ceiling is not finite: nan\n")


def _check_geometry_run(tmp_path, lines, expected, stderr, step="radii: failed"):
    """Run ``geometry`` on the power preset over 1D nx = 15 plus ``lines``, in a subprocess.

    A subprocess, so that numpy warnings and tracebacks reach its stderr.
    """
    cfg = cfg_file(tmp_path, "domain.dimension = 1\ndomain.nx = 15\nproblem.preset = power\n"
                             + lines)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
    done = subprocess.run([sys.executable, "-m", "linking_saddle", "geometry", "--config", cfg,
                           "--out", str(tmp_path / "o"), "--quiet"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (expected, stderr)
    if expected:
        assert f"# step {step}" in (tmp_path / "o" / "manifest.cfg").read_text()


@pytest.mark.parametrize("text, d_y", [
    (LINE.format(31), 5), (LINE.format(255), 8),
    ("domain.dimension = 2\ndomain.nx = 16\ndomain.ny = 16\n", 6),
], ids=["line31-dy5", "line255-dy8", "sq16-dy6"])
def test_cli_intersect_certifies_wide_charts(tmp_path, text, d_y):
    # the degree's boundary check and its one path hold at every chart dimension
    out = tmp_path / "o"
    assert main(["intersect", "--config", cfg_file(tmp_path, text + f"frame.d_y = {d_y}\n"),
                 "--out", str(out), "--quiet"]) == 0
    rows = read_csv(out / "intersection_report.csv")
    assert len(rows) == 3
    for row in rows:
        assert (row["degree_start"], row["degree_end"], row["ok"]) == ("1", "1", "true")
        assert float(row["antidiagonal_residual"]) <= 1e-8
        assert float(row["radius_residual"]) <= 1e-8


@pytest.mark.parametrize("command", ["intersect", "check", "solve"])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, command, source):
    text, extra = (TOY + "frame.seed = -3\n", []) if source == "config" else (TOY, ["--seed", "-1"])
    rc = main([command, "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "o"),
               "--quiet", *extra])
    assert rc == 2
    assert "frame.seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_levels_is_refine_only_and_defaults_to_4(tmp_path, capsys):
    cfg = cfg_file(tmp_path, TOY)
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--config", cfg, "--levels", "2", "--quiet"])
    assert exit_info.value.code == 2
    assert "--levels applies to refine only" in capsys.readouterr().err
    out = tmp_path / "r"
    assert main(["refine", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert [r["n"] for r in read_csv(out / "refine_table.csv")] == ["1", "3", "7", "15"]


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
    # every row goes cell by cell, each cell formatted by its type
    rows = [(-0.0, np.inf, -np.inf, np.nan), (np.float64(0.1) + 0.2, 1e-300, -2.5e17, 3.0),
            (1.5, True, np.bool_(False), 7), (2, np.int64(-3), "z", np.float64(-0.0))]
    write_csv(str(path), ["a", "b", "c", "d"], rows)
    lines = path.read_text().splitlines()
    assert lines[1:] == [",".join(_cell(v) for v in row) for row in rows]
    assert lines[1] == "-0,inf,-inf,nan"
    assert lines[3] == "1.5,true,false,7"


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


def _fresh_python(tmp_path, script, *args):
    """Run ``script`` in a new interpreter that imports the package from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
    return subprocess.run([sys.executable, "-c", script, *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)


def test_cli_leaves_scipy_optimize_unimported(tmp_path):
    # a fresh interpreter: the suite's own oracles import scipy.optimize
    script = (
        "import sys\n"
        "from linking_saddle.cli import main\n"
        "for i, cmd in enumerate(sys.argv[2:]):\n"
        "    assert main([cmd, '--config', sys.argv[1], '--out', f'out{i}', '--quiet']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
    )
    done = _fresh_python(tmp_path, script, cfg_file(tmp_path, LINE_D2), "solve", "intersect")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


SMALL_GRIDS = {
    "line15": "domain.dimension = 1\ndomain.nx = 15\nproblem.preset = power\n",
    "rect8x6": "domain.dimension = 2\ndomain.nx = 8\ndomain.ny = 6\nproblem.preset = power\n",
}


@pytest.mark.parametrize("command", ["check", "geometry", "intersect", "solve", "refine"])
@pytest.mark.parametrize("text", SMALL_GRIDS.values(), ids=SMALL_GRIDS.keys())
def test_cli_imports_numpy_and_no_scipy(tmp_path, text, command):
    # the package needs numpy and the standard library only; the suite itself
    # imports scipy, so each command runs in a fresh interpreter
    script = (
        "import sys\n"
        "from linking_saddle.cli import main\n"
        "code = main([sys.argv[2], '--config', sys.argv[1], '--out', 'out', '--quiet'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = _fresh_python(tmp_path, script, cfg_file(tmp_path, text), command)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 []"
