"""``bench/bench_json.py`` turns traced benchmark reports into a BENCH file."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_json", ROOT / "bench" / "bench_json.py")
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)


def report(commit, job_s, newton_s, trace=1):
    shot = {"job_s": job_s, "cli.stage.solve.s": 2.0 * job_s, "cli.stage.solve.self_s": 0.1,
            "cli.stage.solve.calls": 1, "solver.newton_step.self_s": newton_s,
            "solver.newton_step.calls": 2, "solver.newton_step.s": newton_s}
    return {"workload": "solve-square128", "seed": 7, "trace": trace, "failures": [],
            "environment": {"commit": commit, "nproc": 2},
            "one_shots": {"ladder.sq64": shot, "refine16": dict(shot, job_s=10.0)}}


def test_bench_takes_medians_of_stages_and_kernels():
    out = bench_json.bench([report("c", 1.0, 0.1), report("c", 3.0, 0.5),
                            report("c", 2.0, 0.2)], "x")
    assert out["repeats"] == 3 and out["environment"]["commit"] == "c"
    assert out["workloads"] == ["solve-square128 seed 7"]
    sq64 = out["jobs"]["ladder.sq64"]
    assert sq64["job_s"] == 2.0
    assert sq64["stages"] == {"solve": 4.0}
    assert sq64["kernels"] == {"solver.newton_step": {"self_s": 0.2, "calls": 2}}
    assert out["jobs"]["refine16"]["job_s"] == 10.0


@pytest.mark.parametrize("reports", [[report("c", 1.0, 0.1, trace=0)],
                                     [report("c", 1.0, 0.1), report("d", 1.0, 0.1)]],
                         ids=("untraced", "two-commits"))
def test_bench_rejects_mixed_or_untraced_reports(reports):
    with pytest.raises(ValueError):
        bench_json.bench(reports, "x")


def test_main_writes_the_labelled_file(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report("c", 1.0, 0.1)))
    monkeypatch.setattr(bench_json, "HERE", str(tmp_path))
    assert bench_json.main(["--label", "demo", str(path)]) == 0
    assert json.loads((tmp_path / "BENCH_demo.json").read_text())["label"] == "demo"
    with pytest.raises(SystemExit):
        bench_json.main(["--label", "../demo", str(path)])
