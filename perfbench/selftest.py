"""Self-test of the benchmark: span arithmetic, metric names, reported metrics.

Run from the repository root with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The last test runs every workload for one second (under a minute).
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import declared, layer_figures, per_layer_values  # noqa: E402
from tracer import Tracer, job_summary, self_times  # noqa: E402
from workloads import ONE_SHOT_LABELS, WORKLOADS, load_package  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(span_id, name, start, end, parent, value=None):
    return (span_id, name, start, end, parent, 0, 1, value)


# A solve that calls a gradient twice; the first gradient calls two stiffness
# solves, one of which pokes out past its parent's end, and a second child
# overlaps the first. A detached root span has no children.
TREE = [
    span(0, "solve", 0.0, 10.0, None),
    span(1, "grad", 1.0, 4.0, 0),
    span(2, "stiff", 1.5, 2.5, 1),
    span(3, "stiff", 2.0, 5.0, 1),  # overlaps span 2, ends after its parent
    span(4, "grad", 6.0, 7.0, 0),
    span(5, "other", 20.0, 21.5, None),
]


def test_self_time_subtracts_covered_child_time_once():
    selfs = self_times(TREE)
    assert selfs[0] == 10.0 - (3.0 + 1.0)
    assert selfs[1] == 3.0 - (4.0 - 1.5)  # children merged and clipped at 4.0
    assert selfs[2] == 1.0 and selfs[3] == 3.0
    assert selfs[4] == 1.0 and selfs[5] == 1.5


def test_job_summary_counts_and_nesting():
    nested = TREE + [span(6, "solve", 8.0, 9.0, 4)]  # re-entered layer
    s = job_summary(nested, {"state.pairs_built": 7})
    assert s["grad.calls"] == 2 and s["stiff.calls"] == 2
    assert s["grad.self_s"] == 0.5 + 1.0
    assert s["solve.s"] == 10.0  # the nested solve is inside the outer one
    assert s["solve.self_s"] == 6.0 + 1.0
    assert s["state.pairs_built.count"] == 7


def test_ratios_from_span_values():
    spans = [
        span(0, "solver.signflow_solve", 0.0, 1.0, None, value=2),
        span(1, "solver.flow_update", 0.1, 0.2, 0),
        span(2, "solver.flow_update", 0.2, 0.3, 0),
        span(3, "solver.flow_update", 0.3, 0.4, 0),  # rejected trial
        span(4, "solver.flow_update", 2.0, 2.1, None),  # e.g. a flow_map step
        span(5, "linking.brouwer_degree_small", 3.0, 4.0, None, value=2),
        span(6, "linking.start_lattice", 3.0, 3.1, 5, value=8),
        span(7, "linking.start_lattice", 5.0, 5.1, None, value=100),  # not the degree's
    ]
    fig = layer_figures(job_summary(spans, {"solver.ray_probes": 30}))
    assert fig["solver.flow_iters"] == 2
    assert fig["solver.ray_probes_per_flow_step"] == 30 / 3
    assert fig["linking.degree.roots_per_start"] == 2 / 8


def test_names_and_units_are_well_formed():
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25


def test_every_per_layer_metric_is_computed():
    summary = job_summary(TREE, {})
    one_shots = {label: (1.0, summary) for label in ONE_SHOT_LABELS}
    values, units, repeats = per_layer_values([1.0], [1.25], [summary, summary], one_shots)
    assert list(values) == [m["name"] for m in declared()["per_layer"]]
    assert values["trace.overhead_s"] == 0.25 and repeats


def test_install_and_uninstall_restore_the_package():
    ls = load_package(ROOT)
    originals = (ls.evaluate_J, ls.solver.evaluate_J, ls.cli.solve_saddle,
                 ls.StiffnessOperator.solve, ls.StatePair.__post_init__)
    problem = ls.discretize(ls.ProblemSpec(ls.DomainSpec.interval(7), ls.power_nonlinearity()))
    x = ls.StatePair.diagonal(ls.principal_eigenpair(problem.grid, problem.op)[1])
    plain = ls.riesz_gradient(problem, x)
    tracer = Tracer()
    tracer.install()
    try:
        assert ls.solver.evaluate_J is not originals[1]
        traced = ls.riesz_gradient(ls.discretize(problem.spec), x)
        ls.evaluate_J(problem, x)
    finally:
        tracer.uninstall()
    assert (ls.evaluate_J, ls.solver.evaluate_J, ls.cli.solve_saddle,
            ls.StiffnessOperator.solve, ls.StatePair.__post_init__) == originals
    assert (traced.u == plain.u).all() and (traced.v == plain.v).all()
    names = [s[1] for s in tracer.spans]
    assert names.count("grid.solve") == 2 and names.count("grid.factor") == 1
    assert names.count("functional.evaluate_J") == 1
    by_id = {s[0]: s for s in tracer.spans}
    factor = next(s for s in tracer.spans if s[1] == "grid.factor")
    assert by_id[factor[4]][1] == "grid.solve"
    assert tracer.counter_totals()["state.pairs_built"] >= 1


def test_every_workload_reports_every_end_to_end_metric():
    spec = declared()
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, workload
        assert result["attempted"] >= 1 and result["correct"], (workload, proc.stderr)


if __name__ == "__main__":
    tests = [obj for name, obj in list(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
