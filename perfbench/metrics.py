"""Per-layer metrics computed from per-job trace summaries.

Names and units are declared in ``BENCHMARK.json`` at the repository
root; this module says how each per-layer value is computed. Time
figures (unit ``s``) are medians over the traced jobs of a run; every
other figure is a count or a ratio of counts, identical for every job
of a seed, and is taken from the first traced job.
"""

import json
import os
import statistics

from tracer import STAGES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declared():
    """BENCHMARK.json: the workloads, metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def units():
    spec = declared()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_figures(s):
    """Per-layer figures of one job from its ``tracer.job_summary``."""
    g = lambda key: s.get(key, 0)  # noqa: E731  (a layer that did no work reads 0)
    accepted_steps = g("solver.flow_update.calls") - g("solver.flow_rejected")
    fig = {
        "grid.solve.calls": g("grid.solve.calls"),
        "grid.solve.self_s": g("grid.solve.self_s"),
        "grid.factor_s": g("grid.factor.s"),
        "grid.apply.calls": g("grid.apply.calls"),
        "grid.apply.self_s": g("grid.apply.self_s"),
        "functional.evaluate_J.calls": g("functional.evaluate_J.calls"),
        "functional.evaluate_J.self_s": g("functional.evaluate_J.self_s"),
        "functional.riesz_gradient.calls": g("functional.riesz_gradient.calls"),
        "functional.riesz_gradient.self_s": g("functional.riesz_gradient.self_s"),
        "solver.ray_argmax.calls": g("solver.ray_argmax.calls"),
        "solver.ray_argmax.self_s": g("solver.ray_argmax.self_s"),
        "solver.ray_probes_per_flow_step": _ratio(g("solver.ray_probes.count"), accepted_steps),
        "solver.newton_step.calls": g("solver.newton_step.calls"),
        "solver.newton_step.self_s": g("solver.newton_step.self_s"),
        "solver.flow_iters": int(g("solver.signflow_solve.value")),
        "solver.newton_iters": int(g("solver.newton_solve.value")),
        "solver.ps_monitor.s": g("solver.ps_monitor.s"),
        "solver.flow_map.calls": g("solver.flow_map.calls"),
        "solver.witness_search.s": g("solver.witness_search.s"),
        "state.pairs_built": g("state.pairs_built.count"),
        "splitting.coefficients.calls": g("splitting.coefficients.calls"),
        "splitting.coefficients.self_s": g("splitting.coefficients.self_s"),
        "linking.choose_radii.s": g("linking.choose_radii.s"),
        "linking.estimate_geometry.s": g("linking.estimate_geometry.s"),
        "linking.intersection_point.s": g("linking.intersection_point.s"),
        "linking.brouwer_degree_small.s": g("linking.brouwer_degree_small.s"),
        "linking.chart_map.calls": g("linking.chart_map.count"),
        "linking.degree.roots_per_start": _ratio(g("linking.brouwer_degree_small.value"),
                                                 g("linking.degree.starts")),
        "reporting.bytes_written": g("reporting.bytes_written.count"),
    }
    for stage in STAGES:
        fig[f"cli.stage.{stage}.s"] = g(f"cli.stage.{stage}.s")
    return fig


# Figures reported for each one-shot traced job, besides its job_s.
ONE_SHOT_FIGURES = {
    "ladder": ("grid.solve.calls", "grid.solve.self_s", "grid.factor_s",
               "functional.evaluate_J.calls", "functional.evaluate_J.self_s",
               "solver.ray_argmax.self_s", "solver.newton_step.self_s",
               "cli.stage.radii.s", "cli.stage.geometry.s", "cli.stage.solve.s",
               "cli.stage.write.s"),
    "witness32": ("grid.apply.calls", "grid.apply.self_s",
                  "functional.evaluate_J.calls", "functional.evaluate_J.self_s",
                  "solver.ray_argmax.calls", "solver.ray_argmax.self_s",
                  "solver.ray_probes_per_flow_step", "solver.flow_map.calls",
                  "solver.witness_search.s", "state.pairs_built",
                  "splitting.coefficients.calls", "splitting.coefficients.self_s"),
    "refine16": ("solver.flow_iters", "solver.newton_iters",
                 "grid.solve.calls", "grid.solve.self_s", "grid.factor_s",
                 "functional.evaluate_J.calls", "functional.evaluate_J.self_s",
                 "solver.ray_argmax.self_s", "solver.newton_step.self_s",
                 "cli.stage.refine_level.s", "cli.stage.write.s"),
}


def per_layer_values(plain, traced, summaries, one_shots):
    """Every per-layer metric of a traced run.

    Returns (values, units, repeats): ``repeats`` is False when a count
    figure differs between two traced jobs of the run.
    """
    unit_of = units()
    per_job = [layer_figures(s) for s in summaries]
    values = {}
    repeats = True
    for name in per_job[0]:
        column = [fig[name] for fig in per_job]
        if unit_of[name] == "s":
            values[name] = statistics.median(column)
        else:
            values[name] = column[0]
            repeats = repeats and all(v == column[0] for v in column)
    values["trace.job_s"] = statistics.median(traced)
    values["trace.untraced_job_s"] = statistics.median(plain)
    values["trace.overhead_s"] = values["trace.job_s"] - values["trace.untraced_job_s"]
    for label, (seconds, summary) in one_shots.items():
        fig = layer_figures(summary)
        values[f"{label}.job_s"] = seconds
        for name in ONE_SHOT_FIGURES[label.split(".")[0]]:
            values[f"{label}.{name}"] = fig[name]
    names = [m["name"] for m in declared()["per_layer"]]
    if sorted(values) != sorted(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(f"per-layer metrics disagree with BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    return {name: values[name] for name in names}, unit_of, repeats
