"""``bench/compare_outputs.py`` compares two trees of CLI outputs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("compare_outputs",
                                              ROOT / "bench" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

VALUE = 75.513646733262192


def write_run(root, value=VALUE, exit_code=0, out_dir="out"):
    run = root / "solve-sq128"
    run.mkdir(parents=True)
    (run / "saddle_report.csv").write_text(f"method,critical_value,ok\nnewton,{value!r},true\n")
    (run / "manifest.cfg").write_text(f"# run manifest\noutput.dir = {out_dir}\n"
                                      "output.heatmaps = true\n")
    (run / "exit_code").write_text(f"{exit_code}\n")
    (run / "stderr").write_text("")
    return root


def compare(tmp_path, **change):
    old = write_run(tmp_path / "parent")
    new = write_run(tmp_path / "change", **change)
    return compare_outputs.compare_dirs(str(old), str(new))


def test_identical_trees_pass_and_the_output_dir_line_is_dropped(tmp_path):
    lines, ok = compare(tmp_path, out_dir="elsewhere")
    assert ok
    assert lines[-1] == "4 files: 4 identical, 0 moved within 1e-12, 0 failed"


@pytest.mark.parametrize("rel, passes", [(1e-13, True), (1e-11, False)])
def test_a_numeric_move_fails_only_past_the_tolerance(tmp_path, rel, passes):
    lines, ok = compare(tmp_path, value=VALUE * (1.0 + rel))
    assert ok is passes
    (row,) = [line for line in lines if "saddle_report.csv" in line]
    assert "critical_value" in row and "method" not in row
    moved = float(row.split("critical_value ")[1].split()[0])
    assert moved == pytest.approx(rel, rel=1e-2)
    assert row.endswith("[FAIL]") is not passes


def test_a_changed_exit_code_fails(tmp_path):
    lines, ok = compare(tmp_path, exit_code=1)
    assert not ok
    assert "  exit_code: differs  [FAIL]" in lines


def test_a_changed_text_cell_or_a_missing_run_fails(tmp_path):
    old = write_run(tmp_path / "parent")
    new = write_run(tmp_path / "change")
    report = new / "solve-sq128" / "saddle_report.csv"
    report.write_text(report.read_text().replace("true", "false"))
    (old / "solve-sq32").mkdir()
    lines, ok = compare_outputs.compare_dirs(str(old), str(new))
    assert not ok
    assert "solve-sq32: present on one side only  [FAIL]" in lines
    assert any("'ok': 'true' -> 'false'" in line for line in lines)


def test_a_row_wider_than_the_header_fails(tmp_path):
    old = write_run(tmp_path / "parent")
    new = write_run(tmp_path / "change")
    for root, extra in ((old, "1.0"), (new, "2.0")):
        report = root / "solve-sq128" / "saddle_report.csv"
        report.write_text(report.read_text().replace("true\n", f"true,{extra}\n"))
    lines, ok = compare_outputs.compare_dirs(str(old), str(new))
    assert not ok
    assert any("row 1 is not as wide as the header" in line for line in lines)


def test_a_changed_text_cell_does_not_hide_a_numeric_move(tmp_path):
    old = write_run(tmp_path / "parent")
    new = write_run(tmp_path / "change", value=VALUE * (1.0 + 1e-9))
    report = new / "solve-sq128" / "saddle_report.csv"
    report.write_text(report.read_text().replace("newton,", "diagonal-newton,"))
    lines, ok = compare_outputs.compare_dirs(str(old), str(new))
    assert not ok
    (row,) = [line for line in lines if "saddle_report.csv" in line]
    assert "max relative move: critical_value 1.000e-09" in row
    assert "row 1 column 'method': 'newton' -> 'diagonal-newton'" in row


def test_a_changed_header_or_row_count_still_compares_the_shared_cells(tmp_path):
    old = write_run(tmp_path / "parent")
    new = write_run(tmp_path / "change", value=VALUE * (1.0 + 1e-9))
    report = new / "solve-sq128" / "saddle_report.csv"
    head, row = report.read_text().splitlines()
    report.write_text(f"{head},iterations\n{row},4\n{row},5\n")
    lines, ok = compare_outputs.compare_dirs(str(old), str(new))
    assert not ok
    (row,) = [line for line in lines if "saddle_report.csv" in line]
    assert "max relative move: critical_value 1.000e-09" in row
    assert "header differs (removed [], added ['iterations'])" in row
    assert "row count differs: 1 -> 2" in row
