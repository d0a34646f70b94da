"""Run a fixed CLI matrix in two checkouts and compare every output file.

Usage (from anywhere):

    python3 bench/compare_outputs.py PARENT CHANGE [--work DIR]

PARENT and CHANGE are checkout roots, each with the package under
``src/``. Every run of ``RUNS`` starts ``python -m linking_saddle`` in a
fresh subprocess with ``PYTHONPATH=<checkout>/src`` and
``OPENBLAS_NUM_THREADS=1``, and writes its files, its exit code
(``exit_code``) and its stderr (``stderr``) to ``<work>/<side>/<run>/``.
The manifest's ``output.dir`` line names that path, so it is dropped
before comparing.

A file is reported as identical, or for a CSV file as the largest
relative move |a - b| / max(|a|, |b|) in each numeric column that moved,
followed by every other difference: the first changed non-numeric cell
of each column, a changed header or row count, a row not as wide as its
header. Columns are matched by name and rows by position, so the moves in
the columns and rows both sides share are reported whatever else changed.
The exit status is 1 if a value moves by more than 1e-12 relative, if a
CSV file differs in any other way, if any other file differs (exit codes
and stderr included), or if a file is missing on one side; 0 otherwise.
With no ``--work`` the runs go to a temporary directory that is removed
at the end. Standard library only.
"""

import argparse
import csv
import math
import os
import shutil
import subprocess
import sys
import tempfile

REL_TOL = 1e-12
DROPPED_PREFIX = "output.dir ="


def _domain(nx, ny=None):
    if ny is None:
        return ["domain.dimension = 1", f"domain.nx = {nx}"]
    return ["domain.dimension = 2", f"domain.nx = {nx}", f"domain.ny = {ny}"]


# (name, CLI arguments, configuration lines)
RUNS = (
    ("solve-sq128", ["solve"], _domain(128, 128)),
    ("solve-sq32", ["solve"], _domain(32, 32)),
    ("solve-line255", ["solve"], _domain(255)),
    # the late handoff: the flow runs to flow_tol and Newton does most of the work;
    # unequal shifts keep the problem off the diagonal route, which runs no flow
    ("solve-flowtol-shifted-rect20x13", ["solve"],
     _domain(20, 13) + ["solver.flow_tol = 0.01", "problem.lambda = 3.0", "problem.delta = 1.5"]),
    # the modal residual check fails; the run exits 1 at stage 'geometry' with a manifest
    ("solve-line2047", ["solve"], _domain(2047)),
    ("solve-shifted-sq32", ["solve"],
     _domain(32, 32) + ["problem.lambda = 3.0", "problem.delta = 1.5"]),
    ("solve-shifted-line255", ["solve"],
     _domain(255) + ["problem.lambda = 2.0", "problem.delta = 4.0"]),
    # a small solution (energy norm 0.045) on the flow route: the triviality
    # screen and the handoff guard scale with the principal crest
    ("solve-scale5e4-shifted-line63", ["solve"],
     _domain(63) + ["problem.scale = 5e4", "problem.lambda = 3.0", "problem.delta = 1.0"]),
    ("solve-p120-line63", ["solve"], _domain(63) + ["problem.p = 120"]),
    # a large power, where the flow took 39 iterations to the diagonal Newton's 6
    ("solve-p8-sq32", ["solve"], _domain(32, 32) + ["problem.p = 8"]),
    # equal shifts keep the problem symmetric, so it is solved on the diagonal
    ("solve-symshift-sq32", ["solve"],
     _domain(32, 32) + ["problem.lambda = 3.0", "problem.delta = 3.0"]),
    # the exponent mu of the power preset is p
    ("solve-p3-line63", ["solve"], _domain(63) + ["problem.p = 3"]),
    # a symmetric problem whose diagonal point is declined: the flow finishes the
    # solve, and its iterates alternate between mirrored (u == v bitwise) and not
    ("solve-rect12x6", ["solve"],
     _domain(12, 6) + ["domain.extent_x = 1.0", "domain.extent_y = 2.5"]),
    # the same rectangle off the diagonal route, with unequal shifts
    ("solve-shifted-rect12x6", ["solve"],
     _domain(12, 6) + ["domain.extent_x = 1.0", "domain.extent_y = 2.5",
                       "problem.lambda = 2.0", "problem.delta = 0.0"]),
    ("intersect-line255-dy1", ["intersect"], _domain(255) + ["frame.d_y = 1"]),
    ("intersect-line255-dy2", ["intersect"], _domain(255) + ["frame.d_y = 2"]),
    ("intersect-rect12x5-dy1", ["intersect"], _domain(12, 5) + ["frame.d_y = 1"]),
    ("intersect-rect12x5-dy2", ["intersect"], _domain(12, 5) + ["frame.d_y = 2"]),
    # chart dimension 4, the largest intersect counts degrees on
    ("intersect-line63-dy3", ["intersect"], _domain(63) + ["frame.d_y = 3"]),
    # explicit radii skip the radius search
    ("intersect-line63-dy2-radii", ["intersect"],
     _domain(63) + ["frame.d_y = 2", "frame.r = 4.0", "frame.rho = 32.0"]),
    # H_1 comes within 1e-6 of zero at the base center, so every row fails with its
    # own t = 1 degree count's boundary message, and the run exits 1 at stage 'intersect'
    ("intersect-line63-tiny-r", ["intersect"],
     _domain(63) + ["frame.d_y = 1", "frame.r = 1e-7", "frame.rho = 1.0"]),
    ("geometry-sq16", ["geometry"], _domain(16, 16)),
    # the ceiling covers the whole antidiagonal subspace, so d_y does not move it
    ("geometry-line255-dy2", ["geometry"], _domain(255) + ["frame.d_y = 2"]),
    ("geometry-rect40x23-dy3", ["geometry"], _domain(40, 23) + ["frame.d_y = 3"]),
    # the sphere is exactly the signed anchor pair, and the Green bound on c0 is attained
    ("geometry-line1", ["geometry"], _domain(1)),
    # the sampled sphere and boundary are gone: their count keys exit 2 with "unknown key"
    ("geometry-sq16-sphere-samples", ["geometry"],
     _domain(16, 16) + ["frame.sphere_samples = 7"]),
    # unequal shifts: the ceiling bounds the cross term by completing the square
    ("geometry-line63-shifted", ["geometry"],
     _domain(63) + ["problem.lambda = 3.0", "problem.delta = 1.0"]),
    # explicit radii past the floor's reach: the floor at r = 6.5 is below the cap ceiling
    ("geometry-sq16-radii", ["geometry"], _domain(16, 16) + ["frame.r = 6.5", "frame.rho = 26.0"]),
    # a large power: certified, on a wide interval too, where G = max diag K^-1 is 2.5e5
    ("geometry-line15-p80", ["geometry"], _domain(15) + ["problem.p = 80"]),
    ("geometry-line15-wide-p80", ["geometry"],
     _domain(15) + ["problem.p = 80", "domain.extent_x = 1e6"]),
    # near p = 2: the margin is positive, but the small-amplitude hypothesis fails
    ("geometry-line15-p2.05", ["geometry"],
     _domain(15) + ["problem.p = 2.05", "problem.scale = 3.5694218829"]),
    ("check-sq16", ["check"], _domain(16, 16)),
    ("refine-sq16", ["refine", "--levels", "4"], _domain(16, 16)),
)


def write_configs(config_dir):
    """Write the configuration of each run to ``<config_dir>/<run>.cfg``."""
    os.makedirs(config_dir)
    for name, _, lines in RUNS:
        with open(os.path.join(config_dir, f"{name}.cfg"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def run_matrix(checkout, config_dir, out_root):
    """Run every entry of ``RUNS`` against ``<checkout>/src``, one subprocess each."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"),
               OPENBLAS_NUM_THREADS="1")
    for name, args, _ in RUNS:
        run_dir = os.path.join(out_root, name)
        os.makedirs(run_dir)
        config = os.path.join(config_dir, f"{name}.cfg")
        # cwd is the run directory, so nothing is imported from the caller's tree
        proc = subprocess.run(
            [sys.executable, "-m", "linking_saddle", *args, "--config", config,
             "--out", run_dir, "--quiet"],
            cwd=run_dir, env=env, capture_output=True, text=True)
        with open(os.path.join(run_dir, "exit_code"), "w", encoding="utf-8") as fh:
            fh.write(f"{proc.returncode}\n")
        with open(os.path.join(run_dir, "stderr"), "w", encoding="utf-8") as fh:
            fh.write(proc.stderr)


def _read(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "manifest.cfg":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(DROPPED_PREFIX.encode()))
    return data


def _relative_move(a, b):
    """|a - b| / max(|a|, |b|) of two numeric cells, or None if either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare_csv(old, new):
    """(largest relative move per shared numeric column, descriptions of all other differences)."""
    old_rows = list(csv.reader(old.decode("utf-8").splitlines())) or [[]]
    new_rows = list(csv.reader(new.decode("utf-8").splitlines())) or [[]]
    old_header, new_header = old_rows[0], new_rows[0]
    problems = []
    if old_header != new_header:
        gone = [c for c in old_header if c not in new_header]
        added = [c for c in new_header if c not in old_header]
        problems.append(f"header differs (removed {gone}, added {added})")
    if len(old_rows) != len(new_rows):
        problems.append(f"row count differs: {len(old_rows) - 1} -> {len(new_rows) - 1}")
    shared = [c for c in old_header if c in new_header]
    moves, changed = {}, {}
    for i, (old_row, new_row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        if not (len(old_row) == len(old_header) and len(new_row) == len(new_header)):
            problems.append(f"row {i} is not as wide as the header")
            continue
        old_cells, new_cells = dict(zip(old_header, old_row)), dict(zip(new_header, new_row))
        for column in shared:
            a, b = old_cells[column], new_cells[column]
            if a == b:
                continue
            move = _relative_move(a, b)
            if move is None:
                changed.setdefault(column, f"row {i} column {column!r}: {a!r} -> {b!r}")
            else:
                moves[column] = max(moves.get(column, 0.0), move)
    return moves, problems + list(changed.values())


def compare_dirs(old_root, new_root):
    """Compare two matrix output trees; returns (report lines, True if nothing failed)."""
    lines, ok = [], True
    counts = {"identical": 0, "moved": 0, "failed": 0}
    for run in sorted(set(os.listdir(old_root)) | set(os.listdir(new_root))):
        old_dir, new_dir = os.path.join(old_root, run), os.path.join(new_root, run)
        if not (os.path.isdir(old_dir) and os.path.isdir(new_dir)):
            lines.append(f"{run}: present on one side only  [FAIL]")
            counts["failed"] += 1
            ok = False
            continue
        lines.append(f"{run}:")
        for name in sorted(set(os.listdir(old_dir)) | set(os.listdir(new_dir))):
            old_path, new_path = os.path.join(old_dir, name), os.path.join(new_dir, name)
            if not (os.path.isfile(old_path) and os.path.isfile(new_path)):
                verdict, failed = "present on one side only", True
            else:
                old, new = _read(old_path), _read(new_path)
                if old == new:
                    verdict, failed = "identical", False
                elif name.endswith(".csv"):
                    moves, problems = compare_csv(old, new)
                    worst = max(moves.values(), default=0.0)
                    failed = bool(problems) or worst > REL_TOL
                    verdict = ", ".join(f"{col} {move:.3e}" for col, move in sorted(moves.items()))
                    verdict = "; ".join(["max relative move: " + (verdict or "none"), *problems])
                else:
                    verdict, failed = "differs", True
            kind = "failed" if failed else ("identical" if verdict == "identical" else "moved")
            counts[kind] += 1
            ok = ok and not failed
            lines.append(f"  {name}: {verdict}" + ("  [FAIL]" if failed else ""))
    total = sum(counts.values())
    lines.append(f"{total} files: {counts['identical']} identical, {counts['moved']} moved "
                 f"within {REL_TOL:g}, {counts['failed']} failed")
    return lines, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout root of the parent commit")
    parser.add_argument("change", help="checkout root of the change")
    parser.add_argument("--work", help="directory for the runs (kept); default: a temporary one")
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not os.path.isfile(os.path.join(root, "src", "linking_saddle", "__init__.py")):
            parser.error(f"no package under {os.path.join(root, 'src')}")
    work = args.work or tempfile.mkdtemp(prefix="compare_outputs_")
    try:
        config_dir = os.path.join(work, "configs")
        write_configs(config_dir)
        sides = {}
        for side, root in (("parent", args.parent), ("change", args.change)):
            sides[side] = os.path.join(work, side)
            os.makedirs(sides[side])
            run_matrix(root, config_dir, sides[side])
        lines, ok = compare_dirs(sides["parent"], sides["change"])
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
