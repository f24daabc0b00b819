"""Compare what two source trees write and print for the shipped scenarios.

    python3 scripts/compare_outputs.py PARENT_TREE CHANGE_TREE [--out DIR]

A tree is a folder or a git revision of this checkout, unpacked with `git archive`
into the output folder: `python3 scripts/compare_outputs.py HEAD .` compares the
working tree with its last commit. Each tree's `src/` runs `aber` (every mode, and
--exact-pep), `capacity`, `pep` and `validate` on configs/*.cfg and
perfbench/scenarios/*.cfg of this checkout, in one process per tree. Each run leaves
its exit code, stdout and stderr (`<command>.run.json`, with the side's output folder
replaced by `<out>`); each run but `validate`, which writes nothing, also leaves its
CSV and its manifest without `started_utc` (`<command>.csv.manifest.json`). Each tree
also runs its own demos/*.py with its `src/`, one process per demo, keeping the
demo's stdout (and an `exit N` line if it fails). The script prints each file that
either tree wrote as identical, differs, only in parent, only in change, or (a CSV)
header or row count differs, then per CSV column, over the CSVs with the same header
and row count in both trees, the cells that moved, of all cells compared, how many of
them moved to or from zero, the largest relative change |b - a| / |a| over the others
(a cell that is not a finite number changes by inf), the largest absolute change |b - a|
over all of them and the largest ulp distance over all of them (`at most N ulp`, the count
of doubles between a and b), then per ABER CSV the largest |z| = |b - a| / sqrt(se_a^2 +
se_b^2) over its moved `aber_sim` cells, se being the row's own `aber_stderr` (rows where both
are 0 skipped), then each demo's stdout as identical or differing, then the line
count of each tree's `src/` (`src/ lines: A -> B`) and the count of those lines that
hold code, not only blanks, comments or docstrings (`src/ code lines: A -> B`), the
names that the second tree's `irs_sskrpm.__all__` adds and drops, and last the count
of identical files. It exits 1 if any file or demo differs or only one tree has it.
Standard library only (and git and tar to unpack a revision).

The |z| line tells a re-drawn simulation (|z| of a few) from a moved law. It is a screen,
not a test: the rows of one ABER sweep share their draws (common random numbers), so their
z are not independent, and the binomial `aber_stderr` is too narrow where the bits of a
symbol err together, as on stress_nt8m8 (ROADMAP item 4), so |z| runs high there.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = {f"aber_{mode}": ["aber", "--mode", mode] for mode in ("analytic", "sim", "both")}
COMMANDS.update(aber_exact=["aber", "--mode", "analytic", "--exact-pep"],
                capacity=["capacity", "--mode", "both"], pep=["pep"])
# each run's exit code, stdout and stderr, captured around cli.main in the one process
RUN = """\
import contextlib, io, json, sys, irs_sskrpm.cli as cli
for record, argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}, fh)
"""


def unpack(tree: str, out: Path) -> Path:
    """tree if it is a folder, else the files of git revision tree of this checkout in out."""
    if Path(tree).is_dir():
        return Path(tree)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", tree], stdout=subprocess.PIPE)
    if archive.returncode:
        sys.exit(f"{tree}: neither a folder nor a git revision")
    out.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive.stdout, check=True)
    return out


def write_outputs(tree: Path, out: Path) -> None:
    """Every command on every scenario, with tree's package, into out/<scenario>/<command>.*;
    then the run records and manifests rewritten without the side's folder and start time."""
    runs = []
    for cfg in sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("perfbench/scenarios/*.cfg")):
        folder = out / f"{cfg.parent.name}_{cfg.stem}"
        folder.mkdir(parents=True, exist_ok=True)
        runs += [(str(folder / f"{name}.run.json"),
                  argv + ["--config", str(cfg), "--out", str(folder / f"{name}.csv")])
                 for name, argv in COMMANDS.items()]
        runs.append((str(folder / "validate.run.json"), ["validate", "--config", str(cfg)]))
    subprocess.run([sys.executable, "-c", RUN, json.dumps(runs)], check=True, cwd=out,
                   env={**os.environ, "PYTHONPATH": str(tree.resolve() / "src")})
    for record in out.glob("*/*.run.json"):
        record.write_text(record.read_text(encoding="utf-8").replace(str(out), "<out>"),
                          encoding="utf-8")
    for path in out.glob("*/*.manifest.json"):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest.pop("started_utc", None)
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run_demos(tree: Path, out: Path) -> None:
    """Each demo of tree, with tree's package and out as working folder, its stdout into
    out/<demo>.stdout, followed by an `exit N` line when it exits with N != 0."""
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    for demo in sorted(tree.resolve().glob("demos/*.py")):
        proc = subprocess.run([sys.executable, str(demo)], cwd=out, capture_output=True,
                              text=True, env=env)
        code = f"exit {proc.returncode}\n" if proc.returncode else ""
        (out / f"{demo.stem}.stdout").write_text(proc.stdout + code, encoding="utf-8")


def src_lines(tree: Path) -> int:
    """The lines of every .py file under tree's src/, as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src").rglob("*.py"))


def code_lines(source: str) -> int:
    """The lines of a Python source that hold a token other than a comment, and lie in
    no docstring (of the module, a class or a function)."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
    lines = {row for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type not in skip for row in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def src_code_lines(tree: Path) -> int:
    """The `code_lines` of every .py file under tree's src/."""
    return sum(code_lines(p.read_text(encoding="utf-8")) for p in (tree / "src").rglob("*.py"))


def public_names(tree: Path) -> set[str]:
    """The names in `irs_sskrpm.__all__`, imported from tree's src/."""
    proc = subprocess.run([sys.executable, "-c", "import irs_sskrpm; print(*irs_sskrpm.__all__)"],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(tree.resolve() / "src")})
    return set(proc.stdout.split())


def ulps(x: float, y: float) -> int:
    """The count of doubles between two finite x and y (0.0 and -0.0 are one): the distance
    of their bit patterns, read as integers ordered like the values."""
    bits = (int.from_bytes(struct.pack("<d", v), "little", signed=True) for v in (x, y))
    a, b = (k if k >= 0 else -(k + 2 ** 63) for k in bits)
    return abs(b - a)


def change(a: str, b: str) -> tuple[bool, float, float, float]:
    """(whether the cell moved to or from zero, |b - a| / |a| if it did not, else 0, |b - a|
    and its `ulps`) of a cell that differs; a cell that is not a finite number (nan and inf
    included) changes by inf."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False, math.inf, math.inf, math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return False, math.inf, math.inf, math.inf
    zero = (x == 0.0) != (y == 0.0)
    return zero, 0.0 if zero else abs(y - x) / abs(x), abs(y - x), ulps(x, y)


def largest_z(rows_a: list[list[str]], rows_b: list[list[str]]) -> str:
    """The largest |z| = |b - a| / sqrt(se_a^2 + se_b^2) over the `aber_sim` cells that moved
    between two ABER CSVs, with se each row's `aber_stderr`, and its row's snr_db."""
    sim, se, snr = (rows_a[0].index(key) for key in ("aber_sim", "aber_stderr", "snr_db"))
    z = [(abs(float(b[sim]) - float(a[sim])) / math.hypot(float(a[se]), float(b[se])), a[snr])
         for a, b in zip(rows_a[1:], rows_b[1:])
         if a[sim] != b[sim] and (float(a[se]) or float(b[se]))]
    if not z:
        return "no moved cell"
    worst, at = max(z)
    return f"largest |z| {worst:.2f} (snr_db={at}) over {len(z)} moved cells"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="folder or git revision")
    parser.add_argument("change", help="folder or git revision")
    parser.add_argument("--out", type=Path, default=None, help="keep the outputs here")
    args = parser.parse_args()
    out = (args.out or Path(tempfile.mkdtemp(prefix="compare_outputs_"))).resolve()
    trees = [unpack(tree, out / f"{side}_tree") for side, tree in (("a", args.parent),
                                                                   ("b", args.change))]
    for side, tree in zip("ab", trees):
        write_outputs(tree, out / side)
        run_demos(tree, out / f"{side}_demos")
    files = sorted({p.relative_to(out / side) for side in "ab" for p in (out / side).glob("*/*")})
    same = 0
    columns: dict[str, list] = {}
    screens = []
    for name in files:
        a, b = out / "a" / name, out / "b" / name
        if not (a.is_file() and b.is_file()):
            print(f"only in {'parent' if a.is_file() else 'change'} {name}")
            continue
        tables = [list(csv.reader(p.open())) for p in (a, b)] if name.suffix == ".csv" else []
        if tables and (tables[0][0] != tables[1][0] or len(tables[0]) != len(tables[1])):
            print(f"header or row count differs {name}")
            continue
        identical = b.read_bytes() == a.read_bytes()
        same += identical
        print(f"{'identical' if identical else 'differs'} {name}")
        if not tables:
            continue
        rows_a, rows_b = tables
        if "aber_sim" in rows_a[0]:
            screens.append(f"aber_sim {name}: {largest_z(rows_a, rows_b)}")
        for key, col_a, col_b in zip(rows_a[0], zip(*rows_a[1:]), zip(*rows_b[1:])):
            moved = [change(x, y) for x, y in zip(col_a, col_b) if x != y]
            zero, rel, dif, ulp = zip(*moved) if moved else ((), (), (), ())
            stat = columns.get(key, [0, 0, 0, 0.0, 0.0, 0])
            columns[key] = [stat[0] + len(moved), stat[1] + len(col_a), stat[2] + sum(zero),
                            max(stat[3], *rel, 0.0), max(stat[4], *dif, 0.0),
                            max(stat[5], *ulp, 0)]
    for key, (moved, total, zero, rel, dif, ulp) in columns.items():
        print(f"column {key}: {moved} of {total} cells moved ({zero} to or from zero), "
              f"largest relative change {rel:.2e}, largest absolute change {dif:.2e}, "
              f"at most {ulp} ulp")
    for line in screens:
        print(line)
    demos_differ = False
    for name in sorted({p.name for side in ("a", "b") for p in (out / f"{side}_demos").iterdir()}):
        a, b = out / "a_demos" / name, out / "b_demos" / name
        same_demo = a.is_file() and b.is_file() and b.read_bytes() == a.read_bytes()
        demos_differ |= not same_demo
        print(f"demo {Path(name).stem}: {'identical' if same_demo else 'differs'}")
    print(f"src/ lines: {src_lines(trees[0])} -> {src_lines(trees[1])}")
    print(f"src/ code lines: {src_code_lines(trees[0])} -> {src_code_lines(trees[1])}")
    before, after = (public_names(tree) for tree in trees)
    print(f"__all__ adds: {', '.join(sorted(after - before)) or 'none'}; "
          f"drops: {', '.join(sorted(before - after)) or 'none'}")
    print(f"{same} of {len(files)} files identical")
    if demos_differ or same < len(files):
        sys.exit(1)


if __name__ == "__main__":
    main()
