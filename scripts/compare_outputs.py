"""Compare what two source trees write and print for the shipped scenarios.

    python3 scripts/compare_outputs.py PARENT_TREE CHANGE_TREE [--out DIR]

A tree is a folder or a git revision of this checkout, unpacked with `git archive`
into the output folder: `python3 scripts/compare_outputs.py HEAD .` compares the
working tree with its last commit. Each tree's `src/` runs `aber` (every mode,
--exact-pep, --paper-literal-args), `capacity`, `pep` and `validate` on
configs/*.cfg and perfbench/scenarios/*.cfg of this checkout, in one process per
tree. Each run leaves its exit code, stdout and stderr (`<command>.run.json`,
with the side's output folder replaced by `<out>`); each run but `validate`,
which writes nothing, also leaves its CSV and its manifest without
`started_utc` (`<command>.csv.manifest.json`). Each tree
also runs its own demos/*.py with its `src/`, one process per demo, keeping the
demo's stdout (and an `exit N` line if it fails). The script prints each file
as identical or differing, then per CSV column the cells that moved, of all
cells compared, and the largest relative change |b - a| / |a|, then each demo's
stdout as identical or differing, then the line count of each tree's `src/`
(`src/ lines: A -> B`), and last the count of identical files. It exits 1 if
any file or demo differs. Standard library only (and git and tar to unpack a
revision).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = {f"aber_{mode}": ["aber", "--mode", mode] for mode in ("analytic", "sim", "both")}
COMMANDS.update(aber_exact=["aber", "--mode", "analytic", "--exact-pep"],
                aber_literal=["aber", "--mode", "analytic", "--paper-literal-args"],
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


def relative(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return float("inf")
    return abs(y - x) / abs(x) if x else float("inf")


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
    files = sorted((out / "a").glob("*/*"))
    same = 0
    for a in files:
        b = out / "b" / a.relative_to(out / "a")
        if not b.is_file():
            sys.exit(f"{b}: not written")
        identical = b.read_bytes() == a.read_bytes()
        same += identical
        print(f"{'identical' if identical else 'differs'} {a.relative_to(out / 'a')}")
    columns: dict[str, list] = {}
    for a in (f for f in files if f.suffix == ".csv"):
        b = out / "b" / a.relative_to(out / "a")
        rows_a, rows_b = (list(csv.reader(p.open())) for p in (a, b))
        if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
            sys.exit(f"{b}: header or row count differs")
        for key, col_a, col_b in zip(rows_a[0], zip(*rows_a[1:]), zip(*rows_b[1:])):
            moved = [relative(x, y) for x, y in zip(col_a, col_b) if x != y]
            stat = columns.get(key, [0, 0, 0.0])
            columns[key] = [stat[0] + len(moved), stat[1] + len(col_a), max([stat[2], *moved])]
    for key, (moved, total, worst) in columns.items():
        print(f"column {key}: {moved} of {total} cells moved, largest relative change {worst:.2e}")
    demos_differ = False
    for name in sorted({p.name for side in ("a", "b") for p in (out / f"{side}_demos").iterdir()}):
        a, b = out / "a_demos" / name, out / "b_demos" / name
        same_demo = a.is_file() and b.is_file() and b.read_bytes() == a.read_bytes()
        demos_differ |= not same_demo
        print(f"demo {Path(name).stem}: {'identical' if same_demo else 'differs'}")
    print(f"src/ lines: {src_lines(trees[0])} -> {src_lines(trees[1])}")
    print(f"{same} of {len(files)} files identical")
    if demos_differ or same < len(files):
        sys.exit(1)


if __name__ == "__main__":
    main()
