"""Compare the CSVs two source trees write for the shipped scenarios.

    python3 scripts/compare_outputs.py PARENT_TREE CHANGE_TREE [--out DIR]

Each tree's `src/` runs `aber` (every mode, --exact-pep, --paper-literal-args),
`capacity` and `pep` on configs/*.cfg and perfbench/scenarios/*.cfg of this
checkout, in one process per tree. The script prints the byte-identical files,
then per column the cells that moved, of all cells compared, and the largest
relative change |b - a| / |a|. Standard library only.
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
RUN = "import json, sys, irs_sskrpm.cli as cli\n[cli.main(a) for a in json.loads(sys.argv[1])]"


def write_outputs(tree: Path, out: Path) -> None:
    """Every command on every scenario, with tree's package, into out/<scenario>/<command>.csv."""
    runs = []
    for cfg in sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("perfbench/scenarios/*.cfg")):
        folder = out / f"{cfg.parent.name}_{cfg.stem}"
        folder.mkdir(parents=True, exist_ok=True)
        runs += [argv + ["--config", str(cfg), "--out", str(folder / f"{name}.csv")]
                 for name, argv in COMMANDS.items()]
    subprocess.run([sys.executable, "-c", RUN, json.dumps(runs)], check=True, cwd=out,
                   env={**os.environ, "PYTHONPATH": str(tree.resolve() / "src")},
                   stdout=subprocess.DEVNULL)


def relative(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return float("inf")
    return abs(y - x) / abs(x) if x else float("inf")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, default=None, help="keep the CSVs here")
    args = parser.parse_args()
    out = args.out or Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    for side, tree in (("a", args.parent), ("b", args.change)):
        write_outputs(tree, out / side)
    columns: dict[str, list] = {}
    for a in sorted((out / "a").glob("*/*.csv")):
        b = out / "b" / a.relative_to(out / "a")
        if not b.is_file():
            sys.exit(f"{b}: not written")
        if b.read_bytes() == a.read_bytes():
            print(f"identical {a.relative_to(out / 'a')}")
        rows_a, rows_b = (list(csv.reader(p.open())) for p in (a, b))
        if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
            sys.exit(f"{b}: header or row count differs")
        for key, col_a, col_b in zip(rows_a[0], zip(*rows_a[1:]), zip(*rows_b[1:])):
            moved = [relative(x, y) for x, y in zip(col_a, col_b) if x != y]
            stat = columns.get(key, [0, 0, 0.0])
            columns[key] = [stat[0] + len(moved), stat[1] + len(col_a), max([stat[2], *moved])]
    for key, (moved, total, worst) in columns.items():
        print(f"column {key}: {moved} of {total} cells moved, largest relative change {worst:.2e}")


if __name__ == "__main__":
    main()
