"""Time two source trees against each other with the benchmark harness, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --seeds 3601 [--pairs 10] \\
        [--seconds 45] [--claim WORKLOAD.METRIC] [--json BENCH.json] [--record TEXT]

A tree is a folder or a git revision of this checkout, unpacked with `git archive` into a
fresh temporary folder as `compare_outputs.py` unpacks it (a folder runs as it stands, with
any `__pycache__` in it). Every workload of the change tree's BENCHMARK.json is run; pair i
of a workload runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
of each tree, one fresh process each in the tree's own folder, at seed S = --seeds + i; on
odd seeds the parent runs first, on even seeds the change. Each run is the harness's last
stdout line (its JSON result).

For each workload and end-to-end metric of the change tree's BENCHMARK.json the script
prints each side's median [q1, q3] (inclusive quartiles), the pairs in which the change is
better, and the gap of the medians against the parent's interquartile range (IQR), then
the failed and attempted operations. --json writes `pairs`, `summary` and `claim` (with
the command, seeds and machine) in the layout of the BENCH_*.json records. The claim is
that, over at least 10 pairs, --claim's metric is better in at least 9 of each 10, the gap
of the medians exceeds the parent's IQR, and the change fails no more operations than the
parent; the script says whether it holds and, if not, which rule fails. Standard library
only (and git and tar to unpack a revision).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import unpack  # noqa: E402

SIDES = ("parent", "change")


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The harness's JSON result for one workload and seed in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles, the pairs the change wins, the relative
    change of the medians and the gap of the medians over the parent's IQR."""
    out = {}
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        won = sum(sign * (p - c) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        out[name] = {**stats, f"change_{spec['better']}_in_pairs": won,
                     "relative_change_of_median": change / parent - 1.0,
                     # > 0: the change is better; None where the parent's runs did not spread
                     "median_gap_over_parent_iqr": sign * (parent - change) / iqr if iqr else None}
    for key in ("failed", "attempted", "correct"):
        reduce = all if key == "correct" else sum
        out[key] = {side: reduce(p[side][key] for p in pairs) for side in SIDES}
    out["pairs"] = len(pairs)
    return out


def claim_text(summary: dict, workload: str, metric: dict) -> str:
    """Whether metric of workload is better in at least 9 of each 10 of at least 10 pairs, by
    more than the parent's IQR on the medians, with no more failed operations than the
    parent: the numbers that decide it, and each rule that fails."""
    s, name, unit = summary[workload], metric["name"], metric["unit"]
    m, n, failed = s[name], s["pairs"], s["failed"]
    won, need = m[f"change_{metric['better']}_in_pairs"], math.ceil(0.9 * s["pairs"])
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    ratio = m["median_gap_over_parent_iqr"]
    fails = [why for broken, why in (
        (n < 10, f"{n} pairs, fewer than 10"),
        (won < need, f"{metric['better']} in {won} of {n} pairs, fewer than {need}"),
        (ratio is None or ratio <= 1.0, "the gap of the medians does not exceed the parent's IQR"),
        (failed["change"] > failed["parent"],
         f"{failed['change']} failed operations, more than the parent's {failed['parent']}"),
    ) if broken]
    return (f"{workload} {name} {metric['better']} than the parent in at least {need} of {n} "
            f"pairs and by more than the parent's IQR on the medians: "
            f"{m['parent']['median']:.4g} -> {m['change']['median']:.4g} {unit} "
            f"({m['relative_change_of_median']:+.1%}), {metric['better']} in {won} of {n} pairs; "
            f"the gap of the medians is {_ratio(ratio)} times the parent's IQR ({iqr:.3g} {unit}); "
            f"failed operations {failed['parent']} -> {failed['change']}: "
            + ("holds" if not fails else "does not hold (" + "; ".join(fails) + ")"))


def _ratio(ratio: float | None) -> str:
    return "n/a" if ratio is None else f"{ratio:.2f}"


def machine() -> str:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return (f"{os.cpu_count()}-CPU {platform.machine()}, Python {platform.python_version()}, "
            f"numpy {numpy or 'not found'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="folder or git revision")
    parser.add_argument("change", help="folder or git revision")
    parser.add_argument("--seeds", type=int, required=True, help="the first pair's seed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--claim", default=None, help="WORKLOAD.METRIC to claim a gain on")
    parser.add_argument("--json", type=Path, default=None, help="write the record here")
    parser.add_argument("--record", default="", help="what the change is, for the record")
    args = parser.parse_args()
    out = Path(tempfile.mkdtemp(prefix="bench_pairs_")).resolve()
    trees = dict(zip(SIDES, (unpack(tree, out / f"{side}_tree").resolve()
                             for side, tree in zip(SIDES, (args.parent, args.change)))))
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    pairs = []
    for workload in workloads:
        for seed in range(args.seeds, args.seeds + args.pairs):
            pair = {"workload": workload, "seed": seed, "first": SIDES[seed % 2 == 0]}
            for side in (SIDES if seed % 2 else SIDES[::-1]):
                pair[side] = run(trees[side], workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics']['wall_ref_s']['value'] * 1e3:.3f} ms"
                for side in SIDES), flush=True)
    summary = {w: summarize([p for p in pairs if p["workload"] == w], spec["end_to_end"])
               for w in workloads}
    for workload, s in summary.items():
        print(f"\n{workload} ({s['pairs']} pairs)")
        for metric in spec["end_to_end"]:
            m, better = s[metric["name"]], metric["better"]
            print(f"  {metric['name']:12s}" + "".join(
                f"  {side} {m[side]['median']:.6g} [{m[side]['q1']:.6g}, {m[side]['q3']:.6g}]"
                for side in SIDES) + f"  change {better} in {m[f'change_{better}_in_pairs']}"
                f" of {s['pairs']}, {m['relative_change_of_median']:+.2%}, "
                f"gap/IQR {_ratio(m['median_gap_over_parent_iqr'])}")
        print(f"  failed {s['failed']}, attempted {s['attempted']}, correct {s['correct']}")
    claim = None
    if args.claim:
        workload, name = args.claim.split(".", 1)
        claim = claim_text(summary, workload, next(m for m in spec["end_to_end"]
                                                  if m["name"] == name))
        print(f"\nclaim: {claim}")
    if args.json:
        command = (f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0")
        record = {"record": args.record, "parent": args.parent, "change": args.change,
                  "command": command,
                  "machine": machine(),
                  "seeds": f"{args.seeds}-{args.seeds + args.pairs - 1}; odd seeds run the "
                           "parent first", "summary": summary, "claim": claim, "pairs": pairs}
        args.json.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
