"""Benchmark of the irs-sskrpm command line.

    python3 perfbench/run.py --workload sim_aber_n32 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

A closed loop with one client: this process calls `irs_sskrpm.cli.main`
in-process with the workload's operations back to back (one pass), pass
after pass until --seconds have elapsed, with one worker
(IRS_SSKRPM_THREADS=1) and one BLAS thread. Before the loop, `setup_s` is
timed on fresh interpreters that import the CLI and validate the workload's
scenario. Every operation's output is checked (see workloads.py); an
operation that returns nonzero, raises or fails its check counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes. `wall_ref_s` is the median pass time rescaled to a reference machine
speed, measured by a fixed kernel timed between operations (see
`calibration_seconds`); the raw median is printed as `wall_s`. --trace 1 alternates untraced and traced passes (tracer.py) and
reports the per-layer metrics. The last stdout line is the JSON result;
details, run conditions and spans are written under perfbench/out/.
"""

from __future__ import annotations

import os

# One worker and one BLAS thread, set before numpy is first imported.
THREAD_ENV = {"IRS_SSKRPM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_LAUNCHES = 5
SETUP_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _import_package():
    if not (SRC / "irs_sskrpm" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'irs_sskrpm'}")
    sys.path.insert(0, str(SRC))
    import irs_sskrpm
    import irs_sskrpm.cli  # noqa: F401  (loads every module the tracer wraps)
    return irs_sskrpm


# ---- set-up: fresh interpreters --------------------------------------------

def parse_importtime(stderr: str) -> dict[str, float]:
    """Self import time, in seconds, of numpy, scipy and the package,
    from `python -X importtime` output."""
    groups = {"setup.import_numpy_s": "numpy", "setup.import_scipy_s": "scipy",
              "setup.import_pkg_self_s": "irs_sskrpm"}
    out = dict.fromkeys(groups, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[2].strip()
        top = name.split(".", 1)[0]
        for metric, pkg in groups.items():
            if top == pkg:
                out[metric] += int(fields[0]) * 1e-6
    return out


def time_setup(config: Path, launches: int, importtime: bool):
    """Wall time of `python -m irs_sskrpm.cli validate --config ...` on a
    fresh interpreter; returns (times, import-time breakdowns, problems)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-m", "irs_sskrpm.cli", "validate", "--config", str(config)]
    times, layers, problems = [], [], []
    for _ in range(launches):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not proc.stdout.startswith("ok:"):
            problems.append(f"validate exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        if importtime:
            layers.append(parse_importtime(proc.stderr))
    return times, layers, problems


# ---- machine speed -----------------------------------------------------------

#: Median time of `calibration_seconds()` on the machine the bounds were set
#: on (2-vCPU Xeon VM, one BLAS thread). `wall_ref_s` is pass time rescaled
#: to that speed.
CAL_REF_S = 0.05
CAL_REPEATS = 3
_CAL_INPUT = np.random.default_rng(0).standard_normal((256, 256))


def calibration_seconds() -> float:
    """Median time of a fixed numpy kernel (complex exponentials and a
    256x256 complex product, the kind of work the program does) over
    CAL_REPEATS runs: the machine's speed right now.

    The host this benchmark was built on is shared, and its speed drifts
    by +-30% over tens of seconds to minutes, longer than a run, so
    medians of raw pass times differ that much between runs. Timing this
    kernel before and after each operation and dividing the operation's
    time by it halved the run-to-run spread. The kernel is the
    benchmark's own code, so a change to the program cannot move it.
    """
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        for _ in range(6):
            np.abs(np.exp(1j * _CAL_INPUT) @ np.exp(-1j * _CAL_INPUT)).sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---- one pass ----------------------------------------------------------------

def run_pass(pkg, plan, tracer=None):
    """Run the plan's operations back to back; returns (seconds, seconds at
    the reference speed, per-op problem lists, per-op span ranges, bytes
    written). Only the CLI calls are inside the timed region; the machine
    speed is measured between them, and each operation's time is rescaled
    by the mean of the speeds measured just before and just after it."""
    from workloads import read_csv
    for op in plan.ops:
        for path in (op.out, Path(str(op.out) + ".manifest.json")):
            path.unlink(missing_ok=True)
    codes, ranges = [], []
    sink = io.StringIO()
    seconds = ref_seconds = 0.0
    cal = calibration_seconds()
    for op in plan.ops:
        lo = tracer.span_count() if tracer else 0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                codes.append(pkg.cli.main(list(op.argv)))
        except Exception as exc:  # an operation that raises is a failed operation
            codes.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        ranges.append((lo, tracer.span_count() if tracer else 0, op.argv))
        cal_before, cal = cal, calibration_seconds()
        seconds += elapsed
        ref_seconds += elapsed * CAL_REF_S / (0.5 * (cal_before + cal))

    problems, written = [], 0
    for op, code in zip(plan.ops, codes):
        if code != 0:
            problems.append([f"{op.argv[0]} returned {code!r}"])
            continue
        try:
            rows = read_csv(op.out)
            written += op.out.stat().st_size + Path(str(op.out) + ".manifest.json").stat().st_size
        except (OSError, ValueError, KeyError) as exc:
            problems.append([f"{op.argv[0]}: unreadable output: {exc}"])
            continue
        problems.append([f"{op.argv[0]}: {p}" for p in op.check(rows)])
    return seconds, ref_seconds, problems, ranges, written


# ---- conditions --------------------------------------------------------------

def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def conditions(pkg, seed: int) -> dict:
    import scipy
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "package": pkg.__version__,
        "git_revision": _git_revision(),
        "workers": pkg.simulate.resolve_workers(None),
        "thread_env": dict(THREAD_ENV),
        "seed": seed,
    }


# ---- a run -------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """Run one workload; returns the result plus details for the report."""
    from workloads import WORKLOADS
    pkg = _import_package()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{os.getpid()}"
    work.mkdir()
    try:
        plan = WORKLOADS[workload](seed, work, quick)
        launches = 1 if quick else SETUP_LAUNCHES
        setup_times, setup_layers, setup_problems = time_setup(plan.setup_config, launches, trace)
        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer(pkg)

        untraced, traced, raw, layer_runs = [], [], [], []
        problems: list[str] = list(setup_problems)
        attempted, failed = launches, len(setup_problems)
        spans = None
        deadline = time.perf_counter() + seconds
        while True:
            use_tracer = trace and len(untraced) > len(traced)
            if use_tracer:
                tracer.install()
            t0 = time.perf_counter()
            try:
                secs, ref_secs, op_problems, ranges, nbytes = run_pass(
                    pkg, plan, tracer if use_tracer else None)
            finally:
                if use_tracer:
                    tracer.uninstall()
            pass_s = time.perf_counter() - t0
            if use_tracer:
                traced.append(ref_secs)
                layer = tracer.layer_metrics(ranges)
                layer["cli.bytes_written"] = float(nbytes)
                layer_runs.append(layer)
                spans = tracer.spans()
            else:
                untraced.append(ref_secs)
                raw.append(secs)
            attempted += len(op_problems)
            failed += sum(1 for p in op_problems if p)
            problems.extend(p for op in op_problems for p in op)
            # Stop when the next pass would end more than half a pass past
            # the deadline, so a run lasts about --seconds on average.
            done = not trace or (untraced and traced)
            if done and time.perf_counter() + 0.5 * pass_s >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(untraced)
    result = {
        "workload": workload,
        "quick": quick,
        "conditions": conditions(pkg, seed),
        "info": plan.info,
        "setup_times_s": setup_times,
        "pass_times_s": raw,
        "ref_pass_times_s": untraced,
        "traced_ref_pass_times_s": traced,
        "problems": problems[:50],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "setup_s": statistics.median(setup_times),
            "wall_ref_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "extra": {
            "wall_s": statistics.median(raw),
            "mc_samples_per_s": plan.mc_samples / wall,
            "analytic_points_per_s": 0.0 if plan.mc_samples else plan.points / wall,
            "failed_frac": failed / attempted,
        },
    }
    if trace:
        # Counts repeat in every traced pass, so the median is the count.
        per_layer = {key: statistics.median(run[key] for run in layer_runs)
                     for key in layer_runs[-1]}
        for key in setup_layers[0]:
            per_layer[key] = statistics.median(lay[key] for lay in setup_layers)
        per_layer["trace.overhead_s"] = statistics.median(traced) - wall
        result["per_layer"] = per_layer
        result["spans"] = spans
    return result


def _emit(result: dict, trace: bool) -> dict:
    """Print the report lines and return the contract's JSON object."""
    e2e_units, layer_units = _units()
    source, units = (result["per_layer"], layer_units) if trace else (result["e2e"], e2e_units)
    missing = sorted(set(units) - set(source))
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    print(f"workload {result['workload']}  seed {result['conditions']['seed']}  "
          f"passes {len(result['pass_times_s'])} untraced, "
          f"{len(result['traced_ref_pass_times_s'])} traced")
    print("conditions " + json.dumps(result["conditions"], sort_keys=True))
    print("info " + json.dumps(result["info"], sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:40s} {source[name]:.6g} {unit}")
    if not trace:
        extra = result["extra"]
        print(f"  {'wall_s (not rescaled)':40s} {extra['wall_s']:.6g} s")
        if extra["mc_samples_per_s"]:
            print(f"  {'mc_samples_per_s':40s} {extra['mc_samples_per_s']:.6g} 1/s")
        if extra["analytic_points_per_s"]:
            print(f"  {'analytic_points_per_s':40s} {extra['analytic_points_per_s']:.6g} 1/s")
        print(f"  {'failed_frac':40s} {extra['failed_frac']:.6g} ratio")
    for problem in result["problems"][:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": source[name], "unit": unit} for name, unit in units.items()},
    }


def _save(result: dict, final: dict, seed: int, trace: bool) -> None:
    record = {k: v for k, v in result.items() if k != "spans"}
    record["result"] = final
    stem = f"{result['workload']}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if result.get("spans") is not None:
        np.savez(OUT / f"{result['workload']}.spans.npz", **result["spans"])


def _run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny trial counts and grids, for testing the benchmark itself")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return _run_all(args)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
        final = _emit(result, bool(args.trace))
        _save(result, final, args.seed, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
