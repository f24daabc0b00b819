"""Command-line front end: load a scenario file, run analytical/simulated
sweeps, and emit plain CSV plus a JSON manifest sidecar for reproduction.

Exit codes: 0 success, 1 configuration/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import asdict, replace
from itertools import permutations

from . import __version__
from .channel import make_channel
from .config import ConfigError, SystemConfig, load_config, validate
from .metrics import NumericalError, pep_of_event
from .ncx2 import unit_moments
from .simulate import run_sweep, sweep_workers


def _fmt(value) -> str:
    """CSV cell formatting: '.' decimal point, lowercase scientific notation,
    shortest round-trip form for floats."""
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return repr(float(value))


def _write_csv(path: str, header: list[str], lines: list[str]) -> None:
    """Write the header and the already formatted data lines."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def _write_manifest(path: str, cfg: SystemConfig, command: str, mode: str | None,
                    args: argparse.Namespace, workers: int) -> None:
    manifest = {
        "tool": "irs-sskrpm",
        "version": __version__,
        "command": command,
        "mode": mode,
        "config": asdict(cfg),
        "exact_pep": bool(getattr(args, "exact_pep", False)),
        "paper_literal_args": bool(getattr(args, "paper_literal_args", False)),
        "workers": workers,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(args: argparse.Namespace) -> SystemConfig:
    cfg = load_config(args.config)
    overrides = {}
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = replace(cfg, **overrides)
    return validate(cfg)


def _cmd_validate(args: argparse.Namespace) -> int:
    """Print the config summary; warn on stderr when hypotheses coincide."""
    cfg = _load(args)
    print(f"ok: N={cfg.n_elements} n_t={cfg.n_t} n_r={cfg.n_r} m_rpm={cfg.m_rpm} "
          f"bits/use={cfg.bits_total} snr points={len(cfg.snr_grid_db)} trials={cfg.trials}")
    k = cfg.n_t * cfg.m_rpm
    never = k + 1 - make_channel(cfg).wedges()[0].size  # one wedge per location
    if never:
        print(f"warning: {never} of {k} hypotheses coincide with one of smaller index "
              "and are never decided; minimum squared pair distance 0.0", file=sys.stderr)
    return 0


#: CSV columns after snr_db of each sweep command, (analytic, sim); "samples"
#: is the per-point trial count under the capacity command's name for it.
_SWEEP_COLUMNS = {"aber": (["aber_analytical"], ["aber_sim", "aber_stderr", "trials"]),
                  "capacity": (["cap_closed"], ["cap_sim", "samples"])}


def _cmd_sweep(args: argparse.Namespace) -> int:
    """aber and capacity: sweep only the command's own quantity."""
    cfg = _load(args)
    workers = sweep_workers(cfg, args.mode)
    records = run_sweep(cfg, args.command, mode=args.mode,
                        exact_pep=getattr(args, "exact_pep", False),
                        paper_literal_args=getattr(args, "paper_literal_args", False),
                        workers=workers)
    analytic, sim = _SWEEP_COLUMNS[args.command]
    header = ["snr_db", *(analytic if args.mode != "sim" else []),
              *(sim if args.mode != "analytic" else [])]
    fields = ["trials" if col == "samples" else col for col in header]
    rows = [",".join(_fmt(getattr(r, f)) for f in fields) for r in records]
    out = args.out or f"{args.command}.csv"
    _write_csv(out, header, rows)
    _write_manifest(out + ".manifest.json", cfg, args.command, args.mode, args, workers)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _pep_events(n_t: int, m_rpm: int) -> list[tuple[str, int, int]]:
    """The pep rows of one SNR point: key cells "event,t,t_hat,m,m_hat" and the
    flat t-major pair (i, j) of the event. Antenna errors are at phase 1, phase
    errors at antenna 1 (every antenna has the same pair distance), and joint
    errors m-major."""
    ts, ms = list(permutations(range(n_t), 2)), list(permutations(range(m_rpm), 2))
    return ([(f"ssk,{t + 1},{u + 1},,", t * m_rpm, u * m_rpm) for t, u in ts]
            + [(f"rpm,,,{m + 1},{n + 1}", m, n) for m, n in ms]
            + [(f"joint,{t + 1},{u + 1},{m + 1},{n + 1}", t * m_rpm + m, u * m_rpm + n)
               for m, n in ms for t, u in ts])


def _cmd_pep(args: argparse.Namespace) -> int:
    """Each distinct PEP is formatted once per SNR point; a row reads it
    through its event's entry of the `Channel.distances()` index."""
    cfg = _load(args)
    chan = make_channel(cfg)
    unit, (d, index) = unit_moments(chan), chan.distances()
    gain = 2.0 if args.paper_literal_args else 1.0
    pair = index.tolist()
    events = [(key, pair[i][j]) for key, i, j in _pep_events(cfg.n_t, cfg.m_rpm)]
    header = ["snr_db", "event", "t", "t_hat", "m", "m_hat", "pep_exact", "pep_chiani"]
    rows: list[str] = []
    for snr_db in cfg.snr_grid_db:
        v = pep_of_event(unit, gain * 10.0 ** (snr_db / 10.0) * d)
        cells = [f"{e!r},{c!r}" for e, c in zip(v.exact.tolist(), v.chiani.tolist())]
        snr = _fmt(snr_db)
        rows.extend(f"{snr},{key},{cells[k]}" for key, k in events)
    out = args.out or "pep.csv"
    _write_csv(out, header, rows)
    _write_manifest(out + ".manifest.json", cfg, "pep", None, args, 1)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irs-sskrpm",
        description="Analytical and Monte-Carlo performance of an IRS-assisted "
                    "SSK + reflection-phase-modulation link over Rician fading.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="scenario file (key=value)")
        p.add_argument("--trials", type=int, default=None, help="override trials per point")
        p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        return p

    aber = command("aber", "ABER sweep over the SNR grid")
    capacity = command("capacity", "ergodic-capacity sweep")
    pep = command("pep", "per-event PEP table")
    command("validate", "check a scenario file")
    for p in (aber, capacity, pep):
        p.add_argument("--out", default=None, help="output CSV path")
    for p in (aber, capacity):
        p.add_argument("--mode", choices=["analytic", "sim", "both"], default="both")
    aber.add_argument("--exact-pep", dest="exact_pep", action="store_true",
                      help="use the Craig integral instead of the Chiani closed form")
    for p in (aber, pep):
        p.add_argument("--paper-literal-args", dest="paper_literal_args", action="store_true",
                       help="evaluate the PEPs at 2*P_s (doubled transform arguments)")
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "aber": _cmd_sweep,
    "capacity": _cmd_sweep,
    "pep": _cmd_pep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
