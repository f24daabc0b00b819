"""Command-line front end: load a scenario file, run analytical/simulated
sweeps, and emit plain CSV plus a JSON manifest sidecar for reproduction.

Exit codes: 0 success, 1 configuration, file or usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import errno
import json
import os
import sys
from dataclasses import fields, replace
from functools import cache, lru_cache
from itertools import chain, permutations
from operator import itemgetter

from . import __version__
from .channel import _CACHED_GEOMETRIES, Channel, make_channel
from .config import SystemConfig, load_config, validate
from .metrics import NumericalError, pep_of_event
from .ncx2 import unit_moments
from .simulate import draw_scheme, run_sweep


def _fmt(value) -> str:
    """CSV cell formatting: '.' decimal point, lowercase scientific notation,
    shortest round-trip form for floats."""
    if isinstance(value, (str, int)):
        return str(value)
    return repr(float(value))


def _check_out(args: argparse.Namespace) -> str:
    """The output path, --out or <command>.csv, unless it or its manifest path is a directory or
    lies in no writable folder (an OSError naming that file). Creates and truncates nothing."""
    path = args.out or f"{args.command}.csv"
    for name in (path, path + ".manifest.json"):
        if os.path.isdir(name) or not os.access(os.path.dirname(name) or ".", os.W_OK):
            raise OSError(errno.EACCES, "is a directory or in no writable folder", name)
    return path


def _write_run(path: str, header: str, body: list[str], cfg: SystemConfig,
               args: argparse.Namespace) -> None:
    """The CSV at path (the header line, then the runs of newline-ended lines in body) and its
    manifest sidecar of the run's settings ("draws": how simulated rows draw, or None)."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines([header + "\n", *body])
    mode = getattr(args, "mode", None)
    manifest = {
        "tool": "irs-sskrpm",
        "version": __version__,
        "command": args.command,
        "mode": mode,
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "exact_pep": bool(getattr(args, "exact_pep", False)),
        "paper_literal_args": bool(getattr(args, "paper_literal_args", False)),
        "draws": draw_scheme(args.command) if mode in ("sim", "both") else None,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load(args: argparse.Namespace) -> SystemConfig:
    given = {k: getattr(args, k) for k in ("trials", "seed") if getattr(args, k) is not None}
    return validate(replace(load_config(args.config), **given))


def _warn_coincident(cfg: SystemConfig) -> None:
    """Warn on stderr when hypotheses coincide: every command on such a config prints it."""
    k, chan = cfg.n_t * cfg.m_rpm, make_channel(cfg)
    never = k + 1 - chan.wedges[0].size  # one wedge per location
    if never:
        d = chan.distances[0]
        rest = (f"smallest nonzero squared pair distance {d[1]:.6g}" if d.size > 1
                else f"all {k} hypotheses share one location")
        print(f"warning: {never} of {k} hypotheses coincide with one of smaller index "
              f"and are never decided; {rest}", file=sys.stderr)


def _cmd_validate(args: argparse.Namespace) -> int:
    """Print the config summary, and `_warn_coincident`."""
    cfg = _load(args)
    print(f"ok: N={cfg.n_elements} n_t={cfg.n_t} n_r={cfg.n_r} m_rpm={cfg.m_rpm} "
          f"bits/use={cfg.bits_total} snr points={len(cfg.snr_grid_db)} trials={cfg.trials}")
    _warn_coincident(cfg)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """aber and capacity: sweep only the command's own quantity."""
    cfg = _load(args)
    out = _check_out(args)
    _warn_coincident(cfg)
    columns = run_sweep(cfg, args.command, mode=args.mode,
                        exact_pep=getattr(args, "exact_pep", False),
                        paper_literal_args=getattr(args, "paper_literal_args", False))
    rows = [",".join(map(_fmt, row)) + "\n" for row in zip(*columns.values())]
    _write_run(out, ",".join(columns), rows, cfg, args)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


@lru_cache(maxsize=_CACHED_GEOMETRIES)
def _pep_layout(chan: Channel) -> tuple[itemgetter, tuple[str, ...]]:
    """A channel's pep rows: the gather of each one's distance index, and a template of an SNR
    slot, then per row its key cells "event,t,t_hat,m,m_hat," and a PEP slot. Antenna errors
    are at phase 1, phase errors at antenna 1 (every antenna has the same pair distance)."""
    index, k, n_t = chan.distances[1], chan.m_rpm, chan.points.size // chan.m_rpm
    ts, ms = list(permutations(range(n_t), 2)), list(permutations(range(k), 2))
    # pair (t k + m, u k + n) at [m k + n, t n_t + u]: ssk rows read row 0, rpm rows column 0
    grid = index.reshape(n_t, k, n_t, k).transpose(1, 3, 0, 2).reshape(k * k, n_t * n_t)
    tp, mp = [t * n_t + u for t, u in ts], [m * k + n for m, n in ms]
    at = grid[0, tp].tolist() + grid[mp, 0].tolist() + grid[mp][:, tp].ravel().tolist()
    tu, mn = [f"{t + 1},{u + 1}," for t, u in ts], [f"{m + 1},{n + 1}," for m, n in ms]
    keys = ([f"ssk,{p},," for p in tu] + [f"rpm,,,{q}" for q in mn]
            + [f"joint,{p}{q}" for q in mn for p in tu])  # joint rows m-major
    # itemgetter() takes at least one index: with no rows, an empty slice
    return itemgetter(*at or [slice(0)]), ("", *chain.from_iterable((key, "") for key in keys))


def _cmd_pep(args: argparse.Namespace) -> int:
    """One unit law per SNR point and one fill of the `_pep_layout` template: each distinct PEP
    pair formatted once, ending in the next row's SNR cell, and gathered in one slice."""
    cfg = _load(args)
    out = _check_out(args)
    _warn_coincident(cfg)
    chan = make_channel(cfg)
    gather, parts = _pep_layout(chan)
    unit, d, parts = unit_moments(chan), chan.distances[0], list(parts)
    gain, body = 2.0 if args.paper_literal_args else 1.0, []
    for snr_db in cfg.snr_grid_db:
        v, parts[0] = pep_of_event(unit, gain * 10.0 ** (snr_db / 10.0) * d), f"{_fmt(snr_db)},"
        cells = map(("{!r},{!r}\n" + parts[0]).format, v.exact.tolist(), v.chiani.tolist())
        parts[2::2] = gather(list(cells))
        parts[-1] = parts[-1][:-len(parts[0])]  # no next row (with no row at all, no SNR cell)
        body.append("".join(parts))
    _write_run(out, "snr_db,event,t,t_hat,m,m_hat,pep_exact,pep_chiani", body, cfg, args)
    print(f"wrote {out} ({len(cfg.snr_grid_db) * (len(parts) // 2)} rows)")
    return 0


@cache  # one tree per process, built on the first main() call rather than at import
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


_HANDLERS = {"validate": _cmd_validate, "aber": _cmd_sweep, "capacity": _cmd_sweep, "pep": _cmd_pep}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        return _HANDLERS[args.command](args)
    except OSError as exc:  # a config or output file that cannot be read or written
        print(f"file error: {exc.filename}: {exc.strerror}" if exc.filename
              else f"file error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
