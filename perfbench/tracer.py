"""In-memory span tracer for the irs_sskrpm package, installed from outside.

`Tracer.install()` wraps every public function of the package's seven modules
and re-binds each wrapper in every package namespace that imported it (the
`from .x import f` style), so nested calls such as metrics -> ncx2,
simulate -> channel and cli -> simulate become parented spans. `uninstall()`
puts the original functions back, so untraced passes run the program
unmodified.

The Monte-Carlo chunks' random generators are handed to the program through
a counting proxy, so the Gaussians actually drawn are counted from the shapes
of the arrays returned.

A span is (function id, parent span, start, end, note). Spans and counts stay
in typed arrays while a pass runs; `layer_metrics()` derives per-layer
inclusive and self times and counts from them after the pass, outside the
timed region.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

MODULES = ("config", "channel", "airlink", "ncx2", "metrics", "simulate", "cli")


#: Arguments recorded with each call, by parameter name: laplace records its
#: transform arguments; the Monte-Carlo entry points record their config and
#: sample count, from which drawn Gaussians and pair evaluations are computed.
#: A parameter the function no longer has is recorded as None.
_NOTES = {
    "ncx2.laplace": ("a",),
    "simulate.simulate_ber": ("cfg", "trials"),
    "simulate.simulate_capacity": ("cfg", "channel_samples"),
}


def _note_taker(func, names: tuple[str, ...]):
    params = list(inspect.signature(func).parameters)
    where = [(params.index(n) if n in params else None, n) for n in names]

    def take(args, kwargs):
        return tuple(args[i] if i is not None and i < len(args) else kwargs.get(n)
                     for i, n in where)
    return take


class _CountingRng:
    """Passes every call to a numpy Generator; tallies the Gaussian draws."""

    def __init__(self, rng, tally: dict):
        self._rng = rng
        self._tally = tally

    def standard_normal(self, *args, **kwargs):
        out = self._rng.standard_normal(*args, **kwargs)
        self._tally["gaussians"] += np.size(out)
        self._tally["max_bytes"] = max(self._tally["max_bytes"], np.asarray(out).nbytes)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self, package):
        self.package = package
        # A module the package no longer has contributes no spans.
        self.modules = {name: getattr(package, name) for name in MODULES
                        if hasattr(package, name)}
        self.names: list[str] = []
        self.module_of: list[int] = []
        self._originals: dict[int, tuple[object, int]] = {}
        for mi, mod_name in enumerate(MODULES):
            mod = self.modules.get(mod_name)
            if mod is None:
                continue
            for fname, func in inspect.getmembers(mod, inspect.isfunction):
                if fname.startswith("_") or func.__module__ != mod.__name__:
                    continue
                self._originals[id(func)] = (func, len(self.names))
                self.names.append(f"{mod_name}.{fname}")
                self.module_of.append(mi)
        self._bound: list[tuple[object, str, object]] = []
        self.reset()

    # ---- recording -----------------------------------------------------

    def reset(self) -> None:
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self.rng = {"chunks": 0, "gaussians": 0, "max_bytes": 0}
        self._stack: list[int] = []

    def _wrap(self, func, fid: int):
        names = _NOTES.get(self.names[fid])
        note = _note_taker(func, names) if names else None
        fid_arr, parent, start, end, stack = self.fid, self.parent, self.start, self.end, self._stack
        notes = self.notes
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(fid_arr)
            fid_arr.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            if note is not None:
                notes[idx] = note(args, kwargs)
            stack.append(idx)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Re-bind a wrapper wherever the package holds a public function."""
        if self._bound:
            raise RuntimeError("tracer already installed")
        self.reset()
        wrappers = {key: self._wrap(func, fid) for key, (func, fid) in self._originals.items()}
        namespaces = [self.package, *self.modules.values()]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is self._originals[id(value)][0]:
                    setattr(ns, attr, wrapper)
                    self._bound.append((ns, attr, value))
        sim = self.modules.get("simulate")
        chunk_rng = getattr(sim, "_chunk_rng", None)
        if chunk_rng is not None:
            tally = self.rng

            def counting_chunk_rng(*args, **kwargs):
                tally["chunks"] += 1
                return _CountingRng(chunk_rng(*args, **kwargs), tally)

            sim._chunk_rng = counting_chunk_rng
            self._bound.append((sim, "_chunk_rng", chunk_rng))

    def uninstall(self) -> None:
        for ns, attr, value in self._bound:
            setattr(ns, attr, value)
        self._bound = []

    def span_count(self) -> int:
        return len(self.fid)

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, times relative to the first span."""
        start = np.frombuffer(self.start, dtype=float)
        t0 = start[0] if start.size else 0.0
        return {
            "fid": np.frombuffer(self.fid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": start - t0,
            "end": np.frombuffer(self.end, dtype=float) - t0,
            "names": np.array(self.names),
        }

    # ---- derivation ----------------------------------------------------

    def layer_metrics(self, ops: list[tuple[int, int, list[str]]]) -> dict[str, float]:
        """Per-layer metrics of one pass.

        ops lists (first span, end span, argv) for each CLI call of the pass,
        so time can be attributed to the operation that asked for it.
        """
        n = len(self.fid)
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        module = np.asarray(self.module_of, dtype=np.int32)[fid] if n else np.zeros(0, np.int32)

        # A span is its module's top span when no ancestor belongs to the same
        # module; summing those gives the module's busy time without double
        # counting calls between its own functions.
        mask = [0] * n
        par = parent.tolist()
        mod = module.tolist()
        for i in range(n):
            p = par[i]
            if p >= 0:
                mask[i] = mask[p] | (1 << mod[p])
        bit = np.left_shift(1, module.astype(np.int64))
        top_in_module = (np.asarray(mask, dtype=np.int64) & bit) == 0

        op_of = np.full(n, -1, dtype=np.int32)
        for k, (lo, hi, _argv) in enumerate(ops):
            op_of[lo:hi] = k
        name_id = {name: i for i, name in enumerate(self.names)}

        def sel(*names: str) -> np.ndarray:
            ids = [name_id[x] for x in names if x in name_id]
            return np.isin(fid, ids)

        def mod_sel(mod_name: str) -> np.ndarray:
            return module == MODULES.index(mod_name)

        def op_sel(predicate) -> np.ndarray:
            keep = [k for k, (_lo, _hi, argv) in enumerate(ops) if predicate(argv)]
            return np.isin(op_of, keep)

        out: dict[str, float] = {}
        for mod_name in ("config", "channel"):
            m = mod_sel(mod_name)
            out[f"{mod_name}.calls"] = float(m.sum())
            out[f"{mod_name}.s"] = float(dur[m & top_in_module].sum())
        out["channel.build_h.calls"] = float(sel("channel.build_h").sum())
        out["channel.build_g_bar.calls"] = float(sel("channel.build_g_bar").sum())
        out["airlink.rpm_phases.calls"] = float(sel("airlink.rpm_phases").sum())

        moments = sel("ncx2.moments_ssk", "ncx2.moments_rpm", "ncx2.moments_joint")
        lap = sel("ncx2.laplace")
        lap_idx = np.flatnonzero(lap)
        lap_args = np.array([np.size(self.notes[i][0]) for i in lap_idx.tolist()], dtype=float)
        out["ncx2.moments.calls"] = float(moments.sum())
        out["ncx2.moments.s"] = float(dur[moments].sum())
        out["ncx2.laplace.calls"] = float(lap.sum())
        out["ncx2.laplace.args"] = float(lap_args.sum())
        out["ncx2.laplace.s"] = float(dur[lap].sum())

        pep = sel("metrics.pep_of_event")
        aber_u = sel("metrics.aber_union")
        cap_c = sel("metrics.capacity_closed")
        out["metrics.pep_of_event.calls"] = float(pep.sum())
        out["metrics.pep_of_event.self_s"] = float(self_t[pep].sum())
        out["metrics.aber_union.s"] = float(dur[aber_u].sum())
        out["metrics.capacity_closed.s"] = float(dur[cap_c].sum())
        is_aber = op_sel(lambda argv: argv[0] == "aber")
        is_cap = op_sel(lambda argv: argv[0] == "capacity")
        out["metrics.unrequested_s"] = float(dur[cap_c & is_aber].sum() + dur[aber_u & is_cap].sum())

        # Useful transform arguments: a PEP caller reads the Chiani value
        # (the scalar-argument evaluations), the exact value (the larger
        # Craig evaluation; the smaller one only checks convergence) or both
        # (the pep table).
        lap_parent = parent[lap_idx]
        under_pep = (lap_parent >= 0) & pep[np.maximum(lap_parent, 0)]
        lap_idx, lap_args = lap_idx[under_pep], lap_args[under_pep]
        owner = parent[lap_idx]
        scalar = lap_args == 1
        chiani_args = np.bincount(owner[scalar], weights=lap_args[scalar], minlength=n)
        craig_max = np.zeros(n)
        np.maximum.at(craig_max, owner[~scalar], lap_args[~scalar])
        reads_chiani = op_sel(lambda argv: argv[0] == "pep" or "--exact-pep" not in argv)
        reads_exact = op_sel(lambda argv: argv[0] == "pep" or "--exact-pep" in argv)
        useful = np.where(reads_chiani, chiani_args, 0.0) + np.where(reads_exact, craig_max, 0.0)
        evaluated = lap_args.sum()
        out["metrics.pep_useful_args_ratio"] = float(useful[pep].sum() / evaluated) if evaluated else 1.0
        aber_eval = lap_args[is_aber[lap_idx]].sum()
        out["metrics.pep_useful_args_ratio.aber_op"] = (
            float(useful[pep & is_aber].sum() / aber_eval) if aber_eval else 1.0)

        ber = sel("simulate.simulate_ber")
        cap = sel("simulate.simulate_capacity")
        out["simulate.ber.s"] = float(dur[ber].sum())
        out["simulate.capacity.s"] = float(dur[cap].sum())
        unrequested = float(dur[cap & is_aber].sum() + dur[ber & is_cap].sum())
        mc_total = out["simulate.ber.s"] + out["simulate.capacity.s"]
        out["simulate.unrequested_s"] = unrequested
        out["simulate.useful_share"] = (mc_total - unrequested) / mc_total if mc_total else 1.0

        # pair_evals is computed: the capacity statistic is evaluated for
        # every ordered pair whose antenna and phase indices both differ.
        trials = samples = pair_evals = 0
        for i in np.flatnonzero(ber | cap).tolist():
            cfg, count = self.notes[i]
            if cfg is None or count is None:
                continue
            if ber[i]:
                trials += count
            else:
                samples += count
                pair_evals += count * (cfg.n_t * (cfg.n_t - 1) * cfg.m_rpm * (cfg.m_rpm - 1))
        out["simulate.ber.trials"] = float(trials)
        out["simulate.capacity.samples"] = float(samples)
        out["simulate.chunks"] = float(self.rng["chunks"])
        out["simulate.gaussians_drawn"] = float(self.rng["gaussians"])
        out["simulate.capacity.pair_evals"] = float(pair_evals)
        out["simulate.chunk_bytes"] = float(self.rng["max_bytes"])

        out["cli.self_s"] = float(self_t[mod_sel("cli")].sum())
        out["trace.spans"] = float(n)
        return out
