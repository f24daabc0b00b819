"""Pairwise error probabilities of the three event kinds across SNR:
exact Craig-integral values next to the Chiani closed form, and how the
union bound on the average bit error rate is assembled from them.

Every event i -> j between flat t-major hypothesis indices has the PEP of
the one unit law (`unit_moments`) at the effective power P_s*|c_i - c_j|^2,
with the distance read from the pair table of `Channel.distances`.

Run: python demos/pep_anatomy.py
"""

from irs_sskrpm import (SystemConfig, aber_union_terms, make_channel, pep_of_event,
                        unit_moments, validate)

cfg = validate(SystemConfig())
chan = make_channel(cfg)
unit = unit_moments(chan)
d, index = chan.distances
# antenna error 1 -> 2, phase error 1 -> 2, and both at once
events = [(0, cfg.m_rpm), (0, 1), (0, cfg.m_rpm + 1)]
dist = [d[index[i, j]] for i, j in events]

print(f"{'SNR dB':>6} | {'ssk exact':>10} {'chiani':>10} | {'rpm exact':>10} "
      f"{'chiani':>10} | {'joint exact':>11} {'chiani':>10}")
for snr in range(0, 41, 5):
    p_s = 10 ** (snr / 10)
    s, r, j = (pep_of_event(unit, p_s * d) for d in dist)
    print(f"{snr:6d} | {s.exact:10.3e} {s.chiani:10.3e} | {r.exact:10.3e} "
          f"{r.chiani:10.3e} | {j.exact:11.3e} {j.chiani:10.3e}")

print("\nunion-bound composition (exact PEP):")
print(f"{'SNR dB':>6} | {'antenna':>10} {'phase':>10} {'joint':>10} {'total':>10}")
for snr in range(10, 41, 10):
    p_s = 10 ** (snr / 10)
    t1, t2, t3 = aber_union_terms(chan, cfg, p_s, exact_pep=True)
    print(f"{snr:6d} | {t1:10.3e} {t2:10.3e} {t3:10.3e} {t1 + t2 + t3:10.3e}")
