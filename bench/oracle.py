"""Reference values for the benchmark's checks, built without maxbw's math.

The channel power X has unit mean. Rates follow the pilot-assisted model:
with pilot count n in a coherence block of Lc symbols, alpha = n/Lc,
rho = Pr/N0 / W and the effective SNR s = n*rho^2 / (1 + (1 + n)*rho),

    rate = (1 - alpha) * W * E[ln(1 + s X)] * log2(e).

Rayleigh expectations use the exact forms E[ln(1+sX)] = e^{1/s} E1(1/s) and
E[1/(1+sX)] = e^{1/s} E1(1/s) / s. Deterministic and tabulated models are
summed exactly over their atoms. Run this file to check the kernel against
50-digit mpmath for s from 1e-6 to 1e6.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import exp1

LOG2E = 1.0 / math.log(2.0)
_CF_FROM = 50.0
_CF_TERMS = 40


def scaled_e1(x):
    """e^x * E1(x) for x > 0, elementwise.

    Below x = 50 the product is formed directly; above it exp(x) would
    overflow long before E1 underflows, so the continued fraction
    1/(x+1- 1/(x+3- 4/(x+5- ...))) is summed backwards instead.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= _CF_FROM
    out[small] = np.exp(x[small]) * exp1(x[small])
    xl = x[~small]
    f = xl + (2 * _CF_TERMS + 1)
    for k in range(_CF_TERMS, 0, -1):
        f = xl + (2 * k - 1) - k * k / f
    out[~small] = 1.0 / f
    return out


class Fading:
    """A unit-mean channel power law: 'rayleigh', 'deterministic' or atoms."""

    def __init__(self, kind, atoms=()):
        self.kind = kind
        if kind == "tabulated":
            values = np.array([v for v, _ in atoms], dtype=float)
            weights = np.array([w for _, w in atoms], dtype=float)
            weights = weights / weights.sum()
            self.values = values / float(weights @ values)
            self.weights = weights
        elif kind not in ("rayleigh", "deterministic"):
            raise ValueError(f"unknown fading kind {kind!r}")

    def expected_log1p(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "deterministic":
            return np.log1p(s)
        if self.kind == "tabulated":
            return np.log1p(np.multiply.outer(s, self.values)) @ self.weights
        out = np.zeros_like(s)
        pos = s > 0.0
        out[pos] = scaled_e1(1.0 / s[pos])
        return out

    def expected_inv1p(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "deterministic":
            return 1.0 / (1.0 + s)
        if self.kind == "tabulated":
            return (1.0 / (1.0 + np.multiply.outer(s, self.values))) @ self.weights
        out = np.ones_like(s)
        pos = s > 0.0
        x = 1.0 / s[pos]
        out[pos] = x * scaled_e1(x)
        return out


def effective_snr(rho, pilots):
    rho = np.asarray(rho, dtype=float)
    return pilots * rho * rho / (1.0 + (1.0 + pilots) * rho)


def lattice_rate(fading, pd_hz, w_hz, pilots, lc):
    """Rate in bit/s at bandwidth w_hz with an integer pilot count."""
    snr = effective_snr(pd_hz / np.asarray(w_hz, dtype=float), np.asarray(pilots, dtype=float))
    return (1.0 - np.asarray(pilots) / lc) * w_hz * fading.expected_log1p(snr) * LOG2E


def residuals(fading, rho, alpha, lc):
    """The two stationarity residuals at a continuous (rho, alpha).

    r_w is d(rate)/dW divided by (1 - alpha)*log2(e): with d = 1 + (1 +
    alpha*Lc)*rho, W ds/dW = -s (1 + d)/d, so
    r_w = E[ln(1+sX)] - (1+d)/d * (1 - E[1/(1+sX)]).
    r_alpha is the pilot condition with E[ln(1+sX)] eliminated through
    r_w = 0: rho*(alpha^2 Lc + 2 alpha - 1) - (1 - 3 alpha).
    """
    al = alpha * lc
    d = 1.0 + (1.0 + al) * rho
    snr = al * rho * rho / d
    r_w = float(fading.expected_log1p(snr) - (1.0 + d) / d * (1.0 - fading.expected_inv1p(snr)))
    r_alpha = rho * (alpha * alpha * lc + 2.0 * alpha - 1.0) - (1.0 - 3.0 * alpha)
    return r_w, r_alpha


def neighbour_gain(fading, pd_hz, bc_hz, m, n, lc, rate):
    """Largest relative gain of a 3x3 lattice neighbour over `rate`."""
    n_hi = max(1, math.ceil(lc) - 1)
    ms, ns = np.meshgrid(np.arange(m - 1, m + 2), np.arange(n - 1, n + 2))
    keep = (ms >= 1) & (ns >= 1) & (ns <= n_hi)
    rates = lattice_rate(fading, pd_hz, ms[keep] * bc_hz, ns[keep], lc)
    return float(rates.max() / rate - 1.0)


def self_check():
    """Largest relative error of the Rayleigh kernel against 50-digit mpmath."""
    import mpmath as mp

    mp.mp.dps = 50
    s_grid = np.geomspace(1e-6, 1e6, 121)
    ray = Fading("rayleigh")
    got_log = ray.expected_log1p(s_grid)
    got_inv = ray.expected_inv1p(s_grid)
    worst = 0.0
    for s, g_log, g_inv in zip(s_grid, got_log, got_inv):
        x = 1 / mp.mpf(float(s))
        ref = mp.exp(x) * mp.e1(x)
        worst = max(worst, abs(float((g_log - ref) / ref)),
                    abs(float((g_inv - ref * x) / (ref * x))))
    return worst


if __name__ == "__main__":
    err = self_check()
    print(f"oracle Rayleigh kernel: max relative error {err:.3e} for s in [1e-6, 1e6]")
    raise SystemExit(0 if err < 1e-13 else 1)
