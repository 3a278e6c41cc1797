"""Reference transmission schemes the pilot-assisted optimizer is judged against.

Rates are bits/second given pd = Pr/N0 in hertz; spectral efficiencies are
bits/s/Hz. The full-CSIR infinite-bandwidth rate pd*log2(e) upper-bounds
every scheme here.
"""

from __future__ import annotations

import math
import warnings

from . import core
from .core import LOG2E
from .fading import FadingModel

CSIR_INFINITE_BW = "csir-infinite-bw"
PEAKY_FSK = "peaky-fsk"
NON_PEAKY_MI = "non-peaky-mi"


def csir_rate(pd, w_hz=None, fading: FadingModel = None) -> float:
    """Rate with a genie-provided channel estimate.

    w_hz None (or inf) gives the wideband limit pd*log2(e); a finite
    bandwidth gives W*E[log2(1 + (pd/W)*X)], strictly increasing in W with
    the wideband limit as supremum.
    """
    pd_hz = core._pd_hz(pd)
    if w_hz is None or w_hz == math.inf:
        return pd_hz * LOG2E
    if not w_hz > 0.0:
        raise ValueError(f"bandwidth must be positive, got {w_hz}")
    if fading is None:
        raise ValueError("finite-bandwidth CSIR rate needs a fading model")
    return w_hz * fading.expected_log1p(pd_hz / w_hz) * LOG2E


def peaky_fsk_rate(pd, lc: float) -> float:
    """Duty-cycled wideband FSK: (1 - 1/Lc) * pd * log2(e).

    The only non-coherent scheme here whose penalty decays as fast as 1/Lc.
    """
    pd_hz = core._pd_hz(pd)
    if not lc >= 1.0:
        raise ValueError(f"coherence length must be >= 1, got {lc}")
    return (1.0 - 1.0 / lc) * pd_hz * LOG2E


def non_peaky_mi_rate(pd, lc: float, fading: FadingModel) -> float:
    """Wideband mutual information under an average-power (non-peaky) constraint.

    (1 - sqrt(kappa * ln(pi) * ln(Lc) / Lc)) * pd * log2(e), with kappa the
    channel kurtosis and natural logarithms throughout. The bracket is an
    asymptotic penalty; when it goes negative at small Lc the rate clamps to
    zero with a warning.
    """
    pd_hz = core._pd_hz(pd)
    if not lc > 1.0:
        raise ValueError(f"coherence length must be > 1, got {lc}")
    bracket = 1.0 - math.sqrt(fading.kurtosis() * math.log(math.pi) * math.log(lc) / lc)
    if bracket < 0.0:
        warnings.warn(
            f"non-peaky penalty exceeds 1 at lc={lc} (kurtosis {fading.kurtosis():.3g}); "
            "rate clamped to 0",
            stacklevel=2,
        )
        return 0.0
    return bracket * pd_hz * LOG2E


def mi_lower_bound_se(rho: float, lc: float) -> float:
    """Spectral efficiency bound log2(1 + rho) - log2(1 + rho*Lc)/Lc.

    Nonnegative for every rho >= 0, Lc >= 1; behaves as rho^2*(Lc-1)/2 * log2(e)
    for small rho, which is the quadratic low-SNR penalty regime.

    The difference as written cancels catastrophically at small rho and as
    Lc -> 1. With d = Lc - 1, y = rho/(1+rho) and g(x) = x - ln(1+x), it
    equals (d*g(-y) + g(d*y)) / Lc * log2(e) exactly; both terms are
    nonnegative and each is evaluated without cancellation.
    """
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    if not 1.0 <= lc < math.inf:
        raise ValueError(f"coherence length must be finite and >= 1, got {lc}")
    d = lc - 1.0
    y = rho / (1.0 + rho)
    # g(-y) = ln(1+rho) - y; once y is not small, log1p(-y) would inherit the
    # rounding of 1 - y, so the difference is taken directly
    head = _x_minus_log1p(-y) if y <= _SERIES_CUTOFF else math.log1p(rho) - y
    return (d * head + _x_minus_log1p(d * y)) / lc * LOG2E


_SERIES_CUTOFF = 0.1


def _x_minus_log1p(x: float) -> float:
    """x - ln(1+x) for x > -1, accurate to a few ulp, also near 0.

    For |x| <= 0.1 the series x^2 * sum_j (-x)^j / (j+2) is used; 17 terms
    leave a remainder below 1e-17 relative. Beyond that the direct
    difference loses at most a factor 20 to cancellation.
    """
    if abs(x) > _SERIES_CUTOFF:
        return x - math.log1p(x)
    s = 0.0
    for j in range(16, -1, -1):
        s = s * -x + 1.0 / (j + 2)
    return x * x * s


def equal_power_se(rho: float, alpha: float, lc: float, fading: FadingModel) -> float:
    """Spectral efficiency of the equal-power pilot scheme, bits/s/Hz."""
    core._check_point(rho, alpha, lc)
    return core._rates(rho, 1.0, alpha, lc, fading)


def pilot_power_boost_se(rho: float, alpha: float, lc: float, fading: FadingModel) -> float:
    """Spectral efficiency when pilot symbols carry more power than data symbols.

    One pilot symbol per block takes power rho_pilot = alpha*Lc*rho and the
    Lc-1 data symbols take rho_data = (1-alpha)*rho*Lc/(Lc-1), preserving the
    average power rho exactly. Near the joint optimum the advantage over the
    equal-power scheme is negligible; at high SNR with heavy overhead it is
    strictly positive.
    """
    core._check_point(rho, alpha, lc)
    rho_pilot = alpha * lc * rho
    rho_data = (1.0 - alpha) * rho * lc / (lc - 1.0)
    est_share = rho_pilot / (1.0 + rho_pilot)
    snr = rho_data * est_share / (1.0 + rho_data / (1.0 + rho_pilot))
    return (1.0 - 1.0 / lc) * fading.expected_log1p(snr) * LOG2E


def boost_power_identity_gap(rho: float, alpha: float, lc: float) -> float:
    """Average-power bookkeeping residual of the boost split; zero up to rounding."""
    rho_pilot = alpha * lc * rho
    rho_data = (1.0 - alpha) * rho * lc / (lc - 1.0)
    return (rho_pilot / lc + (lc - 1.0) / lc * rho_data) - rho
