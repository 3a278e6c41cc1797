"""Joint bandwidth and pilot-overhead optimizer for a single pilot-assisted link.

The model: a block-fading channel stays constant over tiles of Tc seconds by
Bc hertz, giving Lc = Tc*Bc symbols per tile. A fraction alpha of each tile
carries pilots; the receiver forms an MMSE channel estimate and the remaining
symbols carry data at an effective SNR degraded by the estimation error. With
received power density pd = Pr/N0 fixed, widening the bandwidth W lowers the
per-symbol SNR rho = pd/W, so the achievable rate

    R(W, alpha) = (1 - alpha) * W * E[log2(1 + rho_eff * X)]

has an interior maximum in W. This module evaluates R, exposes the two
stationarity residuals, solves for the optimum, and finds the maximum on
the (W = m*Bc, pilots = n) lattice.

All SNR-like quantities are linear (not dB). pd is always Pr/N0 in hertz.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from ._frozen import Frozen
from ._lazy import LazyNumpy, is_array
from .errors import SolverError
from .fading import FadingModel, _log1p_slope

np = LazyNumpy(globals())

LOG2E = 1.0 / math.log(2.0)

# Acceptance bounds on the stationarity residuals at the solution. Over Lc
# from 2 to 1e8, for Rayleigh, deterministic and 22 tabulated laws, |r_w|
# stays below 7.3e-12: the bisection stops once rho is known to 1e-10
# relative, and r_w moves with rho. r_alpha is evaluated at alpha(rho), so
# only rounding is left, below 6.7e-16. Both bounds keep a margin over 100x.
R_W_TOL = 1e-9
R_ALPHA_TOL = 1e-12

# Above 2**53 symbols, n + 1.0 == n for a float pilot count n, so a pilot
# search could not step from one count to the next.
_MAX_LC = 2.0 ** 53

# Above Lc = 1e7, neighbouring pilot counts near the maximum can differ by
# less than the rate's rounding, so a pilot search can end on a count this far
# short of it, relative: at most 3.6e-15 measured for the slope search and
# 1.2e-11 for the allocation layer's guided search (README).
PILOT_RTOL = 1e-10

# The objectives of the allocation layer (allocate.py), kept here so that the
# CLI can offer them without loading it. max-weak is the default.
MAX_WEAK = "max-weak"
MAX_STRONG = "max-strong"
SUM_RATE = "sum"
OBJECTIVES = (MAX_WEAK, MAX_STRONG, SUM_RATE)

_BISECT_MAX_ITER = 200
_BISECT_RTOL = 1e-10
_SIGN_BRACKET_ITER = 20
_BRACKET_LO = 1e-6
_BRACKET_HI = 10.0
# The step of _bisect_root's walk from a guess. On the tests' panel of cached
# roots, steps of 1.1 and 1.5 took 0.3 and 0.5 more residuals per on-curve root.
_WALK_STEP = 1.25
_ROOT_RTOL = 1e-7  # the fixed-pilot root's error, relative, with a margin (discretize)

# The largest Pr/N0 accepted, 1e150 Hz or 1500 dB-Hz. The presets sit near
# 80-110 dB-Hz; near 3000 dB-Hz the squared SNR in rho_eff overflows, and the
# error would name the expectation's scale instead of the input.
_MAX_PD_HZ = 1e150

# The largest per-symbol SNR rho = pd/W that any tile can score: rho_eff
# squares rho, times n >= 1 pilots, so past sqrt(DBL_MAX), about 1.34e154,
# every count overflows. A tile with Lc = 2 has only count 1 and scores up to
# here; a longer tile probes more counts and can overflow sooner, which the
# expectation's scale check reports.
_MAX_RHO = math.sqrt(1.7976931348623157e308)


class PowerDensity(Frozen):
    """Received power over noise spectral density, Pr/N0, in hertz:
    positive and at most 1e150 Hz."""

    __slots__ = ("pr_over_n0_hz",)

    def __init__(self, pr_over_n0_hz: float):
        if not 0.0 < pr_over_n0_hz <= _MAX_PD_HZ:
            raise ValueError(f"Pr/N0 must be positive and at most 1e150 Hz, "
                             f"got {pr_over_n0_hz}")
        Frozen.__init__(self, pr_over_n0_hz)


def _pd_hz(pd) -> float:
    """Accept a PowerDensity or a bare float in hertz, checked as PowerDensity does."""
    value = pd.pr_over_n0_hz if isinstance(pd, PowerDensity) else float(pd)
    if not 0.0 < value <= _MAX_PD_HZ:
        raise ValueError(f"Pr/N0 must be positive and at most 1e150 Hz, got {pd!r}")
    return value


class CoherenceBlock(Frozen):
    """Coherence tile: length lc = tc_s * bc_hz symbols.

    bc_hz / tc_s may be omitted when only the length matters; lattice
    operations (discretize, exhaustive_search) require bc_hz. 2 <= lc <= 2**53,
    and bc_hz and tc_s are positive and finite.
    """

    __slots__ = ("lc", "bc_hz", "tc_s")

    def __init__(self, lc: float, bc_hz: Optional[float] = None, tc_s: Optional[float] = None):
        # before the bounds on lc, which a NaN or infinite tc_s or bc_hz would
        # trip under the wrong name
        for name, value in (("bandwidth", bc_hz), ("time", tc_s)):
            if value is not None and not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"coherence {name} must be positive and finite, got {value}")
        if not lc >= 2.0:
            raise ValueError(f"coherence length must be >= 2 (one pilot plus one data symbol), got {lc}")
        if not lc <= _MAX_LC:
            raise ValueError(f"coherence length must be at most 2**53, where pilot counts "
                             f"still step by one, got {lc}")
        if bc_hz is not None and tc_s is not None:
            product = bc_hz * tc_s
            if abs(product - lc) > 1e-9 * lc:
                raise ValueError(
                    f"inconsistent coherence block: tc*bc = {product} but lc = {lc}"
                )
        Frozen.__init__(self, lc, bc_hz, tc_s)

    @classmethod
    def from_tc_bc(cls, tc_s: float, bc_hz: float) -> "CoherenceBlock":
        return cls(lc=tc_s * bc_hz, bc_hz=bc_hz, tc_s=tc_s)


class EstimationQuality(Frozen):
    """MMSE split of the channel power between estimate and residual error."""

    __slots__ = ("est_power", "err_power")

    def __init__(self, est_power: float, err_power: float):
        Frozen.__init__(self, est_power, err_power)


def estimation_quality(rho: float, alpha: float, lc: float) -> EstimationQuality:
    """Power captured by the MMSE estimate vs left in the error, summing to 1."""
    _check_point(rho, alpha, lc)
    pilot_energy = alpha * lc * rho
    est = pilot_energy / (1.0 + pilot_energy)
    return EstimationQuality(est_power=est, err_power=1.0 - est)


class OperatingPoint(Frozen):
    """A (bandwidth, pilot ratio) choice and its derived quantities."""

    __slots__ = ("w_hz", "alpha", "rho", "rho_eff", "rate_bps", "pilot_count", "flags")

    def __init__(self, w_hz: float, alpha: float, rho: float, rho_eff: float, rate_bps: float,
                 pilot_count: Optional[int] = None, flags: Tuple[str, ...] = ()):
        Frozen.__init__(self, w_hz, alpha, rho, rho_eff, rate_bps, pilot_count, flags)


class ClosedForm(NamedTuple):
    rho: float
    alpha: float
    rate_factor: float


class RefinedForm(NamedTuple):
    rho: float
    alpha: float


def _check_point(rho: float, alpha: float, lc: float) -> None:
    if not (rho > 0.0 and math.isfinite(rho)):
        raise ValueError(f"rho must be positive and finite, got {rho}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"pilot ratio must lie in (0,1), got {alpha}")
    if not lc >= 2.0:
        raise ValueError(f"coherence length must be >= 2, got {lc}")


def effective_snr(rho: float, alpha: float, lc: float) -> float:
    """Post-estimation SNR: alpha*Lc*rho^2 / (1 + (1 + alpha*Lc)*rho).

    Strictly increasing in rho and in alpha*Lc; estimation error acts as
    extra noise, so the value never exceeds rho itself.
    """
    _check_point(rho, alpha, lc)
    return _rho_eff(rho, alpha, lc)


def _rho_eff(rho, alpha, lc):
    al = alpha * lc
    return al * rho * rho / (1.0 + (1.0 + al) * rho)


def _rate_product(alpha, w, e_log1p):
    """The one copy of the rate product, so a cached E[ln(1 + rho_eff X)] gives _rates's bits."""
    return (1.0 - alpha) * w * e_log1p * LOG2E


def _rates(rho, w, alpha, lc, fading: FadingModel):
    """Pilot-penalized rate (1 - alpha) * W * E[log2(1 + rho_eff X)] in bits/s.

    Plain arithmetic, so scalars and broadcastable arrays take the same code.
    Lattice points pass rho = pd/W and alpha = n/Lc; the continuous optimum
    passes its own rho, which pd/(pd/rho) can miss in the last bit.
    """
    return _rate_product(alpha, w, fading.expected_log1p(_rho_eff(rho, alpha, lc)))


def rate(pd, w_hz: float, alpha: float, cb: CoherenceBlock, fading: FadingModel) -> float:
    """Pilot-penalized achievable rate in bits/second at bandwidth w_hz."""
    pd_hz = _pd_hz(pd)
    if not w_hz > 0.0:
        raise ValueError(f"bandwidth must be positive, got {w_hz}")
    rho = pd_hz / w_hz
    _check_point(rho, alpha, cb.lc)
    return _rates(rho, w_hz, alpha, cb.lc, fading)


def condition_residuals(rho: float, alpha: float, lc: float, fading: FadingModel):
    """Residuals of the two stationarity conditions; both vanish at the optimum.

    r_w    : bandwidth condition (d rate / d W = 0), expectation form.
    r_alpha: pilot condition, the polynomial rho*(alpha^2*Lc + 2*alpha - 1) - (1 - 3*alpha).
    """
    _check_point(rho, alpha, lc)
    r_w = _bandwidth_residual(rho, alpha * lc, fading)
    r_alpha = rho * (alpha * alpha * lc + 2.0 * alpha - 1.0) - (1.0 - 3.0 * alpha)
    return r_w, r_alpha


def _bandwidth_residual(rho: float, al: float, fading: FadingModel) -> float:
    """condition_residuals' r_w, which sees the pilots only through al = alpha*Lc:
    E[ln(1 + sX)] - (1 + d)/d * s E[X/(1 + sX)], with d = 1 + (1 + al) rho and
    s = al rho^2 / d. s E[X/(1 + sX)] is 1 - E[1/(1 + sX)] without the
    cancellation, so the root stays exact where s is small (large Lc and al)."""
    denom = 1.0 + (1.0 + al) * rho
    snr = al * rho * rho / denom
    log1p, slope = _log1p_slope(fading, snr)
    return log1p - (1.0 + denom) / denom * snr * slope


def alpha_given_rho(rho: float, lc: float) -> float:
    """Pilot ratio solving the pilot condition at a given rho.

    Uses the rationalized root of the quadratic, stable for small rho*Lc:
        alpha = (1 + rho) / (sqrt((3/2 + rho)^2 + (1 + rho)*rho*Lc) + 3/2 + rho)
    Limits: 1/3 as rho -> 0 and 1/(1 + sqrt(1 + Lc)) as rho -> inf, so for
    Lc > 3 the value always lies between those two bounds.
    """
    if not (rho > 0.0 and math.isfinite(rho)):
        raise ValueError(f"rho must be positive and finite, got {rho}")
    if not lc >= 2.0:
        raise ValueError(f"coherence length must be >= 2, got {lc}")
    return _pilot_ratio(rho, lc)


def _pilot_ratio(rho, lc: float):
    """alpha_given_rho unchecked, on a float or an array."""
    b = 1.5 + rho
    root = b * b + (1.0 + rho) * rho * lc
    return (1.0 + rho) / ((np.sqrt(root) if is_array(root) else math.sqrt(root)) + b)


def _bisect_root(residual, what: str, guess: Optional[float] = None) -> float:
    """Root of a residual that is negative below it and positive above it.

    The initial bracket [1e-6, 10] covers every practical coherence length;
    it is grown geometrically if a pathological input escapes it. Once
    bracketed, the sign bisection converges unconditionally, to _BISECT_RTOL.
    It returns a plain bisection's float from about 12 residuals from a
    guess, or about 17 without one, not 43: _sign_bracket first narrows an
    evaluated bracket [a, b], and a midpoint more than _BISECT_RTOL*b
    outside it is taken to lie on its side. That margin covers the band
    where rounding blurs the residual's sign; past Lc = 1e8 or 1e5 pilots
    the band can outgrow it, and the two roots part by less than the band.

    A guess inside (1e-6, 10) is evaluated and walked from by steps of
    _WALK_STEP to the first sign change, which becomes [a, b]; the
    bisection still runs over [1e-6, 10], whose ends it never evaluates.
    Only a walk that would leave (1e-6, 10) or meets a non-finite residual
    evaluates those ends, and grows them, as it does without a guess.
    """
    lo, hi = _BRACKET_LO, _BRACKET_HI
    ends = None if guess is None else _walk_to_sign_change(residual, guess)
    if ends is None:
        for _ in range(51):  # the initial end, then up to 50 growths
            f_lo = residual(lo)
            if f_lo <= 0.0:
                break
            lo *= 0.25
        else:
            raise SolverError(f"could not bracket {what} from below")
        for _ in range(51):
            f_hi = residual(hi)
            if f_hi >= 0.0:
                break
            hi *= 4.0
        else:
            raise SolverError(f"could not bracket {what} from above")
        ends = lo, f_lo, hi, f_hi
    a, b = _sign_bracket(residual, *ends) if ends[1] < 0.0 else (lo, hi)
    a, b = a - _BISECT_RTOL * b, b + _BISECT_RTOL * b
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid >= b or (mid > a and residual(mid) >= 0.0):
            hi = mid
        else:
            lo = mid
        if hi - lo < _BISECT_RTOL * mid:
            return 0.5 * (lo + hi)
    raise SolverError(f"bisection for {what} did not converge within {_BISECT_MAX_ITER} iterations")


def _walk_to_sign_change(residual, x):
    """(a, fa, b, fb) with fa < 0 <= fb and b = a*_WALK_STEP, by steps of
    _WALK_STEP from x, down where its residual is >= 0 and up where it is
    below; None at a non-finite residual or a step that leaves (1e-6, 10)."""
    if not _BRACKET_LO < x < _BRACKET_HI:
        return None
    fx = residual(x)
    step = _WALK_STEP if fx < 0.0 else 1.0 / _WALK_STEP
    while math.isfinite(fx):
        y = x * step
        if not _BRACKET_LO < y < _BRACKET_HI:
            return None
        fy = residual(y)
        if (fy < 0.0) != (fx < 0.0) and math.isfinite(fy):
            return (x, fx, y, fy) if step > 1.0 else (y, fy, x, fx)
        x, fx = y, fy
    return None


def _sign_bracket(residual, a, fa, b, fb):
    """[a, b], with fa < 0 <= fb at its ends, narrowed to evaluated ends of the
    same signs: geometrically until b < 2a, then by Illinois regula falsi to
    _BISECT_RTOL. It stops at a non-finite residual, a step that leaves (a, b)
    or _SIGN_BRACKET_ITER residuals (16 at most were needed below Lc = 1e7)."""
    side = 0  # the end the last Illinois step moved: 1 for b, -1 for a
    for _ in range(_SIGN_BRACKET_ITER):
        geometric = b >= 2.0 * a
        if not geometric and b - a <= _BISECT_RTOL * b:
            break
        x = math.sqrt(a * b) if geometric else b - fb * (b - a) / (fb - fa)
        if not a < x < b:
            break
        fx = residual(x)
        if not math.isfinite(fx):
            break
        if fx >= 0.0:
            b, fb, fa = x, fx, fa * 0.5 if side == 1 else fa
        else:
            a, fa, fb = x, fx, fb * 0.5 if side == -1 else fb
        side = 0 if geometric else (1 if fx >= 0.0 else -1)
    return a, b


@lru_cache(maxsize=4096)
def _solve_rho_on_curve(lc: float, fading: FadingModel):
    """The part of solve_continuous that does not depend on Pr/N0, checked once.

    Returns (rho, alpha, flags, E[ln(1 + rho_eff X)]). rho is the root of the
    bandwidth residual along the alpha(rho) curve, whose residuals are checked
    here, so that a cache hit makes no kernel call. The root starts from the
    first-order optimum (4/(kappa^2 Lc))^(1/3), kappa the law's kurtosis,
    which the walk of _bisect_root brackets in about two residuals. At
    lc == 2 the pilot ratio is pinned to 1/2 instead.
    """
    if lc == 2.0:
        rho = _solve_rho_fixed_pilots(1, fading)[0]  # alpha*Lc = 0.5*2.0
        alpha, flags = 0.5, ("lattice_only",)
    else:
        # condition_residuals' r_w, without its point check and its r_alpha;
        # lc comes from a checked CoherenceBlock and r is a positive midpoint,
        # so alpha_given_rho's checks could not fire
        kappa = fading.kurtosis()
        rho = _bisect_root(lambda r: _bandwidth_residual(r, _pilot_ratio(r, lc) * lc, fading),
                           f"the bandwidth optimum (lc={lc})",
                           (4.0 / (kappa * kappa * lc)) ** (1.0 / 3.0))
        alpha, flags = alpha_given_rho(rho, lc), ()
        r_w, r_alpha = condition_residuals(rho, alpha, lc, fading)
        if abs(r_w) > R_W_TOL or abs(r_alpha) > R_ALPHA_TOL:
            raise SolverError(
                f"stationarity residuals out of tolerance at the solution: "
                f"r_w={r_w:.3e}, r_alpha={r_alpha:.3e} (lc={lc})"
            )
    return rho, alpha, flags, fading.expected_log1p(_rho_eff(rho, alpha, lc))


@lru_cache(maxsize=4096)
def _solve_rho_fixed_pilots(n: int, fading: FadingModel):
    """(rho_n, E[ln(1 + rho_eff X)] at rho_n), the bandwidth optimum with n pilots
    per tile. The residual sees the pilots only through alpha*Lc = n, so rho_n
    depends on n and the fading law alone, not on Lc or Pr/N0. The root
    starts from sqrt(2/(kappa n)), where the residual's large-n balance
    kappa s/2 = 1/d holds (kappa the law's kurtosis): a guess from the
    cache key alone, so that no root depends on the order of the calls."""
    al = float(n)
    rho = _bisect_root(lambda r: _bandwidth_residual(r, al, fading),
                       f"the fixed-pilot bandwidth optimum (n={n})",
                       math.sqrt(2.0 / (fading.kurtosis() * al)))
    return rho, fading.expected_log1p(_rho_eff(rho, al, 1.0))


def solve_continuous(pd, cb: CoherenceBlock, fading: FadingModel) -> OperatingPoint:
    """Continuous-relaxation optimum: bandwidth and pilot ratio jointly optimal.

    Substitutes the pilot condition's alpha(rho) into the rate and bisects the
    bandwidth residual in rho, which is exact because the rate is unimodal
    along that curve; a cold root starts from the first-order optimum and
    takes about 12 residuals, its final check included (_bisect_root). At
    lc == 2 the relaxation is skipped: the pilot lattice has the single point
    alpha = 1/2, so only the bandwidth is optimized and the result carries a
    "lattice_only" flag.
    """
    pd_hz = _pd_hz(pd)
    rho, alpha, flags, e_log1p = _solve_rho_on_curve(cb.lc, fading)
    w = pd_hz / rho
    return OperatingPoint(w_hz=w, alpha=alpha, rho=rho, rho_eff=_rho_eff(rho, alpha, cb.lc),
                          rate_bps=_rate_product(alpha, w, e_log1p), flags=flags)


def closed_form_first_order(lc: float) -> ClosedForm:
    """Leading-order optimum for large Lc.

    rho = (4/Lc)^(1/3), alpha = (2*Lc)^(-1/3), and the rate approaches
    rate_factor * Pr/N0 with rate_factor = (1 - 1.5*rho) * log2(e): the
    rate's relative penalty is 3*(2*Lc)^(-1/3), alpha from the pilots and
    2*alpha from the estimation error, up to O(Lc^(-2/3)).
    """
    if not lc >= 2.0:
        raise ValueError(f"coherence length must be >= 2, got {lc}")
    rho = (4.0 / lc) ** (1.0 / 3.0)
    alpha = (2.0 * lc) ** (-1.0 / 3.0)
    return ClosedForm(rho=rho, alpha=alpha, rate_factor=(1.0 - 1.5 * rho) * LOG2E)


def closed_form_refined(lc: float) -> RefinedForm:
    """First-order forms plus second-order corrections, deterministic fading.

    With u = (2Lc)^(-1/3): rho = 2u + (14/9)u^2, alpha = u - (8/9)u^2.
    The corrections are derived from the two stationarity conditions: the
    u^3 term of the bandwidth condition gives c_rho + c_alpha = 2/3 and the
    u term of the pilot condition gives c_rho/2 + 2*c_alpha = -1. The rho
    correction raises the first-order value; the alpha correction lowers it.
    """
    if not lc >= 2.0:
        raise ValueError(f"coherence length must be >= 2, got {lc}")
    u = (2.0 * lc) ** (-1.0 / 3.0)
    return RefinedForm(rho=2.0 * u + (14.0 / 9.0) * u * u, alpha=u - (8.0 / 9.0) * u * u)


def _max_pilots(lc: float) -> int:
    # integer pilot counts leaving at least one data symbol
    return max(1, math.ceil(lc) - 1)


def _lattice_point(pd_hz: float, w: float, n: int, lc: float, rate_bps: float,
                   flags: Tuple[str, ...] = ()) -> OperatingPoint:
    if rate_bps == 0.0:  # every count ties, so n is the tie rule's pick, not a maximum
        flags = flags + ("rate_underflow",)
    alpha = n / lc
    rho = pd_hz / w
    return OperatingPoint(w_hz=w, alpha=alpha, rho=rho, rho_eff=_rho_eff(rho, alpha, lc),
                          rate_bps=rate_bps, pilot_count=n, flags=flags)


def _best_pilots(rho, w, lc: float, fading: FadingModel):
    """Rate-maximizing integer pilot count at fixed bandwidth, and its rate.

    At fixed bandwidth the rate is concave in the pilot count, so its slope
    _pilot_slope falls through one root, and the argmax is the floor or the
    ceiling of it. _slope_bracket narrows the root to counts lo and lo + 1,
    and the better of their two rates picks the argmax; equal rates keep lo.
    rho and w are broadcastable arrays, scored in one rate call, or floats,
    scored in two, which stay Python floats. Exact up to Lc = 1e7, then
    within PILOT_RTOL. Where the slope and every rate round to 0.0
    (per-symbol SNR below about 1e-160) each count ties, and the search ends
    on count 1.
    """
    n_hi = _max_pilots(lc)
    if not (is_array(rho) or is_array(w)):
        lo = _slope_bracket(rho, lc, fading)
        r_lo, r_up = (_rates(rho, w, n / lc, lc, fading) for n in (lo, min(lo + 1.0, n_hi)))
        return (int(lo), r_lo) if r_lo >= r_up else (int(lo) + 1, r_up)
    rho, w = np.broadcast_arrays(rho, w)
    shape, rho, w = rho.shape, rho.ravel(), w.ravel()
    lo = _slope_brackets(rho, lc, fading)
    trial = np.stack([lo, np.minimum(lo + 1.0, n_hi)], axis=1)
    rates = _rates(rho[:, None], w[:, None], trial / lc, lc, fading)
    up = rates[:, 1] > rates[:, 0]
    best = np.where(up, rates[:, 1], rates[:, 0])
    return (lo + up).astype(int).reshape(shape), best.reshape(shape)


def _pilot_slope(rho, al, lc: float, fading: FadingModel):
    """dR/d(alpha) / (W log2 e) at al = alpha*Lc pilots, on floats or arrays:
    -E[ln(1 + sX)] + (Lc - al) (ds/d al) E[X/(1 + sX)], s = rho_eff. Falls
    through zero at the rate's maximum over a continuous pilot count."""
    u = rho / (1.0 + (1.0 + al) * rho)  # s = al rho u and ds/d al = (1 + rho) u^2
    e_log1p, e_slope = _log1p_slope(fading, al * rho * u)
    return (lc - al) * (1.0 + rho) * u * u * e_slope - e_log1p


# Slope evaluations per pilot search, at most. From rho = 1e-20 to 1e12 at
# every Lc a search takes 14 or fewer; a run of underflowed slopes steps from
# Lc/3 down to count 1 in at most 89.
_SLOPE_EVALS = 100


def _slope_bracket(rho: float, lc: float, fading: FadingModel) -> float:
    """The lower end lo of counts [lo, lo + 1] whose slopes straddle zero,
    clipped to [1, n_hi], for a float rho.

    From the pilot condition's count, steps by factors of 1.5 toward the
    root until the slope changes sign, then runs Illinois regula falsi on
    the integer bracket (Dowell & Jarratt, BIT 11, 1971): where the same
    end moves twice running, the other end's slope is halved. It bisects
    where the secant is undefined, or where the bracket has not halved over
    the last three evaluations. lo holds a positive slope and hi a slope at
    or below zero; 0 and n_hi + 1 stand for an end not yet found, with
    slope 0.0.
    """
    n_hi = _max_pilots(lc)
    n = min(max(math.floor(_pilot_ratio(rho, lc) * lc), 1), n_hi)
    lo, hi, d_lo, d_hi, last, ago = 0, n_hi + 1, 0.0, 0.0, None, (n_hi + 1,) * 3
    for _ in range(_SLOPE_EVALS):
        d = _pilot_slope(rho, float(n), lc, fading)
        up = d > 0.0
        half = 0.5 if up == last else 1.0
        if up:
            lo, d_lo, d_hi = n, d, half * d_hi
        else:
            hi, d_hi, d_lo = n, d, half * d_lo
        width, last = hi - lo, up
        if width <= 1:
            break
        halved, ago = 2 * width <= ago[0], ago[1:] + (width,)
        if lo == 0:
            n = math.floor(hi / 1.5)
        elif hi > n_hi:
            n = min(math.ceil(1.5 * lo), n_hi)
        else:  # the secant's offset from lo, or -1.0 to bisect
            x = width * (d_lo / (d_lo - d_hi)) if halved and d_lo > d_hi else -1.0
            n = lo + (min(max(int(x), 1), width - 1) if 0.0 <= x <= width else width // 2)
    return float(max(lo, 1))


def _slope_brackets(rho, lc: float, fading: FadingModel):
    """_slope_bracket over a 1-d array of rho, as a float array: each element
    freezes once its own bracket is one count wide, and each step scores the
    open elements in one call."""
    n_hi = float(_max_pilots(lc))
    n = np.clip(np.floor(_pilot_ratio(rho, lc) * lc), 1.0, n_hi)
    lo, d_lo, d_hi = np.zeros_like(n), np.zeros_like(n), np.zeros_like(n)
    hi, last = np.full_like(n, n_hi + 1.0), np.zeros(n.size, bool)
    ago, out, open_ = [hi - lo] * 3, np.empty_like(n), np.arange(n.size)
    for _ in range(_SLOPE_EVALS):
        d = _pilot_slope(rho, n, lc, fading)
        up = d > 0.0
        half = np.where(up == last, 0.5, 1.0)
        d_lo, d_hi = np.where(up, d, half * d_lo), np.where(up, half * d_hi, d)
        lo, hi, last = np.where(up, n, lo), np.where(up, hi, n), up
        width = hi - lo
        done = width <= 1.0
        if done.all():
            break
        if done.any():
            out[open_[done]] = lo[done]
            keep = np.flatnonzero(~done)
            open_, rho, lo, hi, d_lo, d_hi, last, width, *ago = (
                v.take(keep) for v in (open_, rho, lo, hi, d_lo, d_hi, last, width, *ago))
        halved, ago = 2.0 * width <= ago[0], ago[1:] + [width]
        with np.errstate(divide="ignore", invalid="ignore"):  # NaN bisects
            x = width * (d_lo / (d_lo - d_hi))
        n = lo + np.where(halved & (x >= 0.0) & (x <= width),
                          np.clip(np.floor(x), 1.0, width - 1.0), np.floor(0.5 * width))
        n = np.where(lo == 0.0, np.floor(hi / 1.5),
                     np.where(hi > n_hi, np.minimum(np.ceil(1.5 * lo), n_hi), n))
    out[open_] = lo
    return np.maximum(out, 1.0)


@lru_cache(maxsize=256)
def _pilot_guide(lc: float, fading: FadingModel):
    """The exact integer pilot argmax n*(rho) on a grid of log10(rho).

    At fixed bandwidth the argmax depends only on (rho, lc, fading), since W
    only scales the rate. 64 points per decade over rho from 1e-8 to 1e8.
    """
    log_rho = np.linspace(-8.0, 8.0, 16 * 64 + 1)
    guide = _best_pilots(10.0 ** log_rho, 1.0, lc, fading)[0].astype(float)
    for cached in (log_rho, guide):  # shared by every caller
        cached.flags.writeable = False
    return log_rho, guide


def _guided_pilots(rho, w, lc: float, fading: FadingModel):
    """_best_pilots over 1-d arrays of one length from the guide's count,
    interpolated in log10(rho) and clamped at the guide's ends: the
    allocation layer's candidate search. One rate call scores the five
    counts around each start, clipped to [1, n_hi], and keeps the first best,
    so ties go to the lower count. That count is certified where it beats
    the count below and is not beaten by the count above, or lies on count
    1 or n_hi: the rate is log-concave in alpha at fixed W, so such a local
    maximum is the global one. Where the guide missed by two counts or
    more, the count is not certified, and _best_pilots, the slope search,
    takes that rho instead. Equal to the array _best_pilots up to Lc = 1e8;
    above, rounding can certify another count within PILOT_RTOL."""
    log_rho, guide = _pilot_guide(lc, fading)
    n_hi = _max_pilots(lc)
    start = np.interp(np.log10(rho), log_rho, guide)
    np.rint(start, out=start)
    trial = start[:, None] + _probe_offsets()
    np.maximum(trial, 1.0, out=trial)
    np.minimum(trial, n_hi, out=trial)
    # each point's rho and W repeated along its row: a broadcast costs more
    rates = _rates(rho.repeat(5).reshape(trial.shape), w.repeat(5).reshape(trial.shape),
                   trial / lc, lc, fading)
    k = rates.argmax(axis=1)  # the first, so the lowest, of equal rates
    pick = np.arange(0, rates.size, 5)
    pick += k
    n, best = trial.take(pick), rates.take(pick)
    # a best count at an end of the probe but not of [1, n_hi] is not certified
    miss = ((k == 0) & (n > 1.0)) | ((k == 4) & (n < n_hi))
    n = n.astype(int)
    if np.count_nonzero(miss):
        n[miss], best[miss] = _best_pilots(rho[miss], w[miss], lc, fading)
    return n, best


@lru_cache(maxsize=None)
def _probe_offsets():
    """The five counts of _guided_pilots' probe, relative to its start."""
    offsets = np.arange(-2.0, 3.0)
    offsets.flags.writeable = False  # shared by every call
    return offsets


def discretize(op: OperatingPoint, cb: CoherenceBlock, pd, fading: FadingModel) -> OperatingPoint:
    """The rate maximum over the (W = m*Bc, integer pilots) lattice.

    With n pilots the rate is unimodal in W and peaks at W_n = pd/rho_n (rho_n
    depends on n and the law alone), so count n's rates are at most R(n), the
    rate at W_n, or at W = Bc if W_n < Bc. R(n) is unimodal in n: the scan runs
    both ways from its peak and stops a side once R(n), tested before scoring n
    where W_n >= Bc, cannot beat the best rate, equal included; of equal rates
    the first scored is kept. n scores floor and ceil of x = W_n/Bc, widened
    by _ROOT_RTOL for the root's error (at most 1.8e-8 up to 2^53 pilots).
    Steps near x differ by at least 0.4/(d x^2) relative, d = 1 + (1 + n)
    rho_n; past d x^2 = 2^40 (about 1,700 ulps) a step further out can round
    equal and win as the first scored, so there n scores floor(x) - 1 to
    ceil(x) + 1. The peak is at floor(alpha*Lc) or the next count, or if W* <
    Bc at the best count at W = Bc, flagged "bandwidth_floor"; op's flags drop.
    """
    if cb.bc_hz is None:
        raise ValueError("discretize needs a coherence block with bc_hz set")
    pd_hz, lc, bc, n_hi = _pd_hz(pd), cb.lc, cb.bc_hz, _max_pilots(cb.lc)
    flags = ("bandwidth_floor",) if op.w_hz / bc < 1.0 else ()
    n0 = (_best_pilots(pd_hz / bc, bc, lc, fading)[0] if flags  # the bound peaks on W = Bc
          else min(max(math.floor(op.alpha * lc), 1), n_hi))
    best = (-math.inf, 1, 1)
    for n, step in ((n0, -1), (n0 + 1, 1)):
        while 1 <= n <= n_hi:
            rho_n, e_log1p = _solve_rho_fixed_pilots(n, fading)
            w_n = pd_hz / rho_n
            bound = _rate_product(n / lc, w_n, e_log1p)
            if w_n >= bc and bound * (1.0 + 1e-12) <= best[0]:
                break
            x = w_n / bc
            near = (1.0 + (1.0 + n) * rho_n) * x * x < 2.0 ** 40
            lo = math.floor(x * (1.0 - _ROOT_RTOL)) if near else math.floor(x) - 1
            hi = math.ceil(x * (1.0 + _ROOT_RTOL)) if near else math.ceil(x) + 1
            rates = [(_rates(pd_hz / (m * bc), m * bc, n / lc, lc, fading), m, n)
                     for m in range(max(1, lo), hi + 1)]
            best = max(best, *rates, key=lambda t: t[0])  # ties keep the first
            # when W_n < Bc the rate falls in W, so m = 1 bounds the count
            if (rates[0][0] if w_n < bc else bound) * (1.0 + 1e-12) <= best[0]:
                break
            n += step
    rate_bps, m, n = best
    return _lattice_point(pd_hz, m * bc, n, lc, rate_bps, flags)


def exhaustive_search(pd, cb: CoherenceBlock, fading: FadingModel, m_max: int) -> OperatingPoint:
    """Global lattice maximizer over W in {Bc..m_max*Bc} and every pilot count.

    Every bandwidth takes its best pilot count from the search of
    rate_fixed_bandwidth, run on 2**14 bandwidths at a time: each step of
    its slope search scores only the bandwidths whose bracket is still open,
    and one rate call scores every bandwidth's two counts. The first
    bandwidth with the largest rate wins: the maximum over the whole box, so
    no lattice neighbor inside it can beat it. A "maximum_at_edge" flag marks
    a rate still increasing at m_max, meaning the bracket was too small.
    """
    if cb.bc_hz is None:
        raise ValueError("exhaustive_search needs a coherence block with bc_hz set")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    pd_hz = _pd_hz(pd)
    best = (-1.0, 1, 1)
    chunk = 1 << 14  # bounds the (bandwidths x quadrature nodes) temporaries
    for m0 in range(1, m_max + 1, chunk):
        w = np.arange(m0, min(m0 + chunk, m_max + 1)) * cb.bc_hz
        n, rates = _best_pilots(pd_hz / w, w, cb.lc, fading)
        i = int(np.argmax(rates))
        if rates[i] > best[0]:
            best = (float(rates[i]), m0 + i, int(n[i]))

    rate_bps, m, n = best
    flags = ("maximum_at_edge",) if m == m_max and m_max > 1 else ()
    return _lattice_point(pd_hz, m * cb.bc_hz, n, cb.lc, rate_bps, flags)


def rate_fixed_bandwidth(pd, w_hz: float, cb: CoherenceBlock, fading: FadingModel) -> OperatingPoint:
    """Best rate at a pinned bandwidth, optimizing only the integer pilot count.

    The count comes from the root of the rate's slope in the pilot count
    (_best_pilots): 14 or fewer slope evaluations, then the rates of the two
    counts around the root. Exact on the pilot lattice up to Lc = 1e7, then
    within PILOT_RTOL.
    """
    pd_hz = _pd_hz(pd)
    n, rate_bps = _best_pilots(_fixed_rho(pd_hz, w_hz), w_hz, cb.lc, fading)
    return _lattice_point(pd_hz, w_hz, n, cb.lc, rate_bps)


def _fixed_rho(pd_hz: float, w_hz: float) -> float:
    """The per-symbol SNR pd/W of a pinned bandwidth, refused where W is not
    positive or where the SNR's square overflows (_MAX_RHO)."""
    if not w_hz > 0.0:
        raise ValueError(f"bandwidth must be positive, got {w_hz}")
    rho = pd_hz / w_hz
    if rho > _MAX_RHO:
        raise ValueError(f"Pr/N0 {pd_hz} Hz over bandwidth {w_hz} Hz is a per-symbol SNR "
                         f"above {_MAX_RHO:.4g}, whose square overflows")
    return rho
