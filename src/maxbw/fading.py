"""Small-scale fading models and the channel-power expectations used by rate formulas.

Every model describes the distribution of the channel power gain (|h|^2 for a
complex gain h) normalized to unit mean. Rate evaluation needs E[ln(1 + s X)],
and the bandwidth residual and the pilot search its derivative in s,
E[X/(1 + s X)] (_log1p_slope); E[1/(1 + s X)] is offered too. All are
computed here so callers never touch the distribution directly.
Deterministic and tabulated models sum over their atoms. Rayleigh
(X ~ Exp(1)) uses the exact forms, with x = 1/s (Abramowitz & Stegun 5.1.1,
5.1.11, 5.1.22):

    E[ln(1 + s X)] = e^x E1(x),    E[1/(1 + s X)] = x e^x E1(x),
    E[X/(1 + s X)] = x (1 - x e^x E1(x)).

A scalar scale never becomes a 0-d array. Rayleigh and deterministic scalars
use `math` only, so they need no numpy; math.log1p can differ from numpy's
array log1p in the last bit. Tabulated scalars apply numpy's log1p to the
atom array times s, form the slope's 1 + sX and its quotient in place, and
take one dot product with the weights per expectation: the array path's
operations in fewer numpy calls, so they give its bits. Arrays reduce over
nodes and atoms one row at a time (_row_dots), so a point's bits do not
depend on the other points of the call either.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._frozen import Frozen
from ._lazy import LazyNumpy, is_array
from .errors import read_numeric_rows

np = LazyNumpy(globals())

RAYLEIGH = "rayleigh"
DETERMINISTIC = "deterministic"
TABULATED = "tabulated"

# Below this scale the expectations are s and 1 - s to the last bit (the next
# terms are s^2 and 2s^2); it also keeps x = 1/s finite.
_TINY = 2.0 ** -60
# Above s = 1/2 (x < 2), E1(x) = -gamma - ln x + Ein(x), with the entire
# function Ein(x) = sum_{k>=1} (-1)^(k+1) x^k / (k k!) summed by Horner's
# rule; 24 terms leave less than 1e-19 at x = 2. Coefficients run from k = 24.
_SERIES_ABOVE = 0.5
_EULER_GAMMA = 0.5772156649015329
_EIN = tuple((-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(24, 0, -1))
# At x >= 2, the continued fraction e^x E1(x) = 1/(x+1- 1/(x+3- 4/(x+5- ...)))
# summed backwards from depth 5 + ceil(100/x): within 2.3e-16 of mpmath for
# x from 2 to 1e8, and the needed depth only falls as x grows. Terms
# (2k - 1, k^2) run from k = 54 down.
_CF_TERMS = tuple((2.0 * k - 1.0, float(k * k)) for k in range(54, 0, -1))
# Arrays use the 48-node Gauss-Laguerre rule instead: sum_i w_i / (1 + s t_i)
# is the depth-48 convergent of the same fraction for E[1/(1 + sX)], and as an
# outer product over blocks of points it takes a few numpy calls per block,
# where the fraction takes three per level of depth.
_RULE_NODES = 48
_BLOCK = 4096


def _require_scale(s):
    """s as a float, or an ndarray as a float array, checked finite and >= 0.

    A checked scale is one or the other, so `type(s) is float` picks the
    scalar path of each expectation.
    """
    if type(s) is float and 0.0 <= s < math.inf:
        return s  # the solvers' scalar calls, accepted without a conversion
    if is_array(s):
        checked = np.asarray(s, dtype=float)
        # two reductions: NaN fails both tests, and an empty array has no minimum
        ok = not checked.size or (checked.min() >= 0.0 and math.isfinite(checked.max()))
    else:
        s = checked = float(s)
        ok = 0.0 <= s < math.inf
    if not ok:
        raise ValueError(f"expectation scale must be finite and >= 0, got {s!r}")
    return checked


def _exp_e1_series(x: float) -> float:
    """e^x E1(x) = e^x (Ein(x) - gamma - ln x) for a float x < 2."""
    ein = 0.0
    for c in _EIN:
        ein = (ein + c) * x
    return math.exp(x) * (ein - _EULER_GAMMA - math.log(x))


def _rayleigh(s: float, slope=False):
    """(E[ln(1 + s X)], E[1/(1 + s X)]) for X ~ Exp(1) and a float s >= 0, or
    with slope (E[ln(1 + s X)], E[X/(1 + s X)]). Below s = 1/2 the latter is
    x (1 - 1/f_2) / f on the continued fraction's last level
    f = x + 1 - 1/f_2, with no 1 - E[1/(1 + s X)] to cancel."""
    if s < _TINY:
        return s, (1.0 - 2.0 * s if slope else 1.0 - s)
    x = 1.0 / s
    if s > _SERIES_ABOVE:
        g = _exp_e1_series(x)
        return g, ((1.0 - x * g) / s if slope else x * g)
    depth = 5 + math.ceil(100.0 / x)
    f = x + (2 * depth - 1)
    for a, b in _CF_TERMS[1 - depth:-1]:
        f = x + a - b / f
    r = 1.0 / f
    f = x + 1.0 - r
    g = 1.0 / f
    return g, (x * (1.0 - r) / f if slope else x * g)


def _row_dots(terms, v):
    """terms @ v for a 1-d v, as one dot product per row of terms over its
    contiguous last axis. A matrix-vector product's blocking depends on the
    number of rows, and so would each row's last bit."""
    return np.matmul(terms[..., None, :], v[:, None])[..., 0, 0]


@lru_cache(maxsize=None)
def _laguerre_rule():
    """The _RULE_NODES-point Gauss-Laguerre rule as (1/t_i, w_i/t_i, w_i),
    each a contiguous array.

    The weights are the Christoffel numbers 1 / sum_k L_k(t)^2 over the
    orthonormal Laguerre polynomials, scaled to sum to 1: with them the rule
    is within 1.4e-15 of mpmath for x >= 2, against 4e-14 with laggauss's own.
    """
    t = np.polynomial.laguerre.laggauss(_RULE_NODES)[0]
    p0, p1 = np.ones_like(t), 1.0 - t
    squares = p0 * p0 + p1 * p1
    for k in range(1, _RULE_NODES - 1):
        p0, p1 = p1, ((2 * k + 1 - t) * p1 - k * p0) / (k + 1)
        squares += p1 * p1
    w = 1.0 / squares
    w /= w.sum()
    return 1.0 / t, w / t, w


def _laguerre_sums(s, *ks):
    """sum_i v_i / (1/t_i + s) over a 1-d array of s <= 1/2, for v the k-th
    entry of _laguerre_rule, one array per k: v_i = w_i/t_i gives
    E[1/(1 + sX)], and v_i = w_i gives E[X/(1 + sX)]. Each is a _row_dots
    of its own, so a sum has the same bits whatever else is asked for."""
    rule = _laguerre_rule()
    blocks = []
    for i in range(0, max(s.size, 1), _BLOCK):
        terms = np.add.outer(s[i:i + _BLOCK], rule[0])
        np.reciprocal(terms, out=terms)
        blocks.append([_row_dots(terms, rule[k]) for k in ks])
    return [np.concatenate(sums) for sums in zip(*blocks)] if len(blocks) > 1 else blocks[0]


@lru_cache(maxsize=None)
def _series_terms():
    """_EIN as 0-d arrays, which numpy adds to an array without converting a
    Python float on every step."""
    return tuple(np.array(c) for c in _EIN)


def _rayleigh_array(s, slope=False):
    """_rayleigh(s, slope) elementwise over a float ndarray of checked scales,
    in one pass: the Laguerre rule on the scales up to 1/2 and the series
    above. The series runs _exp_e1_series's Horner steps in place, with its
    47 roundings, so each point has the bits of _rayleigh's operations on
    numpy's exp and log."""
    flat = s.reshape(-1)
    series = flat > _SERIES_ABOVE
    above = np.count_nonzero(series)
    if not above:
        g, e = _rule_pair(flat, slope)
        return g.reshape(s.shape), e.reshape(s.shape)
    g, e = np.empty_like(flat), np.empty_like(flat)
    big = flat[series]
    x = 1.0 / big
    first, *rest = _series_terms()
    gx = x * first  # the first step, (0.0 + c) * x
    for c in rest:
        gx += c
        gx *= x
    gx -= _EULER_GAMMA
    gx -= np.log(x)
    gx *= np.exp(x)
    g[series] = gx
    gx *= x
    if slope:
        np.subtract(1.0, gx, out=gx)
        gx /= big
    e[series] = gx
    if above < flat.size:
        low = ~series
        g[low], e[low] = _rule_pair(flat[low], slope)
    return g.reshape(s.shape), e.reshape(s.shape)


def _rule_pair(s, slope):
    """_rayleigh_array's pair on a 1-d array of scales up to 1/2, by the
    Laguerre rule."""
    sums = _laguerre_sums(s, 1, 2) if slope else _laguerre_sums(s, 1)
    return s * sums[0], sums[-1]


def _log1p_slope(model, s):
    """(E[ln(1 + s X)], E[X/(1 + s X)]): expected_log1p and its derivative in
    s, on a float or a 1-d array, with no 1 - E[1/(1 + s X)] cancellation."""
    s = _require_scale(s)
    on_float = type(s) is float
    if model.kind == RAYLEIGH:
        return (_rayleigh if on_float else _rayleigh_array)(s, slope=True)
    if model.kind == DETERMINISTIC:
        return (math if on_float else np).log1p(s), 1.0 / (1.0 + s)
    values, weights = model._values, model._weights
    if on_float:  # the array path's operations, in fewer numpy calls
        scaled = values * s
        g = np.log1p(scaled)
        scaled += 1.0
        np.divide(values, scaled, out=scaled)
        return float(g.dot(weights)), float(scaled.dot(weights))
    scaled = model._scaled_atoms(s)
    return _row_dots(np.log1p(scaled), weights), _row_dots(values / (1.0 + scaled), weights)


class FadingModel(Frozen):
    """Unit-mean channel power distribution.

    kind: one of "rayleigh", "deterministic", "tabulated".
    atoms: for tabulated models, ((value, weight), ...) as given, with weights
    summing to 1 within 1e-9 and a mean within 1% of 1. The expectations use
    them renormalized to unit total weight and unit mean.
    """

    __slots__ = ("kind", "atoms", "_values", "_weights", "_moments", "_hash")

    def __init__(self, kind: str, atoms: tuple = ()):
        if kind not in (RAYLEIGH, DETERMINISTIC, TABULATED):
            raise ValueError(f"unknown fading kind {kind!r}")
        # (E[X], E[X^2]); for tabulated models also the atom arrays, built
        # once. These private slots stay outside equality and hashing.
        moments = {RAYLEIGH: (1.0, 2.0), DETERMINISTIC: (1.0, 1.0)}.get(kind)
        values = weights = None
        if kind == TABULATED:
            if not atoms:
                raise ValueError("tabulated fading needs at least one atom")
            values = np.array([v for v, _ in atoms], dtype=float)
            weights = np.array([w for _, w in atoms], dtype=float)
            if not (np.isfinite(values).all() and np.isfinite(weights).all()):
                raise ValueError("tabulated atom values and weights must be finite")
            if np.any(values < 0.0) or np.any(weights < 0.0):
                raise ValueError("tabulated atoms must have value >= 0 and weight >= 0")
            wsum = weights.sum()
            if abs(wsum - 1.0) > 1e-9:
                raise ValueError(f"tabulated weights must sum to 1, got {wsum}")
            # the table as given, so that a model rebuilt from its own atoms is
            # the same model: renormalizing is not idempotent in the last bits
            atoms = tuple(zip(values.tolist(), weights.tolist()))
            weights = weights / wsum
            mean = float(weights @ values)
            if abs(mean - 1.0) > 0.01:
                raise ValueError(
                    f"tabulated mean power {mean:.6f} is more than 1% from unity; "
                    "rescale the values before constructing the model"
                )
            # renormalize exactly to unit mean; downstream formulas assume it
            values = values / mean
            moments = (float(weights @ values), float(weights @ (values * values)))
        # the hash is taken once, as every solver cache keys on the model; floats
        # hash alike in every process, strs do not, so a pickled model keeps a valid hash
        Frozen.__init__(self, kind, atoms, values, weights, moments, hash(atoms))

    def __hash__(self):
        return self._hash

    @classmethod
    def rayleigh(cls) -> "FadingModel":
        """Exponentially distributed power gain (Rayleigh amplitude), mean 1."""
        return cls(RAYLEIGH)

    @classmethod
    def deterministic(cls) -> "FadingModel":
        """No fading: the power gain is identically 1."""
        return cls(DETERMINISTIC)

    @classmethod
    def tabulated(cls, pairs) -> "FadingModel":
        return cls(TABULATED, tuple((float(v), float(w)) for v, w in pairs))

    @classmethod
    def from_csv(cls, path) -> "FadingModel":
        """Load a tabulated model from two-column CSV (value, weight); header optional."""
        return cls.tabulated(read_numeric_rows(path, 2, "fading atom"))

    def mean_power(self) -> float:
        """E[X] as the expectation machinery actually sees it (unit-mean check)."""
        return self._moments[0]

    def _scaled_atoms(self, s):
        """s times each atom value: a vector for a float s, and for an array s
        the outer product, with the atoms on a new last axis."""
        return s * self._values if type(s) is float else np.multiply.outer(s, self._values)

    def expected_log1p(self, s):
        """E[ln(1 + s X)] in nats; accepts a scalar or ndarray scale s >= 0.

        A scalar gives a float. Deterministic scalars take math.log1p, which
        can differ from the array path's numpy log1p in the last bit.
        """
        s = _require_scale(s)
        if self.kind == RAYLEIGH:
            return (_rayleigh(s) if type(s) is float else _rayleigh_array(s))[0]
        if self.kind == DETERMINISTIC:
            return (math if type(s) is float else np).log1p(s)
        if type(s) is float:
            return float(np.log1p(self._values * s).dot(self._weights))
        return _row_dots(np.log1p(self._scaled_atoms(s)), self._weights)

    def expected_inv1p(self, s):
        """E[1/(1 + s X)]; same conventions as expected_log1p."""
        s = _require_scale(s)
        if self.kind == RAYLEIGH:
            return (_rayleigh(s) if type(s) is float else _rayleigh_array(s))[1]
        if self.kind == DETERMINISTIC:
            return 1.0 / (1.0 + s)
        terms = 1.0 / (1.0 + self._scaled_atoms(s))
        return float(terms @ self._weights) if type(s) is float else _row_dots(terms, self._weights)

    def kurtosis(self) -> float:
        """E[X^2] / E[X]^2, always >= 1."""
        mean, second = self._moments
        return second / (mean * mean)
