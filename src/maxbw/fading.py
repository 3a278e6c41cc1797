"""Small-scale fading models and the channel-power expectations used by rate formulas.

Every model describes the distribution of the channel power gain (|h|^2 for a
complex gain h) normalized to unit mean. Rate evaluation needs two expectations,
E[ln(1 + s X)] and E[1/(1 + s X)], both computed here so callers never touch the
distribution directly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

# Fixed Gauss-Laguerre rule for expectations over an Exp(1) channel power.
# 64 nodes give relative accuracy well below 1e-8 for the scale range the
# optimizer visits (s <= ~3); deterministic, no RNG in the hot path.
_GL_NODES, _GL_WEIGHTS = np.polynomial.laguerre.laggauss(64)

RAYLEIGH = "rayleigh"
DETERMINISTIC = "deterministic"
TABULATED = "tabulated"


def _require_scale(s):
    arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError(f"expectation scale must be finite and >= 0, got {s!r}")
    return arr


@dataclass(frozen=True)
class FadingModel:
    """Unit-mean channel power distribution.

    kind: one of "rayleigh", "deterministic", "tabulated".
    atoms: for tabulated models, ((value, weight), ...) with weights summing to 1.
    """

    kind: str
    atoms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in (RAYLEIGH, DETERMINISTIC, TABULATED):
            raise ValueError(f"unknown fading kind {self.kind!r}")
        # quadrature values and weights, built once: the Gauss-Laguerre rule
        # for Rayleigh, the atoms for tabulated. They are not dataclass fields,
        # so hashing and equality stay on (kind, atoms).
        values, weights = _GL_NODES, _GL_WEIGHTS
        if self.kind == DETERMINISTIC:
            values, weights = np.ones(1), np.ones(1)
        elif self.kind == TABULATED:
            if not self.atoms:
                raise ValueError("tabulated fading needs at least one atom")
            values = np.array([v for v, _ in self.atoms], dtype=float)
            weights = np.array([w for _, w in self.atoms], dtype=float)
            if np.any(values < 0.0) or np.any(weights < 0.0):
                raise ValueError("tabulated atoms must have value >= 0 and weight >= 0")
            wsum = weights.sum()
            if abs(wsum - 1.0) > 1e-9:
                raise ValueError(f"tabulated weights must sum to 1, got {wsum}")
            weights = weights / wsum
            mean = float(weights @ values)
            if abs(mean - 1.0) > 0.01:
                raise ValueError(
                    f"tabulated mean power {mean:.6f} is more than 1% from unity; "
                    "rescale the values before constructing the model"
                )
            # renormalize exactly to unit mean; downstream formulas assume it
            values = values / mean
            object.__setattr__(self, "atoms", tuple(zip(values.tolist(), weights.tolist())))
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_weights", weights)

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
        pairs = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or not row[0].strip():
                    continue
                try:
                    pairs.append((float(row[0]), float(row[1])))
                except ValueError:
                    if pairs:
                        raise
                    continue  # header line
        return cls.tabulated(pairs)

    def mean_power(self) -> float:
        """E[X] as the expectation machinery actually sees it (unit-mean check)."""
        return float(self._weights @ self._values)

    def expected_log1p(self, s):
        """E[ln(1 + s X)] in nats; accepts a scalar or ndarray scale s >= 0."""
        arr = _require_scale(s)
        if self.kind == DETERMINISTIC:
            out = np.log1p(arr)
        else:
            out = np.log1p(np.multiply.outer(arr, self._values)) @ self._weights
        return out if isinstance(s, np.ndarray) else float(out)

    def expected_inv1p(self, s):
        """E[1/(1 + s X)]; same conventions as expected_log1p."""
        arr = _require_scale(s)
        if self.kind == DETERMINISTIC:
            out = 1.0 / (1.0 + arr)
        else:
            out = (1.0 / (1.0 + np.multiply.outer(arr, self._values))) @ self._weights
        return out if isinstance(s, np.ndarray) else float(out)

    def kurtosis(self) -> float:
        """E[X^2] / E[X]^2, always >= 1.

        Rayleigh's exact value is 2; its 64-node quadrature would give
        2 - 3.5e-14.
        """
        if self.kind == RAYLEIGH:
            return 2.0
        mean = self.mean_power()
        return float(self._weights @ (self._values * self._values)) / (mean * mean)
