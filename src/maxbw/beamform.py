"""Beam-switching antenna arrays reduced to the single-antenna optimizer.

A transmitter sweeping Kt candidate beams spends pilot energy on every
candidate, while data flows only through the selected beam with estimation
gain G1 and post-selection combining gain G2. That folds into the scalar
problem by substituting

    rho_tilde = G1 * G2 * rho          (stronger per-symbol SNR)
    lc_tilde  = Lc / (Kt * G2)         (coherence shared across the sweep)

so every result from `core` carries over. `substitute` is the one place
that folds an array into the scalar problem.
"""

from __future__ import annotations

import math
from typing import Tuple

from . import core
from ._frozen import Frozen, replace
from .core import CoherenceBlock, OperatingPoint, ClosedForm, check_count
from .errors import ConfigError
from .fading import FadingModel

EXPLICIT = "explicit"
IDEAL_DIRECTIONAL = "ideal-directional"
RICH_SCATTERING = "rich-scattering"


class ArrayConfig(Frozen):
    """Antenna counts plus the three scalars the optimizer consumes.

    nt, nr: transmit / receive element counts.
    kt:     candidate beams swept with pilots.
    g1:     mean gain through the selected beam during estimation, <= nt*nr.
    g2:     combining gain applied from the data stage on, <= nr.
    """

    __slots__ = ("nt", "nr", "kt", "g1", "g2", "gain_model")

    def __init__(self, nt: int, nr: int, kt: int, g1: float, g2: float,
                 gain_model: str = EXPLICIT):
        for name, v in (("nt", nt), ("nr", nr), ("kt", kt)):
            check_count(name, v)
        if not g1 >= 1.0:
            raise ValueError(f"g1 must be >= 1, got {g1}")
        if not g2 >= 1.0:
            raise ValueError(f"g2 must be >= 1, got {g2}")
        if g1 > nt * nr * (1.0 + 1e-12):
            raise ValueError(f"g1 = {g1} exceeds nt*nr = {nt * nr}")
        if g2 > nr * (1.0 + 1e-12):
            raise ValueError(f"g2 = {g2} exceeds nr = {nr}")
        if gain_model not in (EXPLICIT, IDEAL_DIRECTIONAL, RICH_SCATTERING):
            raise ValueError(f"unknown gain model {gain_model!r}")
        Frozen.__init__(self, nt, nr, kt, g1, g2, gain_model)

    @classmethod
    def siso(cls) -> "ArrayConfig":
        return cls(nt=1, nr=1, kt=1, g1=1.0, g2=1.0)

    @classmethod
    def ideal_directional(cls, nt: int, nr: int) -> "ArrayConfig":
        """Perfectly directional elements: full array gain, one beam pair per element pair."""
        return cls(nt=nt, nr=nr, kt=nt * nr, g1=float(nt * nr), g2=1.0,
                   gain_model=IDEAL_DIRECTIONAL)

    @classmethod
    def rich_scattering(cls, nt: int, nr: int) -> "ArrayConfig":
        """I.i.d. channel entries: the hottest of nt*nr beams averages nt+nr."""
        return cls(nt=nt, nr=nr, kt=nt * nr, g1=float(nt + nr), g2=1.0,
                   gain_model=RICH_SCATTERING)

    @classmethod
    def simo(cls, nr: int, g2: float = None) -> "ArrayConfig":
        """Receive combining only: no beam sweep, estimation sees a single antenna."""
        g2 = float(nr) if g2 is None else float(g2)
        return cls(nt=1, nr=nr, kt=1, g1=1.0, g2=g2)

    @classmethod
    def miso(cls, nt: int, kt: int = None, g1: float = None) -> "ArrayConfig":
        """Transmit beam sweep with a single receive antenna."""
        kt = nt if kt is None else kt
        g1 = float(nt) if g1 is None else float(g1)
        return cls(nt=nt, nr=1, kt=kt, g1=g1, g2=1.0)

    @property
    def gain_pair(self) -> Tuple[float, float]:
        """(G1*G2, Kt*G2): the power gain and the sweep penalty of the substitution."""
        return self.g1 * self.g2, self.kt * self.g2


def _lc_tilde(lc: float, penalty: float) -> float:
    """Coherence length left per beam, lc / (Kt*G2); at least 2 symbols."""
    lc_tilde = lc / penalty
    if lc_tilde < 2.0:
        raise ConfigError(
            f"coherence exhausted by beam sweep: lc/(kt*g2) = {lc_tilde:.3f} < 2 "
            f"(lc={lc}, kt*g2={penalty})"
        )
    return lc_tilde


def substitute(pd, cb: CoherenceBlock, gain: float,
               sweep_penalty: float) -> Tuple[float, CoherenceBlock]:
    """The scalar problem's inputs under a checked gain pair: the density
    pd*gain in hertz and the block of length lc/(Kt*G2). An ArrayConfig
    passes *cfg.gain_pair."""
    if not (0.0 < gain < math.inf and 1.0 <= sweep_penalty < math.inf):
        raise ConfigError(f"bad gain pair ({gain}, {sweep_penalty})")
    lc_tilde = _lc_tilde(cb.lc, sweep_penalty)
    # bandwidth lattice is a property of the channel, not of the sweep
    return core._pd_hz(pd) * gain, CoherenceBlock(lc=lc_tilde, bc_hz=cb.bc_hz)


def solve_with_gains(pd, cb: CoherenceBlock, gain: float, sweep_penalty: float,
                     fading: FadingModel) -> OperatingPoint:
    """Optimal bandwidth and pilot ratio under an explicit (gain, penalty) pair.

    The density pd is pre-gain: the solver runs at pd*gain with coherence
    shortened by the sweep penalty, and reports rho back in pre-gain units.
    Budgets that already fold the array gain into pd pass gain = 1.
    """
    point = core.solve_continuous(*substitute(pd, cb, gain, sweep_penalty), fading)
    return replace(point, rho=point.rho / gain)


def fixed_bandwidth_with_gains(pd, w_hz: float, cb: CoherenceBlock, gain: float,
                               sweep_penalty: float, fading: FadingModel) -> OperatingPoint:
    """Pilot-only optimization at pinned bandwidth under an explicit gain pair."""
    pd_sub, sub_cb = substitute(pd, cb, gain, sweep_penalty)
    point = core.rate_fixed_bandwidth(pd_sub, w_hz, sub_cb, fading)
    return replace(point, rho=point.rho / gain)


def mimo_rate(pd, w_hz: float, alpha: float, cb: CoherenceBlock, cfg: ArrayConfig,
              fading: FadingModel) -> float:
    """Rate of an array link at an explicit (bandwidth, pilot ratio) choice."""
    pd_sub, sub_cb = substitute(pd, cb, *cfg.gain_pair)
    return core.rate(pd_sub, w_hz, alpha, sub_cb, fading)


def closed_form_mimo(cfg: ArrayConfig, lc: float) -> ClosedForm:
    """Leading-order array optimum: `core.closed_form_first_order` at
    Lc/(Kt*G2), with rho per antenna (divided by G1*G2) and the rate factor
    multiplied by G1*G2, the rate itself being rate_factor * Pr/N0.
    Reduces to the scalar closed form when Kt = G1 = G2 = 1.
    """
    gain, penalty = cfg.gain_pair
    form = core.closed_form_first_order(_lc_tilde(lc, penalty))
    return ClosedForm(rho=form.rho / gain, alpha=form.alpha,
                      rate_factor=form.rate_factor * gain)
