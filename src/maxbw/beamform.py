"""Beam-switching antenna arrays reduced to the single-antenna optimizer.

A transmitter sweeping Kt candidate beams spends pilot energy on every
candidate, while data flows only through the selected beam with estimation
gain G1 and post-selection combining gain G2. That folds into the scalar
problem by substituting

    rho_tilde = G1 * G2 * rho          (stronger per-symbol SNR)
    lc_tilde  = Lc / (Kt * G2)         (coherence shared across the sweep)

so every result from `core` carries over; this module owns the bookkeeping.
"""

from __future__ import annotations

from typing import Tuple

from . import core
from ._frozen import Frozen, replace
from .core import LOG2E, CoherenceBlock, OperatingPoint, ClosedForm
from .errors import ConfigError
from .fading import FadingModel

EXPLICIT = "explicit"
IDEAL_DIRECTIONAL = "ideal-directional"
RICH_SCATTERING = "rich-scattering"


def check_count(name: str, value) -> None:
    """ValueError unless value is an int >= 1; bool is an int subclass, but
    True is no antenna count."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


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


class SubstitutedProblem(Frozen):
    """Scalar-problem view of an array link.

    gain: G1*G2, multiplies the power density.
    sweep_penalty: Kt*G2, divides the coherence length.
    """

    __slots__ = ("lc_tilde", "gain", "sweep_penalty")

    def __init__(self, lc_tilde: float, gain: float, sweep_penalty: float):
        Frozen.__init__(self, lc_tilde, gain, sweep_penalty)

    @property
    def gain_pair(self) -> Tuple[float, float]:
        return self.gain, self.sweep_penalty


def _lc_tilde(lc: float, penalty: float) -> float:
    """Coherence length left per beam, lc / (Kt*G2); at least 2 symbols."""
    lc_tilde = lc / penalty
    if lc_tilde < 2.0:
        raise ConfigError(
            f"coherence exhausted by beam sweep: lc/(kt*g2) = {lc_tilde:.3f} < 2 "
            f"(lc={lc}, kt*g2={penalty})"
        )
    return lc_tilde


def substitute(cfg: ArrayConfig, cb: CoherenceBlock) -> SubstitutedProblem:
    """Effective coherence length and gain pair for the scalar problem."""
    gain, penalty = cfg.gain_pair
    return SubstitutedProblem(lc_tilde=_lc_tilde(cb.lc, penalty), gain=gain, sweep_penalty=penalty)


def _substituted(pd, cb: CoherenceBlock, gain: float,
                 sweep_penalty: float) -> Tuple[float, CoherenceBlock]:
    """The scalar problem's inputs under a checked gain pair: the density
    pd*gain in hertz and the block of length lc/(Kt*G2)."""
    if gain <= 0.0 or sweep_penalty < 1.0:
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
    point = core.solve_continuous(*_substituted(pd, cb, gain, sweep_penalty), fading)
    return replace(point, rho=point.rho / gain)


def fixed_bandwidth_with_gains(pd, w_hz: float, cb: CoherenceBlock, gain: float,
                               sweep_penalty: float, fading: FadingModel) -> OperatingPoint:
    """Pilot-only optimization at pinned bandwidth under an explicit gain pair."""
    pd_sub, sub_cb = _substituted(pd, cb, gain, sweep_penalty)
    point = core.rate_fixed_bandwidth(pd_sub, w_hz, sub_cb, fading)
    return replace(point, rho=point.rho / gain)


def solve_mimo(pd, cb: CoherenceBlock, cfg: ArrayConfig, fading: FadingModel) -> OperatingPoint:
    """Jointly optimal bandwidth and pilot ratio for an array link.

    Solves the substituted scalar problem, then reports rho per antenna
    element (divide the substituted SNR by G1*G2). Bandwidth, pilot ratio,
    effective SNR and rate carry over unchanged.
    """
    return solve_with_gains(pd, cb, *cfg.gain_pair, fading)


def mimo_rate(pd, w_hz: float, alpha: float, cb: CoherenceBlock, cfg: ArrayConfig,
              fading: FadingModel) -> float:
    """Rate of an array link at an explicit (bandwidth, pilot ratio) choice."""
    pd_sub, sub_cb = _substituted(pd, cb, *cfg.gain_pair)
    return core.rate(pd_sub, w_hz, alpha, sub_cb, fading)


def mimo_rate_fixed_bandwidth(pd, w_hz: float, cb: CoherenceBlock, cfg: ArrayConfig,
                              fading: FadingModel) -> OperatingPoint:
    """Pilot-only optimization at pinned bandwidth for an array link."""
    return fixed_bandwidth_with_gains(pd, w_hz, cb, *cfg.gain_pair, fading)


def closed_form_mimo(cfg: ArrayConfig, lc: float) -> ClosedForm:
    """Leading-order array optimum.

    rho (per antenna) = (4*Kt*G2/Lc)^(1/3) / (G1*G2),
    alpha             = (Kt*G2/(2*Lc))^(1/3),
    rate_factor       = (1 - 1.5*(4*Kt*G2/Lc)^(1/3)) * G1*G2 * log2(e),
    with the rate itself being rate_factor * Pr/N0. Reduces to the scalar
    closed forms when Kt = G1 = G2 = 1.
    """
    gain, penalty = cfg.gain_pair
    _lc_tilde(lc, penalty)
    x = (4.0 * penalty / lc) ** (1.0 / 3.0)
    return ClosedForm(
        rho=x / gain,
        alpha=(penalty / (2.0 * lc)) ** (1.0 / 3.0),
        rate_factor=(1.0 - 1.5 * x) * gain * LOG2E,
    )
