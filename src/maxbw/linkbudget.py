"""Deployment parameters to received power density: path loss, gains, noise.

Everything here works in decibels until the final conversion; the optimizer
only ever sees the linear Pr/N0 in hertz plus the array gain pair.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Tuple

from ._frozen import Frozen
from ._lazy import LazyNumpy
from .beamform import RICH_SCATTERING, ArrayConfig
from .core import PowerDensity, check_count
from .errors import ConfigError, read_numeric_rows

np = LazyNumpy(globals())

SPEED_OF_LIGHT = 299_792_458.0

# Thermal noise density at 290 K. Together with the receiver noise figure this
# fixes the absolute SNR scale; every published anchor in the acceptance suite
# is reproduced with this constant.
NOISE_DENSITY_DBM_PER_HZ = -174.0

FREE_SPACE = "freespace"
BLOCKED_LOS = "blockedlos"
UMI_NLOS = "umi-nlos"
CUSTOM = "custom"

_BLOCKAGE_EXCESS_DB = 25.0


def db_to_linear(db: float) -> float:
    """10 ** (db / 10); ValueError where that overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db} dB is too large for a float") from None


class PathLossModel(Frozen):
    """Distance/frequency to loss in dB.

    Built-ins: free space, free space plus a 25 dB blockage excess, and the
    3GPP urban-micro NLOS fit extrapolated in frequency. Custom tables
    interpolate loss linearly in log10(distance) and clamp outside the table
    with a warning.
    """

    __slots__ = ("kind", "table")

    def __init__(self, kind: str, table: tuple = ()):  # table: ((distance_m, loss_db), ...)
        if kind not in (FREE_SPACE, BLOCKED_LOS, UMI_NLOS, CUSTOM):
            raise ValueError(f"unknown path loss kind {kind!r}")
        if kind == CUSTOM:
            if len(table) < 2:
                raise ValueError("custom path loss table needs at least two points")
            pts = sorted((float(d), float(l)) for d, l in table)
            if not all(0.0 < d < math.inf for d, _ in pts):
                raise ValueError("custom table distances must be positive and finite")
            if not all(math.isfinite(l) for _, l in pts):
                raise ValueError("custom table losses must be finite")
            if len({d for d, _ in pts}) != len(pts):
                raise ValueError("custom table distances must be distinct")
            table = tuple(pts)
        Frozen.__init__(self, kind, table)

    @classmethod
    def free_space(cls) -> "PathLossModel":
        return cls(FREE_SPACE)

    @classmethod
    def blocked_los(cls) -> "PathLossModel":
        return cls(BLOCKED_LOS)

    @classmethod
    def umi_nlos(cls) -> "PathLossModel":
        return cls(UMI_NLOS)

    @classmethod
    def custom_table(cls, points) -> "PathLossModel":
        return cls(CUSTOM, tuple((float(d), float(l)) for d, l in points))

    @classmethod
    def from_csv(cls, path) -> "PathLossModel":
        """Two-column CSV (distance_m, loss_db); header optional."""
        return cls.custom_table(read_numeric_rows(path, 2, "path loss"))


def path_loss_db(model: PathLossModel, fc_hz: float, d_m: float) -> float:
    """Loss in dB at carrier fc_hz and distance d_m (>= 1 m, model validity)."""
    if not 0.0 < fc_hz < math.inf:
        raise ValueError(f"carrier frequency must be positive and finite, got {fc_hz}")
    if not 1.0 <= d_m < math.inf:
        raise ValueError(f"distance must be finite and >= 1 m for these models, got {d_m}")
    if model.kind == FREE_SPACE:
        return 20.0 * math.log10(4.0 * math.pi * d_m * fc_hz / SPEED_OF_LIGHT)
    if model.kind == BLOCKED_LOS:
        return 20.0 * math.log10(4.0 * math.pi * d_m * fc_hz / SPEED_OF_LIGHT) + _BLOCKAGE_EXCESS_DB
    if model.kind == UMI_NLOS:
        return 36.7 * math.log10(d_m) + 22.7 + 26.0 * math.log10(fc_hz / 1e9)
    dists = np.array([d for d, _ in model.table])
    losses = np.array([l for _, l in model.table])
    if d_m < dists[0] or d_m > dists[-1]:
        warnings.warn(
            f"distance {d_m} m outside custom table [{dists[0]}, {dists[-1]}]; loss clamped",
            stacklevel=2,
        )
    return float(np.interp(math.log10(d_m), np.log10(dists), losses))


class LinkBudget(Frozen):
    """One radio link described either per element or through its EIRP.

    Exactly one transmit power is set, and it fixes the mode: pt_element_dbm
    describes the link per element, eirp_dbm through its EIRP with the transmit
    array gain already folded in. Receive element gain is gr_element_dbi in
    both modes; the receive array factor comes from the paired ArrayConfig.
    Every power and gain is finite.
    """

    __slots__ = ("fc_hz", "d_m", "pt_element_dbm", "eirp_dbm", "gt_element_dbi",
                 "gr_element_dbi", "noise_figure_db", "path_loss")

    def __init__(self, fc_hz: float, d_m: float, pt_element_dbm: Optional[float] = None,
                 eirp_dbm: Optional[float] = None, gt_element_dbi: float = 0.0,
                 gr_element_dbi: float = 0.0, noise_figure_db: float = 0.0,
                 path_loss: PathLossModel = PathLossModel(FREE_SPACE)):
        if not 0.0 < fc_hz < math.inf:
            raise ValueError(f"carrier frequency must be positive and finite, got {fc_hz}")
        if not 0.0 < d_m < math.inf:
            raise ValueError(f"distance must be positive and finite, got {d_m}")
        if noise_figure_db < 0.0:
            raise ValueError(f"noise figure must be >= 0 dB, got {noise_figure_db}")
        # a NaN or infinite dB value would surface only as a bad Pr/N0
        for name, value in (("pt_element_dbm", pt_element_dbm), ("eirp_dbm", eirp_dbm),
                            ("gt_element_dbi", gt_element_dbi),
                            ("gr_element_dbi", gr_element_dbi),
                            ("noise_figure_db", noise_figure_db)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if (pt_element_dbm is None) == (eirp_dbm is None):
            raise ConfigError("a link budget needs exactly one of pt_element_dbm and eirp_dbm")
        Frozen.__init__(self, fc_hz, d_m, pt_element_dbm, eirp_dbm, gt_element_dbi, gr_element_dbi,
                        noise_figure_db, path_loss)


def eirp_dbm_of(lb: LinkBudget, cfg: ArrayConfig) -> float:
    """EIRP implied by the budget: element power + element gain + 20log10(nt)."""
    if lb.eirp_dbm is not None:
        return lb.eirp_dbm
    return lb.pt_element_dbm + lb.gt_element_dbi + 20.0 * math.log10(cfg.nt)


def power_density(lb: LinkBudget, cfg: ArrayConfig) -> Tuple[PowerDensity, Tuple[float, float]]:
    """Optimizer inputs for a link: power density and the array gain pair.

    The returned pair (gain, sweep_penalty) feeds the scalar substitution:
    the optimizer runs on (pd * gain, Lc / sweep_penalty).

    A budget with pt_element_dbm returns the per-element Pr/N0 (sum transmit
    power, element gains only) with the config's pair (G1*G2, Kt*G2). A budget
    with eirp_dbm folds all array gain into the density itself, because the
    EIRP contains the transmit array factor and the receive array factor rides
    along as 10log10(nr); its pair is (1, Kt*G2), and the density is scaled by
    G1*G2/(nt*nr) when combining is partial.
    Both descriptions of the same physical link give identical optimizer
    inputs, and a rich-scattering config cannot be expressed in EIRP mode at
    all (its estimation gain nt+nr is not a product of per-side array factors).
    """
    pl = path_loss_db(lb.path_loss, lb.fc_hz, lb.d_m)
    base = -pl - NOISE_DENSITY_DBM_PER_HZ - lb.noise_figure_db
    if lb.eirp_dbm is None:
        pd_db = lb.pt_element_dbm + 10.0 * math.log10(cfg.nt) + lb.gt_element_dbi \
            + lb.gr_element_dbi + base
        return PowerDensity(db_to_linear(pd_db)), cfg.gain_pair

    if cfg.gain_model == RICH_SCATTERING:
        raise ConfigError(
            "rich-scattering estimation gain cannot be folded into an EIRP; "
            "describe the link in element-power mode instead"
        )
    gr_total = lb.gr_element_dbi + 10.0 * math.log10(cfg.nr)
    pd_db = lb.eirp_dbm + gr_total + base
    gain, penalty = cfg.gain_pair
    # derate when the config's total gain falls short of the full array product
    return PowerDensity(db_to_linear(pd_db) * (gain / (cfg.nt * cfg.nr))), (1.0, penalty)


SUM_POWER = "sum-power"
RF_SOC = "rf-soc"
PHASED_SOC = "phased-soc"
LARGE_ARRAY = "large-array"
FCC_CAP = "fcc"

_EIRP_ROWS = (SUM_POWER, RF_SOC, PHASED_SOC, LARGE_ARRAY, FCC_CAP)


def eirp_table(row: str, nt: Optional[int] = None, w_hz: Optional[float] = None) -> float:
    """Reference transmit-capability figures in dBm.

    sum-power:    38 + 10log10(nt), combining per-element PAs.
    rf-soc:       36, single RF system-on-chip.
    phased-soc:   52, high-power phased-array SoC.
    large-array:  28 + 20log10(nt), low per-element power, large array.
    fcc:          regulatory outdoor cap, 75 dBm per 100 MHz: 75 + 10log10(W/100 MHz).
    """
    if row not in _EIRP_ROWS:
        raise ValueError(f"unknown EIRP table row {row!r}; valid rows: {_EIRP_ROWS}")
    if row in (SUM_POWER, LARGE_ARRAY):
        check_count("nt", nt)
    if row == SUM_POWER:
        return 38.0 + 10.0 * math.log10(nt)
    if row == RF_SOC:
        return 36.0
    if row == PHASED_SOC:
        return 52.0
    if row == LARGE_ARRAY:
        return 28.0 + 20.0 * math.log10(nt)
    if w_hz is None:
        raise ValueError("fcc row needs the signaling bandwidth w_hz")
    return fcc_eirp_cap_dbm(w_hz)


def fcc_eirp_cap_dbm(w_hz: float) -> float:
    """Outdoor EIRP ceiling growing 10log10 with bandwidth above 100 MHz."""
    if not 0.0 < w_hz < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {w_hz}")
    return 75.0 + 10.0 * math.log10(w_hz / 100e6)
