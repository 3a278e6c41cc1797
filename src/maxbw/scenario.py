"""Scenario files, presets, and their resolution into solver inputs.

A scenario is a flat `key = value` file (# starts a comment). Unknown keys
are rejected so typos fail loudly instead of silently using a default.
Either give the received power density directly (pr_n0_dbhz) or describe a
link budget (carrier, distance, transmit power or EIRP, antenna gains,
noise figure); never both.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from . import linkbudget
from ._frozen import Frozen
from .beamform import (
    EXPLICIT,
    IDEAL_DIRECTIONAL,
    RICH_SCATTERING,
    ArrayConfig,
)
from .core import CoherenceBlock, PowerDensity
from .errors import ConfigError
from .fading import DETERMINISTIC, RAYLEIGH, TABULATED, FadingModel

_FLOAT_KEYS = {
    "tc_ms", "bc_mhz", "lc",
    "fc_ghz", "distance_m",
    "pt_element_dbm", "pt_total_dbm", "eirp_dbm",
    "gt_element_dbi", "gr_element_dbi", "gr_total_dbi",
    "noise_figure_db", "pr_n0_dbhz",
    "g1", "g2",
    "sweep_start", "sweep_stop",
}
_INT_KEYS = {"nt", "nr", "kt", "sweep_points"}
_STR_KEYS = {
    "fading", "fading_csv", "pathloss", "pathloss_csv",
    "gain_model", "sweep", "sweep_spacing",
}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS

# keys a sweep may vary
SWEEPABLE = sorted(_FLOAT_KEYS - {"sweep_start", "sweep_stop"})

_POWER_KEYS = ("pt_element_dbm", "pt_total_dbm", "eirp_dbm")


def parse_scenario_text(text: str, origin: str = "<scenario>") -> Dict[str, str]:
    mapping: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in mapping:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{origin}:{lineno}: empty value for {key!r}")
        mapping[key] = value
    return mapping


def parse_scenario_file(path) -> Dict[str, str]:
    with open(path) as fh:
        return parse_scenario_text(fh.read(), origin=str(path))


def _typed(mapping: Dict[str, str]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for key, value in mapping.items():
        try:
            if key in _FLOAT_KEYS:
                out[key] = float(value)
            elif key in _INT_KEYS:
                out[key] = int(value)
            else:
                out[key] = value
        except ValueError:
            raise ConfigError(f"key {key!r}: cannot parse {value!r}") from None
    return out


class Resolved(Frozen):
    """Solver-ready view of one scenario point."""

    __slots__ = ("pd", "cb", "fading", "gain", "sweep_penalty")

    def __init__(self, pd: PowerDensity, cb: CoherenceBlock, fading: FadingModel, gain: float,
                 sweep_penalty: float):
        Frozen.__init__(self, pd, cb, fading, gain, sweep_penalty)


def _coherence(v: Dict[str, object]) -> CoherenceBlock:
    tc_s = v["tc_ms"] * 1e-3 if "tc_ms" in v else None
    bc_hz = v["bc_mhz"] * 1e6 if "bc_mhz" in v else None
    if "lc" in v:
        return CoherenceBlock(lc=v["lc"], bc_hz=bc_hz, tc_s=tc_s)
    if tc_s is None or bc_hz is None:
        raise ConfigError("need lc, or both tc_ms and bc_mhz")
    return CoherenceBlock.from_tc_bc(tc_s=tc_s, bc_hz=bc_hz)


def _fading(v: Dict[str, object]) -> FadingModel:
    kind = v.get("fading", RAYLEIGH)
    if kind in (RAYLEIGH, DETERMINISTIC):
        return FadingModel(kind)
    if kind == TABULATED:
        if "fading_csv" not in v:
            raise ConfigError("fading = tabulated needs fading_csv")
        return FadingModel.from_csv(v["fading_csv"])
    raise ConfigError(f"unknown fading {kind!r}; valid: rayleigh, deterministic, tabulated")


def _array(v: Dict[str, object]) -> ArrayConfig:
    nt = v.get("nt", 1)
    nr = v.get("nr", 1)
    model = v.get("gain_model", EXPLICIT)
    for short, full, build in (("ideal", IDEAL_DIRECTIONAL, ArrayConfig.ideal_directional),
                               ("rich", RICH_SCATTERING, ArrayConfig.rich_scattering)):
        if model in (short, full):
            for key in ("kt", "g1", "g2"):
                if key in v:
                    raise ConfigError(f"gain_model = {short} derives {key}; do not set it")
            return build(nt, nr)
    if model == EXPLICIT:
        return ArrayConfig(nt=nt, nr=nr,
                           kt=v.get("kt", 1),
                           g1=v.get("g1", 1.0),
                           g2=v.get("g2", 1.0),
                           gain_model=EXPLICIT)
    raise ConfigError(f"unknown gain_model {model!r}; valid: ideal, rich, explicit")


def _pathloss(v: Dict[str, object]) -> linkbudget.PathLossModel:
    kind = v.get("pathloss", linkbudget.FREE_SPACE)
    if kind in (linkbudget.FREE_SPACE, linkbudget.BLOCKED_LOS, linkbudget.UMI_NLOS):
        return linkbudget.PathLossModel(kind)
    if kind == linkbudget.CUSTOM:
        if "pathloss_csv" not in v:
            raise ConfigError("pathloss = custom needs pathloss_csv")
        return linkbudget.PathLossModel.from_csv(v["pathloss_csv"])
    raise ConfigError(
        f"unknown pathloss {kind!r}; valid: freespace, blockedlos, umi-nlos, custom"
    )


def resolve(mapping: Dict[str, str], overrides: Optional[Dict[str, float]] = None) -> Resolved:
    """Typed solver inputs for one scenario, with optional sweep overrides."""
    v = _typed(mapping)
    if overrides:
        for key, value in overrides.items():
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown override key {key!r}")
            v[key] = value

    cb = _coherence(v)
    fading = _fading(v)
    cfg = _array(v)

    direct = "pr_n0_dbhz" in v
    budget_keys = [k for k in ("fc_ghz", "distance_m", *_POWER_KEYS) if k in v]
    if direct and budget_keys:
        raise ConfigError(
            f"pr_n0_dbhz conflicts with link budget keys {budget_keys}; give one or the other"
        )
    if direct:
        pd = PowerDensity(linkbudget.db_to_linear(v["pr_n0_dbhz"]))
        # density is taken as already beamformed; only the sweep penalty remains
        return Resolved(pd=pd, cb=cb, fading=fading, gain=1.0, sweep_penalty=cfg.gain_pair[1])

    if "fc_ghz" not in v or "distance_m" not in v:
        raise ConfigError("need pr_n0_dbhz, or a link budget with fc_ghz and distance_m")
    powers = [k for k in _POWER_KEYS if k in v]
    if len(powers) != 1:
        raise ConfigError(f"give exactly one of {_POWER_KEYS}, got {powers or 'none'}")

    gt = v.get("gt_element_dbi", 0.0)
    if "gr_total_dbi" in v:
        if "gr_element_dbi" in v:
            raise ConfigError("give gr_element_dbi or gr_total_dbi, not both")
        gr = v["gr_total_dbi"] - 10.0 * math.log10(cfg.nr)
    else:
        gr = v.get("gr_element_dbi", 0.0)

    pt_element = (v["pt_total_dbm"] - 10.0 * math.log10(cfg.nt) if "pt_total_dbm" in v
                  else v.get("pt_element_dbm"))

    lb = linkbudget.LinkBudget(
        fc_hz=v["fc_ghz"] * 1e9,
        d_m=v["distance_m"],
        pt_element_dbm=pt_element,
        eirp_dbm=v.get("eirp_dbm"),
        gt_element_dbi=gt,
        gr_element_dbi=gr,
        noise_figure_db=v.get("noise_figure_db", 0.0),
        path_loss=_pathloss(v),
    )
    pd, (gain, penalty) = linkbudget.power_density(lb, cfg)
    return Resolved(pd=pd, cb=cb, fading=fading, gain=gain, sweep_penalty=penalty)


def channel_only(mapping: Dict[str, str]) -> Tuple[CoherenceBlock, FadingModel]:
    """Coherence block and fading model alone, for flows that bring their own
    power budgets (multi-user allocation).

    The power and link budget keys and the sweep keys are ignored. The array
    keys are refused: their gain and sweep penalty would change every user's
    power and coherence length, which this view cannot carry.
    """
    array_keys = [k for k in ("nt", "nr", "kt", "g1", "g2", "gain_model") if k in mapping]
    if array_keys:
        raise ConfigError(f"allocation takes no array keys, got {array_keys}: fold the array "
                          f"gain into each user's gain and its sweep penalty into lc")
    v = _typed(mapping)
    return _coherence(v), _fading(v)


def sweep_axis(mapping: Dict[str, str]) -> Optional[Tuple[str, List[float]]]:
    """Sweep key and grid, or None when the scenario has no sweep block."""
    v = _typed(mapping)
    if "sweep" not in v:
        for key in ("sweep_start", "sweep_stop", "sweep_points", "sweep_spacing"):
            if key in v:
                raise ConfigError(f"{key} given without sweep")
        return None
    key = v["sweep"]
    if key not in SWEEPABLE:
        raise ConfigError(f"cannot sweep {key!r}; sweepable keys: {SWEEPABLE}")
    for required in ("sweep_start", "sweep_stop", "sweep_points"):
        if required not in v:
            raise ConfigError(f"sweep needs {required}")
    start, stop, points = v["sweep_start"], v["sweep_stop"], v["sweep_points"]
    if points < 2:
        raise ConfigError("sweep_points must be at least 2")
    spacing = v.get("sweep_spacing", "log")
    if spacing not in ("log", "linear"):
        raise ConfigError(f"unknown sweep_spacing {spacing!r}; valid: log, linear")
    log = spacing == "log"
    if log and (start <= 0 or stop <= 0):
        raise ConfigError("log spacing needs positive sweep bounds")
    # numpy's order of operations: linspace is i*step + lo up to an exact
    # stop, and geomspace raises 10 to the linspace of the exponents between
    # exact end points
    lo, hi = (math.log10(start), math.log10(stop)) if log else (start, stop)
    step = (hi - lo) / (points - 1)
    grid = [i * step + lo for i in range(points - 1)]
    if log:
        try:
            grid = [start, *(10.0 ** y for y in grid[1:])]
        except OverflowError:
            raise ConfigError(f"log sweep from {start} to {stop} passes the largest float") from None
    return key, grid + [stop]


# Named operating points used in docs and regression checks. Expectation
# ranges are deliberately loose; `presets verify` asserts containment.
_ABSTRACT_28 = {
    "fc_ghz": "28", "distance_m": "211", "pathloss": "umi-nlos",
    "eirp_dbm": "52", "gr_total_dbi": "11",
    "nt": "16", "nr": "4", "gain_model": "ideal",
    "noise_figure_db": "9",
    "tc_ms": "5", "bc_mhz": "10",
    "fading": "deterministic",
}

PRESETS: Dict[str, Dict[str, str]] = {
    "fig2": {
        "pr_n0_dbhz": "80", "tc_ms": "1", "bc_mhz": "10",
        "fading": "rayleigh",
        "sweep": "tc_ms", "sweep_start": "0.1", "sweep_stop": "100",
        "sweep_points": "25", "sweep_spacing": "log",
    },
    "fig4-left": {
        "fc_ghz": "28", "distance_m": "100", "pathloss": "umi-nlos",
        "pt_total_dbm": "30", "gt_element_dbi": "8", "gr_element_dbi": "5",
        "nt": "16", "nr": "2", "gain_model": "ideal",
        "noise_figure_db": "9",
        "tc_ms": "5", "bc_mhz": "10",
        "fading": "deterministic",
    },
    "abstract-28ghz": dict(_ABSTRACT_28),
    "abstract-39ghz": {**_ABSTRACT_28, "fc_ghz": "39", "distance_m": "170"},
    "fcc-28ghz": {**_ABSTRACT_28, "eirp_dbm": "85", "distance_m": "860"},
    "fig6a": {**_ABSTRACT_28, "distance_m": "210",
              "sweep": "distance_m", "sweep_start": "50", "sweep_stop": "1000",
              "sweep_points": "21", "sweep_spacing": "log"},
    "fig6b": {**_ABSTRACT_28,
              "sweep": "eirp_dbm", "sweep_start": "40", "sweep_stop": "85",
              "sweep_points": "19", "sweep_spacing": "linear"},
}

# acceptance ranges for `presets verify`: (field, low, high) on the solved point
PRESET_EXPECTATIONS: Dict[str, List[Tuple[str, float, float]]] = {
    "fig4-left": [
        ("w_opt_hz", 5.4e9, 6.6e9),
        ("rate_bps", 0.90e9, 1.12e9),
    ],
    "abstract-28ghz": [
        ("w_opt_hz", 0.80e9, 1.20e9),
        ("rate_bps", 1.6e8, 2.4e8),
    ],
    "abstract-39ghz": [
        ("w_opt_hz", 0.60e9, 1.20e9),
        ("rate_bps", 1.4e8, 2.4e8),
    ],
    "fcc-28ghz": [
        ("w_opt_hz", 9.0e9, 14.0e9),
        ("rate_fixed_1ghz_bps", 1.2e9, 1.7e9),
    ],
    "fig2": [
        ("w_opt_hz", 1.7e9, 2.3e9),
    ],
}


def preset(name: str) -> Dict[str, str]:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; valid: {sorted(PRESETS)}")
    return dict(PRESETS[name])
