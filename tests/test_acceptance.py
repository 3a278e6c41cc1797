"""Acceptance gate: the twelve checks this package must pass before shipping.

Each test is one check, numbered, designed to print a single pass/fail line
under pytest -v. Tolerances are part of the contract; do not loosen them.
"""

import math
import time

import numpy as np
import pytest

from maxbw import allocate, baselines, beamform, core, scenario
from maxbw.beamform import ArrayConfig
from maxbw.core import LOG2E, CoherenceBlock
from maxbw.fading import FadingModel

RAY = FadingModel.rayleigh()
DET = FadingModel.deterministic()


def _solve_preset(name: str, **overrides):
    mapping = scenario.preset(name)
    res = scenario.resolve(mapping, overrides=overrides or None)
    point = beamform.solve_with_gains(res.pd, res.cb, res.gain,
                                      res.sweep_penalty, res.fading)
    return res, point


def _distance_where(preset_name: str, value_of, target: float,
                    lo: float, hi: float) -> float:
    """Distance at which value_of(distance) crosses target (decreasing in d)."""
    f_lo = value_of(preset_name, lo) - target
    f_hi = value_of(preset_name, hi) - target
    assert f_lo > 0.0 > f_hi, (
        f"crossing not bracketed: f({lo})={f_lo:.3g}, f({hi})={f_hi:.3g}")
    for _ in range(50):
        mid = math.sqrt(lo * hi)
        if value_of(preset_name, mid) - target > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _w_opt_at(preset_name: str, d_m: float) -> float:
    _, point = _solve_preset(preset_name, distance_m=d_m)
    return point.w_hz


def _rate_at(preset_name: str, d_m: float) -> float:
    _, point = _solve_preset(preset_name, distance_m=d_m)
    return point.rate_bps


def _rate_1ghz_at(preset_name: str, d_m: float, **overrides) -> float:
    mapping = scenario.preset(preset_name)
    res = scenario.resolve(mapping, overrides={"distance_m": d_m, **overrides})
    point = beamform.fixed_bandwidth_with_gains(
        res.pd, 1e9, res.cb, res.gain, res.sweep_penalty, res.fading)
    return point.rate_bps


def test_01_stationarity_residuals_vanish_at_reported_optimum():
    core._solve_rho_on_curve.cache_clear()
    start = time.perf_counter()
    points = []
    for lc in (1e3, 1e4, 5e4, 1e6):
        points.append((lc, core.solve_continuous(1e8, CoherenceBlock(lc=lc), RAY)))
    elapsed = time.perf_counter() - start
    for lc, point in points:
        r_w, r_alpha = core.condition_residuals(point.rho, point.alpha, lc, RAY)
        assert abs(r_alpha) < 1e-9, f"pilot residual {r_alpha} at lc={lc}"
        assert abs(r_w) < 1e-7, f"bandwidth residual {r_w} at lc={lc}"
    assert elapsed < 1.0, f"four solves took {elapsed:.3f} s"


def test_02_discretized_solution_matches_exhaustive_search():
    start = time.perf_counter()
    cb = CoherenceBlock(lc=1e3, bc_hz=1e6)
    for pd in (1e7, 1e8):
        cont = core.solve_continuous(pd, cb, RAY)
        rounded = core.discretize(cont, cb, pd, RAY)
        m_max = 2 * math.ceil(cont.w_hz / cb.bc_hz)
        brute = core.exhaustive_search(pd, cb, RAY, m_max=m_max)
        assert "maximum_at_edge" not in brute.flags
        gap = (brute.rate_bps - rounded.rate_bps) / brute.rate_bps
        assert gap >= -1e-12, "exhaustive search missed the true maximum"
        assert gap < 5e-3, f"rounding lost {gap:.2%} at pd={pd:g}"
    assert time.perf_counter() - start < 30.0


def test_03_closed_forms_converge_to_numeric_optimum():
    # first-order forms must converge at the cube-root rate; the refined
    # corrections claim 1% agreement from lc = 1e4 upward
    for lc in (1e3, 1e4, 1e5, 1e6):
        point = core.solve_continuous(1e9, CoherenceBlock(lc=lc), DET)
        first = core.closed_form_first_order(lc)
        scale = lc ** (2.0 / 3.0)
        assert abs(point.rho - first.rho) * scale <= 5.0
        assert abs(point.alpha - first.alpha) * scale <= 5.0
        if lc >= 1e4:
            refined = core.closed_form_refined(lc)
            assert abs(refined.rho - point.rho) / point.rho < 1e-2
            assert abs(refined.alpha - point.alpha) / point.alpha < 1e-2


def test_04_lattice_rounding_deviation_is_fraction_of_a_percent():
    bc = 1e6
    cb = CoherenceBlock(lc=5e4, bc_hz=bc)
    pd = 10.0 * bc  # received density 10 dB above one coherence bandwidth
    cont = core.solve_continuous(pd, cb, RAY)
    m = round(cont.w_hz / bc)
    dev_w = abs(m * bc - cont.w_hz) / cont.w_hz
    n = round(cont.alpha * cb.lc)
    dev_a = abs(n / cb.lc - cont.alpha) / cont.alpha
    assert dev_w < 3e-3, f"bandwidth rounding deviation {dev_w:.4%}"
    assert dev_a < 6e-4, f"pilot rounding deviation {dev_a:.4%}"


def test_05_optimal_bandwidth_scales_linearly_with_received_power():
    for fading in (RAY, DET):
        for lc in (1e3, 1e5):
            cb = CoherenceBlock(lc=lc)
            a = core.solve_continuous(1e8, cb, fading)
            b = core.solve_continuous(2e8, cb, fading)
            assert b.w_hz / a.w_hz == pytest.approx(2.0, rel=1e-9)
            assert b.rho == pytest.approx(a.rho, rel=1e-9)
            assert b.alpha == pytest.approx(a.alpha, rel=1e-9)


def test_06_urban_street_level_link_peaks_near_6_ghz():
    res, point = _solve_preset("fig4-left")
    assert point.w_hz == pytest.approx(6e9, rel=0.10)
    tenth = beamform.fixed_bandwidth_with_gains(
        res.pd, point.w_hz / 10.0, res.cb, res.gain, res.sweep_penalty, res.fading)
    deduction = (point.rate_bps - tenth.rate_bps) / point.rate_bps
    assert deduction < 0.30, f"rate deduction at W*/10 is {deduction:.1%}"


def test_07_coverage_anchors_at_28_and_39_ghz():
    d28_1g = _distance_where("abstract-28ghz", _w_opt_at, 1e9, 50.0, 1000.0)
    assert 195.0 <= d28_1g <= 225.0, f"1 GHz crossing at {d28_1g:.1f} m"
    assert _rate_at("abstract-28ghz", d28_1g) == pytest.approx(200e6, rel=0.15)

    d28_100m = _distance_where("abstract-28ghz", _w_opt_at, 100e6, 50.0, 1500.0)
    assert 370.0 <= d28_100m <= 430.0, f"100 MHz crossing at {d28_100m:.1f} m"
    assert _rate_at("abstract-28ghz", d28_100m) == pytest.approx(20e6, rel=0.15)

    d39_1g = _distance_where("abstract-39ghz", _w_opt_at, 1e9, 50.0, 1000.0)
    d39_100m = _distance_where("abstract-39ghz", _w_opt_at, 100e6, 50.0, 1500.0)
    assert d28_1g / d39_1g == pytest.approx(1.26, rel=0.03)
    assert d28_100m / d39_100m == pytest.approx(1.26, rel=0.03)


def test_08_regulatory_ceiling_sustains_1_gbps_to_860_m():
    crossing = _distance_where("fcc-28ghz", _rate_1ghz_at, 1e9, 100.0, 3000.0)
    assert crossing == pytest.approx(860.0, rel=0.20), f"crossing {crossing:.1f} m"
    # the same ceiling at 39 GHz, and the frequency ratio test_07 checks
    at_39 = _distance_where("fcc-28ghz", lambda name, d_m: _rate_1ghz_at(name, d_m, fc_ghz=39.0),
                            1e9, 100.0, 3000.0)
    assert at_39 == pytest.approx(680.0, rel=0.20), f"crossing {at_39:.1f} m"
    assert crossing / at_39 == pytest.approx(1.26, rel=0.03)


def test_09_noncoherent_baseline_ordering_and_formulas():
    pd = 1e8
    for lc in (1e3, 1e5):
        cap = baselines.csir_rate(pd)
        fsk = baselines.peaky_fsk_rate(pd, lc)
        mi = baselines.non_peaky_mi_rate(pd, lc, RAY)
        opt = core.solve_continuous(pd, CoherenceBlock(lc=lc), RAY).rate_bps
        assert fsk > mi > opt, f"ordering broke at lc={lc:g}"
        assert max(fsk, mi, opt) < cap
        # closed-form rows evaluate exactly
        assert fsk == pytest.approx((1.0 - 1.0 / lc) * pd * LOG2E, rel=1e-12)
        bracket = 1.0 - math.sqrt(2.0 * math.log(math.pi) * math.log(lc) / lc)
        assert mi == pytest.approx(bracket * pd * LOG2E, rel=1e-12)


def test_10_boosted_pilot_power_gains_nothing_at_the_optimum():
    lc = 5e4
    point = core.solve_continuous(1e8, CoherenceBlock(lc=lc), RAY)
    boost = baselines.pilot_power_boost_se(point.rho, point.alpha, lc, RAY)
    equal = baselines.equal_power_se(point.rho, point.alpha, lc, RAY)
    assert abs(boost - equal) / equal < 1e-2
    # away from the optimum, at high SNR and heavy overhead, boosting wins
    assert baselines.pilot_power_boost_se(10.0, 0.1, 100.0, DET) > \
        baselines.equal_power_se(10.0, 0.1, 100.0, DET)


def test_11_allocation_properties_on_1000_random_pairs():
    cb = CoherenceBlock.from_tc_bc(tc_s=1e-3, bc_hz=2.5e6)
    w0 = 100e6
    strict_checked = 0
    for seed in range(1000):
        g1, g2 = allocate.synthetic_gains(2, 75.0, 6.0, seed=seed)
        users = [
            allocate.UserLink(gain_hz_per_watt=g, pt_w=1.0, w0_hz=w0,
                              cb=cb, fading=RAY)
            for g in (g1, g2)
        ]
        alloc = allocate.allocate_pair(users[0], users[1], "max-weak")
        allocate.check_allocation(users, alloc)  # budgets, fairness, no-harm

        weak_idx = 0 if g1 <= g2 else 1
        weak = users[weak_idx]
        entry = alloc.entries[weak_idx]
        w_star = core.solve_continuous(weak.pd_hz(weak.pt_w), cb, RAY).w_hz
        # strict improvement whenever the weak user has at least one full
        # lattice step of bandwidth to trade away
        if w_star <= w0 - cb.bc_hz:
            assert entry.rate_bps > entry.baseline_bps, (
                f"seed {seed}: no strict gain (W*={w_star:.3g})")
            strict_checked += 1
    assert strict_checked > 100, "strict-improvement branch barely exercised"


def test_12_array_reductions_and_substitution_round_trip():
    lc = 5e4
    # single antenna: array closed form collapses to the scalar one
    scalar = core.closed_form_first_order(lc)
    siso = beamform.closed_form_mimo(ArrayConfig.siso(), lc)
    assert (siso.rho, siso.alpha, siso.rate_factor) == \
        (scalar.rho, scalar.alpha, scalar.rate_factor)

    # receive combining: per-element rho (4*G2/Lc)^(1/3)/G2, alpha (G2/(2Lc))^(1/3)
    for nr in (2, 4, 16):
        form = beamform.closed_form_mimo(ArrayConfig.simo(nr=nr), lc)
        g2 = float(nr)
        assert form.rho == (4.0 * g2 / lc) ** (1.0 / 3.0) / g2
        assert form.alpha == (g2 / (2.0 * lc)) ** (1.0 / 3.0)

    # transmit sweep: penalty and gain both equal nt
    for nt in (2, 8, 64):
        form = beamform.closed_form_mimo(ArrayConfig.miso(nt=nt), lc)
        assert form.rho == (4.0 * nt / lc) ** (1.0 / 3.0) / nt
        assert form.alpha == (nt / (2.0 * lc)) ** (1.0 / 3.0)

    rng = np.random.default_rng(7)
    for _ in range(100):
        nt = int(rng.integers(1, 9))
        nr = int(rng.integers(1, 5))
        lc_i = float(rng.uniform(1e3, 1e6))
        pd = float(rng.uniform(1e6, 1e10))
        cfg = ArrayConfig.ideal_directional(nt=nt, nr=nr)
        if lc_i / (cfg.kt * cfg.g2) < 2.0:
            continue
        pd_sub, sub_cb = beamform.substitute(pd, CoherenceBlock(lc=lc_i), *cfg.gain_pair)
        manual = core.solve_continuous(pd_sub, sub_cb, RAY)
        array = beamform.solve_with_gains(pd, CoherenceBlock(lc=lc_i), *cfg.gain_pair, RAY)
        assert array.rate_bps == pytest.approx(manual.rate_bps, rel=1e-12)
        assert array.w_hz == pytest.approx(manual.w_hz, rel=1e-12)
        assert array.rho * cfg.gain_pair[0] == pytest.approx(manual.rho, rel=1e-12)
