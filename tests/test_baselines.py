"""Reference schemes: frozen values plus the orderings that must never flip."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxbw import baselines, core
from maxbw.core import LOG2E, CoherenceBlock, PowerDensity
from maxbw.fading import FadingModel

RAY = FadingModel.rayleigh()
DET = FadingModel.deterministic()


# ----------------------------------------------------------------------- CSIR


def test_csir_wideband_limit():
    assert baselines.csir_rate(1e8) == pytest.approx(1e8 * LOG2E, rel=1e-15)
    assert baselines.csir_rate(PowerDensity(1e8), math.inf) == pytest.approx(
        1e8 * LOG2E, rel=1e-15)


def test_csir_finite_bandwidth_increases_to_limit():
    pd = 1e8
    last = 0.0
    for w in (1e7, 1e8, 1e9, 1e10, 1e12):
        r = baselines.csir_rate(pd, w, RAY)
        assert r > last
        last = r
    assert last < pd * LOG2E
    assert last == pytest.approx(pd * LOG2E, rel=1e-3)


def test_csir_finite_needs_fading():
    with pytest.raises(ValueError):
        baselines.csir_rate(1e8, 1e9)
    with pytest.raises(ValueError):
        baselines.csir_rate(1e8, -1.0, RAY)


# ------------------------------------------------------------------ peaky FSK


def test_peaky_fsk_values():
    assert baselines.peaky_fsk_rate(1e8, 1e3) == pytest.approx(
        (1.0 - 1e-3) * 1e8 * LOG2E, rel=1e-15)
    with pytest.raises(ValueError):
        baselines.peaky_fsk_rate(1e8, 0.5)


# -------------------------------------------------------------- non-peaky MI


def test_non_peaky_factor_rayleigh():
    # 1 - sqrt(2 * ln(pi) * ln(5e4) / 5e4), kurtosis 2
    r = baselines.non_peaky_mi_rate(1.0, 5e4, RAY)
    assert r / LOG2E == pytest.approx(0.9777417668621889, rel=1e-12)


def test_non_peaky_kurtosis_dependence():
    # deterministic fading (kurtosis 1) pays sqrt(2) less penalty than Rayleigh
    lc = 1e4
    pen_det = 1.0 - baselines.non_peaky_mi_rate(1.0, lc, DET) / LOG2E
    pen_ray = 1.0 - baselines.non_peaky_mi_rate(1.0, lc, RAY) / LOG2E
    assert pen_ray / pen_det == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_non_peaky_clamps_to_zero_with_warning():
    # heavy-tailed four-point fade at tiny lc drives the bracket negative
    heavy = FadingModel.tabulated([(0.0, 0.75), (4.0, 0.25)])
    assert heavy.kurtosis() == pytest.approx(4.0)
    with pytest.warns(UserWarning, match="clamped"):
        assert baselines.non_peaky_mi_rate(1e8, math.e, heavy) == 0.0


def test_non_peaky_validation():
    with pytest.raises(ValueError):
        baselines.non_peaky_mi_rate(1e8, 1.0, RAY)


def test_fsk_beats_non_peaky_mi():
    # the 1/Lc duty-cycle penalty decays faster than sqrt(ln(Lc)/Lc)
    for lc in (1e3, 1e4, 1e5, 1e6):
        fsk = baselines.peaky_fsk_rate(1e8, lc)
        mi = baselines.non_peaky_mi_rate(1e8, lc, RAY)
        assert fsk > mi


# ------------------------------------------------------------ MI lower bound


def test_mi_lower_bound_value():
    assert baselines.mi_lower_bound_se(0.01, 1e4) == pytest.approx(
        0.013689471828794875, rel=1e-12)


def test_mi_lower_bound_small_rho_quadratic():
    rho, lc = 1e-4, 100.0
    se = baselines.mi_lower_bound_se(rho, lc)
    assert se == pytest.approx(rho ** 2 * (lc - 1.0) / 2.0 * LOG2E, rel=1e-2)


@settings(max_examples=200, deadline=None)
@given(rho=st.floats(0.0, 50.0), lc=st.floats(1.0, 1e8))
# cancellation region: tiny rho, and Lc a few ulp above 1
@example(rho=5.68e-21, lc=19547.0)
@example(rho=1e-17, lc=1.0000001)
@example(rho=0.2, lc=1.0000000000000002)
def test_mi_lower_bound_nonnegative(rho, lc):
    assert baselines.mi_lower_bound_se(rho, lc) >= 0.0


@pytest.mark.parametrize("lc", [2.0, 10.0, 1e3, 19547.0, 1e5, 1e8])
def test_mi_lower_bound_matches_mpmath(lc):
    import mpmath as mp
    with mp.workdps(50):
        for rho in np.geomspace(1e-25, 50.0, 27):
            r, big_l = mp.mpf(float(rho)), mp.mpf(lc)
            exact = (mp.log1p(r) - mp.log1p(r * big_l) / big_l) / mp.log(2)
            got = baselines.mi_lower_bound_se(float(rho), lc)
            assert abs(got - exact) <= 1e-12 * exact, (rho, lc, got, float(exact))


def test_mi_lower_bound_validation():
    with pytest.raises(ValueError):
        baselines.mi_lower_bound_se(-0.1, 100.0)
    with pytest.raises(ValueError):
        baselines.mi_lower_bound_se(0.1, 0.5)
    # non-finite input used to come back as NaN without a word
    for rho, lc in [(math.nan, 100.0), (math.inf, 100.0), (0.1, math.nan), (0.1, math.inf)]:
        with pytest.raises(ValueError):
            baselines.mi_lower_bound_se(rho, lc)


# --------------------------------------------------------- pilot power boost


def test_boost_split_preserves_average_power():
    assert baselines.boost_power_identity_gap(10.0, 0.1, 100.0) == 0.0
    for rho, alpha, lc in [(0.37, 0.123, 2500.0), (2.0, 0.05, 1e4), (0.01, 0.3, 50.0)]:
        gap = baselines.boost_power_identity_gap(rho, alpha, lc)
        assert abs(gap) <= 1e-15 * max(1.0, rho)


def test_boost_strictly_wins_at_high_snr_heavy_overhead():
    # rho_pilot = 100, rho_data = 900/99: se = 0.99 * ln(9.25764...) * log2(e)
    boost = baselines.pilot_power_boost_se(10.0, 0.1, 100.0, DET)
    equal = baselines.equal_power_se(10.0, 0.1, 100.0, DET)
    assert boost == pytest.approx(3.1785377574134963, rel=1e-12)
    assert equal == pytest.approx(2.9909045115350876, rel=1e-12)
    assert boost > equal


def test_boost_negligible_at_joint_optimum():
    pd = 1e8
    cb = CoherenceBlock(lc=1e4)
    point = core.solve_continuous(pd, cb, RAY)
    boost = baselines.pilot_power_boost_se(point.rho, point.alpha, cb.lc, RAY)
    equal = baselines.equal_power_se(point.rho, point.alpha, cb.lc, RAY)
    assert boost >= equal
    assert (boost - equal) / equal < 1e-2


def test_boost_validation():
    with pytest.raises(ValueError):
        baselines.pilot_power_boost_se(1.0, 0.0, 100.0, DET)
    with pytest.raises(ValueError):
        baselines.pilot_power_boost_se(1.0, 1.0, 100.0, DET)
    with pytest.raises(ValueError):
        baselines.pilot_power_boost_se(1.0, 0.1, 1.5, DET)
    with pytest.raises(ValueError):
        baselines.pilot_power_boost_se(0.0, 0.1, 100.0, DET)


# ------------------------------------------------------------------ orderings


def test_csir_dominates_everything():
    pd = 1e8
    for lc in (1e3, 1e5):
        cap = baselines.csir_rate(pd)
        assert baselines.peaky_fsk_rate(pd, lc) < cap
        assert baselines.non_peaky_mi_rate(pd, lc, RAY) < cap
        point = core.solve_continuous(pd, CoherenceBlock(lc=lc), RAY)
        assert point.rate_bps < cap


def test_equal_power_matches_core_rate():
    # core.rate is W * se at rho = pd/W; the se helper must agree
    pd, w = 1e8, 1e9
    alpha = 0.1
    lc = 1e4
    se = baselines.equal_power_se(pd / w, alpha, lc, RAY)
    assert se * w == pytest.approx(
        core.rate(pd, w, alpha, CoherenceBlock(lc=lc), RAY), rel=1e-12)
