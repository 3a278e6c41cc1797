"""Single-link solver: frozen oracles, optimality conditions, lattice search.

Oracle values were computed independently (high-precision bisection on the
stationarity conditions, cross-checked against a brute-force grid) before the
solver was written, and are frozen here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxbw import baselines, beamform, core
from maxbw.core import CoherenceBlock, PowerDensity
from maxbw.errors import SolverError
from maxbw.fading import FadingModel

DET = FadingModel.deterministic()
RAY = FadingModel.rayleigh()

# (lc, fading) -> (rho_star, alpha_star) at the continuous optimum
SOLVER_ORACLE = {
    (1e3, "deterministic"): (0.1685184352, 0.0739565184),
    (1e4, "deterministic"): (0.0757908644, 0.0356533890),
    (5e4, "deterministic"): (0.0438106042, 0.0211357282),
    (1e5, "deterministic"): (0.0346543207, 0.0168418410),
    (1e6, "deterministic"): (0.0159720023, 0.0078812104),
    (1e3, "rayleigh"): (0.1182563080, 0.0845168529),
    (1e4, "rayleigh"): (0.0505392217, 0.0426274546),
    (5e4, "rayleigh"): (0.0285796422, 0.0257806850),
    (1e5, "rayleigh"): (0.0224534222, 0.0206720361),
    (1e6, "rayleigh"): (0.0101980375, 0.0098058072),
}


def _model(kind):
    return DET if kind == "deterministic" else RAY


@pytest.mark.parametrize("lc,kind", sorted(SOLVER_ORACLE, key=str))
def test_solver_matches_frozen_oracle(lc, kind):
    rho0, alpha0 = SOLVER_ORACLE[(lc, kind)]
    pd = 1e8
    point = core.solve_continuous(PowerDensity(pd), CoherenceBlock(lc=lc), _model(kind))
    assert pd / point.w_hz == pytest.approx(rho0, rel=1e-6)
    assert point.alpha == pytest.approx(alpha0, rel=1e-6)
    assert point.rate_bps > 0


@pytest.mark.parametrize("lc,kind", sorted(SOLVER_ORACLE, key=str))
def test_residuals_vanish_at_optimum(lc, kind):
    rho0, alpha0 = SOLVER_ORACLE[(lc, kind)]
    r_w, r_alpha = core.condition_residuals(rho0, alpha0, lc, _model(kind))
    assert abs(r_w) < 1e-7
    assert abs(r_alpha) < 1e-6  # oracle itself is only 10 digits


def test_bandwidth_condition_sign_structure():
    # the stationarity residual in rho is negative below the root, positive above
    for lc, kind in ((1e4, "deterministic"), (1e4, "rayleigh")):
        fading = _model(kind)
        rho0, _ = SOLVER_ORACLE[(lc, kind)]
        lo = core.condition_residuals(rho0 / 2, core.alpha_given_rho(rho0 / 2, lc), lc, fading)[0]
        hi = core.condition_residuals(rho0 * 2, core.alpha_given_rho(rho0 * 2, lc), lc, fading)[0]
        assert lo < 0 < hi


def test_alpha_given_rho_frozen_value():
    assert core.alpha_given_rho(0.0431, 5e4) == pytest.approx(0.0212964375572, rel=1e-9)


def test_alpha_given_rho_limits():
    # rho -> 0 gives 1/3 regardless of lc (approach rate is set by rho*lc);
    # rho -> inf gives 1/(1+sqrt(1+lc))
    assert core.alpha_given_rho(1e-12, 1e4) == pytest.approx(1 / 3, rel=1e-7)
    assert core.alpha_given_rho(1e-15, 1e4) == pytest.approx(1 / 3, rel=1e-10)
    assert core.alpha_given_rho(1e9, 1e4) == pytest.approx(1 / (1 + math.sqrt(1 + 1e4)), rel=1e-6)


@pytest.mark.parametrize("rho", [1e-6, 0.01, 1.0, 100.0])
def test_alpha_given_rho_lc3_is_one_third(rho):
    # at lc=3 the pilot-ratio condition degenerates: alpha = 1/3 for every rho
    assert core.alpha_given_rho(rho, 3.0) == pytest.approx(1 / 3, abs=1e-12)


@given(rho=st.floats(min_value=1e-8, max_value=1e4),
       lc=st.floats(min_value=2.0, max_value=1e8))
@settings(max_examples=150, deadline=None)
def test_alpha_given_rho_stays_in_range(rho, lc):
    # alpha runs from 1/3 (rho -> 0) toward 1/(1+sqrt(1+lc)) (rho -> inf),
    # which sits above 1/3 for lc < 3 and below for lc > 3
    alpha = core.alpha_given_rho(rho, lc)
    upper = max(1 / 3, 1 / (1 + math.sqrt(1 + lc)))
    assert 0.0 < alpha <= upper + 1e-12
    r_alpha = rho * (alpha * alpha * lc + 2 * alpha - 1) - (1 - 3 * alpha)
    assert abs(r_alpha) <= 1e-9 * max(1.0, rho)


@given(rho=st.floats(min_value=1e-6, max_value=1e3),
       alpha=st.floats(min_value=1e-6, max_value=1 - 1e-6),
       lc=st.floats(min_value=2.0, max_value=1e7))
@settings(max_examples=150, deadline=None)
def test_estimation_power_split_sums_to_one(rho, alpha, lc):
    q = core.estimation_quality(rho, alpha, lc)
    assert q.est_power + q.err_power == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < q.est_power < 1.0


def test_effective_snr_value():
    # alpha*lc*rho^2 / (1 + (1+alpha*lc)*rho) at a hand-checked point
    assert core.effective_snr(1.0, 0.5, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("call", [
    lambda lc: core.effective_snr(0.1, 0.1, lc),
    lambda lc: core.estimation_quality(0.1, 0.1, lc),
    lambda lc: baselines.non_peaky_mi_rate(1e9, lc, RAY),
    lambda lc: core.alpha_given_rho(0.1, lc),
    core.closed_form_first_order,
    core.closed_form_refined,
    lambda lc: core.condition_residuals(0.1, 0.1, lc, RAY),
    lambda lc: beamform.closed_form_mimo(beamform.ArrayConfig.siso(), lc),
], ids=["effective_snr", "estimation_quality", "non_peaky_mi_rate", "alpha_given_rho",
        "closed_form_first_order", "closed_form_refined", "condition_residuals",
        "closed_form_mimo"])
def test_a_non_finite_coherence_length_is_refused(call):
    # with an infinite or NaN length these formulas read NaN or zeros, not a rate
    for lc in (math.inf, math.nan):
        with pytest.raises(ValueError, match="coherence length must be finite"):
            call(lc)


def test_rate_hand_checked_point():
    # lc=2, w=1e6, alpha=0.5, pd=1e6: rho=1, rho_eff=1/3,
    # rate = 0.5 * 1e6 * log2(4/3)
    cb = CoherenceBlock(lc=2.0)
    got = core.rate(PowerDensity(1e6), 1e6, 0.5, cb, DET)
    assert got == pytest.approx(207518.749639422, rel=1e-10)


def test_rate_scales_with_power_density_at_fixed_rho():
    cb = CoherenceBlock(lc=1e4)
    r1 = core.rate(PowerDensity(1e7), 1e8, 0.03, cb, RAY)
    r2 = core.rate(PowerDensity(2e7), 2e8, 0.03, cb, RAY)
    assert r2 == pytest.approx(2 * r1, rel=1e-12)


@pytest.mark.parametrize("fading", [DET, RAY])
def test_scale_law_power_density(fading):
    # doubling pd doubles w_star exactly and leaves (rho, alpha) fixed
    cb = CoherenceBlock(lc=1e4)
    p1 = core.solve_continuous(PowerDensity(1e7), cb, fading)
    p2 = core.solve_continuous(PowerDensity(2e7), cb, fading)
    assert p2.w_hz == pytest.approx(2 * p1.w_hz, rel=1e-9)
    assert p2.rho == pytest.approx(p1.rho, rel=1e-9)
    assert p2.alpha == pytest.approx(p1.alpha, rel=1e-9)
    assert p2.rate_bps == pytest.approx(2 * p1.rate_bps, rel=1e-9)


def test_lc_two_pins_half_overhead():
    point = core.solve_continuous(PowerDensity(1e6), CoherenceBlock(lc=2.0), DET)
    assert point.alpha == 0.5
    assert "lattice_only" in point.flags


def test_solver_rejects_bad_coherence():
    with pytest.raises(ValueError):
        CoherenceBlock(lc=1.5)
    with pytest.raises(ValueError):
        CoherenceBlock(lc=1e4, bc_hz=1e6, tc_s=1.0)  # lc != tc*bc
    cb = CoherenceBlock.from_tc_bc(tc_s=5e-3, bc_hz=1e7)
    assert cb.lc == 5e4


@pytest.mark.parametrize("kwargs", [{"lc": 1e300}, {"lc": 1000.0, "bc_hz": math.inf}])
def test_coherence_block_rejects_a_huge_length_and_an_infinite_bandwidth(kwargs):
    # past 2**53 symbols a float pilot count n has n + 1 == n, and the pilot
    # walk of rate_fixed_bandwidth would never end
    with pytest.raises(ValueError, match="coherence (length|bandwidth)"):
        CoherenceBlock(**kwargs)


def test_coherence_block_names_the_infinite_field():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="coherence time must be positive and finite"):
            CoherenceBlock.from_tc_bc(tc_s=bad, bc_hz=1e7)
        with pytest.raises(ValueError, match="coherence bandwidth must be positive and finite"):
            CoherenceBlock.from_tc_bc(tc_s=1e-3, bc_hz=bad)


@pytest.mark.parametrize("fading", [RAY, DET], ids=["rayleigh", "deterministic"])
def test_coherence_length_stops_where_pilot_counts_still_step(fading):
    with pytest.raises(ValueError, match="coherence length must be at most 2\\*\\*53"):
        CoherenceBlock(lc=np.nextafter(2.0 ** 53, math.inf))
    # at the bound itself the pilot walk still ends, from rho = 1e-8 to 1e8
    cb = CoherenceBlock(lc=2.0 ** 53)
    for rho in 10.0 ** np.arange(-8.0, 9.0):
        point = core.rate_fixed_bandwidth(1e9 * rho, 1e9, cb, fading)
        assert 1 <= point.pilot_count <= 2 ** 53 - 1
        assert point.rate_bps > 0.0


def test_power_density_validation():
    with pytest.raises(ValueError):
        PowerDensity(-1.0)
    with pytest.raises(ValueError):
        core.solve_continuous(PowerDensity(0.0), CoherenceBlock(lc=1e3), DET)


def test_closed_form_first_order_formulas():
    lc = 1e4
    cf = core.closed_form_first_order(lc)
    assert cf.rho == pytest.approx((4 / lc) ** (1 / 3), rel=1e-15)
    assert cf.alpha == pytest.approx((2 * lc) ** (-1 / 3), rel=1e-15)
    assert cf.rate_factor == pytest.approx((1 - 1.5 * (4 / lc) ** (1 / 3)) * math.log2(math.e),
                                           rel=1e-15)


@pytest.mark.parametrize("lc", [1e4, 1e6, 1e8, 1e10])
def test_first_order_rate_factor_is_the_numeric_rate_to_second_order(lc):
    # the penalty is 3 (2 Lc)^(-1/3) = 1.5 rho, alpha from the pilots and
    # 2 alpha from the estimation error; what is left is O(Lc^(-2/3))
    pd = 1e8
    rate = core.solve_continuous(pd, CoherenceBlock(lc=lc), DET).rate_bps
    assert abs(rate / (pd * core.closed_form_first_order(lc).rate_factor) - 1.0) < 5.0 * lc ** (-2 / 3)


def test_closed_form_refined_formulas():
    lc = 1e4
    u = (2 * lc) ** (-1 / 3)
    rf = core.closed_form_refined(lc)
    assert rf.rho == pytest.approx(2 * u + 14 / 9 * u * u, rel=1e-15)
    assert rf.alpha == pytest.approx(u - 8 / 9 * u * u, rel=1e-15)
    # relative alpha error is O(u^2) with the right u^2 coefficient, a 21x drop
    # from lc = 1e4 to 1e6; a wrong one leaves O(u), a 4.6x drop (3/2, 5/8: 4.7x)
    errors = []
    for lc in (1e4, 1e6):
        exact = core.solve_continuous(1e9, CoherenceBlock(lc=lc), DET).alpha
        errors.append(abs(core.closed_form_refined(lc).alpha - exact) / exact)
    assert errors[1] * 10.0 <= errors[0]


def test_closed_form_tracks_solver_at_large_lc():
    lc = 1e6
    point = core.solve_continuous(PowerDensity(1.0), CoherenceBlock(lc=lc), DET)
    cf = core.closed_form_first_order(lc)
    assert cf.rho == pytest.approx(1.0 / point.w_hz, rel=0.05)
    assert cf.alpha == pytest.approx(point.alpha, rel=0.05)


def test_discretize_returns_lattice_point():
    cb = CoherenceBlock(lc=1e4, bc_hz=1e6)
    pd = 1e8
    point = core.solve_continuous(PowerDensity(pd), cb, RAY)
    lat = core.discretize(point, cb, PowerDensity(pd), RAY)
    assert lat.w_hz / cb.bc_hz == pytest.approx(round(lat.w_hz / cb.bc_hz), abs=1e-9)
    assert isinstance(lat.pilot_count, int) and lat.pilot_count >= 1
    assert lat.rate_bps <= point.rate_bps * (1 + 1e-12)
    assert lat.rate_bps >= point.rate_bps * (1 - 0.01)


def test_discretize_floors_bandwidth_at_one_block():
    # continuous optimum below one coherence bandwidth gets clamped, flagged
    cb = CoherenceBlock(lc=1e3, bc_hz=1e9)
    pd = 1e6
    point = core.solve_continuous(PowerDensity(pd), cb, RAY)
    assert point.w_hz < cb.bc_hz
    lat = core.discretize(point, cb, PowerDensity(pd), RAY)
    assert lat.w_hz == cb.bc_hz
    assert "bandwidth_floor" in lat.flags


@pytest.mark.parametrize("pd,flags", [(1e8, ()), (1e6, ("bandwidth_floor",))],
                         ids=["interior", "below-one-block"])
def test_discretize_reports_only_the_lattice_flags(pd, flags):
    # at lc = 2 the continuous point is flagged lattice_only; the lattice
    # point carries its own flags alone, bandwidth_floor where W* < Bc
    cb = CoherenceBlock(lc=2.0, bc_hz=1e6)
    point = core.solve_continuous(pd, cb, RAY)
    assert point.flags == ("lattice_only",)
    assert (point.w_hz < cb.bc_hz) == bool(flags)
    assert core.discretize(point, cb, pd, RAY).flags == flags


def test_rate_fixed_bandwidth_beats_any_fixed_alpha():
    cb = CoherenceBlock(lc=1e4)
    pd, w = 1e8, 5e8
    best = core.rate_fixed_bandwidth(PowerDensity(pd), w, cb, RAY)
    assert best.pilot_count >= 1
    for n in (best.pilot_count - 1, best.pilot_count + 1, 7, 1000):
        if n < 1:
            continue
        assert core.rate(PowerDensity(pd), w, n / 1e4, cb, RAY) <= best.rate_bps * (1 + 1e-12)


def test_exhaustive_search_agrees_with_discretized_solution():
    cb = CoherenceBlock(lc=1e3, bc_hz=1e6)
    for pd in (1e7, 1e8):
        point = core.solve_continuous(PowerDensity(pd), cb, RAY)
        lat = core.discretize(point, cb, PowerDensity(pd), RAY)
        ex = core.exhaustive_search(PowerDensity(pd), cb, RAY, m_max=2000)
        assert ex.rate_bps >= lat.rate_bps * (1 - 1e-12)
        assert lat.rate_bps >= ex.rate_bps * (1 - 0.005)


def test_rate_fixed_bandwidth_pilots_match_brute_force():
    # the slope-root pilot search must land on the argmax over every
    # integer pilot count, whatever the fading law
    rng = np.random.default_rng(20171)
    atoms = np.sort(rng.gamma(1.5, 1.0, 32))
    models = [DET, RAY, FadingModel.tabulated([(v / atoms.mean(), 1.0 / 32) for v in atoms])]
    for i in range(120):
        fading = models[i % 3]
        lc = float(np.exp(rng.uniform(math.log(2.0), math.log(4096.0))))
        pd = float(10.0 ** rng.uniform(5.0, 10.0))
        w = float(pd / 10.0 ** rng.uniform(-2.5, 1.5))
        n = np.arange(1, max(1, math.ceil(lc) - 1) + 1)
        rho, al = pd / w, n.astype(float)
        snr = al * rho * rho / (1.0 + (1.0 + al) * rho)
        brute = (1.0 - n / lc) * w * fading.expected_log1p(snr)
        point = core.rate_fixed_bandwidth(pd, w, CoherenceBlock(lc=lc), fading)
        assert point.pilot_count == int(n[np.argmax(brute)]), (fading.kind, lc, pd, w)


def test_exhaustive_search_long_coherence_reaches_lattice_point():
    # a long coherence length, where a coarse pilot grid once stopped 3.7e-8
    # below discretize
    cb = CoherenceBlock(lc=8620.854826605364, bc_hz=1568246.5935462452)
    pd = 592817415.6481733
    lattice = core.discretize(core.solve_continuous(pd, cb, DET), cb, pd, DET)
    ex = core.exhaustive_search(pd, cb, DET, m_max=9482)
    assert ex.rate_bps >= lattice.rate_bps * (1 - 1e-12)


def test_discretize_returns_lattice_local_maximum():
    cb = CoherenceBlock(lc=1e4, bc_hz=1e6)
    pd = 1e8
    lat = core.discretize(core.solve_continuous(pd, cb, RAY), cb, pd, RAY)
    m0 = round(lat.w_hz / cb.bc_hz)
    for m in (m0 - 1, m0, m0 + 1):
        for n in (lat.pilot_count - 1, lat.pilot_count, lat.pilot_count + 1):
            assert core.rate(pd, m * cb.bc_hz, n / cb.lc, cb, RAY) <= lat.rate_bps * (1 + 1e-12)


# (fading, Lc, Bc in Hz, Pr/N0 in Hz) where a 3x3 climb from the rounding cell
# stopped at a local maximum that exhaustive_search beats
CLIMB_TRAPS = [
    ("rayleigh", 779.3169181237083, 419673.81458478596, 133761.05437338704),
    ("rayleigh", 217862.6206052734, 6914597.696415249, 166515.0212128162),
    ("deterministic", 254.37946218522276, 41183833.051064536, 3943003167.1742544),
]


def _lattice_mn(point, cb):
    return round(point.w_hz / cb.bc_hz), point.pilot_count


@pytest.mark.parametrize("kind,lc,bc,pd", CLIMB_TRAPS)
def test_discretize_finds_exhaustive_maximum_past_local_maxima(kind, lc, bc, pd):
    fading, cb = FadingModel(kind), CoherenceBlock(lc=lc, bc_hz=bc)
    op = core.solve_continuous(pd, cb, fading)
    lattice = core.discretize(op, cb, pd, fading)
    ex = core.exhaustive_search(pd, cb, fading, max(4, 2 * math.ceil(op.w_hz / bc)))
    assert _lattice_mn(lattice, cb) == _lattice_mn(ex, cb)
    assert lattice.rate_bps == pytest.approx(ex.rate_bps, rel=1e-14)


def test_discretize_lands_on_maximum_of_a_very_wide_lattice():
    # W*/Bc is about 3.2e6; a climb that needs each step to win by 1e-12
    # stopped 26 steps short, at m = 3 014 413
    cb = CoherenceBlock(lc=8.0, bc_hz=10.3e3)
    pd = 2.76e10
    lattice = core.discretize(core.solve_continuous(pd, cb, RAY), cb, pd, RAY)
    assert _lattice_mn(lattice, cb) == (3014387, 2)


def test_discretize_matches_exhaustive_search_on_random_links():
    rng = np.random.default_rng(20171)
    atoms = np.sort(rng.gamma(1.5, 1.0, 32))
    models = [DET, RAY, FadingModel.tabulated([(v / atoms.mean(), 1.0 / 32) for v in atoms])]
    floors = 0
    for i in range(60):
        fading = models[i % 3]
        # Lc from 2.5 to 2e4; W*/Bc from 0.3, below the lattice, up to 2
        lc = float(np.exp(rng.uniform(math.log(2.5), math.log(2e4))))
        pd = float(10.0 ** rng.uniform(5.0, 10.0))
        w_star = core.solve_continuous(pd, CoherenceBlock(lc=lc), fading).w_hz
        cb = CoherenceBlock(lc=lc, bc_hz=w_star / rng.uniform(0.3, 2.0))
        op = core.solve_continuous(pd, cb, fading)
        lattice = core.discretize(op, cb, pd, fading)
        ex = core.exhaustive_search(pd, cb, fading, max(4, 2 * math.ceil(op.w_hz / cb.bc_hz)))
        assert _lattice_mn(lattice, cb) == _lattice_mn(ex, cb), (fading.kind, lc, cb.bc_hz, pd)
        floors += "bandwidth_floor" in lattice.flags
    assert floors >= 10


@pytest.mark.parametrize("fading", [DET, RAY], ids=["deterministic", "rayleigh"])
@pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
def test_fixed_pilot_optimum_does_not_depend_on_lc(fading, n):
    rho_n, _ = core._solve_rho_fixed_pilots(n, fading)
    for lc in (n + 1.0, 3.7 * n + 2.0, 1e3 * n, 1e7):
        r_w, _ = core.condition_residuals(rho_n, n / lc, lc, fading)
        assert abs(r_w) <= core.R_W_TOL, lc


def _full_scan(pd, cb, fading, m_max):
    """exhaustive_search by brute force: the rate of every (m, n) on the box,
    the first maximum in (m, n) row-major order, and its edge flag."""
    lc, n_hi = cb.lc, core._max_pilots(cb.lc)
    n = np.arange(1, n_hi + 1)[None, :]
    best = (-1.0, 1, 1)
    rows = max(1, 2**16 // n_hi)
    for m0 in range(1, m_max + 1, rows):
        w = np.arange(m0, min(m0 + rows, m_max + 1))[:, None] * cb.bc_hz
        rates = core._rates(pd / w, w, n / lc, lc, fading)
        i, j = np.unravel_index(np.argmax(rates), rates.shape)
        if rates[i, j] > best[0]:
            best = (float(rates[i, j]), m0 + int(i), int(j) + 1)
    rate_bps, m, n = best
    return (m, n), rate_bps, ("maximum_at_edge",) if m == m_max and m_max > 1 else ()


def test_exhaustive_search_matches_a_full_scan_on_random_links():
    rng = np.random.default_rng(20172)
    models = _three_laws(rng)
    for i in range(90):
        fading = models[i % 3]
        lc = float(np.exp(rng.uniform(math.log(2.0), math.log(4097.0))))
        pd = float(10.0 ** rng.uniform(5.0, 10.0))
        w_star = core.solve_continuous(pd, CoherenceBlock(lc=lc), fading).w_hz
        # W*/Bc from 0.3, below the lattice, up to 300
        cb = CoherenceBlock(lc=lc, bc_hz=w_star / 10.0 ** rng.uniform(-0.5, 2.5))
        m_max = max(4, 2 * math.ceil(w_star / cb.bc_hz))
        ex = core.exhaustive_search(pd, cb, fading, m_max)
        mn, rate_bps, flags = _full_scan(pd, cb, fading, m_max)
        assert (_lattice_mn(ex, cb), ex.flags) == (mn, flags), (fading.kind, lc, cb.bc_hz, pd)
        assert ex.rate_bps == pytest.approx(rate_bps, rel=1e-15, abs=0.0)


def test_exhaustive_search_flags_edge_maximum():
    cb = CoherenceBlock(lc=1e3, bc_hz=1e6)
    ex = core.exhaustive_search(PowerDensity(1e8), cb, RAY, m_max=50)
    assert "maximum_at_edge" in ex.flags


@pytest.mark.parametrize("m_max", [2.5, True, 0])
def test_exhaustive_search_refuses_a_bandwidth_count_that_is_no_integer_above_zero(m_max):
    # 2.5 used to escape as a TypeError from range, and True ran as 1
    cb = CoherenceBlock(lc=1e3, bc_hz=1e6)
    with pytest.raises(ValueError, match=f"m_max must be an integer >= 1, got {m_max!r}"):
        core.exhaustive_search(PowerDensity(1e8), cb, RAY, m_max=m_max)


def test_exhaustive_point_is_local_maximum():
    cb = CoherenceBlock(lc=1e3, bc_hz=1e6)
    pd = 1e7
    ex = core.exhaustive_search(PowerDensity(pd), cb, RAY, m_max=500)
    m0 = round(ex.w_hz / cb.bc_hz)
    n0 = ex.pilot_count
    for m in (m0 - 1, m0, m0 + 1):
        for n in (n0 - 1, n0, n0 + 1):
            if m < 1 or n < 1 or n > 999 or (m, n) == (m0, n0):
                continue
            assert core.rate(pd, m * cb.bc_hz, n / cb.lc, cb, RAY) <= ex.rate_bps * (1 + 1e-12)


def test_rate_unimodal_in_bandwidth():
    # along a 200-point log grid the rate rises to a single peak then falls
    cb = CoherenceBlock(lc=1e4)
    pd = 1e8
    point = core.solve_continuous(PowerDensity(pd), cb, RAY)
    grid = np.geomspace(point.w_hz / 50, point.w_hz * 50, 200)
    rates = [core.rate_fixed_bandwidth(PowerDensity(pd), w, cb, RAY).rate_bps for w in grid]
    diffs = np.diff(rates)
    # strictly one sign change up to floating noise near the flat peak
    signs = np.sign(diffs[np.abs(diffs) > max(rates) * 1e-12])
    flips = np.sum(signs[1:] != signs[:-1])
    assert flips == 1
    assert max(rates) <= point.rate_bps * (1 + 1e-9)


def test_continuous_beats_lattice_everywhere():
    cb = CoherenceBlock(lc=5e3, bc_hz=2e6)
    pd = 5e7
    point = core.solve_continuous(PowerDensity(pd), cb, RAY)
    for m in (1, 3, 10, 40):
        for n in (1, 5, 50, 500):
            assert core.rate(pd, m * cb.bc_hz, n / cb.lc, cb, RAY) <= point.rate_bps * (1 + 1e-12)


def test_solver_error_when_bracket_cannot_close(monkeypatch):
    # expectations whose stationarity residual stays at 1.0, so it never
    # changes sign and has no root
    monkeypatch.setattr(core, "_log1p_slope", lambda fading, s: (1.0, 0.0))
    core._solve_rho_on_curve.cache_clear()
    core._solve_rho_fixed_pilots.cache_clear()
    with pytest.raises(SolverError, match="could not bracket"):
        core.solve_continuous(PowerDensity(1e6), CoherenceBlock(lc=1e3), DET)
    with pytest.raises(SolverError, match="could not bracket"):
        core._solve_rho_fixed_pilots(7, DET)


def test_operating_point_is_frozen():
    point = core.solve_continuous(PowerDensity(1e6), CoherenceBlock(lc=1e3), DET)
    with pytest.raises(AttributeError):
        point.rate_bps = 0.0


# -------------------------------------------------------------- root finding


def _plain_bisect_root(residual, what):
    """Oracle for core._bisect_root: the plain bisection, which evaluates the
    residual at every midpoint. Same bracket, midpoints and stopping test."""
    lo, hi = core._BRACKET_LO, core._BRACKET_HI
    for _ in range(51):
        if residual(lo) <= 0.0:
            break
        lo *= 0.25
    else:
        raise SolverError(f"could not bracket {what} from below")
    for _ in range(51):
        if residual(hi) >= 0.0:
            break
        hi *= 4.0
    else:
        raise SolverError(f"could not bracket {what} from above")
    for _ in range(core._BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if residual(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-10 * mid:
            return 0.5 * (lo + hi)
    raise SolverError(f"bisection for {what} did not converge")


def _curve_residual(lc, fading):
    # _solve_rho_on_curve's residual; core._bandwidth_residual is looked up
    # at each call, so a monkeypatched counter sees it
    return lambda r: core._bandwidth_residual(r, core.alpha_given_rho(r, lc) * lc, fading)


def _pilot_residual(n, fading):
    # _solve_rho_fixed_pilots's residual
    return lambda r: core._bandwidth_residual(r, float(n), fading)


def _root_laws():
    # Rayleigh, deterministic, a 64-atom law and a two-atom law with a zero atom
    return _four_laws(np.random.default_rng(11))


def _relative_gap(a, b):
    return abs(a - b) / b


def test_on_curve_root_equals_the_plain_bisection():
    # at Lc = 8940800.04 (Rayleigh) a bisection that skips every midpoint
    # outside the narrowed bracket, with no margin, was 5.8e-11 off
    rng = np.random.default_rng(21)
    lcs = np.exp(rng.uniform(math.log(2.0), math.log(1e8), 400))
    for lc in np.concatenate([[2.0000001, 2.5, 8940800.037654812, 99999999.0], lcs]):
        lc = float(lc)
        for fading in _root_laws():
            rho = core._solve_rho_on_curve(lc, fading)[0]
            assert rho == _plain_bisect_root(_curve_residual(lc, fading), "x"), (lc, fading.kind)


@pytest.mark.parametrize("law", [0, 1, 2, 3], ids=["rayleigh", "deterministic", "tabulated64",
                                                   "two-atom"])
def test_fixed_pilot_root_equals_the_plain_bisection(law):
    fading = _root_laws()[law]
    rng = np.random.default_rng(24 + law)
    larger = np.unique(np.round(np.exp(rng.uniform(math.log(1e3), math.log(1e5), 100))))
    for n in [*range(1, 1001), *map(int, larger)]:
        rho = core._solve_rho_fixed_pilots(n, fading)[0]
        assert rho == _plain_bisect_root(_pilot_residual(n, fading), "x"), n


def test_roots_stay_close_to_the_plain_bisection_beyond_the_exact_range():
    # The residual's rounding can flip its sign at a midpoint that the plain
    # bisection evaluates and the narrowed one takes as known; the roots then
    # part by about that blur. Without the cancelling 1 - E[1/(1 + sX)] the
    # blur stays inside the margin up to Lc = 2**53 and n = 1e11 pilots
    rng = np.random.default_rng(22)
    laws = _root_laws()
    for j, lc in enumerate(np.exp(rng.uniform(math.log(1e8), math.log(2.0**53), 200))):
        residual = _curve_residual(float(lc), laws[j % 4])
        assert core._bisect_root(residual, "x") == _plain_bisect_root(residual, "x"), lc
    for j, n in enumerate(np.exp(rng.uniform(math.log(1e5), math.log(1e11), 200))):
        residual = _pilot_residual(round(float(n)), laws[j % 4])
        assert core._bisect_root(residual, "x") == _plain_bisect_root(residual, "x"), n
    # past n = 1e12 the two part by up to 4.1e-9 (800 draws up to 1e15)
    for j, n in enumerate(np.exp(rng.uniform(math.log(1e11), math.log(1e15), 100))):
        residual = _pilot_residual(round(float(n)), laws[j % 4])
        gap = _relative_gap(core._bisect_root(residual, "x"), _plain_bisect_root(residual, "x"))
        assert gap <= 1e-8, (n, laws[j % 4].kind)


def _mp_pilot_ratio(rho, lc):
    """core.alpha_given_rho in mpmath."""
    import mpmath as mp

    b = 1.5 + rho
    return (1 + rho) / (mp.sqrt(b * b + (1 + rho) * rho * lc) + b)


def _mp_residual(fading, rho, al):
    """_bandwidth_residual in mpmath: E[ln(1 + sX)] - (1 + d)/d s E[X/(1 + sX)]."""
    import mpmath as mp

    rho, al = mp.mpf(rho), mp.mpf(al)
    d = 1 + (1 + al) * rho
    s = al * rho * rho / d
    if fading.kind == "rayleigh":
        x = 1 / s
        g = mp.exp(x) * mp.e1(x)
        q = x * (1 - x * g)
    elif fading.kind == "deterministic":
        q = 1 / (1 + s)
    else:
        q = mp.fsum(mp.mpf(w) * v / (1 + s * v) for v, w in fading.atoms)
    return _mp_log1p(fading, s) - (1 + d) / d * s * q


@pytest.mark.parametrize("law", [0, 1, 2, 3], ids=["rayleigh", "deterministic", "tabulated64",
                                                   "two-atom"])
def test_bandwidth_residual_matches_mpmath(law):
    # within 5e-15 of E[ln(1 + sX)], the size of its terms, for rho from 1e-7
    # to 10 and up to 1e13 pilots (1.2e-15 measured); the cancelling
    # 1 - E[1/(1 + sX)] was up to 1.6e-3 off on this grid
    import mpmath as mp

    fading = _root_laws()[law]
    with mp.workdps(50):
        for rho in np.geomspace(1e-7, 10.0, 15).tolist():
            for al in (1.0, 1e3, 1e6, 1e9, 1e13):
                d = 1 + (1 + mp.mpf(al)) * rho
                size = _mp_log1p(fading, al * rho * rho / d)
                err = core._bandwidth_residual(rho, al, fading) - _mp_residual(fading, rho, al)
                assert abs(err) <= 5e-15 * size, (rho, al)


@pytest.mark.parametrize("law", [0, 1, 2, 3], ids=["rayleigh", "deterministic", "tabulated64",
                                                   "two-atom"])
def test_roots_match_mpmath_up_to_huge_coherence_lengths(law):
    # both cached roots against the 40-digit root of the same residual, up to
    # Lc = 1e13 and n = 1e13 pilots: the bisection stops at 1e-10 relative,
    # and the worst measured error was 1.3e-10. The cancelling form
    # 1 - E[1/(1 + sX)] put the Rayleigh fixed-pilot root 4.7e-5 off at 1e13
    import mpmath as mp

    fading = _root_laws()[law]
    with mp.workdps(40):
        for lc in np.geomspace(1e6, 1e13, 8).tolist():
            rho = core._solve_rho_on_curve(lc, fading)[0]
            lc_mp = mp.mpf(lc)
            root = mp.findroot(
                lambda r: _mp_residual(fading, r, _mp_pilot_ratio(r, lc_mp) * lc_mp),
                (rho * (1 - 1e-6), rho * (1 + 1e-6)), solver="anderson")
            assert abs(rho / root - 1) <= 5e-10, lc
        for n in (10 ** k for k in range(3, 14)):
            rho = core._solve_rho_fixed_pilots(n, fading)[0]
            root = mp.findroot(lambda r: _mp_residual(fading, r, mp.mpf(n)),
                               (rho * (1 - 1e-6), rho * (1 + 1e-6)), solver="anderson")
            assert abs(rho / root - 1) <= 5e-10, n


def _count_residuals(monkeypatch):
    """Count core._bandwidth_residual calls, as _count_rates counts rates."""
    calls = [0]
    original = core._bandwidth_residual

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(core, "_bandwidth_residual", counted)
    return calls


def test_a_cold_root_stays_within_its_residual_budget(monkeypatch):
    # the plain bisection takes about 43 residuals per root
    rng = np.random.default_rng(23)
    laws = _root_laws()
    residuals = []
    calls = _count_residuals(monkeypatch)
    for j, lc in enumerate(np.exp(rng.uniform(math.log(2.0), math.log(1e16), 1000))):
        calls[0] = 0
        core._bisect_root(_curve_residual(float(lc), laws[j % 4]), "x")
        residuals.append(calls[0])
    for j, n in enumerate(np.exp(rng.uniform(0.0, math.log(1e7), 400))):
        calls[0] = 0
        core._bisect_root(_pilot_residual(round(float(n)), laws[j % 4]), "x")
        residuals.append(calls[0])
    assert float(np.median(residuals)) <= 20.0
    assert max(residuals) <= 45


def test_cached_roots_start_from_the_first_order_estimate(monkeypatch):
    # residuals per cached root, computed past the caches on the four root
    # laws, Lc log-uniform in 2-2**53 and n in 1-1e13; from the blind bracket
    # [1e-6, 10] the median was 18, the on-curve root's final check included:
    # the estimate saves the two ends and about five geometric steps
    rng = np.random.default_rng(31)
    laws = _root_laws()
    residuals = []
    calls = _count_residuals(monkeypatch)
    for j, lc in enumerate(np.exp(rng.uniform(math.log(2.0), math.log(2.0**53), 300))):
        calls[0] = 0
        core._solve_rho_on_curve.__wrapped__(float(lc), laws[j % 4])
        residuals.append(calls[0])
    for j, n in enumerate(np.exp(rng.uniform(0.0, math.log(1e13), 300))):
        calls[0] = 0
        core._solve_rho_fixed_pilots.__wrapped__(max(1, round(float(n))), laws[j % 4])
        residuals.append(calls[0])
    assert float(np.median(residuals)) <= 13.0
    assert max(residuals) <= 45


def _same_root(residual, guess=None):
    """core._bisect_root, from guess if one is given, against the oracle: the
    same float, or a SolverError from both."""
    try:
        expected = _plain_bisect_root(residual, "x")
    except SolverError:
        with pytest.raises(SolverError):
            core._bisect_root(residual, "x", guess)
        return None
    got = core._bisect_root(residual, "x", guess)
    assert got == expected
    return got


@pytest.mark.parametrize("root", [1e-6, 10.0, math.sqrt(1e-6 * 10.0)],
                         ids=["at-lo", "at-hi", "at-first-narrowing-step"])
def test_a_residual_of_exactly_zero_gives_the_plain_root(root):
    # at lo the narrowing is skipped; at hi and at the first geometric step
    # the regula falsi step lands on the end and stops the narrowing
    got = _same_root(lambda r: r - root)
    assert got == pytest.approx(root, rel=1e-9)


def test_a_residual_of_zero_from_lo_on_gives_the_plain_root():
    # zero on [1e-6, 2e-6]: a narrowing from lo would end on two zero
    # residuals, where the regula falsi step divides by zero
    assert _same_root(lambda r: max(0.0, r - 2e-6)) < 1.001e-6


def test_bracket_growth_on_either_side_gives_the_plain_root():
    # no unit-mean law puts the on-curve root above 10 (deterministic fading
    # at Lc = 2 gives 1.82), so growth takes synthetic residuals
    assert _same_root(lambda r: math.log(r / 3e3)) == pytest.approx(3e3, rel=1e-9)
    assert _same_root(lambda r: math.log(r / 3e-11)) == pytest.approx(3e-11, rel=1e-9)
    # a residual that stays positive or negative: both raise
    _same_root(lambda r: 1.0)
    _same_root(lambda r: -1.0)


@pytest.mark.parametrize("lc", [0.99 * 2.0**53, 2.0**53])
def test_a_root_below_the_initial_bracket_stays_close_to_the_plain_bisection(lc):
    # the two-atom law with a zero atom puts the on-curve root below 1e-6 near
    # 2**53; with 1 - E[1/(1 + sX)] in the residual, which had lost most of
    # its digits there, the two roots parted by 4.9e-6 and 6.7e-7
    residual = _curve_residual(lc, _root_laws()[3])
    rho = core._bisect_root(residual, "x")
    assert rho < core._BRACKET_LO
    assert rho == _plain_bisect_root(residual, "x")


@pytest.mark.parametrize("window", [(1e-3, 0.1), (1e-4, 0.04), (0.05, 0.0506), (0.0, math.inf)],
                         ids=["around-root-and-first-step", "below-root", "around-root", "all"])
def test_a_nan_residual_gives_the_plain_root_or_its_error(window):
    # a NaN counts as below the root in both: the narrowing stops at the
    # first one, and the bisection evaluates inside what is left
    base = _curve_residual(1e4, RAY)  # root near 0.0505

    def residual(r):
        return math.nan if window[0] <= r <= window[1] else base(r)

    _same_root(residual)


def test_a_nan_at_one_narrowing_step_above_the_root_gives_the_plain_root():
    # the narrowing stops at a NaN instead of taking its point as below the
    # root; the plain bisection never evaluates that point
    first = math.sqrt(core._BRACKET_LO * core._BRACKET_HI)  # the first geometric step
    got = _same_root(lambda r: math.nan if r == first else math.log(r / 1e-3))
    assert got == pytest.approx(1e-3, rel=1e-9)


@pytest.mark.parametrize("wrong", [lambda g: 1e-3 * g, lambda g: 1e3 * g, lambda g: 1e-7,
                                   lambda g: 20.0],
                         ids=["too-low", "too-high", "below-bracket", "above-bracket"])
def test_a_wrong_guess_gives_the_plain_root(wrong):
    # the walk may take many steps from a far guess, or leave (1e-6, 10) and
    # fall back to the bracket's ends, but the bisection's float is the same
    for fading in _root_laws():
        kappa = fading.kurtosis()
        for lc in (3.0, 1e4, 1e9):
            _same_root(_curve_residual(lc, fading), wrong((4.0 / (kappa * kappa * lc)) ** (1.0 / 3.0)))
        for n in (1, 100, 10**7):
            _same_root(_pilot_residual(n, fading), wrong(math.sqrt(2.0 / (kappa * n))))


def test_a_nan_or_zero_at_the_guess_gives_the_plain_root():
    base = _curve_residual(1e4, RAY)  # root near 0.0505
    for guess in (0.01, 0.0505, 0.3):
        # a NaN at the guess: the walk stops before its first step
        _same_root(lambda r: math.nan if r == guess else base(r), guess)
        # a root exactly at the guess: the walk's bracket ends on it
        assert _same_root(lambda r: r - guess, guess) == pytest.approx(guess, rel=1e-9)
        # a zero on a stretch around the guess counts as above the root, and
        # both end on the stretch's lower edge
        edge = 0.7 * guess
        flat = _same_root(lambda r: min(0.0, math.log(r / edge)) + max(0.0, math.log(r / guess)),
                          guess)
        assert flat == pytest.approx(edge, rel=1e-9)
    # a NaN at the walk's second step down, and a NaN everywhere
    _same_root(lambda r: math.nan if 0.063 <= r <= 0.065 else base(r), 0.1)
    _same_root(lambda r: math.nan, 0.05)


def test_cached_roots_do_not_depend_on_the_order_of_the_calls():
    # each root starts from its own key's estimate, never from a neighbour's
    # root, so the roots past n = 1e12, which can part from the plain
    # bisection, come out the same whichever fills the cache first
    pilots = sorted({*map(int, np.geomspace(1.0, 1e13, 40)), *map(int, np.geomspace(5e11, 2e12, 20))})
    lcs = np.geomspace(2.5, 2.0**53, 40).tolist()
    roots = []
    for order in (1, -1):
        core._solve_rho_on_curve.cache_clear()
        core._solve_rho_fixed_pilots.cache_clear()
        roots.append({(k, key): solve(key, fading)[0]
                      for k, fading in enumerate(_root_laws())
                      for solve, keys in ((core._solve_rho_fixed_pilots, pilots),
                                          (core._solve_rho_on_curve, lcs))
                      for key in keys[::order]})
    assert roots[0] == roots[1]


# ------------------------------------------------------- guided pilot search


def _three_laws(rng):
    atoms = np.sort(rng.gamma(1.5, 1.0, 64))
    return [RAY, DET, FadingModel.tabulated([(v / atoms.mean(), 1.0 / 64) for v in atoms])]


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _probe(rho, w, lc, fading, n):
    """The oracle's ending: the first best of counts n - 2 .. n + 2, clipped
    to [1, n_hi], so ties go to the lower count. rho, w and n are floats or
    1-d arrays of one length."""
    n_hi = core._max_pilots(lc)
    if isinstance(rho, np.ndarray):
        trial = np.clip(n[:, None] + np.arange(-2.0, 3.0), 1.0, n_hi)
        rates = core._rates(rho[:, None], w[:, None], trial / lc, lc, fading)
        k, rows = rates.argmax(axis=1), np.arange(rho.size)
        return trial[rows, k].astype(int), rates[rows, k]
    trial = [min(max(n + step, 1.0), n_hi) for step in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    rates = [core._rates(rho, w, m / lc, lc, fading) for m in trial]
    k = rates.index(max(rates))
    return int(trial[k]), float(rates[k])


def _golden_pilots(rho, w, lc, fading):
    """Golden-section oracle for core._best_pilots: a golden-section search on
    the pilot ratio narrows [a, b] to at most 1/Lc, then one _probe from
    floor(a*Lc) + 1 picks the count. Equal rates keep the lower bracket.
    Floats stay Python floats."""
    shape = None
    if isinstance(rho, np.ndarray) or isinstance(w, np.ndarray):
        rho, w = np.broadcast_arrays(rho, w)
        shape, rho, w = rho.shape, rho.ravel(), w.ravel()
    a = 1e-9 if shape is None else np.full(rho.size, 1e-9)
    b = 1.0 - a
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = core._rates(rho, w, c, lc, fading), core._rates(rho, w, d, lc, fading)
    for _ in range(math.ceil(math.log(lc) / -math.log(_INV_PHI))):
        s = (fc >= fd) * 1.0  # 1 where a maximum lies in [a, d], else in [c, b]
        t = 1.0 - s
        a, b = s * a + t * c, s * d + t * b
        x = s * (b - _INV_PHI * (b - a)) + t * (a + _INV_PHI * (b - a))
        fx = core._rates(rho, w, x, lc, fading)
        c, d, fc, fd = s * x + t * d, s * c + t * x, s * fx + t * fd, s * fc + t * fx
    n_hi = core._max_pilots(lc)
    if shape is None:
        return _probe(rho, w, lc, fading, float(min(math.floor(a * lc) + 1, n_hi)))
    n, best = _probe(rho, w, lc, fading, np.minimum(np.floor(a * lc) + 1.0, n_hi))
    return n.reshape(shape), best.reshape(shape)


def _mp_log1p(fading, s):
    """E[ln(1 + sX)] at mpmath's working precision, for an mpf s."""
    import mpmath as mp

    if fading.kind == "rayleigh":
        return mp.exp(1 / s) * mp.e1(1 / s)
    if fading.kind == "deterministic":
        return mp.log1p(s)
    return mp.fsum(mp.mpf(w) * mp.log1p(s * v) for v, w in fading.atoms)


def _mp_is_argmax(rho, lc, fading, n):
    """Whether count n's rate, to 60 digits, is at least that of n - 1 and
    n + 1 where they are valid counts: the rate is concave in the count, so
    then n is the argmax."""
    import mpmath as mp

    n, n_hi = int(n), core._max_pilots(lc)
    with mp.workdps(60):
        rho, lc = mp.mpf(float(rho)), mp.mpf(lc)

        def rate(m):
            al = mp.mpf(m)
            return (1 - al / lc) * _mp_log1p(fading, al * rho * rho / (1 + (1 + al) * rho))

        here = rate(n)
        return all(rate(m) <= here for m in (n - 1, n + 1) if 1 <= m <= n_hi)


def _four_laws(rng):
    # the three laws and an extreme two-atom law: no power 99% of the time
    return _three_laws(rng) + [FadingModel.tabulated([(0.0, 0.99), (100.0, 0.01)])]


@pytest.mark.parametrize("lc", [2.0, 2.5, 40.0, 2500.0, 1e6, 1e8])
def test_best_pilots_match_the_golden_section_oracle(lc):
    # rho spans 1e-20..1e12, past the guide and the benchmark on both sides.
    # The oracle ends on five counts around its bracket and the library on
    # the two its slope bracket leaves, and a rate's bits do not depend on
    # which counts are scored with it. At Lc = 1e8 neighbouring rates can
    # differ by less than their rounding, and the two can pick different
    # counts: there the library's count must be the 60-digit argmax
    rng = np.random.default_rng([int(lc * 10), 21])
    for fading in _four_laws(rng):
        rho = 10.0 ** rng.uniform(-20.0, 12.0, 400)
        w = 10.0 ** rng.uniform(5.0, 9.0, 400)
        n, r = core._best_pilots(rho, w, lc, fading)
        n_gold, r_gold = _golden_pilots(rho, w, lc, fading)
        for j in np.flatnonzero(n != n_gold) if lc >= 1e8 else ():
            assert _mp_is_argmax(rho[j], lc, fading, n[j]), (rho[j], n[j], n_gold[j])
            n_gold[j], r_gold[j] = n[j], r[j]
        assert np.array_equal(n, n_gold), fading.atoms[:2]
        assert np.array_equal(r, r_gold), fading.atoms[:2]
        for j in range(0, 400, 4):
            got = core._best_pilots(float(rho[j]), float(w[j]), lc, fading)
            gold = _golden_pilots(float(rho[j]), float(w[j]), lc, fading)
            if got[0] != gold[0] and lc >= 1e8:
                assert _mp_is_argmax(rho[j], lc, fading, got[0]), (rho[j], got, gold)
            else:
                assert got == gold, (rho[j], got)
            assert type(got[0]) is int and type(got[1]) is float


@pytest.mark.parametrize("lc", [5000.0, 2e4])
def test_best_pilots_on_arrays_match_brute_force_above_the_full_scan(lc):
    # exhaustive_search takes this search at every bandwidth, here at coherence
    # lengths past 4096 pilots; a column of points keeps its shape
    rng = np.random.default_rng(int(lc) + 4)
    n_all = np.arange(1.0, core._max_pilots(lc) + 1.0)
    rho = np.geomspace(1e-6, 1e4, 31)
    for fading in _three_laws(rng):
        w = 10.0 ** rng.uniform(5.0, 9.0, rho.size)
        n, r = core._best_pilots(rho[:, None], w[:, None], lc, fading)
        assert n.shape == r.shape == (rho.size, 1)
        for j in range(rho.size):
            brute = core._rates(rho[j], w[j], n_all / lc, lc, fading)
            assert n[j, 0] == n_all[np.argmax(brute)], (fading.kind, rho[j])
            assert r[j, 0] == pytest.approx(brute.max(), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("lc", [2.0, 2.5, 17.3, 2500.0, 1e6])
def test_guided_pilots_match_golden_search(lc):
    # rho spans 1e-10..1e10, so a fifth of the points lie outside the guide
    rng = np.random.default_rng(int(lc * 10))
    for fading in _three_laws(rng):
        rho = 10.0 ** rng.uniform(-10.0, 10.0, 400)
        w = 10.0 ** rng.uniform(5.0, 9.0, 400)
        n, r = core._guided_pilots(rho, w, lc, fading)
        n_gold, r_gold = core._best_pilots(rho, w, lc, fading)
        assert np.array_equal(n, n_gold), fading.kind
        assert r == pytest.approx(r_gold, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("lc", [2.0, 2.5, 17.3, 2500.0])
def test_guided_pilots_match_brute_force(lc):
    # the first argmax over every integer count, as the guided search breaks ties
    rng = np.random.default_rng(int(lc * 10) + 1)
    n_all = np.arange(1.0, core._max_pilots(lc) + 1.0)
    for fading in _three_laws(rng):
        rho = 10.0 ** rng.uniform(-10.0, 10.0, 60)
        w = 10.0 ** rng.uniform(5.0, 9.0, 60)
        n, _ = core._guided_pilots(rho, w, lc, fading)
        for j in range(rho.size):
            brute = core._rates(rho[j], w[j], n_all / lc, lc, fading)
            assert n[j] == n_all[np.argmax(brute)], (fading.kind, rho[j])


@pytest.mark.parametrize("guess", ["lowest", "highest"])
def test_guided_pilots_are_exact_from_a_wrong_guide(monkeypatch, guess):
    # the guide only picks the start: from either end, the walks reach the argmax
    lc = 700.0
    log_rho = np.linspace(-8.0, 8.0, 3)
    start = 1.0 if guess == "lowest" else float(core._max_pilots(lc))
    monkeypatch.setattr(core, "_pilot_guide", lambda lc, fading: (log_rho, np.full(3, start)))
    rng = np.random.default_rng(11)
    for fading in _three_laws(rng):
        rho = 10.0 ** rng.uniform(-4.0, 4.0, 50)
        w = 10.0 ** rng.uniform(5.0, 9.0, 50)
        n, _ = core._guided_pilots(rho, w, lc, fading)
        assert np.array_equal(n, core._best_pilots(rho, w, lc, fading)[0]), fading.kind


def _window_max(rho, w, lc, fading, n):
    """The largest rate over the counts n - k .. n + k, k = 2000, widened
    fourfold until the maximum lies inside the window or on a count limit."""
    n_hi, k = core._max_pilots(lc), 2000
    while True:
        counts = np.arange(max(1, n - k), min(n_hi, n + k) + 1, dtype=float)
        rates = core._rates(rho, w, counts / lc, lc, fading)
        j = int(np.argmax(rates))
        if 0 < j < counts.size - 1 or counts[j] in (1.0, n_hi):
            return rates[j]
        k *= 4


@pytest.mark.parametrize("law", [0, 1, 2], ids=["rayleigh", "deterministic", "tabulated"])
@pytest.mark.parametrize("lc", [1e10, 1e12, 1e14, 2.0**53])
def test_pilot_searches_at_huge_coherence_stay_within_their_tolerance(lc, law):
    # near the maximum, neighbouring counts can differ by less than the rate's
    # rounding, so each search may stop short of it: by at most PILOT_RTOL
    rng = np.random.default_rng([int(math.log2(lc)), law])
    fading = _three_laws(rng)[law]
    rho = 10.0 ** rng.uniform(-8.0, 8.0, 30)
    w = 10.0 ** rng.uniform(5.0, 9.0, 30)
    on_arrays = [search(rho, w, lc, fading)[1] for search in (core._best_pilots,
                                                                core._guided_pilots)]
    for j in range(rho.size):
        r, v = float(rho[j]), float(w[j])
        n, rate = core._best_pilots(r, v, lc, fading)
        floor = _window_max(r, v, lc, fading, n) * (1.0 - core.PILOT_RTOL)
        assert min([rate] + [rates_j[j] for rates_j in on_arrays]) >= floor, (lc, r, v)


def _count_rates(monkeypatch, budget):
    """Count core._rates and core._pilot_slope calls, failing at the first one
    past budget: a search that walks through a run of equal rates or slopes
    fails at once instead of hanging. Returns the counts by name."""
    calls = {"_rates": 0, "_pilot_slope": 0}

    def counted(name):
        original = getattr(core, name)

        def wrapper(*args):
            calls[name] += 1
            assert sum(calls.values()) <= budget, f"more than {budget} rate and slope evaluations"
            return original(*args)

        monkeypatch.setattr(core, name, wrapper)

    for name in calls:
        counted(name)
    return calls


@pytest.mark.parametrize("law", [0, 1, 2], ids=["rayleigh", "deterministic", "tabulated"])
@pytest.mark.parametrize("pd, lc", [(1e-191, 1e7), (1e-200, 2.0**53)])
def test_rate_fixed_bandwidth_stops_on_underflowed_rates(monkeypatch, pd, lc, law):
    # at 1 GHz the per-symbol SNR is 1e-200 or less, so every rate rounds to
    # 0.0 and every pilot count ties: ties go to the lower count, and no
    # search walks through the run
    fading = _three_laws(np.random.default_rng(7))[law]
    _count_rates(monkeypatch, 150)
    point = core.rate_fixed_bandwidth(pd, 1e9, CoherenceBlock(lc=lc), fading)
    assert point.rate_bps == 0.0
    assert point.pilot_count == 1


@pytest.mark.parametrize("law", [0, 1, 2], ids=["rayleigh", "deterministic", "tabulated"])
@pytest.mark.parametrize("w", [1e-200, 1e-160, 1e-100, 1e-60])
def test_rate_fixed_bandwidth_names_an_overflowing_snr(law, w):
    # per-symbol SNR 1e210 to inf: its square overflows at every pilot count
    fading = _three_laws(np.random.default_rng(7))[law]
    with pytest.raises(ValueError, match=rf"Pr/N0 1e\+150 Hz over bandwidth {w} Hz"):
        core.rate_fixed_bandwidth(1e150, w, CoherenceBlock(lc=1000), fading)


@pytest.mark.parametrize("law", [0, 1, 2], ids=["rayleigh", "deterministic", "tabulated"])
def test_rate_names_an_overflowing_snr(law):
    # the SNR 1e160 used to be reported as an expectation scale of inf
    fading = _three_laws(np.random.default_rng(7))[law]
    with pytest.raises(ValueError, match=r"Pr/N0 1e\+150 Hz over bandwidth 1e-10 Hz"):
        core.rate(1e150, 1e-10, 0.1, CoherenceBlock(100.0), fading)


@pytest.mark.parametrize("law", [0, 1, 2], ids=["rayleigh", "deterministic", "tabulated"])
def test_rate_fixed_bandwidth_scores_up_to_the_largest_snr(law):
    # Lc = 2 has one pilot count, which scores every SNR up to the bound
    fading = _three_laws(np.random.default_rng(7))[law]
    w = 1e150 / core._MAX_RHO
    while 1e150 / w > core._MAX_RHO:
        w = math.nextafter(w, math.inf)
    point = core.rate_fixed_bandwidth(1e150, w, CoherenceBlock(lc=2.0), fading)
    assert point.pilot_count == 1 and math.isfinite(point.rate_bps)
    with pytest.raises(ValueError, match="bandwidth"):
        core.rate_fixed_bandwidth(1e150, math.nextafter(w, 0.0), CoherenceBlock(lc=2.0), fading)


def test_discretize_stops_on_underflowed_rates(monkeypatch):
    # pr_n0_dbhz = -2900: the bound and the best lattice rate are both 0.0
    cb = CoherenceBlock(lc=1e6, bc_hz=1e7)
    pd = 10.0 ** (-2900.0 / 10.0)
    op = core.solve_continuous(pd, cb, RAY)
    _count_rates(monkeypatch, 200)
    point = core.discretize(op, cb, pd, RAY)
    assert (point.w_hz, point.pilot_count, point.rate_bps) == (1e7, 1, 0.0)
    assert "bandwidth_floor" in point.flags


def _scanned_discretize(op, cb, pd, fading):
    """Oracle for core.discretize: its scan before a count's bound was checked
    ahead of scoring it, with four bandwidth steps per count, floor(W_n/Bc) - 1
    to ceil(W_n/Bc) + 1, and the bound tested only after them."""
    pd_hz, lc, bc = core._pd_hz(pd), cb.lc, cb.bc_hz
    n_hi = core._max_pilots(lc)
    flags = ()
    if op.w_hz / bc < 1.0:
        flags = ("bandwidth_floor",)
        n0 = core._best_pilots(pd_hz / bc, bc, lc, fading)[0]
    else:
        n0 = min(max(math.floor(op.alpha * lc), 1), n_hi)
    best = (-math.inf, 1, 1)
    for n, step in ((n0, -1), (n0 + 1, 1)):
        while 1 <= n <= n_hi:
            rho_n, e_log1p = core._solve_rho_fixed_pilots(n, fading)
            w_n = pd_hz / rho_n
            rates = [(core._rates(pd_hz / (m * bc), m * bc, n / lc, lc, fading), m, n)
                     for m in range(max(1, math.floor(w_n / bc) - 1), math.ceil(w_n / bc) + 2)]
            best = max(best, *rates, key=lambda t: t[0])
            bound = rates[0][0] if w_n < bc else core._rate_product(n / lc, w_n, e_log1p)
            if bound * (1.0 + 1e-12) <= best[0]:
                break
            n += step
    rate_bps, m, n = best
    return core._lattice_point(pd_hz, m * bc, n, lc, rate_bps, flags)


def _lattice_bits(point):
    return point.w_hz, point.pilot_count, point.rate_bps.hex(), point.flags


def _winning_step(pd, cb, fading):
    """x = W_n/Bc of the count that discretize picks on this link."""
    op = core.solve_continuous(pd, cb, fading)
    n = core.discretize(op, cb, pd, fading).pilot_count
    return pd / core._solve_rho_fixed_pilots(n, fading)[0] / cb.bc_hz


def _oracle_links():
    """(fading, Lc, Bc, Pr/N0): a seeded panel on the four laws, the climb
    traps, an underflowed link, links below one coherence bandwidth, links
    whose winning W_n/Bc lies within 1e-12 of an integer, and links past
    2**20 steps, where the scan keeps four steps per count."""
    rng = np.random.default_rng(35)
    laws = _four_laws(np.random.default_rng(11))
    links = [(FadingModel(kind), lc, bc, pd) for kind, lc, bc, pd in CLIMB_TRAPS]
    links.append((RAY, 1e6, 1e7, 10.0 ** (-290.0)))
    for j in range(160):
        lc_hi = 1e8 if j % 10 == 9 else 1e6
        lc = float(np.exp(rng.uniform(math.log(2.0), math.log(lc_hi))))
        links.append((laws[j % 4], lc, float(10.0 ** rng.uniform(3.0, 8.0)),
                      float(10.0 ** rng.uniform(2.0, 12.0))))
    for j in range(48):
        fading, lc = laws[j % 4], float(np.exp(rng.uniform(math.log(2.0), math.log(1e5))))
        pd = float(10.0 ** rng.uniform(4.0, 10.0))
        w_star = core.solve_continuous(pd, CoherenceBlock(lc=lc), fading).w_hz
        if j < 16:  # W*/Bc below 1: bandwidth_floor, with w_n < Bc on the counts scored
            links.append((fading, lc, w_star / float(np.exp(rng.uniform(-7.0, 0.0))), pd))
        elif j < 32:  # the winning count's W_n/Bc at an integer, or 1e-12 to either side
            bc = w_star / float(np.exp(rng.uniform(0.0, math.log(1e3))))
            x = _winning_step(pd, CoherenceBlock(lc=lc, bc_hz=bc), fading)
            links.append((fading, lc, x * bc / (max(1, round(x)) + (j % 3 - 1) * 1e-12), pd))
        else:  # W*/Bc in 2**20-2**30
            steps = float(np.exp(rng.uniform(20.0, 30.0) * math.log(2.0)))
            links.append((fading, lc, w_star / steps, pd))
    return links


def test_discretize_matches_the_four_step_scan():
    # testing each count's bound before scoring it, and scoring only the
    # floor and ceiling of x = W_n/Bc where d x**2 < 2**40, leave every
    # lattice result's bits unchanged
    for fading, lc, bc, pd in _oracle_links():
        cb = CoherenceBlock(lc=lc, bc_hz=bc)
        op = core.solve_continuous(pd, cb, fading)
        expected = _lattice_bits(_scanned_discretize(op, cb, pd, fading))
        assert _lattice_bits(core.discretize(op, cb, pd, fading)) == expected, (
            fading.kind, lc, bc, pd)


def test_discretize_scores_few_lattice_points(monkeypatch):
    # link-lattice-like links with warm roots: the four-step scan, which also
    # scored the count it stopped on, took a median of 16 rates here, max 20
    rng = np.random.default_rng(36)
    laws = _three_laws(np.random.default_rng(11))
    links = []
    for j in range(60):
        fading, lc = laws[j % 3], float(np.exp(rng.uniform(math.log(300.0), math.log(3e4))))
        pd = float(10.0 ** rng.uniform(7.0, 10.0))
        w_star = core.solve_continuous(pd, CoherenceBlock(lc=lc), fading).w_hz
        cb = CoherenceBlock(lc=lc, bc_hz=w_star / float(np.exp(rng.uniform(math.log(100.0),
                                                                             math.log(1e4)))))
        op = core.solve_continuous(pd, cb, fading)
        core.discretize(op, cb, pd, fading)
        links.append((op, cb, pd, fading))
    calls = _count_rates(monkeypatch, 100)
    counts = []
    for op, cb, pd, fading in links:
        calls["_rates"] = 0
        core.discretize(op, cb, pd, fading)
        counts.append(calls["_rates"])
    assert float(np.median(counts)) <= 4.0
    assert max(counts) <= 10


def test_guided_pilots_below_the_guide_take_the_golden_search(monkeypatch):
    # rho = 5e-9 lies below the guide's 1e-8, where a walk from the guide's
    # end would run toward Lc/2 one count at a time; the search hands off to
    # _best_pilots, the slope search, instead
    lc, rho, w = 1e8, np.array([5e-9]), np.array([1e8])
    core._pilot_guide(lc, RAY)  # built once and shared by every caller
    expected = core._best_pilots(rho, w, lc, RAY)
    _count_rates(monkeypatch, 200)
    n, r = core._guided_pilots(rho, w, lc, RAY)
    assert np.array_equal(n, expected[0]) and np.array_equal(r, expected[1])


# Slope evaluations per _best_pilots search, at most: 14 were measured on
# floats and on arrays, for rho from 1e-20 to 1e12 and Lc up to 2**53.
_SLOPE_BUDGET = 24


@pytest.mark.parametrize("law", [0, 1, 2], ids=["rayleigh", "deterministic", "tabulated"])
@pytest.mark.parametrize("lc", [2.5, 2500.0, 1e6, 1e9, 2.0**53])
def test_best_pilots_ends_with_one_probe(monkeypatch, lc, law):
    # a bounded number of slope evaluations narrows the root to counts lo and
    # lo + 1, then their rates pick one: two scalar rate calls on a float,
    # one call on an array, wherever the maximum lies relative to the
    # search's start
    fading = _three_laws(np.random.default_rng(8))[law]
    rho = 10.0 ** np.linspace(-20.0, 12.0, 129)
    w = np.full(rho.size, 1e9)
    calls = _count_rates(monkeypatch, _SLOPE_BUDGET + 2)
    for r in rho:
        calls.update(_rates=0, _pilot_slope=0)
        core._best_pilots(float(r), 1e9, lc, fading)
        assert calls["_rates"] == 2 and calls["_pilot_slope"] <= _SLOPE_BUDGET, (lc, r)
    calls.update(_rates=0, _pilot_slope=0)
    core._best_pilots(rho, w, lc, fading)
    assert calls["_rates"] == 1 and calls["_pilot_slope"] <= _SLOPE_BUDGET


@pytest.mark.parametrize("on_arrays", [False, True], ids=["float", "array"])
def test_best_pilots_keep_the_lower_of_two_equal_counts(monkeypatch, on_arrays):
    # the slope bracket leaves counts lo and lo + 1; rates that round equal
    # keep lo, and a higher rate at lo + 1 takes it
    lc, rho = 1e4, 0.3
    lo = int(core._slope_bracket(rho, lc, RAY))
    for upper, want in ((1.0, lo), (1.5, lo + 1)):
        monkeypatch.setattr(core, "_rates", lambda r, w, alpha, lc_, fading, upper=upper:
                            np.where(np.round(alpha * lc) == lo + 1, upper, 1.0))
        if on_arrays:
            n, r = core._best_pilots(np.array([rho, rho]), 1e9, lc, RAY)
            assert n.tolist() == [want] * 2 and r.tolist() == [upper] * 2
        else:
            assert core._best_pilots(rho, 1e9, lc, RAY) == (want, upper)


def test_guided_pilots_take_one_probe_and_one_golden_search(monkeypatch):
    # at Lc = 1e9 the guide's interpolated count can miss the argmax by
    # thousands of counts between its grid points; a miss hands off to the
    # slope search instead of stepping toward the argmax
    lc = 1e9
    rho = 10.0 ** np.linspace(-7.3, 7.1, 9)
    w = np.full(rho.size, 1e9)
    core._pilot_guide(lc, RAY)  # built once and shared by every caller
    floor = core._best_pilots(rho, w, lc, RAY)[1] * (1.0 - core.PILOT_RTOL)
    calls = _count_rates(monkeypatch, 1 + _SLOPE_BUDGET + 1)
    assert np.all(core._guided_pilots(rho, w, lc, RAY)[1] >= floor)
    assert calls["_rates"] <= 2


def test_allocate_pair_at_a_huge_coherence_length_stays_in_a_call_budget(monkeypatch):
    # two Rayleigh users at Lc = 1e9: every pilot search is one probe, plus
    # one slope search where the guide misses
    from maxbw import allocate

    cb = CoherenceBlock(lc=1e9, bc_hz=1e7)
    users = [allocate.UserLink(gain_hz_per_watt=g, pt_w=1e-3, w0_hz=1e8, cb=cb, fading=RAY)
             for g in (1e3, 1e4)]
    core._pilot_guide(cb.lc, RAY)
    _count_rates(monkeypatch, 2000)
    alloc = allocate.allocate_pair(*users, allocate.SUM_RATE)
    assert alloc.objective_value >= alloc.baseline_value


def test_underflowed_lattice_rates_carry_a_flag():
    # pr_n0_dbhz = -2900: every lattice rate rounds to 0.0 and the count is
    # the tie rule's pick, not a maximum
    cb = CoherenceBlock(lc=1e6, bc_hz=1e7)
    pd = 10.0 ** (-2900.0 / 10.0)
    op = core.solve_continuous(pd, cb, RAY)
    for point in (core.discretize(op, cb, pd, RAY), core.exhaustive_search(pd, cb, RAY, 4),
                  core.rate_fixed_bandwidth(pd, 1e9, cb, RAY)):
        assert point.rate_bps == 0.0 and "rate_underflow" in point.flags
    assert op.rate_bps > 0.0 and "rate_underflow" not in op.flags
    assert "rate_underflow" not in core.rate_fixed_bandwidth(1e9, 1e9, cb, RAY).flags


def _count_kernel_calls(monkeypatch):
    """Count every fading-kernel evaluation: the two public expectations and
    the Rayleigh scalar and array kernels that the joint one calls directly."""
    from maxbw import fading as fading_module

    calls = {}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("expected_log1p", "expected_inv1p"):
        counted(FadingModel, name)
    for name in ("_rayleigh", "_rayleigh_array"):
        counted(fading_module, name)
    return calls


@pytest.mark.parametrize("lc", [2.0, 12345.678])
def test_solve_continuous_cache_hit_makes_no_kernel_call(monkeypatch, lc):
    rng = np.random.default_rng(5)
    cb = CoherenceBlock(lc=lc)
    for fading in _three_laws(rng):
        core._solve_rho_on_curve.cache_clear()
        cold = core.solve_continuous(3e8, cb, fading)
        calls = _count_kernel_calls(monkeypatch)
        warm = core.solve_continuous(3e8, cb, fading)
        monkeypatch.undo()
        assert calls == {}, fading.kind
        assert warm == cold
        # the cached expectation gives the bits of the rate kernel
        assert warm.rate_bps == core._rates(warm.rho, warm.w_hz, warm.alpha, lc, fading)


def test_cold_rayleigh_solve_evaluates_the_kernel_once_per_residual(monkeypatch):
    residuals = []
    original = core._bandwidth_residual

    def counted(*args):
        residuals.append(args)
        return original(*args)

    monkeypatch.setattr(core, "_bandwidth_residual", counted)
    calls = _count_kernel_calls(monkeypatch)
    core._solve_rho_on_curve.cache_clear()
    core.solve_continuous(1e8, CoherenceBlock(lc=12345.678), RAY)
    # one joint kernel call per residual, plus the rate's expectation
    assert calls == {"_rayleigh": len(residuals) + 1, "expected_log1p": 1}
