"""Array links must reduce exactly to the scalar problem they substitute into."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from maxbw import beamform, core
from maxbw.beamform import ArrayConfig
from maxbw.core import CoherenceBlock, PowerDensity
from maxbw.errors import ConfigError
from maxbw.fading import FadingModel

RAY = FadingModel.rayleigh()
DET = FadingModel.deterministic()


# ---------------------------------------------------------------- ArrayConfig


def test_factory_values():
    ideal = ArrayConfig.ideal_directional(nt=16, nr=4)
    assert ideal.kt == 64
    assert ideal.g1 == 64.0
    assert ideal.g2 == 1.0

    rich = ArrayConfig.rich_scattering(nt=16, nr=4)
    assert rich.kt == 64
    assert rich.g1 == 20.0
    assert rich.g2 == 1.0

    simo = ArrayConfig.simo(nr=4)
    assert (simo.nt, simo.kt, simo.g1, simo.g2) == (1, 1, 1.0, 4.0)

    miso = ArrayConfig.miso(nt=8)
    assert (miso.nr, miso.kt, miso.g1, miso.g2) == (1, 8, 8.0, 1.0)

    siso = ArrayConfig.siso()
    assert (siso.nt, siso.nr, siso.kt, siso.g1, siso.g2) == (1, 1, 1, 1.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(nt=0, nr=1, kt=1, g1=1.0, g2=1.0)
    with pytest.raises(ValueError):
        ArrayConfig(nt=2, nr=2, kt=1, g1=5.0, g2=1.0)  # g1 > nt*nr
    with pytest.raises(ValueError):
        ArrayConfig(nt=2, nr=2, kt=1, g1=1.0, g2=3.0)  # g2 > nr
    with pytest.raises(ValueError):
        ArrayConfig(nt=2, nr=2, kt=1, g1=0.5, g2=1.0)
    with pytest.raises(ValueError):
        ArrayConfig(nt=2.0, nr=2, kt=1, g1=1.0, g2=1.0)
    with pytest.raises(ValueError, match="nt must be an integer >= 1, got True"):
        ArrayConfig(nt=True, nr=True, kt=True, g1=1.0, g2=1.0)  # a bool is no count


# ---------------------------------------------------------------- substitute


def test_substitution_example():
    cfg = ArrayConfig.ideal_directional(nt=16, nr=4)
    pd_sub, block = beamform.substitute(1e8, CoherenceBlock(lc=5e4), *cfg.gain_pair)
    assert block.lc == pytest.approx(781.25, rel=1e-15)
    assert pd_sub == 1e8 * 64.0
    assert 5e4 / block.lc == 64.0
    assert cfg.gain_pair == (64.0, 64.0)


def test_substitution_receive_combining_splits_pair():
    # g2 shortens coherence and boosts power; g1 only boosts power
    cfg = ArrayConfig.simo(nr=4)
    pd_sub, block = beamform.substitute(1.0, CoherenceBlock(lc=1e4), *cfg.gain_pair)
    assert block.lc == pytest.approx(2500.0)
    assert pd_sub == 4.0
    assert cfg.gain_pair[1] == 4.0

    cfg = ArrayConfig.miso(nt=4)
    pd_sub, block = beamform.substitute(1.0, CoherenceBlock(lc=1e4), *cfg.gain_pair)
    assert block.lc == pytest.approx(2500.0)
    assert pd_sub == 4.0


@pytest.mark.parametrize("cfg,pair", [
    (ArrayConfig.siso(), (1.0, 1.0)),
    (ArrayConfig.simo(nr=4), (4.0, 4.0)),
    (ArrayConfig.miso(nt=8), (8.0, 8.0)),
    (ArrayConfig.ideal_directional(nt=16, nr=4), (64.0, 64.0)),
    (ArrayConfig.rich_scattering(nt=16, nr=4), (20.0, 64.0)),
    (ArrayConfig(nt=4, nr=2, kt=3, g1=6.0, g2=2.0), (12.0, 6.0)),
], ids=["siso", "simo", "miso", "ideal_directional", "rich_scattering", "explicit_g2"])
def test_config_owns_the_substituted_gain_pair(cfg, pair):
    assert cfg.gain_pair == pair
    assert beamform.substitute(1.0, CoherenceBlock(lc=1e4), *cfg.gain_pair) == \
        (pair[0], CoherenceBlock(lc=1e4 / pair[1]))


def test_sweep_exhausts_coherence():
    cfg = ArrayConfig.ideal_directional(nt=16, nr=4)
    with pytest.raises(ConfigError, match="coherence exhausted"):
        beamform.substitute(1e8, CoherenceBlock(lc=100.0), *cfg.gain_pair)
    with pytest.raises(ConfigError, match="coherence exhausted"):
        beamform.solve_with_gains(PowerDensity(1e8), CoherenceBlock(lc=100.0),
                                  gain=1.0, sweep_penalty=64.0, fading=RAY)


def test_bad_gain_pair():
    with pytest.raises(ConfigError):
        beamform.solve_with_gains(PowerDensity(1e8), CoherenceBlock(lc=1e4),
                                  gain=0.0, sweep_penalty=1.0, fading=RAY)
    with pytest.raises(ConfigError):
        beamform.solve_with_gains(PowerDensity(1e8), CoherenceBlock(lc=1e4),
                                  gain=2.0, sweep_penalty=0.5, fading=RAY)


@pytest.mark.parametrize("gain, penalty", [(math.nan, 1.0), (math.inf, 1.0),
                                           (2.0, math.nan), (2.0, math.inf)])
def test_a_non_finite_gain_pair_is_refused(gain, penalty):
    # a NaN gain used to pass as a NaN density, and a NaN penalty was
    # reported as a coherence length of NaN
    with pytest.raises(ConfigError, match=r"bad gain pair \("):
        beamform.substitute(1e9, CoherenceBlock(lc=1e4), gain, penalty)


# ---------------------------------------------------------------- solve_with_gains


def test_siso_reduces_to_scalar_solver():
    pd = PowerDensity(3e7)
    cb = CoherenceBlock(lc=2e4)
    scalar = core.solve_continuous(pd, cb, RAY)
    array = beamform.solve_with_gains(pd, cb, *ArrayConfig.siso().gain_pair, RAY)
    assert array == scalar


def test_solve_with_gains_matches_manual_substitution():
    pd_hz = 1e8
    cb = CoherenceBlock(lc=5e4)
    gain, penalty = ArrayConfig.ideal_directional(nt=16, nr=4).gain_pair

    manual = core.solve_continuous(pd_hz * gain, CoherenceBlock(lc=cb.lc / penalty), RAY)
    array = beamform.solve_with_gains(pd_hz, cb, gain, penalty, RAY)

    assert array.w_hz == manual.w_hz
    assert array.alpha == manual.alpha
    assert array.rate_bps == manual.rate_bps
    assert array.rho_eff == manual.rho_eff
    # rho reports per-element SNR
    assert array.rho == pytest.approx(manual.rho / gain, rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    pd_hz=st.floats(1e5, 1e10),
    lc=st.floats(1e3, 1e6),
    nt=st.integers(1, 8),
    nr=st.integers(1, 4),
)
def test_round_trip_property(pd_hz, lc, nt, nr):
    cfg = ArrayConfig.ideal_directional(nt=nt, nr=nr)
    if lc / (cfg.kt * cfg.g2) < 2.0:
        return
    gain, penalty = cfg.gain_pair
    manual = core.solve_continuous(pd_hz * gain, CoherenceBlock(lc=lc / penalty), RAY)
    array = beamform.solve_with_gains(pd_hz, CoherenceBlock(lc=lc), gain, penalty, RAY)
    assert array.rate_bps == pytest.approx(manual.rate_bps, rel=1e-12)
    assert array.rho * gain == pytest.approx(manual.rho, rel=1e-12)


def test_ideal_beats_rich_scattering():
    # same sweep cost, ideal elements capture nt*nr >= nt+nr of gain
    pd = PowerDensity(1e8)
    cb = CoherenceBlock(lc=1e5)
    for nt, nr in [(4, 2), (16, 4), (8, 8)]:
        ideal = beamform.solve_with_gains(
            pd, cb, *ArrayConfig.ideal_directional(nt, nr).gain_pair, RAY)
        rich = beamform.solve_with_gains(
            pd, cb, *ArrayConfig.rich_scattering(nt, nr).gain_pair, RAY)
        assert ideal.rate_bps > rich.rate_bps
    # 2x2 is the tie: nt*nr == nt+nr == 4
    ideal = beamform.solve_with_gains(pd, cb, *ArrayConfig.ideal_directional(2, 2).gain_pair, RAY)
    rich = beamform.solve_with_gains(pd, cb, *ArrayConfig.rich_scattering(2, 2).gain_pair, RAY)
    assert ideal.rate_bps == pytest.approx(rich.rate_bps, rel=1e-15)


def test_mimo_rate_agrees_with_operating_point():
    pd = 1e8
    cb = CoherenceBlock(lc=5e4)
    cfg = ArrayConfig.ideal_directional(nt=16, nr=4)
    point = beamform.solve_with_gains(pd, cb, *cfg.gain_pair, RAY)
    r = beamform.mimo_rate(pd, point.w_hz, point.alpha, cb, cfg, RAY)
    assert r == pytest.approx(point.rate_bps, rel=1e-12)


def test_fixed_bandwidth_at_optimum_recovers_solve():
    pd = 1e8
    cb = CoherenceBlock(lc=5e4)
    cfg = ArrayConfig.ideal_directional(nt=16, nr=4)
    point = beamform.solve_with_gains(pd, cb, *cfg.gain_pair, RAY)
    pinned = beamform.fixed_bandwidth_with_gains(pd, point.w_hz, cb, *cfg.gain_pair, RAY)
    # pinned search snaps alpha to whole pilots on the substituted lattice
    # (here 71/781.25), so compare within half a pilot step; rate is flat-top
    assert pinned.rate_bps == pytest.approx(point.rate_bps, rel=1e-6)
    assert abs(pinned.alpha - point.alpha) <= 0.5 / (cb.lc / 64.0)
    assert pinned.pilot_count == round(pinned.alpha * cb.lc / 64.0)
    # away from the optimum the pinned rate must fall below it
    off = beamform.fixed_bandwidth_with_gains(pd, point.w_hz / 4.0, cb, *cfg.gain_pair, RAY)
    assert off.rate_bps < point.rate_bps


def test_solve_with_gains_unit_pair_is_scalar():
    pd = PowerDensity(3e7)
    cb = CoherenceBlock(lc=2e4)
    scalar = core.solve_continuous(pd, cb, DET)
    via_gains = beamform.solve_with_gains(pd, cb, gain=1.0, sweep_penalty=1.0,
                                          fading=DET)
    assert via_gains == scalar


def test_solve_with_gains_pre_gain_density():
    # a budget that folds array gain into pd passes gain=1; passing the raw
    # density with the explicit gain must land on the same operating point
    pd_raw = 1e7
    gain = 64.0
    penalty = 64.0
    cb = CoherenceBlock(lc=5e4)
    folded = beamform.solve_with_gains(pd_raw * gain, cb, gain=1.0,
                                       sweep_penalty=penalty, fading=DET)
    explicit = beamform.solve_with_gains(pd_raw, cb, gain=gain,
                                         sweep_penalty=penalty, fading=DET)
    assert folded.rate_bps == pytest.approx(explicit.rate_bps, rel=1e-15)
    assert folded.w_hz == pytest.approx(explicit.w_hz, rel=1e-15)
    assert folded.rho == pytest.approx(explicit.rho * gain, rel=1e-15)


def test_bandwidth_lattice_survives_substitution():
    # bc stays put when the sweep shortens lc: pilot counts quantize on the
    # substituted block but bandwidth still steps in channel-sized increments
    cb = CoherenceBlock.from_tc_bc(tc_s=5e-3, bc_hz=1e7)
    cfg = ArrayConfig.ideal_directional(nt=16, nr=4)
    pd_sub, block = beamform.substitute(1e8, cb, *cfg.gain_pair)
    assert pd_sub == 1e8 * cfg.gain_pair[0]
    assert block.bc_hz == cb.bc_hz
    assert block.lc == pytest.approx(cb.lc / 64.0)


# ---------------------------------------------------------------- closed form


def test_closed_form_mimo_siso_reduction():
    for lc in (1e3, 1e5, 1e7):
        scalar = core.closed_form_first_order(lc)
        array = beamform.closed_form_mimo(ArrayConfig.siso(), lc)
        assert array.rho == scalar.rho
        assert array.alpha == scalar.alpha
        assert array.rate_factor == scalar.rate_factor


def test_closed_form_kt_doubling():
    # doubling the sweep scales the substituted optimum by 2^(1/3)
    lc = 1e6
    a = beamform.closed_form_mimo(ArrayConfig.miso(nt=4), lc)
    b = beamform.closed_form_mimo(ArrayConfig.miso(nt=8, kt=8, g1=4.0), lc)
    assert b.alpha / a.alpha == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)
    # per-element rho carries the same 2^(1/3) when gain is held fixed
    assert b.rho / a.rho == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)


def test_closed_form_mimo_values():
    cfg = ArrayConfig.ideal_directional(nt=16, nr=4)
    lc = 5e4
    form = beamform.closed_form_mimo(cfg, lc)
    x = (4.0 * 64.0 / lc) ** (1.0 / 3.0)
    assert form.rho == pytest.approx(x / 64.0, rel=1e-15)
    assert form.alpha == pytest.approx((64.0 / (2.0 * lc)) ** (1.0 / 3.0), rel=1e-15)
    assert form.rate_factor == pytest.approx((1.0 - 1.5 * x) * 64.0 * math.log2(math.e),
                                             rel=1e-15)


@pytest.mark.parametrize("cfg", [
    ArrayConfig.siso(),
    ArrayConfig.simo(nr=4),
    ArrayConfig.miso(nt=8),
    ArrayConfig.ideal_directional(nt=16, nr=4),
    ArrayConfig.rich_scattering(nt=16, nr=4),
    ArrayConfig(nt=4, nr=2, kt=3, g1=6.0, g2=2.0),
    ArrayConfig.ideal_directional(nt=4, nr=2),
], ids=["siso", "simo", "miso", "ideal_directional", "rich_scattering", "explicit_g2",
        "ideal_directional_4x2"])
def test_closed_form_mimo_is_the_scalar_form_on_the_substituted_block(cfg):
    # rho per element (4 Kt G2/Lc)^(1/3)/(G1 G2), alpha (Kt G2/(2 Lc))^(1/3) and
    # rate factor (1 - 1.5 (4 Kt G2/Lc)^(1/3)) G1 G2 log2(e), which is the
    # scalar first-order form at Lc/(Kt G2) rescaled by G1 G2
    gain, penalty = cfg.gain_pair
    for lc in [10.0 ** (k / 4.0) for k in range(12, 49)]:
        form = beamform.closed_form_mimo(cfg, lc)
        scalar = core.closed_form_first_order(lc / penalty)
        x = (4.0 * penalty / lc) ** (1.0 / 3.0)
        for got, rescaled, written in (
                (form.rho, scalar.rho / gain, x / gain),
                (form.alpha, scalar.alpha, (penalty / (2.0 * lc)) ** (1.0 / 3.0)),
                (form.rate_factor, scalar.rate_factor * gain,
                 (1.0 - 1.5 * x) * gain * math.log2(math.e))):
            assert got == pytest.approx(rescaled, rel=1e-15)
            assert got == pytest.approx(written, rel=1e-15)


@pytest.mark.parametrize("lc", [1e4, 1e6, 1e8, 1e10])
def test_closed_form_mimo_rate_factor_is_the_numeric_rate_to_second_order(lc):
    # the scalar bound on the substituted problem, Lc / (Kt G2) = Lc / 8
    pd = 1e8
    cfg = ArrayConfig.ideal_directional(nt=4, nr=2)
    rate = beamform.solve_with_gains(pd, CoherenceBlock(lc=lc), *cfg.gain_pair, DET).rate_bps
    form = beamform.closed_form_mimo(cfg, lc)
    assert abs(rate / (pd * form.rate_factor) - 1.0) < 5.0 * (lc / 8.0) ** (-2 / 3)


def test_closed_form_mimo_exhausted():
    with pytest.raises(ConfigError):
        beamform.closed_form_mimo(ArrayConfig.ideal_directional(16, 4), lc=100.0)


def test_closed_form_tracks_solver():
    # leading order: agreement tightens as lc grows
    pd_hz = 1e8
    cfg = ArrayConfig.ideal_directional(nt=4, nr=2)
    errs = []
    for lc in (1e4, 1e6, 1e8):
        point = beamform.solve_with_gains(pd_hz, CoherenceBlock(lc=lc), *cfg.gain_pair, DET)
        form = beamform.closed_form_mimo(cfg, lc)
        errs.append(abs(point.alpha - form.alpha) / form.alpha)
    assert errs[0] > errs[1] > errs[2]
    # residual error at lc_tilde = 1.25e7 is the (2*lc_tilde)^(-1/3) tail
    assert errs[2] < 5e-3
