"""Budget arithmetic pins down the absolute SNR scale, so freeze it hard."""

import math

import pytest

from maxbw import beamform
from maxbw.beamform import ArrayConfig
from maxbw.core import CoherenceBlock
from maxbw.errors import ConfigError
from maxbw.fading import FadingModel
from maxbw.linkbudget import (
    LinkBudget,
    PathLossModel,
    eirp_dbm_of,
    eirp_table,
    fcc_eirp_cap_dbm,
    path_loss_db,
    power_density,
)

DET = FadingModel.deterministic()


# ----------------------------------------------------------------- path loss


def test_free_space_28ghz_100m():
    pl = path_loss_db(PathLossModel.free_space(), 28e9, 100.0)
    assert pl == pytest.approx(101.39094384872776, abs=1e-9)


def test_blockage_is_exactly_25db_excess():
    for d in (1.0, 50.0, 500.0):
        fs = path_loss_db(PathLossModel.free_space(), 28e9, d)
        bl = path_loss_db(PathLossModel.blocked_los(), 28e9, d)
        assert bl - fs == pytest.approx(25.0, abs=1e-12)


def test_umi_nlos_28ghz_100m():
    pl = path_loss_db(PathLossModel.umi_nlos(), 28e9, 100.0)
    assert pl == pytest.approx(133.7261088148977, abs=1e-9)


def test_umi_nlos_frequency_term():
    # 26 dB per decade of carrier frequency
    lo = path_loss_db(PathLossModel.umi_nlos(), 2.8e9, 100.0)
    hi = path_loss_db(PathLossModel.umi_nlos(), 28e9, 100.0)
    assert hi - lo == pytest.approx(26.0, abs=1e-12)


def test_custom_table_interpolates_in_log_distance():
    model = PathLossModel.custom_table([(10.0, 80.0), (1000.0, 120.0)])
    assert path_loss_db(model, 28e9, 100.0) == pytest.approx(100.0, abs=1e-12)
    assert path_loss_db(model, 28e9, 10.0) == pytest.approx(80.0)
    assert path_loss_db(model, 28e9, 1000.0) == pytest.approx(120.0)


def test_custom_table_clamps_with_warning():
    model = PathLossModel.custom_table([(10.0, 80.0), (1000.0, 120.0)])
    with pytest.warns(UserWarning, match="clamped"):
        assert path_loss_db(model, 28e9, 5.0) == pytest.approx(80.0)
    with pytest.warns(UserWarning, match="clamped"):
        assert path_loss_db(model, 28e9, 5000.0) == pytest.approx(120.0)


def test_distance_below_model_validity():
    with pytest.raises(ValueError):
        path_loss_db(PathLossModel.free_space(), 28e9, 0.5)
    with pytest.raises(ValueError):
        path_loss_db(PathLossModel.free_space(), -1.0, 10.0)


def test_custom_table_validation():
    with pytest.raises(ValueError):
        PathLossModel.custom_table([(10.0, 80.0)])
    with pytest.raises(ValueError):
        PathLossModel.custom_table([(0.0, 80.0), (10.0, 90.0)])
    with pytest.raises(ValueError):
        PathLossModel.custom_table([(10.0, 80.0), (10.0, 90.0)])
    # an infinite distance row used to flatten the loss to 80 dB at 100 m
    for dist in (math.inf, math.nan):
        with pytest.raises(ValueError, match="distances must be positive and finite"):
            PathLossModel.custom_table([(10.0, 80.0), (dist, 112.0)])
    for loss in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="losses must be finite"):
            PathLossModel.custom_table([(10.0, 80.0), (100.0, loss), (1000.0, 146.0)])


def test_custom_table_from_csv(tmp_path):
    p = tmp_path / "loss.csv"
    p.write_text("distance_m,loss_db\n10,80\n1000,120\n")
    model = PathLossModel.from_csv(p)
    assert model.table == ((10.0, 80.0), (1000.0, 120.0))


@pytest.mark.parametrize("text", ["d,loss\n10,80\n1000,120.5\n300,101\n",
                                  "10,80\n1000,120.5\n300,101\n",
                                  "\nd,loss\n\n10,80\n  \n1000,120.5,extra\n,\n300,101\n\n"],
                         ids=["header", "no-header", "blank-rows"])
def test_custom_table_from_csv_matches_custom_table(tmp_path, text):
    p = tmp_path / "loss.csv"
    p.write_text(text)
    ref = PathLossModel.custom_table([(10, 80), (1000, 120.5), (300, 101)])
    assert PathLossModel.from_csv(p) == ref


@pytest.mark.parametrize("text,line", [("d,loss\n10\n", 2), ("d,loss\n10,80\nx,y\n", 3),
                                       ("a,b\n# note\n10,80\n1000,120\n", 2)],
                         ids=["one-column-row", "late-junk-row", "junk-rows"])
def test_custom_table_from_csv_rejects_bad_rows(tmp_path, text, line):
    p = tmp_path / "loss.csv"
    p.write_text(text)
    with pytest.raises(ConfigError, match=f"loss.csv:{line}: "):
        PathLossModel.from_csv(p)


# -------------------------------------------------------------- power density


def test_element_power_density_reference():
    # total 30 dBm split over 16 elements, umi at 28 GHz / 100 m, NF 9 dB
    lb = LinkBudget(
        fc_hz=28e9,
        d_m=100.0,
        pt_element_dbm=30.0 - 10.0 * math.log10(16),
        gt_element_dbi=8.0,
        gr_element_dbi=5.0,
        noise_figure_db=9.0,
        path_loss=PathLossModel.umi_nlos(),
    )
    cfg = ArrayConfig.ideal_directional(nt=16, nr=2)
    pd, pair = power_density(lb, cfg)
    assert 10.0 * math.log10(pd.pr_over_n0_hz) == pytest.approx(74.27389118510229, abs=1e-9)
    assert pair == (32.0, 32.0)


def test_zero_loss_budget_is_thermal_floor():
    # 0 dBm through a lossless, gainless link leaves exactly -(-174) dB-Hz
    lb = LinkBudget(
        fc_hz=28e9,
        d_m=100.0,
        pt_element_dbm=0.0,
        path_loss=PathLossModel.custom_table([(1.0, 0.0), (1000.0, 0.0)]),
    )
    pd, pair = power_density(lb, ArrayConfig.siso())
    assert pd.pr_over_n0_hz == pytest.approx(10.0 ** 17.4, rel=1e-12)
    assert pair == (1.0, 1.0)


def test_eirp_and_element_modes_describe_the_same_link():
    cfg = ArrayConfig.ideal_directional(nt=16, nr=4)
    common = dict(fc_hz=28e9, d_m=150.0, noise_figure_db=7.0,
                  path_loss=PathLossModel.umi_nlos())
    elem = LinkBudget(pt_element_dbm=12.0, gt_element_dbi=6.0, gr_element_dbi=4.0, **common)
    eirp = LinkBudget(eirp_dbm=12.0 + 6.0 + 20.0 * math.log10(16),
                      gr_element_dbi=4.0, **common)

    pd_e, pair_e = power_density(elem, cfg)
    pd_r, pair_r = power_density(eirp, cfg)

    # optimizer sees pd*gain; both descriptions must agree there
    assert pd_e.pr_over_n0_hz * pair_e[0] == pytest.approx(pd_r.pr_over_n0_hz * pair_r[0], rel=1e-12)
    assert pair_e[1] == pair_r[1]

    cb = CoherenceBlock(lc=5e4)
    a = beamform.solve_with_gains(pd_e, cb, *pair_e, DET)
    b = beamform.solve_with_gains(pd_r, cb, *pair_r, DET)
    assert a.rate_bps == pytest.approx(b.rate_bps, rel=1e-9)
    assert a.w_hz == pytest.approx(b.w_hz, rel=1e-9)


def test_eirp_mode_partial_combining_derates():
    # g1 below nt*nr wipes the shortfall back out of the folded density
    common = dict(fc_hz=28e9, d_m=100.0, eirp_dbm=50.0, gr_element_dbi=3.0,
                  path_loss=PathLossModel.free_space())
    full = ArrayConfig.ideal_directional(nt=8, nr=2)
    partial = ArrayConfig(nt=8, nr=2, kt=16, g1=8.0, g2=1.0)
    pd_full, _ = power_density(LinkBudget(**common), full)
    pd_part, _ = power_density(LinkBudget(**common), partial)
    assert pd_part.pr_over_n0_hz == pytest.approx(pd_full.pr_over_n0_hz / 2.0, rel=1e-12)


def test_rich_scattering_refuses_eirp_mode():
    lb = LinkBudget(fc_hz=28e9, d_m=100.0, eirp_dbm=50.0)
    with pytest.raises(ConfigError, match="rich-scattering"):
        power_density(lb, ArrayConfig.rich_scattering(nt=4, nr=4))


def test_density_monotone_in_distance():
    cfg = ArrayConfig.siso()
    last = None
    for d in (10.0, 30.0, 100.0, 300.0, 1000.0):
        lb = LinkBudget(fc_hz=28e9, d_m=d, pt_element_dbm=20.0, path_loss=PathLossModel.umi_nlos())
        pd, _ = power_density(lb, cfg)
        if last is not None:
            assert pd.pr_over_n0_hz < last
        last = pd.pr_over_n0_hz


def test_budget_mode_validation():
    # the one transmit power set is the mode: none and both are refused
    with pytest.raises(ConfigError):
        LinkBudget(fc_hz=28e9, d_m=100.0)
    with pytest.raises(ConfigError):
        LinkBudget(fc_hz=28e9, d_m=100.0, pt_element_dbm=10.0, eirp_dbm=50.0)
    with pytest.raises(ValueError):
        LinkBudget(fc_hz=28e9, d_m=100.0, pt_element_dbm=10.0, noise_figure_db=-1.0)


@pytest.mark.parametrize("field", ["pt_element_dbm", "eirp_dbm", "gt_element_dbi",
                                   "gr_element_dbi", "noise_figure_db"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_budget_refuses_non_finite_values(field, value):
    # these used to surface only as "Pr/N0 must be positive ..., got nan"
    kwargs = {"pt_element_dbm": 10.0, field: value}
    if field == "eirp_dbm":
        del kwargs["pt_element_dbm"]
    with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
        LinkBudget(fc_hz=28e9, d_m=100.0, **kwargs)


@pytest.mark.parametrize("field, name", [("fc_hz", "carrier frequency"), ("d_m", "distance")])
def test_budget_refuses_an_infinite_carrier_or_distance(field, name):
    # these used to surface as "Pr/N0 must be positive ..., got 0.0"
    kwargs = {"fc_hz": 28e9, "d_m": 100.0, field: math.inf}
    with pytest.raises(ValueError, match=f"{name} must be positive and finite, got inf"):
        LinkBudget(eirp_dbm=52.0, **kwargs)


@pytest.mark.parametrize("model", [PathLossModel.free_space(), PathLossModel.umi_nlos(),
                                   PathLossModel.custom_table([(10.0, 80.0), (1000.0, 146.0)])],
                         ids=["freespace", "umi", "custom"])
@pytest.mark.parametrize("fc_hz, d_m, message", [
    (math.inf, 100.0, "carrier frequency must be positive and finite, got inf"),
    (math.nan, 100.0, "carrier frequency must be positive and finite, got nan"),
    (28e9, math.inf, "distance must be finite and >= 1 m for these models, got inf"),
    (28e9, math.nan, "distance must be finite and >= 1 m for these models, got nan"),
    (28e9, 0.5, "distance must be finite and >= 1 m for these models, got 0.5"),
])
def test_path_loss_refuses_a_non_finite_carrier_or_distance(model, fc_hz, d_m, message):
    # an infinite carrier or distance used to give an infinite loss
    with pytest.raises(ValueError, match=message):
        path_loss_db(model, fc_hz, d_m)


def test_eirp_dbm_of():
    lb = LinkBudget(fc_hz=28e9, d_m=100.0, pt_element_dbm=12.0, gt_element_dbi=6.0)
    cfg = ArrayConfig.ideal_directional(nt=16, nr=2)
    assert eirp_dbm_of(lb, cfg) == pytest.approx(12.0 + 6.0 + 20.0 * math.log10(16))
    lb2 = LinkBudget(fc_hz=28e9, d_m=100.0, eirp_dbm=55.0)
    assert eirp_dbm_of(lb2, cfg) == 55.0


# ----------------------------------------------------------------- EIRP table


def test_eirp_table_rows():
    assert eirp_table("sum-power", nt=10) == pytest.approx(48.0)
    assert eirp_table("rf-soc") == 36.0
    assert eirp_table("phased-soc") == 52.0
    assert eirp_table("large-array", nt=16) == pytest.approx(52.0823996531185)
    assert eirp_table("fcc", w_hz=1e9) == pytest.approx(85.0)
    assert eirp_table("fcc", w_hz=400e6) == pytest.approx(81.02059991327963)


def test_eirp_table_missing_args():
    with pytest.raises(ValueError):
        eirp_table("sum-power")
    with pytest.raises(ValueError):
        eirp_table("large-array")
    with pytest.raises(ValueError):
        eirp_table("fcc")
    with pytest.raises(ValueError):
        eirp_table("bogus")


@pytest.mark.parametrize("row", ["sum-power", "large-array"])
@pytest.mark.parametrize("nt", [0, 0.5, True, 4.0])
def test_eirp_table_checks_nt_as_array_config_does(row, nt):
    with pytest.raises(ValueError, match=f"nt must be an integer >= 1, got {nt!r}"):
        eirp_table(row, nt=nt)
    with pytest.raises(ValueError, match=f"nt must be an integer >= 1, got {nt!r}"):
        ArrayConfig.ideal_directional(nt=nt, nr=1)


def test_fcc_cap_slope():
    # 10 dB per decade of bandwidth, anchored at 75 dBm / 100 MHz
    assert fcc_eirp_cap_dbm(100e6) == pytest.approx(75.0)
    assert fcc_eirp_cap_dbm(1e9) - fcc_eirp_cap_dbm(100e6) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        fcc_eirp_cap_dbm(0.0)
    for w_hz in (math.inf, math.nan):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            fcc_eirp_cap_dbm(w_hz)
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            eirp_table("fcc", w_hz=w_hz)
