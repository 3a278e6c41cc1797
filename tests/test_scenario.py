"""Scenario parsing and resolution: every misconfiguration must fail loudly."""

import math

import numpy as np
import pytest

from maxbw import scenario
from maxbw.beamform import ArrayConfig
from maxbw.errors import ConfigError
from maxbw.fading import FadingModel
from maxbw.linkbudget import LinkBudget, PathLossModel, power_density


def test_parse_comments_and_whitespace():
    mapping = scenario.parse_scenario_text(
        "# full-line comment\n"
        "\n"
        "lc = 1000   # trailing comment\n"
        "  pr_n0_dbhz =80\n"
    )
    assert mapping == {"lc": "1000", "pr_n0_dbhz": "80"}


def test_parse_errors_carry_origin_and_line():
    with pytest.raises(ConfigError, match=r"myfile:2.*unknown key"):
        scenario.parse_scenario_text("lc = 1000\nwat = 1\n", origin="myfile")
    with pytest.raises(ConfigError, match=r":2.*duplicate"):
        scenario.parse_scenario_text("lc = 1000\nlc = 2000\n")
    with pytest.raises(ConfigError, match=r":1.*expected"):
        scenario.parse_scenario_text("just some words\n")
    with pytest.raises(ConfigError, match=r"empty value"):
        scenario.parse_scenario_text("lc =\n")


def test_typed_parse_failure():
    with pytest.raises(ConfigError, match="cannot parse"):
        scenario.resolve({"lc": "a-thousand", "pr_n0_dbhz": "80"})
    with pytest.raises(ConfigError, match="cannot parse"):
        scenario.resolve({"lc": "1000", "pr_n0_dbhz": "80", "nt": "4.5"})


# -------------------------------------------------------------------- resolve


def test_resolve_direct_density():
    res = scenario.resolve({"pr_n0_dbhz": "80", "lc": "10000"})
    assert res.pd.pr_over_n0_hz == pytest.approx(1e8)
    assert res.cb.lc == 10000.0
    assert res.cb.bc_hz is None
    assert res.gain == 1.0
    assert res.sweep_penalty == 1.0
    assert res.fading == FadingModel.rayleigh()  # default


def test_resolve_coherence_from_tc_bc():
    res = scenario.resolve({"pr_n0_dbhz": "80", "tc_ms": "5", "bc_mhz": "10"})
    assert res.cb.lc == pytest.approx(5e4)
    assert res.cb.bc_hz == 1e7
    with pytest.raises(ConfigError, match="tc_ms and bc_mhz"):
        scenario.resolve({"pr_n0_dbhz": "80", "tc_ms": "5"})
    with pytest.raises(ConfigError, match="tc_ms and bc_mhz"):
        scenario.resolve({"pr_n0_dbhz": "80"})


def test_resolve_direct_density_with_sweep_penalty():
    # direct density is already beamformed, but the sweep cost still applies
    res = scenario.resolve({"pr_n0_dbhz": "80", "lc": "10000",
                            "nt": "4", "nr": "2", "gain_model": "ideal"})
    assert res.gain == 1.0
    assert res.sweep_penalty == 8.0


def test_resolve_rejects_density_plus_budget():
    with pytest.raises(ConfigError, match="conflicts"):
        scenario.resolve({"pr_n0_dbhz": "80", "lc": "1000",
                          "fc_ghz": "28", "distance_m": "100",
                          "pt_element_dbm": "10"})


def test_resolve_budget_needs_carrier_distance_and_one_power():
    with pytest.raises(ConfigError, match="fc_ghz and distance_m"):
        scenario.resolve({"lc": "1000", "pt_element_dbm": "10"})
    with pytest.raises(ConfigError, match="exactly one"):
        scenario.resolve({"lc": "1000", "fc_ghz": "28", "distance_m": "100"})
    with pytest.raises(ConfigError, match="exactly one"):
        scenario.resolve({"lc": "1000", "fc_ghz": "28", "distance_m": "100",
                          "pt_element_dbm": "10", "eirp_dbm": "50"})


def test_resolve_total_power_splits_across_elements():
    total = scenario.resolve({"lc": "1000", "fc_ghz": "28", "distance_m": "100",
                              "pt_total_dbm": "30", "nt": "16", "nr": "2",
                              "gain_model": "ideal"})
    element = scenario.resolve({"lc": "1000", "fc_ghz": "28", "distance_m": "100",
                                "pt_element_dbm": str(30 - 10 * math.log10(16)),
                                "nt": "16", "nr": "2", "gain_model": "ideal"})
    assert total.pd.pr_over_n0_hz == pytest.approx(element.pd.pr_over_n0_hz, rel=1e-12)


def test_resolve_receive_gain_total_vs_element():
    base = {"lc": "1000", "fc_ghz": "28", "distance_m": "100",
            "eirp_dbm": "52", "nt": "16", "nr": "4", "gain_model": "ideal"}
    total = scenario.resolve({**base, "gr_total_dbi": "11"})
    element = scenario.resolve({**base, "gr_element_dbi": str(11 - 10 * math.log10(4))})
    assert total.pd.pr_over_n0_hz == pytest.approx(element.pd.pr_over_n0_hz, rel=1e-12)
    with pytest.raises(ConfigError, match="not both"):
        scenario.resolve({**base, "gr_total_dbi": "11", "gr_element_dbi": "5"})


def test_resolve_gain_models():
    # by element power the pair is the array's (G1*G2, Kt*G2)
    base = {"lc": "10000", "fc_ghz": "28", "distance_m": "100", "pt_element_dbm": "10",
            "nt": "4", "nr": "2"}
    ideal = scenario.resolve({**base, "gain_model": "ideal"})
    assert (ideal.gain, ideal.sweep_penalty) == (8.0, 8.0)
    rich = scenario.resolve({**base, "gain_model": "rich"})
    assert (rich.gain, rich.sweep_penalty) == (6.0, 8.0)
    explicit = scenario.resolve({**base, "kt": "4", "g1": "6", "g2": "2"})
    assert (explicit.gain, explicit.sweep_penalty) == (12.0, 8.0)
    with pytest.raises(ConfigError, match="derives"):
        scenario.resolve({**base, "gain_model": "ideal", "kt": "4"})
    with pytest.raises(ConfigError, match="unknown gain_model"):
        scenario.resolve({**base, "gain_model": "magic"})


def test_resolve_fading_kinds(tmp_path):
    assert scenario.resolve({"pr_n0_dbhz": "80", "lc": "1000",
                             "fading": "deterministic"}).fading.kind == "deterministic"
    csv = tmp_path / "fade.csv"
    csv.write_text("0.5,0.5\n1.5,0.5\n")
    res = scenario.resolve({"pr_n0_dbhz": "80", "lc": "1000",
                            "fading": "tabulated", "fading_csv": str(csv)})
    assert res.fading.kind == "tabulated"
    with pytest.raises(ConfigError, match="fading_csv"):
        scenario.resolve({"pr_n0_dbhz": "80", "lc": "1000", "fading": "tabulated"})
    with pytest.raises(ConfigError, match="unknown fading"):
        scenario.resolve({"pr_n0_dbhz": "80", "lc": "1000", "fading": "rician"})


def test_resolve_pathloss_kinds():
    base = {"lc": "1000", "fc_ghz": "28", "distance_m": "100",
            "pt_element_dbm": "10"}
    densities = set()
    for name in ("freespace", "blockedlos", "umi-nlos"):
        res = scenario.resolve({**base, "pathloss": name})
        budget = LinkBudget(fc_hz=28e9, d_m=100.0, pt_element_dbm=10.0, eirp_dbm=None,
                            path_loss=PathLossModel(name))
        assert res.pd == power_density(budget, ArrayConfig.siso())[0]
        densities.add(res.pd.pr_over_n0_hz)
    assert len(densities) == 3
    with pytest.raises(ConfigError, match="pathloss_csv"):
        scenario.resolve({**base, "pathloss": "custom"})
    with pytest.raises(ConfigError, match="unknown pathloss"):
        scenario.resolve({**base, "pathloss": "indoor"})


def test_channel_only_ignores_power():
    cb, fading = scenario.channel_only({"tc_ms": "1", "bc_mhz": "2.5",
                                        "fading": "rayleigh"})
    assert cb.lc == 2500.0
    assert fading.kind == "rayleigh"


# ----------------------------------------------------------------- sweep axis


def test_sweep_axis_log_and_linear():
    base = {"pr_n0_dbhz": "80", "lc": "1000"}
    key, grid = scenario.sweep_axis({**base, "sweep": "lc", "sweep_start": "100",
                                     "sweep_stop": "10000", "sweep_points": "3"})
    assert key == "lc"
    assert grid == pytest.approx([100.0, 1000.0, 10000.0])  # log default

    _, grid = scenario.sweep_axis({**base, "sweep": "lc", "sweep_start": "1",
                                   "sweep_stop": "3", "sweep_points": "3",
                                   "sweep_spacing": "linear"})
    assert grid == pytest.approx([1.0, 2.0, 3.0])


def _grid(start, stop, points, spacing):
    return scenario.sweep_axis({"pr_n0_dbhz": "80", "lc": "1000", "sweep": "lc",
                                "sweep_start": repr(start), "sweep_stop": repr(stop),
                                "sweep_points": str(points), "sweep_spacing": spacing})[1]


def test_linear_sweep_grid_has_the_bits_of_numpy_linspace():
    rng = np.random.default_rng(141)
    cases = [(40.0, 85.0, 19)]  # fig6b
    for _ in range(500):
        start, stop = (rng.uniform(-1e3, 1e3) * 10.0 ** rng.integers(-6, 7, 2)).tolist()
        cases.append((start, stop, int(rng.integers(2, 60))))
    for start, stop, points in cases:
        assert _grid(start, stop, points, "linear") == np.linspace(start, stop, points).tolist()
    assert scenario.sweep_axis(scenario.preset("fig6b"))[1] == np.linspace(40, 85, 19).tolist()


def test_log_sweep_grid_is_within_4e_15_of_the_exact_geometric_points():
    # the grid keeps geomspace's end points and order of operations but not
    # always its last bit; on these cases both are within 3.6e-15, since one
    # ulp of an exponent near 8 alone moves a point by 2e-15
    import mpmath as mp
    rng = np.random.default_rng(142)
    cases = [(0.1, 100.0, 25), (50.0, 1000.0, 21)]  # fig2, fig6a
    while len(cases) < 300:
        lo, hi = rng.uniform(-8.0, 8.0, 2).tolist()
        if abs(hi - lo) >= 0.1:
            cases.append((10.0 ** lo, 10.0 ** hi, int(rng.integers(2, 60))))
    worst = 0.0
    with mp.workdps(40):
        for start, stop, points in cases:
            grid = _grid(start, stop, points, "log")
            assert (len(grid), grid[0], grid[-1]) == (points, start, stop)
            assert all((b > a) == (stop > start) and a != b for a, b in zip(grid, grid[1:]))
            ratio = mp.mpf(stop) / mp.mpf(start)
            for i, x in enumerate(grid):
                exact = mp.mpf(start) * ratio ** (mp.mpf(i) / (points - 1))
                worst = max(worst, float(abs(x / exact - 1)))
    assert worst <= 4e-15


def test_sweep_axis_absent():
    assert scenario.sweep_axis({"pr_n0_dbhz": "80", "lc": "1000"}) is None


def test_sweep_axis_errors():
    base = {"pr_n0_dbhz": "80", "lc": "1000"}
    with pytest.raises(ConfigError, match="without sweep"):
        scenario.sweep_axis({**base, "sweep_start": "1"})
    with pytest.raises(ConfigError, match="cannot sweep"):
        scenario.sweep_axis({**base, "sweep": "fading", "sweep_start": "1",
                             "sweep_stop": "2", "sweep_points": "2"})
    with pytest.raises(ConfigError, match="sweep needs"):
        scenario.sweep_axis({**base, "sweep": "lc", "sweep_start": "1",
                             "sweep_stop": "2"})
    with pytest.raises(ConfigError, match="at least 2"):
        scenario.sweep_axis({**base, "sweep": "lc", "sweep_start": "1",
                             "sweep_stop": "2", "sweep_points": "1"})
    with pytest.raises(ConfigError, match="positive sweep bounds"):
        scenario.sweep_axis({**base, "sweep": "lc", "sweep_start": "0",
                             "sweep_stop": "2", "sweep_points": "2"})
    with pytest.raises(ConfigError, match="passes the largest float"):
        scenario.sweep_axis({**base, "sweep": "lc", "sweep_start": "1.7976931348623157e308",
                             "sweep_stop": "1.7976931348623157e308", "sweep_points": "3"})
    with pytest.raises(ConfigError, match="unknown sweep_spacing"):
        scenario.sweep_axis({**base, "sweep": "lc", "sweep_start": "1",
                             "sweep_stop": "2", "sweep_points": "2",
                             "sweep_spacing": "cubic"})


def test_resolve_rejects_unknown_override():
    with pytest.raises(ConfigError, match="unknown override"):
        scenario.resolve({"pr_n0_dbhz": "80", "lc": "1000"},
                         overrides={"nope": 1.0})


# -------------------------------------------------------------------- presets


def test_all_presets_resolve():
    for name in scenario.PRESETS:
        res = scenario.resolve(scenario.preset(name))
        assert res.pd.pr_over_n0_hz > 0


def test_preset_reference_density():
    res = scenario.resolve(scenario.preset("abstract-28ghz"))
    # 52 dBm EIRP + 11 dBi - 145.6273 dB loss + 174 - 9 dB noise terms
    assert 10 * math.log10(res.pd.pr_over_n0_hz) == pytest.approx(
        82.37272507567698, abs=1e-6)
    assert res.gain == 1.0  # EIRP budget folds array gain into the density
    assert res.sweep_penalty == 64.0


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        scenario.preset("fig99")


def test_preset_returns_copy():
    a = scenario.preset("fig2")
    a["lc"] = "tampered"
    assert "lc" not in scenario.preset("fig2")
