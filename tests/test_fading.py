"""Fading-model expectations against independent quadrature oracles."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxbw
from maxbw.errors import ConfigError
from maxbw.fading import FadingModel


def _mp_log1p_exp(s: float) -> float:
    # E[ln(1+sX)], X ~ Exp(1), equals exp(1/s) * E1(1/s)
    import mpmath as mp
    mp.mp.dps = 40
    return float(mp.exp(1 / mp.mpf(s)) * mp.expint(1, 1 / mp.mpf(s)))


def _mp_inv1p_exp(s: float) -> float:
    # E[1/(1+sX)], X ~ Exp(1), equals (1/s) * exp(1/s) * E1(1/s)
    import mpmath as mp
    mp.mp.dps = 40
    return float(mp.exp(1 / mp.mpf(s)) * mp.expint(1, 1 / mp.mpf(s)) / mp.mpf(s))


@pytest.mark.parametrize("s", [1e-4, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0, 1e4, 1e7])
def test_rayleigh_log1p_matches_quadrature_oracle(s):
    ray = FadingModel.rayleigh()
    assert ray.expected_log1p(s) == pytest.approx(_mp_log1p_exp(s), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("s,rel", [(1e-4, 1e-12), (0.01, 1e-12), (0.1, 1e-12),
                                   (0.5, 1e-12), (1.0, 1e-11), (3.0, 1e-14),
                                   (10.0, 1e-14), (100.0, 1e-14), (1e4, 1e-14),
                                   (1e7, 1e-14)])
def test_rayleigh_inv1p_matches_quadrature_oracle(s, rel):
    ray = FadingModel.rayleigh()
    assert ray.expected_inv1p(s) == pytest.approx(_mp_inv1p_exp(s), rel=rel, abs=0.0)


# s from 1e-6 to 1e7, denser around s = 1/2 where the kernel switches from
# the continued fraction to the series for E1(1/s)
ORACLE_SCALES = np.unique(np.concatenate([np.geomspace(1e-6, 1e7, 131),
                                          np.linspace(0.3, 0.8, 51)]))


def _rayleigh_oracle(s):
    """(E[ln(1+sX)], E[1/(1+sX)]) for X ~ Exp(1): scipy's exp1 while e^(1/s)
    stays finite, 50-digit mpmath beyond."""
    x = 1.0 / s
    if x < 700.0:
        from scipy.special import exp1
        g = math.exp(x) * float(exp1(x))
    else:
        import mpmath as mp
        with mp.workdps(50):
            g = float(mp.exp(mp.mpf(x)) * mp.e1(mp.mpf(x)))
    return g, x * g


def test_rayleigh_kernel_matches_exp1_oracle():
    ray = FadingModel.rayleigh()
    ref = np.array([_rayleigh_oracle(float(s)) for s in ORACLE_SCALES])
    got = np.array([(ray.expected_log1p(float(s)), ray.expected_inv1p(float(s)))
                    for s in ORACLE_SCALES])
    vec = np.stack([ray.expected_log1p(ORACLE_SCALES), ray.expected_inv1p(ORACLE_SCALES)], axis=1)
    assert np.max(np.abs(got / ref - 1.0)) < 1e-13
    assert np.max(np.abs(vec / ref - 1.0)) < 1e-13


def test_rayleigh_scalar_and_array_paths_agree():
    ray = FadingModel.rayleigh()
    grid = np.concatenate([[0.0, 1e-300, 2.0 ** -61, 2.0 ** -59], ORACLE_SCALES])
    for expectation in (ray.expected_log1p, ray.expected_inv1p):
        vec = expectation(grid.reshape(-1, 3))
        assert vec.shape == (len(grid) // 3, 3)
        for s, v in zip(grid, vec.ravel()):
            assert v == pytest.approx(expectation(float(s)), rel=1e-14, abs=1e-300)


# Exact values of the earlier implementation, which sent scalars through 0-d
# arrays; the deterministic and tabulated scalar paths must keep every bit.
DET_PINS = [
    (1e-06, 9.999995000003334e-07, 0.9999990000010001),
    (3.61403e-06, 3.6140234694093142e-06, 0.9999963859830613),
    (1.28571e-05, 1.2857017348198235e-05, 0.9999871430653029),
    (4.51754e-05, 4.517437962234795e-05, 0.9999548266407247),
    (0.000157143, 0.0001571306543321154, 0.9998428816900425),
    (0.000542105, 0.0005419581141671197, 0.9994581887186046),
    (0.00185714, 0.001855417647613515, 0.9981463025756346),
    (0.00632456, 0.00630464390000673, 0.9937151886663683),
    (0.0214286, 0.02120223562263056, 0.9790209516357776),
    (0.0722806, 0.06978778212842245, 0.9325917115352083),
    (0.242857, 0.21741276166268939, 0.8045977936319304),
    (0.813157, 0.59506952482431, 0.5515242199103553),
    (2.71429, 1.312187542811657, 0.2692304585802401),
    (9.03508, 2.306086954314183, 0.09965042630452373),
    (30.0, 3.4339872044851463, 0.03225806451612903),
    (99.3859, 4.609021759148243, 0.009961558346341468),
    (328.571, 5.797791808727478, 0.003034247552120787),
    (1084.21, 6.989528795633584, 0.0009214806350844537),
    (3571.43, 8.181001315490292, 0.0002799215100085936),
    (11745.6, 9.371319115997002, 8.513101663460065e-05),
]
TAB_ATOMS = [(0.1, 0.25), (0.7, 0.35), (1.5, 0.3), (2.8, 0.1)]
TAB_PINS = [
    (1e-06, 9.999991835011092e-07, 0.9999990000016332),
    (3.61403e-06, 3.6140193355720793e-06, 0.999996385991329),
    (1.28571e-05, 1.2856965030808496e-05, 0.9999871431699362),
    (4.51754e-05, 4.517373377537785e-05, 0.9999548279323471),
    (0.000157143, 0.00015712284171588193, 0.999842897312266),
    (0.000542105, 0.0005418652253146575, 0.999458374372974),
    (0.00185714, 0.0018543309993908443, 0.9981484709415297),
    (0.00632456, 0.006292177533153834, 0.9937399303744628),
    (0.0214286, 0.021064199406169513, 0.9792900528189318),
    (0.0722806, 0.06838750531580788, 0.9351733513714034),
    (0.242857, 0.20601876511392023, 0.8226369987174041),
    (0.813157, 0.5351492761277779, 0.6199104533041149),
    (2.71429, 1.1349479905764708, 0.3881014228690521),
    (9.03508, 1.9881374681393447, 0.20353830794107727),
    (30.0, 3.0212959935511434, 0.08610730062776102),
    (99.3859, 4.154456583736199, 0.03017148278180509),
    (328.571, 5.328602295780858, 0.009615170757941117),
    (1084.21, 6.515699324417031, 0.0029625940997371984),
    (3571.43, 7.705745313063833, 0.0009039776830006473),
    (11745.6, 8.895628341305704, 0.00027529580413100695),
]


# Rayleigh's scalar and array kernels differ in the last bits, so its rows
# are (s, log1p, inv1p, array log1p, array inv1p); the scales straddle
# s = 1/2, where both switch to the series for E1(1/s).
RAY_PINS = [
    (0.05, 0.047718545495960836, 0.9543709099192167, 0.04771854549596084, 0.9543709099192168),
    (0.1, 0.09156333393978808, 0.9156333393978808, 0.09156333393978806, 0.9156333393978806),
    (0.17, 0.14783010253921097, 0.8695888384659468, 0.14783010253921094, 0.8695888384659467),
    (0.25, 0.20634564990105583, 0.8253825996042233, 0.2063456499010558, 0.8253825996042232),
    (0.31, 0.246949759846256, 0.7966121285363097, 0.246949759846256, 0.7966121285363097),
    (0.38, 0.2913583645554853, 0.7667325383039088, 0.29135836455548525, 0.7667325383039085),
    (0.43, 0.321379691864259, 0.7473946322424628, 0.32137969186425897, 0.7473946322424627),
    (0.47, 0.3444874409473296, 0.7329520020155949, 0.34448744094732936, 0.7329520020155944),
    (0.49, 0.35575975091307116, 0.7260403079858595, 0.35575975091307077, 0.7260403079858587),
    (0.5, 0.36132861688822254, 0.7226572337764451, 0.3613286168882221, 0.7226572337764442),
    (0.5000000000000001, 0.36132861688822404, 0.722657233776448, 0.36132861688822404, 0.722657233776448),
    (0.51, 0.36685373235590013, 0.7193210438350983, 0.36685373235590013, 0.7193210438350983),
    (0.53, 0.37777588827879804, 0.7127846948656567, 0.37777588827879804, 0.7127846948656567),
    (0.57, 0.39912885096244505, 0.7002260543200791, 0.399128850962445, 0.700226054320079),
    (0.65, 0.44002006711977243, 0.6769539494150344, 0.44002006711977243, 0.6769539494150344),
    (0.8, 0.5110328836740476, 0.6387911045925596, 0.5110328836740476, 0.6387911045925596),
    (1.3, 0.7089275381093549, 0.5453288754687345, 0.7089275381093549, 0.5453288754687345),
    (7.0, 1.7379694590665815, 0.2482813512952259, 1.7379694590665815, 0.2482813512952259),
    (120.0, 4.253893902847778, 0.03544911585706481, 4.253893902847778, 0.03544911585706481),
    (33000.0, 9.827375273086455, 0.0002977992506995895, 9.827375273086455, 0.0002977992506995895),
]


@pytest.mark.parametrize("model,pins", [(FadingModel.deterministic(), DET_PINS),
                                        (FadingModel.tabulated(TAB_ATOMS), TAB_PINS),
                                        (FadingModel.rayleigh(), RAY_PINS)],
                         ids=["deterministic", "tabulated", "rayleigh"])
def test_scalar_path_keeps_pinned_bits(model, pins):
    for s, log1p, inv1p, *array in pins:
        array_log1p, array_inv1p = array or (log1p, inv1p)
        assert model.expected_log1p(s) == log1p
        assert model.expected_inv1p(s) == inv1p
        assert model.expected_log1p(np.array([s]))[0] == array_log1p
        assert model.expected_inv1p(np.array([s]))[0] == array_inv1p


def test_import_loads_no_test_oracles():
    # scipy and mpmath are test dependencies; the package must not need them
    src = os.path.dirname(os.path.dirname(os.path.abspath(maxbw.__file__)))
    code = ("import sys, maxbw, maxbw.cli; "
            "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


NUMPY_FREE_RUN = """
import contextlib, io, sys
import maxbw, maxbw.cli


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert maxbw.cli.main(list(argv)) == 0, argv


def loaded():
    print(*(m in sys.modules for m in ("numpy", "maxbw.allocate", "csv", "dataclasses",
                                       "inspect")))


run("optimize", "--preset", "fig4-left", "--verify", "--format", "json")
run("sweep", "--preset", "fig2")
run("sweep", "--preset", "fig6b")
run("baselines", "--preset", "abstract-28ghz")
run("presets", "verify")
loaded()
run("allocate", "--scenario", "channel.scn", "--users", "users.csv")
run("optimize", "--scenario", "tabulated.scn")
loaded()
"""


def test_scalar_commands_never_import_numpy(tmp_path):
    # numpy is imported only where arrays are built: allocation and tabulated
    # laws; the allocation layer only by `allocate`, csv only for CSV inputs.
    # No command loads dataclasses, and the scalar ones not inspect either,
    # which numpy itself imports.
    (tmp_path / "channel.scn").write_text("tc_ms = 1\nbc_mhz = 2.5\n")
    (tmp_path / "users.csv").write_text("68,30,100e6\n80,30,100e6\n")
    (tmp_path / "atoms.csv").write_text("0.5,0.5\n1.5,0.5\n")
    (tmp_path / "tabulated.scn").write_text("pr_n0_dbhz = 80\ntc_ms = 1\nbc_mhz = 10\n"
                                            "fading = tabulated\nfading_csv = atoms.csv\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(maxbw.__file__)))
    out = subprocess.run([sys.executable, "-c", NUMPY_FREE_RUN], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False"] * 5 + ["True"] * 3 + ["False", "True"]


def test_import_maxbw_loads_each_module_on_first_read():
    src = os.path.dirname(os.path.dirname(os.path.abspath(maxbw.__file__)))
    code = ("import sys, maxbw; "
            "print(sorted(m for m in sys.modules if m.startswith('maxbw.'))); "
            "print(maxbw.allocate is sys.modules['maxbw.allocate'], "
            "maxbw.allocate_group is maxbw.allocate.allocate_group)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split("\n") == ["[]", "True True", ""]


def test_package_names_are_the_objects_of_their_modules():
    assert maxbw.__all__[-1] == "__version__"
    for name in maxbw.__all__[:-1]:
        value = getattr(maxbw, name)
        assert value.__module__.startswith("maxbw."), name
        assert value is getattr(sys.modules[value.__module__], name), name
    assert set(maxbw.__all__) <= set(dir(maxbw))
    namespace = {}
    exec("from maxbw import *", namespace)
    assert all(namespace[name] is getattr(maxbw, name) for name in maxbw.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        maxbw.no_such_name


def test_deterministic_scalar_log1p_is_within_2e_16_of_mpmath():
    import mpmath as mp
    det = FadingModel.deterministic()
    scales = 10.0 ** np.random.default_rng(14).uniform(-12.0, 12.0, 2000)
    with mp.workdps(40):
        worst = max(abs(mp.mpf(det.expected_log1p(s)) / mp.log1p(mp.mpf(s)) - 1)
                    for s in scales.tolist())
    assert worst <= 2e-16


def test_deterministic_is_exact():
    det = FadingModel.deterministic()
    for s in (0.0, 1e-6, 0.3, 7.0):
        assert det.expected_log1p(s) == math.log1p(s)
        assert det.expected_inv1p(s) == 1.0 / (1.0 + s)


def test_vectorized_matches_scalars():
    grid = np.array([1e-5, 0.02, 0.7, 4.0])
    for model in (FadingModel.rayleigh(), FadingModel.deterministic()):
        vec = model.expected_log1p(grid)
        assert vec.shape == grid.shape
        for s, v in zip(grid, vec):
            assert v == pytest.approx(model.expected_log1p(float(s)), rel=1e-14)
        vec = model.expected_inv1p(grid)
        for s, v in zip(grid, vec):
            assert v == pytest.approx(model.expected_inv1p(float(s)), rel=1e-14)


def test_zero_scale():
    for model in (FadingModel.rayleigh(), FadingModel.deterministic()):
        assert model.expected_log1p(0.0) == 0.0
        # both kernels are exact at s = 0
        assert model.expected_inv1p(0.0) == 1.0


def test_negative_or_nonfinite_scale_rejected():
    ray = FadingModel.rayleigh()
    with pytest.raises(ValueError):
        ray.expected_log1p(-0.1)
    with pytest.raises(ValueError):
        ray.expected_log1p(float("nan"))
    with pytest.raises(ValueError):
        ray.expected_inv1p(np.array([0.1, -0.2]))


def test_kurtosis():
    assert FadingModel.deterministic().kurtosis() == 1.0
    assert FadingModel.rayleigh().kurtosis() == 2.0
    # two atoms {0: 3/4, 4: 1/4}: mean 1, second moment 4
    tab = FadingModel.tabulated([(0.0, 0.75), (4.0, 0.25)])
    assert tab.kurtosis() == pytest.approx(4.0, rel=1e-12)


def test_tabulated_expectations_are_atom_sums():
    tab = FadingModel.tabulated([(0.5, 0.5), (1.5, 0.5)])
    s = 0.8
    expect = 0.5 * math.log1p(s * 0.5) + 0.5 * math.log1p(s * 1.5)
    assert tab.expected_log1p(s) == pytest.approx(expect, rel=1e-14)
    expect = 0.5 / (1 + s * 0.5) + 0.5 / (1 + s * 1.5)
    assert tab.expected_inv1p(s) == pytest.approx(expect, rel=1e-14)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        FadingModel.tabulated([(1.0, 0.6), (1.0, 0.5)])  # weights sum to 1.1
    with pytest.raises(ValueError):
        FadingModel.tabulated([(0.5, 0.5), (1.4, 0.5)])  # mean 0.95, off by >1%
    with pytest.raises(ValueError):
        FadingModel.tabulated([(-0.5, 0.5), (2.5, 0.5)])  # negative power atom
    # NaN atoms used to pass, and optimize then failed to bracket its optimum
    for atoms in ([(1.0, 0.5), (math.nan, 0.5)], [(1.0, 0.5), (1.0, math.nan)],
                  [(1.0, 0.5), (math.inf, 0.5)]):
        with pytest.raises(ValueError, match="atom values and weights must be finite"):
            FadingModel.tabulated(atoms)
    # mean off by 0.5% is renormalized to exactly 1
    tab = FadingModel.tabulated([(0.5025, 0.5), (1.5075, 0.5)])
    assert tab.mean_power() == pytest.approx(1.0, abs=1e-12)


def test_a_tabulated_model_rebuilt_from_its_own_atoms_is_the_same_model():
    # the model keeps its atoms as given: renormalizing to unit mean again
    # moved 521 of these 1,000 tables in the last bits, so the rebuilt model
    # was another cache key with other rate bits
    import random

    from maxbw.fading import _log1p_slope

    rng = random.Random(1)
    scales = np.geomspace(1e-9, 1e6, 16)
    tables = []
    for _ in range(1000):
        k = rng.randint(2, 64)
        values = [rng.gammavariate(1.5, 1.0) for _ in range(k)]
        mean = sum(values) / k
        tables.append([(v / mean, 1.0 / k) for v in values])
    tables.append([(0.5025, 0.5 + 4e-10), (1.5075, 0.5 - 4e-10)])  # renormalized in use
    for atoms in tables:
        model = FadingModel.tabulated(atoms)
        rebuilt = FadingModel("tabulated", model.atoms)
        assert rebuilt == model and hash(rebuilt) == hash(model), atoms
        assert np.array_equal(rebuilt.expected_log1p(scales), model.expected_log1p(scales))
        assert np.array_equal(_log1p_slope(rebuilt, scales)[1], _log1p_slope(model, scales)[1])
        assert rebuilt.expected_log1p(0.3) == model.expected_log1p(0.3)
    assert FadingModel.tabulated(tables[-1]).mean_power() == pytest.approx(1.0, abs=1e-15)


def test_a_tabulated_model_written_to_csv_reads_back_as_the_same_model(tmp_path):
    # a table off unit mean by 0.4%, which the expectations renormalize
    model = FadingModel.tabulated([(0.3, 0.2), (0.9, 0.5), (1.648, 0.3)])
    assert model.mean_power() == pytest.approx(1.0, abs=1e-15)
    path = tmp_path / "atoms.csv"
    path.write_text("".join(f"{v!r},{w!r}\n" for v, w in model.atoms))
    again = FadingModel.from_csv(path)
    assert again == model and again.expected_log1p(0.7) == model.expected_log1p(0.7)


def test_tabulated_from_csv(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text("value,weight\n0.5,0.5\n1.5,0.5\n")
    tab = FadingModel.from_csv(path)
    ref = FadingModel.tabulated([(0.5, 0.5), (1.5, 0.5)])
    assert tab.expected_log1p(0.3) == ref.expected_log1p(0.3)


@pytest.mark.parametrize("text,line", [("value\n1.0\n", 2),
                                       ("a,b\n# note\nc,d\n1.0,1.0\n", 2)],
                         ids=["one-column-row", "junk-rows"])
def test_tabulated_from_csv_rejects_bad_rows(tmp_path, text, line):
    # a short row used to raise IndexError, and any run of leading
    # non-numeric rows was skipped; only the first row may be a header
    path = tmp_path / "atoms.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"atoms.csv:{line}: "):
        FadingModel.from_csv(path)


def test_models_are_hashable_and_comparable():
    assert FadingModel.rayleigh() == FadingModel.rayleigh()
    assert FadingModel.rayleigh() != FadingModel.deterministic()
    assert len({FadingModel.rayleigh(), FadingModel.rayleigh()}) == 1


SCALES = st.floats(min_value=1e-6, max_value=5.0)


@given(s=SCALES)
@settings(max_examples=60, deadline=None)
def test_jensen_upper_bound(s):
    # E[ln(1+sX)] <= ln(1+s*E[X]) = ln(1+s) for unit-mean fading
    for model in (FadingModel.rayleigh(),
                  FadingModel.tabulated([(0.5, 0.5), (1.5, 0.5)])):
        assert model.expected_log1p(s) <= math.log1p(s) + 1e-12


@given(s=st.floats(min_value=1e-6, max_value=0.01))
@settings(max_examples=60, deadline=None)
def test_small_scale_kurtosis_penalty_bound(s):
    # second-order expansion: ln(1+s) - E[ln(1+sX)] <= kurtosis * s^2 / 2
    for model in (FadingModel.rayleigh(),
                  FadingModel.tabulated([(0.0, 0.75), (4.0, 0.25)])):
        gap = math.log1p(s) - model.expected_log1p(s)
        assert 0.0 <= gap <= model.kurtosis() * s * s / 2 + 1e-15


@given(s1=SCALES, s2=SCALES)
@settings(max_examples=60, deadline=None)
def test_log1p_concave_in_scale(s1, s2):
    ray = FadingModel.rayleigh()
    mid = ray.expected_log1p((s1 + s2) / 2)
    avg = (ray.expected_log1p(s1) + ray.expected_log1p(s2)) / 2
    assert mid >= avg - 1e-12


@given(s1=SCALES, s2=SCALES)
@settings(max_examples=60, deadline=None)
def test_monotone_in_scale(s1, s2):
    ray = FadingModel.rayleigh()
    lo, hi = sorted((s1, s2))
    assert ray.expected_log1p(hi) >= ray.expected_log1p(lo) - 1e-15
    assert ray.expected_inv1p(hi) <= ray.expected_inv1p(lo) + 1e-15


def _old_scale_check_raises(s):
    arr = np.asarray(s, dtype=float)
    return bool(not np.all(np.isfinite(arr)) or np.any(arr < 0.0))


@pytest.mark.parametrize("s", [
    [], [[]], np.zeros((0, 3)), [0.0], [-0.0], [1e-300], [1e308, 1e308], [[0.5, 2.0], [3.0, 4.0]],
    [np.nan], [1.0, np.nan], [np.inf], [2.0, -np.inf], [-1e-300], [[1.0, -2.0]], [np.nan, -1.0],
])
def test_require_scale_accepts_and_rejects_as_before(s):
    from maxbw.fading import _require_scale

    arr = np.asarray(s, dtype=float)
    if _old_scale_check_raises(arr):
        with pytest.raises(ValueError, match="expectation scale must be finite and >= 0"):
            _require_scale(arr)
    else:
        out = _require_scale(arr)
        assert out.shape == arr.shape
        for model in (FadingModel.rayleigh(), FadingModel.deterministic()):
            assert model.expected_log1p(arr).shape == arr.shape


# s from 1e-300 to 1e6, denser around the kernel's switch at s = 1/2
SLOPE_SCALES = np.unique(np.concatenate([np.geomspace(1e-300, 1e6, 307),
                                         np.linspace(0.3, 0.8, 21)]))


def _mp_slope(values, weights, s):
    """E[X/(1 + sX)] to 50 digits: over atoms, or for X ~ Exp(1) (values None)
    as x (1 - x e^x E1(x)), x = 1/s, with digits to spare for the cancellation."""
    import mpmath as mp

    if values is not None:
        with mp.workdps(50):
            return float(sum(mp.mpf(w) * mp.mpf(v) / (1 + mp.mpf(s) * mp.mpf(v))
                             for v, w in zip(values, weights)))
    with mp.workdps(50 + max(0, int(-math.log10(s)))):
        x = 1 / mp.mpf(s)
        return float(x * (1 - x * mp.exp(x) * mp.e1(x)))


# (model, bound): the largest relative errors measured were 9.1e-15 for
# Rayleigh, at s = 0.55 on the series side of the switch (1.1e-15 on floats
# and 2.2e-15 on arrays below it), and 2.2e-16 for the atom laws
SLOPE_MODELS = [
    (FadingModel.rayleigh(), 1e-14),
    (FadingModel.deterministic(), 5e-16),
    (FadingModel.tabulated([(v, 1.0 / 64) for v in np.linspace(0.02, 1.98, 64)]), 5e-16),
    (FadingModel.tabulated([(0.0, 0.99), (100.0, 0.01)]), 5e-16),
]


@pytest.mark.parametrize("model, bound", SLOPE_MODELS, ids=lambda p: getattr(p, "kind", ""))
def test_log1p_slope_matches_mpmath_on_floats_and_arrays(model, bound):
    # the slope E[X/(1 + sX)] that the pilot search roots, without the
    # cancelling form (1 - E[1/(1 + sX)])/s: on this grid that form is up to
    # 11% off for s from 1e-16 to 1e-8, and 100% off below
    from maxbw.fading import _log1p_slope

    if model.kind == "deterministic":
        values, weights = [1.0], [1.0]
    else:
        values, weights = (None, None) if model.kind == "rayleigh" else zip(*model.atoms)
    ref = np.array([_mp_slope(values, weights, float(s)) for s in SLOPE_SCALES])
    on_floats = [_log1p_slope(model, float(s)) for s in SLOPE_SCALES]
    log1p, slope = _log1p_slope(model, SLOPE_SCALES)
    assert np.max(np.abs(np.array([q for _, q in on_floats]) / ref - 1.0)) < bound
    assert np.max(np.abs(slope / ref - 1.0)) < bound
    # the first expectation keeps the bits of expected_log1p on floats and on
    # arrays, where each Laguerre sum is a dot product of its own per point
    assert [g for g, _ in on_floats] == [model.expected_log1p(float(s)) for s in SLOPE_SCALES]
    assert np.array_equal(log1p, model.expected_log1p(SLOPE_SCALES))
    if model.kind == "rayleigh":
        tiny = SLOPE_SCALES < 1e-8
        cancelling = (1.0 - model.expected_inv1p(SLOPE_SCALES[tiny])) / SLOPE_SCALES[tiny]
        assert np.max(np.abs(cancelling / ref[tiny] - 1.0)) > 0.05


# the four laws of SLOPE_MODELS, and 5,000 scales across the Rayleigh switch at
# s = 1/2, past one 4,096-row block of the Laguerre sums
BIT_MODELS = [model for model, _ in SLOPE_MODELS]
BIT_SCALES = np.random.default_rng(4096).permutation(np.concatenate([
    10.0 ** np.random.default_rng(4097).uniform(-12.0, 6.0, 4600),
    np.random.default_rng(4098).uniform(0.3, 0.8, 400)]))


def _array_kernels(model):
    from maxbw.fading import _log1p_slope

    return [model.expected_log1p, model.expected_inv1p,
            lambda s: _log1p_slope(model, s)[0], lambda s: _log1p_slope(model, s)[1]]


@pytest.mark.parametrize("model", BIT_MODELS, ids=lambda m: f"{m.kind}{len(m.atoms) or ''}")
def test_array_kernels_give_a_point_the_same_bits_in_any_call(model):
    # a point scored alone, in a random subset or in the full vector: the
    # allocation scores only some points and merges the users' calls, which
    # must not move a rate
    rng = np.random.default_rng(len(model.atoms) + 5)
    subset = np.sort(rng.choice(BIT_SCALES.size, 1700, replace=False))
    alone = np.arange(0, BIT_SCALES.size, 9)
    for kernel in _array_kernels(model):
        full = kernel(BIT_SCALES)
        assert np.array_equal(kernel(BIT_SCALES[subset]), full[subset])
        assert np.array_equal(np.concatenate([kernel(BIT_SCALES[i:i + 1]) for i in alone]),
                              full[alone])


@pytest.mark.parametrize("model", BIT_MODELS[2:] + [FadingModel.tabulated(TAB_ATOMS)],
                         ids=lambda m: f"tabulated{len(m.atoms)}")
def test_tabulated_scalars_give_the_bits_of_their_array_path(model):
    # the module docstring's promise; a matrix-vector product over the atoms
    # broke it for 32% of these points on the 64-atom law
    for kernel in _array_kernels(model):
        full = kernel(BIT_SCALES)
        assert [kernel(s) for s in BIT_SCALES.tolist()] == full.tolist()
