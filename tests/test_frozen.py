"""The package's frozen value types: construction, equality, hashing, repr,
immutability, pickling and replace, one table row per type."""

import copy
import inspect
import pathlib
import pickle

import pytest

import maxbw
from maxbw._frozen import Frozen, replace
from maxbw.allocate import Allocation, AllocationEntry, UserLink
from maxbw.beamform import ArrayConfig
from maxbw.core import CoherenceBlock, EstimationQuality, OperatingPoint, PowerDensity
from maxbw.fading import FadingModel
from maxbw.linkbudget import LinkBudget, PathLossModel
from maxbw.scenario import Resolved

CB = CoherenceBlock(1000.0, 1e6, 1e-3)
RAYLEIGH = FadingModel("rayleigh")
ENTRY = AllocationEntry(0.5, 2e8, 3e8, 12, 2.5e8)

# (type, positional arguments, repr): each repr is the one the same value had
# as a frozen dataclass, so it also pins every default
ROWS = [
    (PowerDensity, (1e9,), "PowerDensity(pr_over_n0_hz=1000000000.0)"),
    (CoherenceBlock, (5e4,), "CoherenceBlock(lc=50000.0, bc_hz=None, tc_s=None)"),
    (CoherenceBlock, (1000.0, 1e6, 1e-3),
     "CoherenceBlock(lc=1000.0, bc_hz=1000000.0, tc_s=0.001)"),
    (EstimationQuality, (0.75, 0.25), "EstimationQuality(est_power=0.75, err_power=0.25)"),
    (OperatingPoint, (1e8, 0.05, 2.0, 1.5, 3e8),
     "OperatingPoint(w_hz=100000000.0, alpha=0.05, rho=2.0, rho_eff=1.5, "
     "rate_bps=300000000.0, pilot_count=None, flags=())"),
    (OperatingPoint, (1e8, 0.05, 2.0, 1.5, 3e8, 7, ("lattice",)),
     "OperatingPoint(w_hz=100000000.0, alpha=0.05, rho=2.0, rho_eff=1.5, "
     "rate_bps=300000000.0, pilot_count=7, flags=('lattice',))"),
    (ArrayConfig, (4, 2, 8, 8.0, 2.0),
     "ArrayConfig(nt=4, nr=2, kt=8, g1=8.0, g2=2.0, gain_model='explicit')"),
    (PathLossModel, ("freespace",), "PathLossModel(kind='freespace', table=())"),
    (PathLossModel, ("custom", ((100.0, 100.0), (10.0, 70.0))),
     "PathLossModel(kind='custom', table=((10.0, 70.0), (100.0, 100.0)))"),
    (LinkBudget, (28e9, 100.0, None, 52.0),
     "LinkBudget(fc_hz=28000000000.0, d_m=100.0, pt_element_dbm=None, eirp_dbm=52.0, "
     "gt_element_dbi=0.0, gr_element_dbi=0.0, noise_figure_db=0.0, "
     "path_loss=PathLossModel(kind='freespace', table=()))"),
    (FadingModel, ("rayleigh",), "FadingModel(kind='rayleigh', atoms=())"),
    (FadingModel, ("tabulated", ((0.5, 0.5), (1.5, 0.5))),
     "FadingModel(kind='tabulated', atoms=((0.5, 0.5), (1.5, 0.5)))"),
    (Resolved, (PowerDensity(1e9), CB, RAYLEIGH, 1.0, 1.0),
     "Resolved(pd=PowerDensity(pr_over_n0_hz=1000000000.0), "
     "cb=CoherenceBlock(lc=1000.0, bc_hz=1000000.0, tc_s=0.001), "
     "fading=FadingModel(kind='rayleigh', atoms=()), gain=1.0, sweep_penalty=1.0)"),
    (UserLink, (1e10, 1.0, 1e8, CB, RAYLEIGH),
     "UserLink(gain_hz_per_watt=10000000000.0, pt_w=1.0, w0_hz=100000000.0, "
     "cb=CoherenceBlock(lc=1000.0, bc_hz=1000000.0, tc_s=0.001), "
     "fading=FadingModel(kind='rayleigh', atoms=()))"),
    (AllocationEntry, (0.5, 2e8, 3e8, 12, 2.5e8),
     "AllocationEntry(p_w=0.5, w_hz=200000000.0, rate_bps=300000000.0, pilot_count=12, "
     "baseline_bps=250000000.0)"),
    (Allocation, ((ENTRY,), "max-weak", 3e8, 2.5e8),
     "Allocation(entries=(AllocationEntry(p_w=0.5, w_hz=200000000.0, rate_bps=300000000.0, "
     "pilot_count=12, baseline_bps=250000000.0),), objective='max-weak', "
     "objective_value=300000000.0, baseline_value=250000000.0, flags=())"),
]
# numbered per class, so adding or removing a row renames no other row's tests
CLASSES = [cls for cls, _, _ in ROWS]
IDS = [f"{cls.__name__}-{CLASSES[:i].count(cls)}" for i, cls in enumerate(CLASSES)]
assert set(CLASSES) == {
    PowerDensity, CoherenceBlock, EstimationQuality, OperatingPoint, ArrayConfig,
    PathLossModel, LinkBudget, FadingModel, Resolved, UserLink, AllocationEntry, Allocation}


@pytest.mark.parametrize("cls,args,text", ROWS, ids=IDS)
def test_construction_equality_and_repr(cls, args, text):
    kwargs = inspect.signature(cls).bind(*args).arguments
    value = cls(*args)
    assert repr(value) == text
    assert cls(**kwargs) == value and hash(cls(**kwargs)) == hash(value)
    assert not cls(**kwargs) != value
    # a tuple of the same fields is another class, never equal
    fields = tuple(getattr(value, name) for name in inspect.signature(cls).parameters)
    assert value != fields and fields != value


@pytest.mark.parametrize("cls,args,text", ROWS, ids=IDS)
def test_every_slot_is_set_private_ones_included(cls, args, text):
    value = cls(*args)
    for twin in (value, pickle.loads(pickle.dumps(value))):
        for name in cls._slots:
            getattr(twin, name)  # an unset slot raises AttributeError


class _Pair(Frozen):  # takes Frozen.__init__ as it is, one value per slot
    __slots__ = ("a", "_b")


def test_frozen_init_stores_one_value_per_slot_or_refuses():
    pair = _Pair(1, 2)
    assert (pair.a, pair._b) == (1, 2) and repr(pair) == "_Pair(a=1)"
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(TypeError, match=f"_Pair stores 2 slots, got {len(values)} values"):
            _Pair(*values)


def test_only_the_frozen_module_stores_fields():
    # every value type stores its fields through Frozen.__init__
    folder = pathlib.Path(maxbw.__file__).parent
    for path in sorted(folder.glob("*.py")):
        if path.name != "_frozen.py":
            source = path.read_text()
            assert "set_field" not in source and "object.__setattr__" not in source, path.name


@pytest.mark.parametrize("cls,args,text", ROWS, ids=IDS)
def test_missing_or_unknown_argument_is_a_type_error(cls, args, text):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)


@pytest.mark.parametrize("cls,args,text", ROWS, ids=IDS)
def test_values_are_immutable(cls, args, text):
    value = cls(*args)
    field = next(iter(inspect.signature(cls).parameters))
    for name in (field, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("cls,args,text", ROWS, ids=IDS)
def test_pickle_and_copy_round_trip(cls, args, text):
    value = cls(*args)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


def test_tabulated_model_copies_keep_their_atoms_and_arrays():
    # pickling restores the normalized atoms as they are, without normalizing
    # them again, and the private arrays stay outside equality
    model = FadingModel.tabulated([(0.3, 0.2), (1.1, 0.5), (1.3, 0.3)])
    twin = pickle.loads(pickle.dumps(model))
    assert twin.atoms == model.atoms and twin.kurtosis() == model.kurtosis()
    assert twin.expected_log1p(2.0) == model.expected_log1p(2.0)


@pytest.mark.parametrize("value,changes,message", [
    (PowerDensity(1e9), {"pr_over_n0_hz": 0.0}, "Pr/N0 must be positive"),
    (CB, {"lc": 1.0}, "coherence length must be >= 2"),
    (CB, {"tc_s": 2e-3}, "inconsistent coherence block"),
    (ArrayConfig(4, 2, 8, 8.0, 2.0), {"g2": 3.0}, "g2 = 3.0 exceeds nr = 2"),
    (ArrayConfig(4, 2, 8, 8.0, 2.0), {"nt": True}, "nt must be an integer >= 1, got True"),
    (PathLossModel("freespace"), {"kind": "custom"}, "at least two points"),
    (LinkBudget(28e9, 100.0, eirp_dbm=52.0), {"eirp_dbm": float("nan")},
     "eirp_dbm must be finite"),
    (RAYLEIGH, {"kind": "rician"}, "unknown fading kind"),
    (UserLink(1e10, 1.0, 1e8, CB, RAYLEIGH), {"pt_w": 0.0},
     "baseline power must be positive and finite"),
], ids=["pd", "lc", "tc_bc", "g2", "bool_nt", "custom_table", "nan_eirp", "fading_kind",
        "user_power"])
def test_replace_validates_the_new_value(value, changes, message):
    with pytest.raises(ValueError, match=message):
        replace(value, **changes)


def test_replace_changes_only_the_named_fields():
    point = OperatingPoint(1e8, 0.05, 2.0, 1.5, 3e8, 7, ("lattice",))
    moved = replace(point, rho=1.0, flags=())
    assert moved == OperatingPoint(1e8, 0.05, 1.0, 1.5, 3e8, 7, ())
    assert replace(point) == point and replace(point) is not point
    with pytest.raises(TypeError):
        replace(point, no_such_field=1)
    assert replace(CB, lc=2000.0, tc_s=2e-3) == CoherenceBlock(2000.0, 1e6, 2e-3)


def test_fading_models_that_share_a_hash_stay_distinct():
    # a model hashes its atoms alone, which rayleigh and deterministic share,
    # and equality still tells them apart
    pairs = [(0.5, 0.5), (1.5, 0.5)]
    assert hash(FadingModel.tabulated(pairs)) == hash(FadingModel.tabulated(pairs))
    assert FadingModel.rayleigh() != FadingModel.deterministic()
    assert len({FadingModel.rayleigh(), FadingModel.rayleigh(),
                FadingModel.deterministic()}) == 2
