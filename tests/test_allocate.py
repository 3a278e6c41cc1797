"""Reallocation must conserve budgets, never harm anyone, and beat doing nothing."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from maxbw import allocate, core
from maxbw._frozen import replace
from maxbw.allocate import Allocation, UserLink
from maxbw.core import CoherenceBlock
from maxbw.errors import ConfigError
from maxbw.fading import FadingModel

RAY = FadingModel.rayleigh()
CB = CoherenceBlock.from_tc_bc(tc_s=1e-3, bc_hz=2.5e6)  # lc 2500


def _user(gain_db, pt_w=1.0, w0_hz=100e6):
    return UserLink(gain_hz_per_watt=10.0 ** (gain_db / 10.0), pt_w=pt_w,
                    w0_hz=w0_hz, cb=CB, fading=RAY)


# ------------------------------------------------------------------ baselines


def test_baseline_rates_frozen():
    weak, strong = _user(68.0), _user(80.0)
    b = allocate.baseline_rates([weak, strong])
    assert b[0] == pytest.approx(7323150.239136475, rel=1e-9)
    assert b[1] == pytest.approx(82126777.15501831, rel=1e-9)


@pytest.mark.parametrize("lc", [2500.0, 1e9, 1e11, 1e13, 1e15, 2.0**53])
def test_fixed_bandwidth_rate_is_core_path(lc):
    # the public scalar path takes the slope search at every accepted Lc,
    # past 1e8 too, where the guided search could certify another count
    rng = np.random.default_rng([int(math.log2(lc)), 38])
    cb = CoherenceBlock(lc=lc, bc_hz=2.5e6)
    for fading in (RAY, FadingModel.deterministic(),
                   FadingModel.tabulated([(0.5, 0.5), (1.5, 0.5)])):
        for _ in range(20):
            u = UserLink(gain_hz_per_watt=10.0 ** rng.uniform(6.0, 10.0), pt_w=1.0,
                         w0_hz=1e8, cb=cb, fading=fading)
            p, w = 10.0 ** rng.uniform(-2.0, 1.0), 2.5e6 * float(rng.integers(1, 400))
            mine = allocate.fixed_bandwidth_rate(u, p, w)
            assert mine == core.rate_fixed_bandwidth(u.gain_hz_per_watt * p, w, cb, fading)


# ----------------------------------------------------------------- pair cases


def test_pair_max_weak_strictly_improves():
    # weak's beneficial bandwidth (~75 MHz) sits below its 100 MHz baseline,
    # so it can sell lattice steps to the strong user in exchange for power
    weak, strong = _user(68.0), _user(80.0)
    alloc = allocate.allocate_pair(weak, strong, "max-weak")
    allocate.check_allocation([weak, strong], alloc)
    assert alloc.objective_value == pytest.approx(8234391.392957786, rel=1e-6)
    assert alloc.objective_value > alloc.baseline_value * 1.05
    # the weak user ended with more power and less bandwidth than it started
    assert alloc.entries[0].p_w > weak.pt_w
    assert alloc.entries[0].w_hz < weak.w0_hz


def test_pair_max_strong_and_sum():
    weak, strong = _user(68.0), _user(80.0)
    st = allocate.allocate_pair(weak, strong, "max-strong")
    allocate.check_allocation([weak, strong], st)
    assert st.objective_value == pytest.approx(92029420.50058612, rel=1e-6)

    sm = allocate.allocate_pair(weak, strong, "sum")
    allocate.check_allocation([weak, strong], sm)
    assert sm.objective_value == pytest.approx(99363034.96833415, rel=1e-6)
    assert sm.objective_value >= st.objective_value


def test_pair_symmetry():
    weak, strong = _user(68.0), _user(80.0)
    a = allocate.allocate_pair(weak, strong, "max-weak")
    b = allocate.allocate_pair(strong, weak, "max-weak")
    assert a.objective_value == pytest.approx(b.objective_value, rel=1e-9)
    assert a.entries[0].w_hz == b.entries[1].w_hz
    assert a.entries[0].p_w == pytest.approx(b.entries[1].p_w, rel=1e-12)


def test_pair_bandwidth_stays_on_lattices():
    weak, strong = _user(68.0), _user(80.0)
    alloc = allocate.allocate_pair(weak, strong, "sum")
    for e in alloc.entries:
        steps = e.w_hz / CB.bc_hz
        assert steps == pytest.approx(round(steps), abs=1e-9)
        assert steps >= 1


def test_identical_pair_with_excess_demand_keeps_baseline():
    # both users want more bandwidth than the pool holds; any transfer harms
    # the donor, so the baseline split is already optimal
    hot = _user(80.0, w0_hz=50e6)
    alloc = allocate.allocate_pair(hot, hot, "sum")
    assert alloc.objective_value == alloc.baseline_value
    assert alloc.entries[0].w_hz == 50e6
    assert alloc.entries[0].p_w == 1.0


def test_unknown_objective():
    with pytest.raises(ConfigError):
        allocate.allocate_pair(_user(68.0), _user(80.0), "fairness")
    with pytest.raises(ConfigError):
        allocate.allocate_group([_user(68.0), _user(80.0)], "fairness")


@pytest.mark.parametrize("search", ["allocate_pair", "allocate_group"])
@pytest.mark.parametrize("objective, optimized", [("max-weak", 0), ("max-strong", 1)])
@pytest.mark.parametrize("rows", [((30.0, 100e6), (33.0, 40e6)), ((33.0, 40e6), (30.0, 100e6))],
                         ids=["wide-first", "narrow-first"])
def test_equal_gains_report_the_rate_the_search_optimized(search, objective, optimized, rows):
    # of two equal gains the first user is weak and the second strong, both in
    # the search and in the reported objective, in either row order
    users = [_user(70.0, pt_w=10.0 ** ((pt_dbm - 30.0) / 10.0), w0_hz=w0) for pt_dbm, w0 in rows]
    search_fn = getattr(allocate, search)
    alloc = search_fn(*users, objective) if search == "allocate_pair" else search_fn(users, objective)
    allocate.check_allocation(users, alloc)
    assert alloc.objective_value == alloc.entries[optimized].rate_bps
    assert alloc.baseline_value == alloc.entries[optimized].baseline_bps


# ---------------------------------------------------------------- group cases


def test_group_identical_users_return_baseline():
    users = [_user(75.0) for _ in range(3)]
    for obj in allocate.OBJECTIVES:
        g = allocate.allocate_group(users, obj)
        allocate.check_allocation(users, g)
        assert g.objective_value == pytest.approx(g.baseline_value, rel=1e-9)


def test_group_heterogeneous_sum_improves():
    users = [_user(65.0), _user(75.0), _user(85.0)]
    g = allocate.allocate_group(users, "sum")
    allocate.check_allocation(users, g)
    assert g.objective_value == pytest.approx(254557618.10576, rel=1e-5)
    assert g.objective_value > g.baseline_value * 1.2
    # pooled budgets conserved
    assert sum(e.p_w for e in g.entries) <= 3.0 * (1.0 + 1e-9)
    assert sum(e.w_hz for e in g.entries) <= 300e6 * (1.0 + 1e-9)


def test_group_objective_targets_right_user():
    # max-weak is the lowest-gain user's rate even when rates cross
    users = [_user(65.0), _user(85.0)]
    g = allocate.allocate_group(users, "max-weak")
    assert g.objective_value == g.entries[0].rate_bps
    g = allocate.allocate_group(users, "max-strong")
    assert g.objective_value == g.entries[1].rate_bps


def test_group_needs_two():
    with pytest.raises(ValueError):
        allocate.allocate_group([_user(75.0)], "sum")


def test_check_allocation_catches_harm():
    weak, strong = _user(68.0), _user(80.0)
    good = allocate.allocate_pair(weak, strong, "sum")
    bad_entry = allocate.AllocationEntry(
        p_w=good.entries[0].p_w, w_hz=good.entries[0].w_hz,
        rate_bps=good.entries[0].baseline_bps * 0.5,
        pilot_count=1, baseline_bps=good.entries[0].baseline_bps)
    bad = Allocation(entries=(bad_entry, good.entries[1]),
                     objective=good.objective,
                     objective_value=good.objective_value,
                     baseline_value=good.baseline_value)
    with pytest.raises(AssertionError):
        allocate.check_allocation([weak, strong], bad)


def test_check_allocation_refuses_an_entry_count_other_than_the_user_count():
    weak, strong = _user(68.0), _user(80.0)
    good = allocate.allocate_pair(weak, strong, "sum")
    short = replace(good, entries=good.entries[:1])
    with pytest.raises(AssertionError, match="1 entries for 2 users"):
        allocate.check_allocation([weak, strong], short)


def test_check_allocation_names_each_broken_rule():
    weak, strong = _user(68.0), _user(80.0)
    good = allocate.allocate_pair(weak, strong, "sum")
    allocate.check_allocation([weak, strong], good)
    over = replace(good, entries=(replace(good.entries[0], p_w=1.5, w_hz=150e6), good.entries[1]))
    with pytest.raises(AssertionError) as info:
        allocate.check_allocation([weak, strong], over)
    power, bandwidth = str(info.value).split("; ")
    assert power.startswith("power budget violated: ") and power.endswith(" > 2.0")
    assert bandwidth.startswith("bandwidth budget violated: ")
    assert bandwidth.endswith(" > 200000000.0")
    worse = replace(good, objective_value=good.baseline_value * 0.99)
    with pytest.raises(AssertionError, match="^objective regressed$"):
        allocate.check_allocation([weak, strong], worse)


def test_check_allocation_checks_under_python_optimize():
    # an entry of 51 W against a 2 W pooled budget; bare asserts vanish under -O
    code = """
import maxbw.allocate as a
from maxbw._frozen import replace
from maxbw.core import CoherenceBlock
from maxbw.fading import FadingModel
cb, ray = CoherenceBlock.from_tc_bc(tc_s=1e-3, bc_hz=2.5e6), FadingModel.rayleigh()
users = [a.UserLink(gain_hz_per_watt=g, pt_w=1.0, w0_hz=100e6, cb=cb, fading=ray)
         for g in (10.0 ** 6.8, 1e8)]
good = a.allocate_pair(*users, "sum")
bad = replace(good, entries=(replace(good.entries[0], p_w=51.0), good.entries[1]))
try:
    a.check_allocation(users, bad)
except AssertionError as exc:
    print(exc)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(allocate.__file__)))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.startswith("power budget violated: 5") and out.stdout.endswith(" > 2.0\n")


# ------------------------------------------------- guided candidate search


def _slope_rates_flat(users, points):
    return [core._best_pilots(user.gain_hz_per_watt * p_vec / w_vec, w_vec,
                              user.cb.lc, user.fading)
            for user, (p_vec, w_vec) in zip(users, points)]


def _seeded_users(rng, k, law=None):
    # gains as in the acceptance test, a fading law and coherence tile per
    # instance; law 0, 1 or 2 takes Rayleigh, deterministic or tabulated
    # instead of the drawn one
    atoms = np.sort(rng.gamma(2.0, 1.0, 16))
    laws = [RAY, FadingModel.deterministic(),
            FadingModel.tabulated([(v / atoms.mean(), 1.0 / 16) for v in atoms])]
    cbs = [CB, CoherenceBlock.from_tc_bc(tc_s=4e-4, bc_hz=1e6)]
    drawn, cb = rng.integers(3), cbs[rng.integers(2)]
    fading = laws[drawn if law is None else law]
    return [UserLink(gain_hz_per_watt=10.0 ** ((75.0 + 6.0 * z) / 10.0), pt_w=1.0,
                     w0_hz=100e6, cb=cb, fading=fading) for z in rng.standard_normal(k)]


def test_guided_candidate_pass_keeps_pair_allocations(monkeypatch):
    rng = np.random.default_rng(8080)
    cases = [(_seeded_users(rng, 2), allocate.OBJECTIVES[i % 3]) for i in range(60)]
    guided = [allocate.allocate_pair(*users, obj) for users, obj in cases]
    monkeypatch.setattr(allocate, "_rates_flat", _slope_rates_flat)
    unguided = [allocate.allocate_pair(*users, obj) for users, obj in cases]
    assert guided == unguided


def test_guided_candidate_pass_keeps_group_allocations(monkeypatch):
    rng = np.random.default_rng(8081)
    cases = [(_seeded_users(rng, 3), allocate.OBJECTIVES[i % 3]) for i in range(6)]
    guided = [allocate.allocate_group(users, obj) for users, obj in cases]
    monkeypatch.setattr(allocate, "_rates_flat", _slope_rates_flat)
    unguided = [allocate.allocate_group(users, obj) for users, obj in cases]
    assert guided == unguided


def _loop_candidates(weak, strong, p_budget, w_budget, offsets_db, m_center, branches):
    """The candidate vectors (p_weak, w_weak, w_strong), built one power
    offset at a time: the reference for the array pass of _best_over_offsets.
    branches collects the paths taken."""
    bc_w, bc_s = weak.cb.bc_hz, strong.cb.bc_hz

    def cap_steps(user, p):
        point = core.solve_continuous(user.pd_hz(p), user.cb, user.fading)
        return max(1, math.ceil(point.w_hz / user.cb.bc_hz - 1e-9))

    def segment(lo, hi, max_points):
        if hi <= lo:
            branches.add("single")
            return np.array([max(1, lo)], dtype=int)
        if hi - lo + 1 <= max_points:
            branches.add("dense")
            return np.arange(lo, hi + 1)
        branches.add("spread")
        return np.unique(np.linspace(lo, hi, max_points).round().astype(int))

    p_w_rows, w_w_rows, w_s_rows = [], [], []
    for off in offsets_db:
        p_w = weak.pt_w * 10.0 ** (off / 10.0)
        p_s = p_budget - p_w
        if p_s <= 0.0:
            branches.add("no power left")
            continue
        cap_w = cap_steps(weak, p_w)
        cap_s = cap_steps(strong, p_s)
        m_hi = min(cap_w, int((w_budget - bc_s) // bc_w))
        if m_hi < 1:
            branches.add("no bandwidth left")
            continue
        if cap_w * bc_w + cap_s * bc_s <= w_budget:
            branches.add("both caps fit")
            ms = np.unique(np.array([max(1, cap_w - 1), min(cap_w, m_hi)]))
        elif m_center is None:
            ms = segment(1, m_hi, 24)
        else:
            branches.add("window")
            ms = segment(max(1, m_center - 12), min(m_hi, m_center + 12), 25)
        w_w = ms * bc_w
        avail = ((w_budget - w_w) // bc_s).astype(int)
        for cap in (cap_s - 1, cap_s):
            if cap < 1:
                continue
            n_s = np.minimum(cap, avail)
            valid = n_s >= 1
            if not valid.any():
                continue
            w_w_rows.append(w_w[valid].astype(float))
            w_s_rows.append(n_s[valid] * bc_s)
            p_w_rows.append(np.full(int(valid.sum()), p_w))
    if not p_w_rows:
        return None
    return tuple(np.concatenate(rows) for rows in (p_w_rows, w_w_rows, w_s_rows))


def test_candidate_pass_builds_the_loop_candidates_to_the_byte(monkeypatch):
    # the winner's pick sorts with an unstable argsort, so the candidate vectors
    # must match in value and order, not just as sets; and the scoring pass
    # gets the points of the candidates that the rate bound keeps, in
    # candidate order, in one call, and no point that the bound rules out
    seen = []
    monkeypatch.setattr(allocate, "_rates_flat", lambda users, points: seen.append(points)
                        or [(np.ones(p.size, int), np.zeros(p.size)) for p, _ in points])
    rng = np.random.default_rng(909)
    laws = [RAY, FadingModel.deterministic()]
    tiles = [CB, CoherenceBlock.from_tc_bc(tc_s=4e-4, bc_hz=1e6),
             CoherenceBlock.from_tc_bc(tc_s=1e-3, bc_hz=20e6)]
    branches, kept = set(), set()
    for i in range(90):
        cb, fading = tiles[i % 3], laws[(i // 3) % 2]
        # every tenth pair pools less than two lattice steps: none for the weak user
        steps = [int(rng.integers(1, 200)) if i % 10 else 0.7 for _ in range(2)]
        weak, strong = sorted(
            (UserLink(gain_hz_per_watt=10.0 ** rng.uniform(6.0, 9.0),
                      pt_w=10.0 ** rng.uniform(-1.0, 1.0), w0_hz=cb.bc_hz * k, cb=cb,
                      fading=fading) for k in steps),
            key=lambda u: u.gain_hz_per_watt)
        p_budget, w_budget = weak.pt_w + strong.pt_w, weak.w0_hz + strong.w0_hz
        hi_db = 10.0 * math.log10(p_budget / weak.pt_w)
        m_center = int(rng.integers(1, 60)) if i % 4 == 3 else None
        # past the full-budget corner too, where no power is left to the strong user
        offsets = allocate._power_offsets(rng.choice([1.0, 0.1]), hi_db + 1.0)
        got = allocate._candidates(weak, strong, p_budget, w_budget, offsets, m_center)
        want = _loop_candidates(weak, strong, p_budget, w_budget, offsets, m_center, branches)
        if want is None:
            seen.clear()
            assert allocate._best_over_offsets(weak, strong, p_budget, w_budget, 1.0, 1.0,
                                               "sum", offsets, m_center) is None
            assert got is None and seen == []
            continue
        p_w, w_w, p_s, w_s = got
        for vec, ref in ((p_w, want[0]), (w_w, want[1]), (p_s, p_budget - want[0]),
                         (w_s, want[2])):
            assert vec.dtype == ref.dtype and vec.tobytes() == ref.tobytes(), i
        # baselines that every candidate's bounds reach, some reach, or none
        vecs = ((weak, p_w, w_w), (strong, p_s, w_s))
        bounds = [allocate._rate_bound(user, p, w) for user, p, w in vecs]
        if i % 3 == 0:
            bases = [1.0, 1.0]
        else:
            bases = [float(np.quantile(b, rng.uniform(0.0, 1.0))) for b in bounds]
            bases[1] *= 2.0 if i % 3 == 2 else 1.0
        keep = np.logical_and(*(b * (1.0 + 1e-9) >= base for b, base in zip(bounds, bases)))
        kept.add("all" if keep.all() else "some" if keep.any() else "none")
        seen.clear()
        # zero rates meet no positive baseline, so nothing is picked
        assert allocate._best_over_offsets(weak, strong, p_budget, w_budget, *bases, "sum",
                                           offsets, m_center) is None
        assert len(seen) == int(keep.any()), i
        for u, (_, p, w) in enumerate(vecs):
            if seen:
                for x, scored in zip((p, w), seen[0][u]):
                    assert scored.tobytes() == x[keep].tobytes(), i
    assert branches == {"no power left", "no bandwidth left", "both caps fit", "single",
                        "dense", "spread", "window"}
    assert kept == {"all", "some", "none"}


def test_an_allocation_makes_no_scalar_pilot_search_and_keeps_nothing(monkeypatch):
    # every entry and baseline comes from the candidate pass's vector search;
    # neither public scalar path runs, nor the float slope search under them
    passes, searches = [], []
    rates_flat, guided = allocate._rates_flat, core._guided_pilots

    def counted_rates(users, pts):
        passes.append(len(users))
        return rates_flat(users, pts)

    def counted_guided(rho, w, *rest):
        searches.append((rho.size, len(set(zip(rho.tolist(), w.tolist())))))
        return guided(rho, w, *rest)

    def scalar(*args):
        raise AssertionError("a scalar pilot search ran")

    monkeypatch.setattr(allocate, "_rates_flat", counted_rates)
    monkeypatch.setattr(core, "_guided_pilots", counted_guided)
    for name in ("fixed_bandwidth_rate", "core.rate_fixed_bandwidth", "core._slope_bracket"):
        module, attr = (core, name[5:]) if name.startswith("core.") else (allocate, name)
        monkeypatch.setattr(module, attr, scalar)
    rng = np.random.default_rng(2222)
    for i in range(18):
        users = _seeded_users(rng, 2 + i // 9, law=i % 3)
        objective = allocate.OBJECTIVES[(i // 3) % 3]
        calls = []
        for _call in range(2):
            passes.clear()
            searches.clear()
            alloc = (allocate.allocate_pair(*users, objective) if len(users) == 2
                     else allocate.allocate_group(users, objective))
            assert searches and all(size == distinct for size, distinct in searches), i
            # the users share a coherence length and a law: one vector
            # search per pass, for both users' points, and one for the baselines
            assert len(searches) == len(passes), i
            calls.append((alloc, len(searches)))
        # nothing scored in one call is kept for the next
        assert calls[0] == calls[1], i


@pytest.mark.parametrize("lc", [100.0, 1e4, 1e6, 1e8])
def test_entries_and_baselines_are_the_guided_search(lc):
    # to the bit, and within 4e-15 of the public scalar path with its count;
    # between Lc = 1e7 and 1e8 the two searches can pick neighbouring counts
    # on rare points (10 of 10,800 random ones), but on none of these
    rng = np.random.default_rng([int(math.log10(lc)), 30])
    atoms = np.sort(rng.gamma(2.0, 1.0, 16))
    laws = [RAY, FadingModel.deterministic(),
            FadingModel.tabulated([(v / atoms.mean(), 1.0 / 16) for v in atoms])]
    for i, fading in enumerate(laws):
        cb = CoherenceBlock(lc=lc, bc_hz=10.0 ** rng.uniform(5.0, 6.5))
        users = [UserLink(gain_hz_per_watt=10.0 ** ((75.0 + 8.0 * z) / 10.0), pt_w=1.0,
                          w0_hz=cb.bc_hz * rng.integers(5, 120), cb=cb, fading=fading)
                 for z in rng.standard_normal(2 + i % 2)]
        alloc = allocate.allocate_group(users, allocate.OBJECTIVES[i])
        seeds = allocate._baseline_entries(users)
        assert [e.baseline_bps for e in alloc.entries] == [e.rate_bps for e in seeds]
        for user, e in zip(users * 2, alloc.entries + tuple(seeds)):
            n, r = core._guided_pilots(np.array([user.gain_hz_per_watt * e.p_w / e.w_hz]),
                                       np.array([e.w_hz]), lc, fading)
            assert (e.pilot_count, e.rate_bps) == (n[0], r[0]), (i, e)
            scalar = allocate.fixed_bandwidth_rate(user, e.p_w, e.w_hz)
            assert scalar.pilot_count == e.pilot_count
            assert abs(scalar.rate_bps - e.rate_bps) <= 4e-15 * e.rate_bps


def test_rates_flat_searches_each_distinct_point_once(monkeypatch):
    # points that recur within one user, between two users of one (Lc, law)
    # with equal (rho, W), and across two power offsets that round to one
    # power: each distinct (rho, W) of a (Lc, law) is searched once, and each
    # user's rates have the bits of its points searched alone
    rng = np.random.default_rng(4040)
    tile = CoherenceBlock.from_tc_bc(tc_s=4e-4, bc_hz=1e6)
    gain = 10.0 ** rng.uniform(6.0, 9.0)
    p = 10.0 ** rng.uniform(-1.0, 1.0, 12)
    w = 1e6 * rng.integers(1, 300, 12).astype(float)
    own = [0, 1, 2, 3, 3, 0, 4, 4, 4, 2]
    # half the power at twice the gain: the first user's rho at points 2-4
    users = [UserLink(gain_hz_per_watt=g, pt_w=1.0, w0_hz=1e8, cb=cb, fading=RAY)
             for g, cb in ((gain, CB), (2.0 * gain, CB), (gain, tile))]
    cases = [(users, [(p[own], w[own]), (p[2:] / 2.0, w[2:]), (p[own], w[own])])]
    assert np.array_equal(2.0 * gain * (p[2:5] / 2.0), gain * p[2:5])
    # 1e-16 dB is a factor 1 + 2.3e-17, which rounds to 1: both offsets give the
    # baseline power
    weak, strong = (UserLink(gain_hz_per_watt=10.0 ** (g_db / 10.0), pt_w=1.0, w0_hz=40e6,
                             cb=tile, fading=FadingModel.deterministic()) for g_db in (72.0, 79.0))
    one, two = (allocate._candidates(weak, strong, 2.0, 80e6, np.array(offsets))
                for offsets in ([0.0], [0.0, 1e-16]))
    for x, y in zip(one, two, strict=True):
        assert np.array_equal(y, np.concatenate([x, x]))
    cases.append(([weak, strong], [two[:2], two[2:]]))

    guided = core._guided_pilots
    for case_users, points in cases:
        groups = {}
        for user, (p_u, w_u) in zip(case_users, points):
            groups.setdefault((user.cb.lc, user.fading), []).extend(
                zip((user.gain_hz_per_watt * p_u / w_u).tolist(), w_u.tolist()))
        alone = [guided(u.gain_hz_per_watt * p_u / w_u, w_u, u.cb.lc, u.fading)
                 for u, (p_u, w_u) in zip(case_users, points)]
        calls = {}

        def counted(rho, w_hz, lc, fading):
            calls.setdefault((lc, fading), []).append(list(zip(rho.tolist(), w_hz.tolist())))
            return guided(rho, w_hz, lc, fading)

        monkeypatch.setattr(core, "_guided_pilots", counted)
        rates = allocate._rates_flat(case_users, points)
        monkeypatch.undo()
        assert calls.keys() == groups.keys()
        for key, searches in calls.items():
            searched, = searches  # one search per (Lc, law)
            assert len(searched) < len(groups[key])  # the group's points do recur
            assert len(searched) == len(set(searched)) and set(searched) == set(groups[key])
        for got, want in zip(rates, alone, strict=True):
            for got_vec, want_vec in zip(got, want, strict=True):
                assert got_vec.dtype == want_vec.dtype and np.array_equal(got_vec, want_vec)


def test_rates_flat_searches_each_coherence_length_and_law_once(monkeypatch):
    # three users on two (Lc, law) keys: two vector searches, each rate with
    # the bits of its user's points searched alone
    rng = np.random.default_rng(3030)
    tile = CoherenceBlock.from_tc_bc(tc_s=4e-4, bc_hz=1e6)
    users = [UserLink(gain_hz_per_watt=10.0 ** rng.uniform(6.0, 9.0), pt_w=1.0, w0_hz=1e8,
                      cb=cb, fading=RAY) for cb in (CB, tile, CB)]
    points = [(10.0 ** rng.uniform(-1.0, 1.0, n), 1e6 * rng.integers(1, 300, n).astype(float))
              for n in (40, 1, 25)]
    alone = [core._guided_pilots(u.gain_hz_per_watt * p / w, w, u.cb.lc, u.fading)
             for u, (p, w) in zip(users, points)]
    calls, guided = [], core._guided_pilots
    monkeypatch.setattr(core, "_guided_pilots", lambda rho, *rest: calls.append(rho.size)
                        or guided(rho, *rest))
    rates = allocate._rates_flat(users, points)
    assert sorted(calls) == [1, 65]
    for got, want in zip(rates, alone, strict=True):
        for got_vec, want_vec in zip(got, want, strict=True):
            assert np.array_equal(got_vec, want_vec)


@pytest.mark.parametrize("lc", [2.0, 2.5, 40.0, 2500.0, 1e6, 1e8])
def test_rate_bound_is_at_least_every_lattice_rate(lc):
    # the candidate pass rules out what this bound puts below a baseline;
    # per-symbol SNR from 1e-20 to 1e12, and 1e-200, where the rate underflows
    rng = np.random.default_rng([int(lc * 10), 23])
    laws = [RAY, FadingModel.deterministic(),
            FadingModel.tabulated([(v, 1.0 / 64) for v in np.linspace(0.02, 1.98, 64)]),
            FadingModel.tabulated([(0.0, 0.99), (100.0, 0.01)])]
    for fading in laws:
        user = UserLink(gain_hz_per_watt=10.0 ** rng.uniform(6.0, 10.0), pt_w=1.0, w0_hz=1e8,
                        cb=CoherenceBlock(lc=lc, bc_hz=1e6), fading=fading)
        rho = np.concatenate([10.0 ** rng.uniform(-20.0, 12.0, 500), [1e-200] * 3])
        w = 10.0 ** rng.uniform(5.0, 9.0, rho.size)
        p = rho * w / user.gain_hz_per_watt
        (_, rate), = allocate._rates_flat([user], [(p, w)])
        assert np.all(rate[-3:] == 0.0)
        assert np.all(allocate._rate_bound(user, p, w) >= rate), fading.atoms[:2]


def test_the_rate_bound_changes_no_candidate_pass(monkeypatch):
    # with the bound lifted every point is scored, in the same calls, and the
    # same candidates come back in the same order; with it, fewer than half
    # of the points are scored
    rng = np.random.default_rng(3131)
    cases = []
    for i in range(12):
        weak, strong = sorted(_seeded_users(rng, 2, law=i % 3), key=lambda u: u.gain_hz_per_watt)
        bases = [e.rate_bps for e in allocate._baseline_entries([weak, strong])]
        p_budget, w_budget = weak.pt_w + strong.pt_w, weak.w0_hz + strong.w0_hz
        offsets = allocate._power_offsets(rng.choice([1.0, 0.1]),
                                          10.0 * math.log10(p_budget / weak.pt_w))
        m_center = round(weak.w0_hz / weak.cb.bc_hz) if i % 4 == 3 else None
        cases += [(weak, strong, p_budget, w_budget, *bases, objective, offsets, m_center)
                  for objective in allocate.OBJECTIVES]
    scored, rates_flat = [], allocate._rates_flat
    monkeypatch.setattr(allocate, "_rates_flat", lambda users, points: scored.append(
        sum(p.size for p, _ in points)) or rates_flat(users, points))
    pruned = [allocate._best_over_offsets(*case) for case in cases]
    pruned_points = sum(scored)
    scored.clear()
    monkeypatch.setattr(allocate, "_rate_bound", lambda user, p, w: np.full(p.shape, np.inf))
    assert [allocate._best_over_offsets(*case) for case in cases] == pruned
    assert sum(x is not None for x in pruned) > len(cases) // 2
    assert 2 * pruned_points < sum(scored)


# ------------------------------------------------------------------ tie rule


def _first_best(weak, strong, p_budget, w_budget, base_weak, base_strong, objective,
                offsets_db, m_center=None):
    """Every candidate scored, then walked in _candidates' order, keeping the
    first of the greatest feasible value: the reference for the tie rule of
    _best_over_offsets. Also returns how many feasible candidates hold that
    value."""
    cands = allocate._candidates(weak, strong, p_budget, w_budget, offsets_db, m_center)
    if cands is None:
        return None, 0
    p_w, w_w, p_s, w_s = cands
    scored = allocate._rates_flat((weak, strong), [(p_w, w_w), (p_s, w_s)])
    (_, r_w), (_, r_s) = scored
    gains = [weak.gain_hz_per_watt, strong.gain_hz_per_watt]
    values = [allocate._objective(gains, [float(a), float(b)], objective)
              if a >= base_weak and b >= base_strong else -math.inf for a, b in zip(r_w, r_s)]
    best = max(values)
    if best == -math.inf:
        return None, 0
    j = values.index(best)
    entries = (allocate.AllocationEntry(p_w=float(p[j]), w_hz=float(w[j]), rate_bps=float(r[j]),
                                        pilot_count=int(n[j]), baseline_bps=base)
               for p, w, (n, r), base in zip((p_w, p_s), (w_w, w_s), scored, (base_weak, base_strong)))
    return (best, *entries), values.count(best)


def _check_first_best(cases):
    """Asserts that each candidate pass picks as _first_best does; returns
    how many of the passes held a tie for the best value."""
    tied = 0
    for case in cases:
        want, count = _first_best(*case)
        assert allocate._best_over_offsets(*case) == want, case[6]
        tied += count > 1
    return tied


def _pass_cases(rng, pairs):
    # each pair under every objective, over the coarse grid, a fine grid
    # around a drawn offset and a polish window around the baseline split
    cases = []
    for weak, strong in pairs:
        bases = [e.rate_bps for e in allocate._baseline_entries([weak, strong])]
        p_budget, w_budget = weak.pt_w + strong.pt_w, weak.w0_hz + strong.w0_hz
        hi_db = 10.0 * math.log10(p_budget / weak.pt_w)
        grids = [(allocate._power_offsets(1.0, hi_db), None),
                 (allocate._fine_offsets(rng.uniform(-6.0, hi_db), hi_db), None),
                 (np.array([0.0]), round(weak.w0_hz / weak.cb.bc_hz))]
        cases += [(weak, strong, p_budget, w_budget, *bases, objective, offsets, m_center)
                  for objective in allocate.OBJECTIVES for offsets, m_center in grids]
    return cases


def _tie_pairs(rng, count):
    # pairs as the snapshot draws them: Lc log-uniform in 1e2-1e7, Bc in
    # 0.1-3 MHz, W0 in 5-200 Bc, gains 75 +- 8 dB, the three laws in turn
    atoms = np.sort(rng.gamma(2.0, 1.0, 16))
    laws = [RAY, FadingModel.deterministic(),
            FadingModel.tabulated([(v / atoms.mean(), 1.0 / 16) for v in atoms])]
    pairs = []
    for i in range(count):
        lc, bc = np.exp(rng.uniform(np.log([1e2, 1e5]), np.log([1e7, 3e6])))
        cb = CoherenceBlock(lc=float(lc), bc_hz=float(bc))
        users = [UserLink(gain_hz_per_watt=10.0 ** ((75.0 + 8.0 * rng.standard_normal()) / 10.0),
                          pt_w=1.0, w0_hz=float(np.exp(rng.uniform(np.log(5.0), np.log(200.0))) * bc),
                          cb=cb, fading=laws[i % 3]) for _ in range(2)]
        pairs.append(sorted(users, key=lambda u: u.gain_hz_per_watt))
    return pairs


def test_ties_go_to_the_first_best_candidate():
    # under max-weak the strong user's cap - 1 and cap tie wherever both are
    # feasible, under max-strong the weak steps that leave the strong user
    # its cap, and identical users tie in their own ways; the pass must pick
    # as the walk in candidate order does
    rng = np.random.default_rng(3630)
    pairs = _tie_pairs(rng, 12)
    pairs += [(_user(75.0), _user(75.0)), (_user(68.0, w0_hz=40e6), _user(68.0, w0_hz=40e6))]
    assert _check_first_best(_pass_cases(rng, pairs)) > 20


def test_ties_go_to_the_first_best_candidate_on_rounded_rates(monkeypatch):
    # rates rounded down to whole Mbit/s tie on most candidates of every
    # objective; a rounded rate is still below the rate bound
    rates_flat = allocate._rates_flat
    monkeypatch.setattr(allocate, "_rates_flat", lambda users, points: [
        (n, np.floor(r / 1e6) * 1e6) for n, r in rates_flat(users, points)])
    rng = np.random.default_rng(3637)
    pairs = [sorted(_seeded_users(rng, 2, law=i % 3), key=lambda u: u.gain_hz_per_watt)
             for i in range(6)]
    cases = _pass_cases(rng, pairs)
    assert _check_first_best(cases) > len(cases) // 2


def test_group_solves_each_pair_budget_once(monkeypatch):
    solves = []
    original = allocate._allocate_pair_budget

    def counted(u1, u2, p_budget, w_budget, *rest):
        solves.append((id(u1), id(u2), p_budget, w_budget))
        return original(u1, u2, p_budget, w_budget, *rest)

    monkeypatch.setattr(allocate, "_allocate_pair_budget", counted)
    users = [_user(65.0), _user(75.0), _user(85.0)]
    allocate.allocate_group(users, "sum")
    assert len(solves) == len(set(solves))


@pytest.mark.parametrize("law, objective, lc, bc, rows", [
    ("deterministic", "max-strong", 7432.171589942522, 113810.91098323166,
     ((68.1186381278407, 9.384661632583473), (80.25835872753188, 101.01566407778927))),
    ("rayleigh", "max-weak", 5694.091698087191, 647710.3230509443,
     ((71.0290051627972, 26.835833570180817), (73.18165824534353, 20.613731283871925))),
    ("rayleigh", "sum", 3682.9565871896857, 205844.739597704,
     ((73.60931510456544, 11.236692002029264), (88.40393153153005, 169.9318461004803))),
])
def test_pair_is_the_group_search_on_two_users(law, objective, lc, bc, rows):
    # on each of these a single pair solve leaves 0.25-0.87% of the objective
    # that a second round on the pair's new budgets finds
    cb = CoherenceBlock(lc=lc, bc_hz=bc)
    users = [UserLink(gain_hz_per_watt=10.0 ** (db / 10.0), pt_w=1.0, w0_hz=steps * bc, cb=cb,
                      fading=FadingModel(law)) for db, steps in rows]
    assert allocate.allocate_pair(*users, objective) == allocate.allocate_group(users, objective)


@pytest.mark.parametrize("objective, target", [("max-weak", 1), ("max-strong", 2)])
def test_group_solves_only_the_pairs_holding_the_target_user(monkeypatch, objective, target):
    solves = []
    original = allocate._allocate_pair_budget

    def counted(u1, u2, *rest):
        solves.append((u1, u2))
        return original(u1, u2, *rest)

    monkeypatch.setattr(allocate, "_allocate_pair_budget", counted)
    users = [_user(75.0), _user(62.0), _user(88.0), _user(70.0), _user(80.0)]
    allocate.allocate_group(users, objective)
    assert solves and all(any(u is users[target] for u in pair) for pair in solves)


def _all_pairs_greedy(users, objective):
    """Reference greedy: the pairwise greedy of allocate_group, visiting every
    pair i < j in every round whatever the objective."""
    seeds = allocate._baseline_entries(users)
    entries = list(seeds)
    flags = ()
    gains = [u.gain_hz_per_watt for u in users]
    current = allocate._objective(gains, [e.rate_bps for e in entries], objective)
    solved = {}
    for _round in range(20):
        improved = False
        for i in range(len(users)):
            for j in range(i + 1, len(users)):
                p_budget = entries[i].p_w + entries[j].p_w
                w_budget = entries[i].w_hz + entries[j].w_hz
                key = (i, j, p_budget, w_budget)
                if key not in solved:
                    solved[key] = allocate._allocate_pair_budget(
                        users[i], users[j], p_budget, w_budget, seeds[i], seeds[j], objective)
                ei, ej, pair_flags = solved[key]
                trial = list(entries)
                trial[i], trial[j] = ei, ej
                value = allocate._objective(gains, [e.rate_bps for e in trial], objective)
                if value > current * (1.0 + allocate._REL_IMPROVE):
                    entries, current, improved = trial, value, True
                    flags = tuple(sorted(set(flags + pair_flags)))
        if not improved:
            break
    return allocate._allocation(users, entries, seeds, objective, flags)


def test_group_targeted_objectives_match_the_all_pairs_greedy():
    # each k with both targeted objectives, each law with both
    rng = np.random.default_rng(1818)
    atoms = np.sort(rng.gamma(2.0, 1.0, 16))
    laws = [RAY, FadingModel.deterministic(),
            FadingModel.tabulated([(v / atoms.mean(), 1.0 / 16) for v in atoms])]
    for i in range(6):
        k, fading, objective = 3 + i % 3, laws[i // 2], ("max-weak", "max-strong")[i % 2]
        cb = CoherenceBlock.from_tc_bc(tc_s=10.0 ** rng.uniform(-4.0, -2.0),
                                       bc_hz=10.0 ** rng.uniform(5.0, 6.5))
        users = [UserLink(gain_hz_per_watt=10.0 ** ((75.0 + 8.0 * z) / 10.0), pt_w=1.0,
                          w0_hz=cb.bc_hz * rng.integers(5, 120), cb=cb, fading=fading)
                 for z in rng.standard_normal(k)]
        assert allocate.allocate_group(users, objective) == _all_pairs_greedy(users, objective), i


# ------------------------------------------------------------------ utilities


def test_userlink_validation():
    with pytest.raises(ValueError):
        UserLink(gain_hz_per_watt=0.0, pt_w=1.0, w0_hz=1e8, cb=CB, fading=RAY)
    with pytest.raises(ValueError):
        UserLink(gain_hz_per_watt=1e7, pt_w=-1.0, w0_hz=1e8, cb=CB, fading=RAY)
    with pytest.raises(ValueError):
        UserLink(gain_hz_per_watt=1e7, pt_w=1.0, w0_hz=0.0, cb=CB, fading=RAY)
    with pytest.raises(ValueError):
        # no bandwidth lattice, no allocation
        UserLink(gain_hz_per_watt=1e7, pt_w=1.0, w0_hz=1e8,
                 cb=CoherenceBlock(lc=2500.0), fading=RAY)


@pytest.mark.parametrize("field, value", [
    ("gain_hz_per_watt", math.inf), ("pt_w", math.inf), ("w0_hz", math.inf),
    # 4e293 lattice steps of 2.5 MHz: no int holds the step count
    ("w0_hz", 1e300),
])
def test_userlink_rejects_infinite_rows_and_unsteppable_bandwidths(field, value):
    row = dict(gain_hz_per_watt=1e7, pt_w=1.0, w0_hz=1e8, cb=CB, fading=RAY)
    row[field] = value
    with pytest.raises(ValueError):
        UserLink(**row)


@pytest.mark.parametrize("gain, pt_w, w0_hz, message", [
    (1e149, 100.0, 1e8, r"Pr/N0 must be positive and at most 1e150 Hz, got 1e\+151"),
    (1e148, 1.0, 1e-7, r"Pr/N0 1e\+148 Hz over bandwidth 1e-07 Hz is a per-symbol SNR above"),
], ids=["pd_past_1e150", "snr_past_its_square_root_limit"])
def test_userlink_refuses_a_baseline_out_of_range_when_it_is_built(gain, pt_w, w0_hz, message):
    # both users used to be built, and refused by each allocation that
    # scored their baselines
    with pytest.raises(ValueError, match=message):
        UserLink(gain, pt_w, w0_hz, CB, RAY)


def test_pair_with_a_300_db_user_reallocates_without_a_cast_warning():
    # the strong user's cap is about 5e24 lattice steps, beyond every budget
    weak, strong = _user(68.0), _user(300.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alloc = allocate.allocate_pair(weak, strong, "max-weak")
    allocate.check_allocation([weak, strong], alloc)
    assert alloc.objective_value > alloc.baseline_value * 1.05


@pytest.mark.parametrize("weak_bc, strong_bc", [(1.0, 1e6), (1e6, 1.0)])
def test_pair_budget_beyond_an_int_of_the_other_users_steps(weak_bc, strong_bc):
    # the 1 MHz user's W0 is 2**52 of its own steps but 4.5e21 of the 1 Hz
    # user's, past any int64
    def user(gain, bc):
        return UserLink(gain_hz_per_watt=gain, pt_w=1.0, w0_hz=2.0 ** 52 * bc if bc > 1.0 else 100.0,
                        cb=CoherenceBlock.from_tc_bc(tc_s=1e3 / bc, bc_hz=bc), fading=RAY)

    weak, strong = user(1e7, weak_bc), user(1e9, strong_bc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alloc = allocate.allocate_pair(weak, strong, "sum")
    allocate.check_allocation([weak, strong], alloc)
    assert alloc.objective_value > alloc.baseline_value


def test_power_offsets_hit_exact_endpoints():
    offs = allocate._power_offsets(1.0, 3.01)
    assert 0.0 in offs
    assert 3.01 in offs
    assert offs[0] == allocate._OFFSET_LO_DB
    assert np.all(np.diff(offs) > 0)


def test_offset_grids_are_np_unique_grids():
    # both grids drop repeats from a sorted grid instead of calling np.unique,
    # and must give its values, bits and order: incumbents near -20 dB, near
    # hi_db and at 0.0, hi_db below -20 dB and on the 1 dB grid
    rng = np.random.default_rng(3232)
    hi = np.concatenate([rng.uniform(-30.0, 30.0, 1000), rng.integers(-25, 25, 400),
                         rng.uniform(-25.0, -20.0, 200), rng.uniform(0.0, 6.0, 400)])
    center = np.concatenate([rng.uniform(-21.0, -19.0, 500), hi[500:1000] + rng.uniform(-1.0, 1.0, 500),
                             np.zeros(300), rng.uniform(-25.0, 30.0, 700)])
    for i, (c, h) in enumerate(zip(center.tolist(), hi.tolist())):
        for step in (1.0, 0.1):
            want = np.unique(np.concatenate([np.arange(allocate._OFFSET_LO_DB, h + 1e-12, step),
                                             [0.0, h]]))
            got = allocate._power_offsets(step, h)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (i, step)
        want = np.unique(np.clip(c + np.arange(-1.0, 1.0 + 1e-12, 0.1), allocate._OFFSET_LO_DB, h))
        got = allocate._fine_offsets(c, h)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), i


def test_each_scoring_call_enters_the_rayleigh_kernel_once(monkeypatch):
    # allocate-mix's links (Lc = 2500, Rayleigh), where the guide hands no
    # point to the slope search: the baselines and the coarse, refine and
    # polish passes each score their points in one kernel pass
    from maxbw import fading as fading_module

    core._pilot_guide(CB.lc, RAY)  # built once, by the slope search
    kernel, calls = fading_module._rayleigh_array, []
    monkeypatch.setattr(fading_module, "_rayleigh_array",
                        lambda s, slope=False: calls.append(s.size) or kernel(s, slope))
    monkeypatch.setattr(core, "_best_pilots", lambda *args: pytest.fail("a slope search ran"))
    rng = np.random.default_rng(2500)
    for i in range(6):
        gains = np.sort(75.0 + 6.0 * rng.standard_normal(2))
        calls.clear()
        allocate.allocate_pair(_user(gains[0]), _user(gains[1]), allocate.OBJECTIVES[i % 3])
        assert len(calls) == 4, (i, calls)


def test_cap_steps_brackets_continuous_optimum():
    u = _user(80.0)
    cap = allocate._cap_steps(u, 1.0)
    w_cont = core.solve_continuous(u.pd_hz(1.0), CB, RAY).w_hz
    assert cap == math.ceil(w_cont / CB.bc_hz - 1e-9)
    assert cap >= 1


def test_cap_steps_on_arrays_match_the_scalar_form():
    u = _user(80.0)
    p = 10.0 ** np.linspace(-4.0, 2.0, 61)
    caps = allocate._cap_steps(u, p)
    want = [max(1, math.ceil(core.solve_continuous(u.pd_hz(float(x)), CB, RAY).w_hz
                             / CB.bc_hz - 1e-9)) for x in p]
    assert caps.tolist() == want
    assert min(want) == 1 and max(want) > 1000


@pytest.mark.parametrize("p_w", [math.inf, math.nan, 0.0, np.array([1.0, math.nan]),
                                 np.array([math.inf, 1.0])])
def test_cap_steps_rejects_a_bad_power_density(p_w):
    with pytest.raises(ValueError, match="Pr/N0"):
        allocate._cap_steps(_user(80.0), p_w)


def test_synthetic_gains_deterministic():
    a = allocate.synthetic_gains(5, 75.0, 6.0, seed=42)
    b = allocate.synthetic_gains(5, 75.0, 6.0, seed=42)
    assert a == b
    assert len(a) == 5
    assert all(g > 0 for g in a)
    flat = allocate.synthetic_gains(3, 70.0, 0.0, seed=1)
    assert flat == [pytest.approx(1e7)] * 3


def test_load_users_csv(tmp_path):
    p = tmp_path / "users.csv"
    p.write_text("gain_dB,Pt_dBm,W0_Hz\n68,30,100e6\n80,30,100e6\n")
    users = allocate.load_users_csv(p, CB, RAY)
    assert len(users) == 2
    assert users[0].gain_hz_per_watt == pytest.approx(10.0 ** 6.8)
    assert users[0].pt_w == pytest.approx(1.0)  # 30 dBm
    assert users[1].w0_hz == 100e6

    q = tmp_path / "noheader.csv"
    q.write_text("68,30,100e6\n")
    assert len(allocate.load_users_csv(q, CB, RAY)) == 1

    r = tmp_path / "bad.csv"
    r.write_text("68,30,100e6\n80,oops,100e6\n")
    with pytest.raises(ValueError):
        allocate.load_users_csv(r, CB, RAY)

    # a malformed row right after the header must raise, not vanish
    t = tmp_path / "badfirst.csv"
    t.write_text("gain_dB,Pt_dBm,W0_Hz\n68,30,abc\n80,30,100e6\n")
    with pytest.raises(ConfigError, match="badfirst.csv:2"):
        allocate.load_users_csv(t, CB, RAY)

    s = tmp_path / "empty.csv"
    s.write_text("gain_dB,Pt_dBm,W0_Hz\n")
    with pytest.raises(ConfigError):
        allocate.load_users_csv(s, CB, RAY)
