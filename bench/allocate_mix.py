"""allocate-mix: two-user and k-user reallocation of pooled power and bandwidth.

Channels follow the allocation acceptance test: Lc = 2500 (Tc = 1 ms,
Bc = 2.5 MHz), Rayleigh fading, W0 = 100 MHz and Pt = 1 W per user, and
gains log-normal with median 75 dB(Hz/W) and sigma 6 dB. A run draws its
pairs once, three from a fixed panel seed (the same in every run) and
SEEDED_PAIRS from the seed, and every round repeats them. Each round then
runs three groups of GROUP_K users on fresh gains, one per objective; round
0 draws its groups from the panel seed. gain_mbps is taken over the panel
allocations.
"""

from __future__ import annotations

import math
import statistics
import time
from statistics import NormalDist

import numpy as np

from maxbw import allocate, core
from maxbw.fading import FadingModel
from timing import median_round_mean, minima

GROUP_K = 3
SEEDED_PAIRS = 24
PANEL_SEED = 20170413
LC, BC_HZ, W0_HZ, PT_W = 2500.0, 2.5e6, 100e6, 1.0
MEDIAN_DB, SIGMA_DB = 75.0, 6.0
RATE_TOL = 1e-3
NORMAL = NormalDist()


def _stratified_users(rng, state, count, size):
    """`count` user sets of `size` users from one Latin-hypercube draw.

    The count*size gains take one point from each of count*size equal-
    probability strata of the gain law, in random order, so each gain is
    still log-normal while every draw covers the gain law evenly.
    """
    n = count * size
    u = (rng.permutation(n) + rng.random(n)) / n
    gains = [10.0 ** ((MEDIAN_DB + SIGMA_DB * NORMAL.inv_cdf(float(x))) / 10.0) for x in u]
    users = [allocate.UserLink(gain_hz_per_watt=g, pt_w=PT_W, w0_hz=W0_HZ,
                               cb=state["cb"], fading=state["fading"]) for g in gains]
    return [users[i:i + size] for i in range(0, n, size)]


def setup(seed, outdir):
    state = {"cb": core.CoherenceBlock.from_tc_bc(tc_s=LC / BC_HZ, bc_hz=BC_HZ),
             "fading": FadingModel.rayleigh(), "seed": seed}
    objectives = allocate.OBJECTIVES
    panel = _stratified_users(np.random.default_rng([PANEL_SEED]), state, len(objectives), 2)
    seeded = _stratified_users(np.random.default_rng([seed]), state, SEEDED_PAIRS, 2)
    state["pairs"] = ([(users, obj, True) for users, obj in zip(panel, objectives)]
                      + [(users, objectives[i % 3], False) for i, users in enumerate(seeded)])
    return state


def run_round(state, index):
    """Every pair of the run, then three fresh groups, one per objective."""
    rng = np.random.default_rng([PANEL_SEED if index == 0 else state["seed"], index])
    groups = _stratified_users(rng, state, len(allocate.OBJECTIVES), GROUP_K)
    ops = [("pair", key, users, obj, panel)
           for key, (users, obj, panel) in enumerate(state["pairs"])]
    ops += [("group", None, users, obj, index == 0)
            for users, obj in zip(groups, allocate.OBJECTIVES)]
    records = []
    for op, key, users, objective, panel in ops:
        fn, args = ((allocate.allocate_pair, (users[0], users[1], objective)) if op == "pair"
                    else (allocate.allocate_group, (users, objective)))
        start = time.perf_counter()
        out, error = None, None
        try:
            out = fn(*args)
        except Exception as exc:  # a failing call is counted, not fatal
            error = repr(exc)
        records.append({"op": op, "key": key, "s": time.perf_counter() - start, "users": users,
                        "objective": objective, "panel": panel, "round": index,
                        "out": out, "error": error})
    return records


def metrics(records):
    gains = [r["out"].objective_value - r["out"].baseline_value for r in records
             if r["round"] == 0 and r["panel"] and r["out"] is not None]
    pairs = minima(records, lambda r: r["key"], lambda r: r["op"] == "pair")
    return {
        "light_op_ms": 1e3 * statistics.mean(pairs.values()),
        "heavy_op_s": median_round_mean(records, lambda r: r["op"] == "group"),
        "gain_mbps": sum(gains) / len(gains) / 1e6 if gains else math.nan,
    }


def _objective(users, rates, objective):
    gains = [u.gain_hz_per_watt for u in users]
    if objective == allocate.MAX_WEAK:
        return rates[int(np.argmin(gains))]
    if objective == allocate.MAX_STRONG:
        return rates[int(np.argmax(gains))]
    return sum(rates)


def check(records, oracle, state):
    failed, problems = 0, []
    fading = oracle.Fading("rayleigh")
    n_hi = math.ceil(LC) - 1
    for rec in records:
        users, alloc = rec["users"], rec["out"]
        tag = f"{rec['op']} {rec['objective']} (round {rec['round']})"
        if rec["error"]:
            failed += 1
            continue
        entries = alloc.entries
        rates = [float(oracle.lattice_rate(fading, u.gain_hz_per_watt * e.p_w, e.w_hz,
                                           e.pilot_count, LC)) for u, e in zip(users, entries)]
        if max(abs(e.rate_bps / r - 1.0) for e, r in zip(entries, rates)) > RATE_TOL:
            failed += 1
            continue
        if sum(e.p_w for e in entries) > PT_W * len(users) * (1.0 + 1e-9):
            problems.append(f"{tag}: power budget exceeded")
        if sum(e.w_hz for e in entries) > W0_HZ * len(users) * (1.0 + 1e-9):
            problems.append(f"{tag}: bandwidth budget exceeded")
        for e in entries:
            m = e.w_hz / BC_HZ
            if round(m) < 1 or abs(m - round(m)) > 1e-9 * m:
                problems.append(f"{tag}: W = {e.w_hz} is not a positive multiple of Bc")
            if not 1 <= e.pilot_count <= n_hi:
                problems.append(f"{tag}: pilot count {e.pilot_count} out of [1, {n_hi}]")
            if e.rate_bps < e.baseline_bps:
                problems.append(f"{tag}: a user ends below its baseline")
        if alloc.objective_value < alloc.baseline_value:
            problems.append(f"{tag}: objective below the baseline objective")
        if abs(alloc.objective_value - _objective(users, [e.rate_bps for e in entries],
                                                  rec["objective"])) > 1e-9 * alloc.objective_value:
            problems.append(f"{tag}: objective value does not match the entries")
        if rec["op"] == "pair" and rec["objective"] == allocate.MAX_WEAK:
            weak = int(np.argmin([u.gain_hz_per_watt for u in users]))
            user = users[weak]
            w_star = core.solve_continuous(user.pd_hz(user.pt_w), user.cb, user.fading).w_hz
            if w_star <= W0_HZ - BC_HZ and not entries[weak].rate_bps > entries[weak].baseline_bps:
                problems.append(f"{tag}: weak user with W* = {w_star:.4g} Hz gains nothing")
    return failed, problems
