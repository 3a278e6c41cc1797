"""link-lattice: the single-link library calls on seeded random links.

A run draws its links once: a fixed panel of one link per fading law
(Rayleigh, deterministic, and a 64-atom tabulated law drawn for the link),
the same in every run, and LINKS_PER_KIND seeded links per law. Every round
runs three operations on each link: an optimum query, an oracle search and
a narrow-band query. Round r scales every Lc by (1 + 1e-9 r), so each solve
misses the solver's cache as it would on a new link.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from maxbw import core
from maxbw.fading import FadingModel
from timing import minima

KINDS = ("rayleigh", "deterministic", "tabulated")
ATOMS = 64
# points per exhaustive search, so that every search costs a similar time
POINTS = {"rayleigh": 2e5, "tabulated": 2e5, "deterministic": 5e6}
LC_RANGE = (300.0, 3e4)
# exhaustive_search scans every pilot count up to 4096 and only a coarse
# pilot grid beyond; on deterministic links that coarse pass can settle on a
# lattice point below the global maximum, so those links keep Lc <= 4096
DETERMINISTIC_LC_MAX = 4096.0
BC_RANGE = (1e6, 2e7)
FIXED_W_HZ = 1e9
NARROW_RHO = 1000.0  # per-symbol SNR of the narrow-band query
RATE_TOL = 1e-6
LINKS_PER_KIND = 4
PANEL_SEED = 20170413  # gain_mbps is taken over the panel links
LC_NUDGE = 1e-9


class Link:
    def __init__(self, kind, lc, bc_hz, pd_hz, atoms=(), model=None):
        self.kind, self.lc, self.bc_hz, self.pd_hz, self.atoms = kind, lc, bc_hz, pd_hz, atoms
        self.cb = core.CoherenceBlock(lc=lc, bc_hz=bc_hz)
        if model is None:
            model = FadingModel.tabulated(atoms) if atoms else FadingModel(kind)
        self.model = model


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def make_link(rng, kind, u_lc):
    """A link whose log Lc sits at the fraction u_lc of its range."""
    lc_hi = DETERMINISTIC_LC_MAX if kind == "deterministic" else LC_RANGE[1]
    lc = LC_RANGE[0] * (lc_hi / LC_RANGE[0]) ** u_lc
    bc_hz = _log_uniform(rng, *BC_RANGE)
    atoms = ()
    kurtosis = {"rayleigh": 2.0, "deterministic": 1.0}.get(kind)
    if kind == "tabulated":
        shape = _log_uniform(rng, 0.7, 4.0)  # Nakagami-m power law
        values = np.sort(rng.gamma(shape, 1.0, ATOMS))
        values /= values.mean()
        atoms = tuple((float(v), 1.0 / ATOMS) for v in values)
        kurtosis = float(np.mean(values**2))
    # size the exhaustive search: Pr/N0 puts W* near half the bandwidth span
    # whose lattice holds POINTS points, using the large-Lc closed form for rho*;
    # exhaustive_search scans every pilot count up to 4096, else about 512
    n_points = math.ceil(lc) - 1 if lc <= 4097 else 512
    m_star = 0.5 * POINTS[kind] / n_points
    rho = (4.0 / (kurtosis**2 * lc)) ** (1.0 / 3.0)
    return Link(kind, lc, bc_hz, m_star * bc_hz * rho, atoms)


def setup(seed, outdir):
    """The run's links as (panel?, link) pairs.

    The seeded links of each law take their log Lc from a Latin-hypercube
    draw, one from each quarter of the range, so every run covers the range
    evenly and the total search size varies little between seeds.
    """
    panel_rng = np.random.default_rng([PANEL_SEED])
    links = [(True, make_link(panel_rng, kind, panel_rng.random())) for kind in KINDS]
    rng = np.random.default_rng([seed])
    n = LINKS_PER_KIND
    for kind in KINDS:
        u = (rng.permutation(n) + rng.random(n)) / n
        links += [(False, make_link(rng, kind, float(x))) for x in u]
    return {"links": links}


def _nudged(link, index):
    lc = link.lc * (1.0 + LC_NUDGE * index)
    return Link(link.kind, lc, link.bc_hz, link.pd_hz, link.atoms, model=link.model)


def _timed(fn, *args):
    start = time.perf_counter()
    try:
        return fn(*args), time.perf_counter() - start, None
    except Exception as exc:  # a failing call is counted, not fatal
        return None, time.perf_counter() - start, repr(exc)


def _query(link):
    op = core.solve_continuous(link.pd_hz, link.cb, link.model)
    lattice = core.discretize(op, link.cb, link.pd_hz, link.model)
    fixed = core.rate_fixed_bandwidth(link.pd_hz, FIXED_W_HZ, link.cb, link.model)
    return op, lattice, fixed


def run_round(state, index):
    """Time the three operations on each of the run's links."""
    records = []
    for key, (panel, base) in enumerate(state["links"]):
        link = _nudged(base, index)
        query, t_query, err_query = _timed(_query, link)
        records.append({"op": "query", "s": t_query, "link": link, "out": query,
                        "error": err_query, "round": index, "key": key, "panel": panel})
        m_max = 2 * math.ceil(query[0].w_hz / link.bc_hz) if query else 2
        search, t_search, err = _timed(core.exhaustive_search, link.pd_hz, link.cb, link.model, m_max)
        records.append({"op": "oracle", "s": t_search, "link": link, "out": search, "error": err,
                        "lattice": query[1] if query else None, "m_max": m_max, "key": key})
        narrow, t_narrow, err = _timed(core.rate_fixed_bandwidth, link.pd_hz,
                                       link.pd_hz / NARROW_RHO, link.cb, link.model)
        records.append({"op": "narrow", "s": t_narrow, "link": link, "out": narrow, "error": err})
    return records


def metrics(records):
    gains = [r["out"][0].rate_bps - r["out"][2].rate_bps for r in records
             if r["op"] == "query" and r["panel"] and r["round"] == 0 and r["out"]]
    query = minima(records, lambda r: r["key"], lambda r: r["op"] == "query")
    search = minima(records, lambda r: r["key"], lambda r: r["op"] == "oracle")
    return {
        "light_op_ms": 1e3 * statistics.mean(query.values()),
        "heavy_op_s": statistics.mean(search.values()),
        "gain_mbps": sum(gains) / len(gains) / 1e6 if gains else math.nan,
    }


def _rel(a, b):
    return abs(a / b - 1.0)


def _lattice_ok(point, link, problems, what):
    m = point.w_hz / link.bc_hz
    if abs(m - round(m)) > 1e-9 * m or round(m) < 1:
        problems.append(f"{what}: W = {point.w_hz} is not a positive multiple of Bc")
    if not 1 <= point.pilot_count <= max(1, math.ceil(link.lc) - 1):
        problems.append(f"{what}: pilot count {point.pilot_count} out of range")


def check(records, oracle, state):
    """Failed-operation count and property violations of the rest."""
    failed, problems = 0, []
    for rec in records:
        link, out = rec["link"], rec["out"]
        tag = f"{rec['op']} ({link.kind}, lc={link.lc:.6g})"
        if rec["error"]:
            failed += 1
            continue
        fading = oracle.Fading(link.kind, link.atoms)

        def rate(point):
            return float(oracle.lattice_rate(fading, link.pd_hz, point.w_hz,
                                             point.alpha * link.lc, link.lc))

        if rec["op"] == "query":
            op, lattice, fixed = out
            if max(_rel(p.rate_bps, rate(p)) for p in out) > RATE_TOL:
                failed += 1
                continue
            r_w, r_alpha = oracle.residuals(fading, op.rho, op.alpha, link.lc)
            if abs(r_w) > 1e-7 or abs(r_alpha) > 1e-9:
                problems.append(f"{tag}: residuals r_w={r_w:.3e} r_alpha={r_alpha:.3e}")
            double = core.solve_continuous(2.0 * link.pd_hz, link.cb, link.model)
            if (_rel(double.w_hz, 2.0 * op.w_hz) > 1e-9 or _rel(double.rho, op.rho) > 1e-9
                    or _rel(double.alpha, op.alpha) > 1e-9):
                problems.append(f"{tag}: doubling Pr/N0 does not scale W* alone")
            _lattice_ok(lattice, link, problems, tag)
            for point in (lattice, fixed):
                if point.rate_bps > op.rate_bps * (1.0 + 1e-9):
                    problems.append(f"{tag}: a lattice rate exceeds the continuous optimum")
        elif rec["op"] == "oracle":
            if _rel(out.rate_bps, rate(out)) > RATE_TOL:
                failed += 1
                continue
            _lattice_ok(out, link, problems, tag)
            if "maximum_at_edge" in out.flags:
                problems.append(f"{tag}: maximum_at_edge at m_max={rec['m_max']}")
            if rec["lattice"] is not None:
                gap = out.rate_bps / rec["lattice"].rate_bps - 1.0
                if not -1e-12 <= gap < 5e-3:
                    problems.append(f"{tag}: exhaustive-lattice gap {gap:.3e}")
            m = round(out.w_hz / link.bc_hz)
            gain = oracle.neighbour_gain(fading, link.pd_hz, link.bc_hz, m, out.pilot_count,
                                         link.lc, rate(out))
            if gain > 1e-9:
                problems.append(f"{tag}: a lattice neighbour beats the winner by {gain:.3e}")
        else:
            if _rel(out.rate_bps, rate(out)) > RATE_TOL:
                failed += 1
                continue
            if not 1 <= out.pilot_count <= max(1, math.ceil(link.lc) - 1):
                problems.append(f"{tag}: pilot count {out.pilot_count} out of range")
    return failed, problems
