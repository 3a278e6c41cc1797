"""Multi-user bandwidth and power reallocation with a no-regression guarantee.

Users start from an equal-split baseline (own power budget Pt, own bandwidth
budget W0, pilot overhead optimized). Reallocation may move power and
bandwidth between users subject to the pooled budgets and to the rule that
nobody ends below their baseline rate. Bandwidth lives on each user's
coherence lattice; power is searched on a dB grid, coarse pass then refined.

One pairwise greedy, allocate_group, serves every user count k >= 2, and
allocate_pair is it on two users.

The weak user is the first of least gain and the strong user the last of
greatest: of two equal gains the first user is weak and the second strong.
Every search and every reported objective judge by that rule (_objective).

Each call of the candidate pass builds all of its candidates in one array
pass over power offsets, bandwidth caps and lattice steps. It rules out each
candidate where an upper bound on a user's rate (_rate_bound) falls short
of that user's baseline, and scores the rest in one _rates_flat call: one
vectorized search per coherence length and fading law, both users' points
together, on each distinct (rho, W) once. A point's count and rate have the
same bits in any call, so the pass picks what scoring every candidate alone
would. Of candidates with equal values the pass picks the first in the
order they are built, as the pilot searches give ties to the lower count.
The search is core._guided_pilots: from a cached argmax guide of
each coherence length and law, one five-count probe per point, and a point
whose probe cannot certify its count hands off to core._best_pilots, the
slope search. It is the only scoring path: the baselines and every
reported entry take their counts and rates from it, so feasibility is an
exact rate >= baseline. The public fixed_bandwidth_rate, the scalar slope
search, gives rates within a few ulps of it and the same counts up to
Lc = 1e7; above it the two can pick counts within core.PILOT_RTOL of each
other.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from . import core
from ._frozen import Frozen
from ._lazy import LazyNumpy
from .core import MAX_STRONG, MAX_WEAK, OBJECTIVES, SUM_RATE, CoherenceBlock
from .errors import ConfigError, read_numeric_rows
from .fading import FadingModel
from .linkbudget import db_to_linear

np = LazyNumpy(globals())

_REL_IMPROVE = 1e-6
_OFFSET_LO_DB = -20.0
# lattice step counts stay exact floats and fit an int
_MAX_STEPS = 2.0 ** 53


class UserLink(Frozen):
    """One user's channel and baseline budget.

    gain_hz_per_watt: combined channel gain referenced to the noise density,
    (Pr/N0)/Pt, so pd = gain * transmit power. Includes path loss, antenna
    and beamforming gains, and the receiver noise figure.
    """

    __slots__ = ("gain_hz_per_watt", "pt_w", "w0_hz", "cb", "fading")

    def __init__(self, gain_hz_per_watt: float, pt_w: float, w0_hz: float, cb: CoherenceBlock,
                 fading: FadingModel):
        for name, value in (("gain", gain_hz_per_watt), ("baseline power", pt_w),
                            ("baseline bandwidth", w0_hz)):
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if cb.bc_hz is None:
            raise ValueError("allocation needs coherence blocks with bc_hz set")
        if not w0_hz / cb.bc_hz <= _MAX_STEPS:
            raise ValueError(f"baseline bandwidth must be at most 2**53 coherence bandwidths "
                             f"of {cb.bc_hz} Hz, got {w0_hz}")
        Frozen.__init__(self, gain_hz_per_watt, pt_w, w0_hz, cb, fading)

    def pd_hz(self, p_w: float) -> float:
        return self.gain_hz_per_watt * p_w


class AllocationEntry(Frozen):
    __slots__ = ("p_w", "w_hz", "rate_bps", "pilot_count", "baseline_bps")

    def __init__(self, p_w: float, w_hz: float, rate_bps: float, pilot_count: Optional[int],
                 baseline_bps: float):
        Frozen.__init__(self, p_w, w_hz, rate_bps, pilot_count, baseline_bps)


class Allocation(Frozen):
    __slots__ = ("entries", "objective", "objective_value", "baseline_value", "flags")

    def __init__(self, entries: Tuple[AllocationEntry, ...], objective: str,
                 objective_value: float, baseline_value: float, flags: Tuple[str, ...] = ()):
        Frozen.__init__(self, entries, objective, objective_value, baseline_value, flags)


def fixed_bandwidth_rate(user: UserLink, p_w: float, w_hz: float) -> core.OperatingPoint:
    """Rate at pinned power and bandwidth, integer pilot count optimized:
    core.rate_fixed_bandwidth at the user's Pr/N0."""
    return core.rate_fixed_bandwidth(user.pd_hz(p_w), w_hz, user.cb, user.fading)


def _baseline_entries(users: Sequence[UserLink]) -> List[AllocationEntry]:
    """Each user at its own (Pt, W0) with only the pilots optimized, all in
    one _rates_flat call, so in the candidate pass's arithmetic. Pr/N0 and
    the per-symbol SNR are refused as core.rate_fixed_bandwidth refuses them."""
    if not users:
        raise ValueError("need at least one user")
    for u in users:
        core._fixed_rho(core._pd_hz(u.pd_hz(u.pt_w)), u.w0_hz)
    scored = _rates_flat(users, [(np.array([u.pt_w]), np.array([u.w0_hz])) for u in users])
    return [AllocationEntry(p_w=u.pt_w, w_hz=u.w0_hz, rate_bps=float(r[0]),
                            pilot_count=int(n[0]), baseline_bps=float(r[0]))
            for u, (n, r) in zip(users, scored)]


def baseline_rates(users: Sequence[UserLink]) -> List[float]:
    """Each user's rate at its own (Pt, W0) with only the pilots optimized,
    by the allocation layer's search (_baseline_entries)."""
    return [e.rate_bps for e in _baseline_entries(users)]


def _rates_flat(users: Sequence[UserLink], points) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Best pilot counts and their rates of each user at its own points, a
    (powers, bandwidths) pair of arrays per user, as one (counts, rates) pair
    of arrays per user. The users of one coherence length and fading law
    share one _guided_pilots call, which searches each distinct (rho, W)
    among their points once, in _distinct's sorted order: a user's point
    depends on its power and bandwidth through rho = g p / W and W alone,
    and a point's bits do not depend on what else is in its call."""
    groups = {}
    for i, user in enumerate(users):
        groups.setdefault((user.cb.lc, user.fading), []).append(i)
    scored = [None] * len(users)
    for (lc, fading), members in groups.items():
        rho = np.concatenate([users[i].gain_hz_per_watt * points[i][0] / points[i][1]
                              for i in members])
        w = np.concatenate([points[i][1] for i in members])
        first, back = _distinct(rho, w)
        counts, rates = (v[back] for v in core._guided_pilots(rho[first], w[first], lc, fading))
        for i in members:
            n = points[i][1].size
            scored[i], counts, rates = (counts[:n], rates[:n]), counts[n:], rates[n:]
    return scored


def _distinct(rho, w):
    """np.unique(rho + 1j * w, return_index=True, return_inverse=True)[1:]:
    the indices of the distinct points (rho, W), in the complex key's sorted
    order, and each point's position among them. Both floats enter the key
    unchanged, so equal keys are equal points; a stable sort keeps each run
    of equal keys at its first."""
    key = np.empty(rho.size, complex)
    key.real, key.imag = rho, w
    order = key.argsort(kind="stable")
    new = _run_starts(key[order])
    back = np.empty(key.size, int)
    back[order] = new.cumsum()
    back -= 1
    return order[new], back


def _rate_bound(user: UserLink, p_w: np.ndarray, w_hz: np.ndarray) -> np.ndarray:
    """An upper bound on the user's lattice rates at powers p_w and
    bandwidths w_hz: the lesser of solve_continuous's rate, the best over
    every bandwidth and pilot ratio, which is linear in the power, and the
    rate with the channel known, W log2(1 + pd/W), which no estimate beats
    (Jensen's inequality on a unit-mean law)."""
    rho, alpha, _, e_log1p = core._solve_rho_on_curve(user.cb.lc, user.fading)
    pd = user.gain_hz_per_watt * p_w
    return np.minimum(core._rate_product(alpha, pd / rho, e_log1p),
                      w_hz * np.log1p(pd / w_hz) * core.LOG2E)


def _cap_steps(user: UserLink, p_w):
    """Upper lattice step count worth considering at power p_w, a float or an
    array: the ceil of the continuous bandwidth optimum pd/rho*, in the
    operations of solve_continuous. The candidate pass gives the strong user
    this or one less, clipped to the budget, which is near its lattice argmax
    but not always on it: at 90 dB-Hz, Lc = 1000 and Bc = 0.1 MHz the cap is
    84,563 steps and the argmax 84,819, with a rate 7e-7 higher.
    A float, clipped to 2**53, up to which every step count is exact: a
    larger cap exceeds every budget. Pr/N0 is checked as core.PowerDensity
    does."""
    pd = user.gain_hz_per_watt * np.asarray(p_w, dtype=float)
    # a NaN or nonpositive minimum fails, else the maximum decides; no empty minimum
    if pd.size:
        core._pd_hz(float(pd.max() if pd.min() > 0.0 else pd.min()))
    rho = core._solve_rho_on_curve(user.cb.lc, user.fading)[0]
    return np.minimum(np.maximum(np.ceil(pd / rho / user.cb.bc_hz - 1e-9), 1.0), _MAX_STEPS)


def _power_offsets(step: float, hi_db: float) -> np.ndarray:
    """Power offsets in dB from _OFFSET_LO_DB up to hi_db, step apart, with
    0.0 and hi_db added: the baseline power and the full-budget corner must
    be reachable exactly. Ascending, each value once: np.unique's grid,
    without its call overhead or its import of numpy.ma."""
    grid = np.concatenate([np.arange(_OFFSET_LO_DB, hi_db + 1e-12, step), [0.0, hi_db]])
    grid.sort()
    return grid[_run_starts(grid)]


def _fine_offsets(center_db: float, hi_db: float) -> np.ndarray:
    """The refine pass's offsets: 0.1 dB apart within 1 dB of center_db,
    clipped to [_OFFSET_LO_DB, hi_db], ascending, each value once."""
    fine = np.maximum(center_db + np.arange(-1.0, 1.0 + 1e-12, 0.1), _OFFSET_LO_DB)
    np.minimum(fine, hi_db, out=fine)
    return fine[_run_starts(fine)]


def _run_starts(ascending):
    """Marks each element of a sorted array that differs from the one before."""
    new = np.empty(ascending.size, bool)
    new[:1] = True
    np.not_equal(ascending[1:], ascending[:-1], out=new[1:])
    return new


def _segment(lo: np.ndarray, hi: np.ndarray, max_points: int):
    """Lattice steps from lo >= 1 to hi, one row per element of lo and hi:
    every step when there are at most max_points, else
    np.linspace(lo, hi, max_points).round(), and lo alone when hi <= lo.

    Returns (steps, mask) of shape (rows, max_points), the steps as floats;
    mask marks the steps that exist, ascending along each row.
    """
    j = np.arange(max_points)
    span = hi - lo
    steps = lo[:, None] + j
    mask = j <= np.maximum(span, 0.0)[:, None]
    spread = span >= max_points
    if np.count_nonzero(spread):
        # linspace's operations, j * step + lo. Its last point misses hi by a
        # few ulps where linspace sets hi itself, which rint removes. The
        # steps lie more than one apart, so rounding leaves no duplicate.
        wide = j * (span[spread, None] / (max_points - 1)) + lo[spread, None]
        steps[spread] = np.rint(wide, out=wide)
    return steps, mask


def _candidates(weak: UserLink, strong: UserLink, p_budget: float, w_budget: float,
                offsets_db: np.ndarray, m_center: Optional[int] = None):
    """The candidate pass's candidates over a power-offset grid, or None.

    Candidates are (p_weak, w_weak, p_strong, w_strong) with both bandwidths
    on their lattices, w_strong taking what the budget leaves up to its own
    beneficial maximum. They are built in one array pass over (offset,
    strong cap, weak step), in that order. Step counts stay exact floats.

    Returns the four candidate vectors. A user's point can recur among the
    candidates; _rates_flat searches each distinct one once.
    """
    bc_w, bc_s = weak.cb.bc_hz, strong.cb.bc_hz
    # one scalar power per offset: numpy's array power can differ in the last bit
    powers = (weak.pt_w * db_to_linear(off) for off in offsets_db)
    p_w = np.array([p for p in powers if p_budget - p > 0.0])
    p_s = p_budget - p_w
    cap_w = _cap_steps(weak, p_w)
    cap_s = _cap_steps(strong, p_s)
    # each W0 is at most 2**53 of its own user's Bc, but the pair budget in
    # the other user's steps need not be: clip it like the caps. Every cap
    # is at least 1, so a budget of at least one step keeps every offset.
    m_budget = int(min((w_budget - bc_s) // bc_w, _MAX_STEPS))
    if m_budget < 1 or not p_w.size:
        return None
    m_hi = np.minimum(cap_w, m_budget)

    if m_center is None:
        lo, hi, k = 1, m_hi, 24
    else:
        # unit-stride polish window around the incumbent split
        lo, hi, k = max(1, m_center - 12), np.minimum(m_hi, m_center + 12), 25
    # where both caps fit the budget, only cap_w - 1 and cap_w are tried; m_hi
    # is then cap_w, or cap_w - 1 where the budget test rounds the other way
    fits = cap_w * bc_w + cap_s * bc_s <= w_budget
    ms, mask = _segment(np.where(fits, np.maximum(cap_w - 1.0, 1.0), lo), np.where(fits, m_hi, hi), k)

    w_w = ms * bc_w
    # unclipped: n_s takes the lesser of this and a cap, which is at most 2**53
    avail = (w_budget - w_w) // bc_s
    # the strong user takes cap_s - 1 or cap_s, lower first (see _cap_steps);
    # a step it can take leaves it both a cap and a bandwidth of at least one
    n_s = np.minimum(cap_s[:, None, None] - np.array([[1.0], [0.0]]), avail[:, None, :])
    valid = (n_s >= 1.0) & mask[:, None, :]
    row, _, col = valid.nonzero()
    if not row.size:
        return None
    return p_w[row], w_w[row, col], p_s[row], n_s[valid] * bc_s


def _best_over_offsets(weak: UserLink, strong: UserLink, p_budget: float, w_budget: float,
                       base_weak: float, base_strong: float, objective: str,
                       offsets_db: np.ndarray, m_center: Optional[int] = None):
    """The best feasible candidate of _candidates as (value, weak entry,
    strong entry), or None.

    A candidate is kept where both users' _rate_bound, with a 1e-9 margin,
    reach their baselines; any other could not be feasible. The kept
    candidates' points go to one _rates_flat call, both users', and a
    candidate is feasible where each user's rate reaches its baseline,
    scored in the same arithmetic. Ties go to the first best feasible
    candidate in _candidates' order: the lower power offset, then the
    strong user's cap - 1 before its cap, then the weak user's lower step.
    A candidate ruled out could not be feasible, so the pick is that of
    scoring every candidate.
    """
    cands = _candidates(weak, strong, p_budget, w_budget, offsets_db, m_center)
    if cands is None:
        return None
    p_w, w_w, p_s, w_s = cands
    kept = ((_rate_bound(weak, p_w, w_w) * (1.0 + 1e-9) >= base_weak)
            & (_rate_bound(strong, p_s, w_s) * (1.0 + 1e-9) >= base_strong)).nonzero()[0]
    if not kept.size:
        return None
    points = [(p_w[kept], w_w[kept]), (p_s[kept], w_s[kept])]
    scored = _rates_flat((weak, strong), points)
    (_, r_w), (_, r_s) = scored
    feasible = (r_w >= base_weak) & (r_s >= base_strong)
    if not np.count_nonzero(feasible):
        return None
    vals = np.where(feasible, _objective([weak.gain_hz_per_watt, strong.gain_hz_per_watt],
                                         [r_w, r_s], objective), -np.inf)
    j = int(vals.argmax())
    return (float(vals[j]),
            *(AllocationEntry(p_w=float(p[j]), w_hz=float(w[j]), rate_bps=float(r[j]),
                              pilot_count=int(n[j]), baseline_bps=base)
              for (p, w), (n, r), base in zip(points, scored, (base_weak, base_strong))))


def _allocate_pair_budget(u1: UserLink, u2: UserLink, p_budget: float, w_budget: float,
                          seed1: AllocationEntry, seed2: AllocationEntry, objective: str
                          ) -> Tuple[AllocationEntry, AllocationEntry, Tuple[str, ...]]:
    """seed1, seed2: the users' baseline entries; the baseline split is always
    feasible and seeds the search. Each pass's best candidate becomes the
    incumbent where its value beats the incumbent's."""
    weak_first = u1.gain_hz_per_watt <= u2.gain_hz_per_watt  # _objective's weak and strong
    weak, strong = (u1, u2) if weak_first else (u2, u1)
    best_weak, best_strong = (seed1, seed2) if weak_first else (seed2, seed1)
    base_weak, base_strong = best_weak.baseline_bps, best_strong.baseline_bps
    best_val = _objective([weak.gain_hz_per_watt, strong.gain_hz_per_watt],
                          [best_weak.rate_bps, best_strong.rate_bps], objective)

    def incumbent_db():
        return 10.0 * math.log10(best_weak.p_w / weak.pt_w)

    hi_db = 10.0 * math.log10(p_budget / weak.pt_w)

    def consider(offsets_db, m_center=None):
        nonlocal best_val, best_weak, best_strong
        best = _best_over_offsets(weak, strong, p_budget, w_budget, base_weak, base_strong,
                                  objective, offsets_db, m_center)
        if best is not None and best[0] > best_val:
            best_val, best_weak, best_strong = best

    consider(_power_offsets(1.0, hi_db))

    # refine the power split to 0.1 dB around the incumbent, still scanning
    # the full bandwidth segment: the best split can sit on the feasibility
    # boundary far from the coarse winner's bandwidth
    consider(_fine_offsets(incumbent_db(), hi_db))

    # unit-stride bandwidth polish at the winning power split
    consider(np.array([incumbent_db()]), m_center=max(1, round(best_weak.w_hz / weak.cb.bc_hz)))

    flags: Tuple[str, ...] = ()
    if best_weak.p_w != weak.pt_w or best_weak.w_hz != weak.w0_hz:
        off_db = incumbent_db()
        if off_db <= _OFFSET_LO_DB + 0.05 or off_db >= hi_db - 0.05:
            flags = flags + ("power_grid_edge",)

    e1, e2 = (best_weak, best_strong) if weak_first else (best_strong, best_weak)
    return e1, e2, flags


def allocate_pair(u1: UserLink, u2: UserLink, objective: str) -> Allocation:
    """Two-user reallocation of pooled power and bandwidth: allocate_group([u1, u2])."""
    return allocate_group([u1, u2], objective)


def _check_objective(objective: str) -> None:
    if objective not in OBJECTIVES:
        raise ConfigError(f"unknown objective {objective!r}; valid: {OBJECTIVES}")


def _objective(gains, rates, objective: str):
    """The weak user's rate (max-weak), the strong user's (max-strong) or the
    sum of the rates, floats or arrays; weak and strong as the module says."""
    if objective == MAX_WEAK:
        return rates[min(range(len(gains)), key=gains.__getitem__)]
    if objective == MAX_STRONG:
        return rates[max(reversed(range(len(gains))), key=gains.__getitem__)]
    return sum(rates)


def _allocation(users, entries, seeds, objective: str, flags) -> Allocation:
    gains = [u.gain_hz_per_watt for u in users]
    return Allocation(
        entries=tuple(entries),
        objective=objective,
        objective_value=_objective(gains, [e.rate_bps for e in entries], objective),
        baseline_value=_objective(gains, [e.rate_bps for e in seeds], objective),
        flags=flags,
    )


def allocate_group(users: Sequence[UserLink], objective: str) -> Allocation:
    """Greedy pairwise reallocation for k >= 2 users, and for two (allocate_pair).

    Each round re-solves, in the order i < j, the pairs that can move the
    objective: under max-weak (max-strong) those holding the weak (strong)
    user, under sum every pair. A pair is solved over its currently held
    resources by a power grid (1 dB, then 0.1 dB around the winner) times
    the bandwidth lattice, fairness judged against the original baselines,
    and its move is accepted only when the objective improves by more than
    1e-6 relative. Rounds stop when none is, after at most 20. Weak and
    strong are as the module says, in the group and in each pair. A
    heuristic, but it starts from the baseline, so the result can never be
    worse than no reallocation.
    """
    _check_objective(objective)
    users = list(users)
    if len(users) < 2:
        raise ValueError("allocation needs at least two users")
    seeds = _baseline_entries(users)
    entries = list(seeds)
    flags: Tuple[str, ...] = ()
    gains = [u.gain_hz_per_watt for u in users]
    current = _objective(gains, [e.rate_bps for e in entries], objective)
    pairs = [(i, j) for i in range(len(users)) for j in range(i + 1, len(users))]
    if objective != SUM_RATE:
        target = _objective(gains, range(len(users)), objective)  # the weak or strong user
        pairs = [pair for pair in pairs if target in pair]
    # a pair's solve depends only on the pair and its budgets: a repeat is
    # looked up, not solved again
    solved = {}
    for _round in range(20):
        improved = False
        for i, j in pairs:
            p_budget = entries[i].p_w + entries[j].p_w
            w_budget = entries[i].w_hz + entries[j].w_hz
            key = (i, j, p_budget, w_budget)
            if key not in solved:
                solved[key] = _allocate_pair_budget(
                    users[i], users[j], p_budget, w_budget,
                    seeds[i], seeds[j], objective,
                )
            ei, ej, pair_flags = solved[key]
            trial = list(entries)
            trial[i], trial[j] = ei, ej
            value = _objective(gains, [e.rate_bps for e in trial], objective)
            if value > current * (1.0 + _REL_IMPROVE):
                entries = trial
                current = value
                improved = True
                flags = tuple(sorted(set(flags + pair_flags)))
        if not improved:
            break

    return _allocation(users, entries, seeds, objective, flags)


def check_allocation(users: Sequence[UserLink], alloc: Allocation) -> None:
    """Raise AssertionError unless there is one entry per user and budgets,
    fairness, and no-harm all hold; raised explicitly, so it checks under -O."""
    p_budget = sum(u.pt_w for u in users)
    w_budget = sum(u.w0_hz for u in users)
    p_sum = sum(e.p_w for e in alloc.entries)
    w_sum = sum(e.w_hz for e in alloc.entries)
    problems = []
    if len(alloc.entries) != len(users):
        problems.append(f"{len(alloc.entries)} entries for {len(users)} users")
    if not p_sum <= p_budget * (1.0 + 1e-9):
        problems.append(f"power budget violated: {p_sum} > {p_budget}")
    if not w_sum <= w_budget * (1.0 + 1e-9):
        problems.append(f"bandwidth budget violated: {w_sum} > {w_budget}")
    problems += [f"user {idx} below baseline: {entry.rate_bps} < {entry.baseline_bps}"
                 for idx, entry in enumerate(alloc.entries)
                 if not entry.rate_bps >= entry.baseline_bps * (1.0 - 1e-12)]
    if not alloc.objective_value >= alloc.baseline_value * (1.0 - 1e-12):
        problems.append("objective regressed")
    if problems:
        raise AssertionError("; ".join(problems))


def synthetic_gains(k: int, median_db: float, sigma_db: float, seed: int) -> List[float]:
    """Log-normal demo gains in Hz/W; synthetic, not drawn from any deployment data."""
    rng = np.random.default_rng(seed)
    return [db_to_linear(median_db + sigma_db * z) for z in rng.standard_normal(k)]


def load_users_csv(path, cb: CoherenceBlock, fading: FadingModel) -> List[UserLink]:
    """Users from CSV rows (gain_dB, Pt_dBm, W0_Hz); header optional.

    gain_dB is the combined channel gain over noise density in dB(Hz/W).
    """
    users = [
        UserLink(
            gain_hz_per_watt=db_to_linear(gain_db),
            pt_w=db_to_linear(pt_dbm - 30.0),
            w0_hz=w0_hz,
            cb=cb,
            fading=fading,
        )
        for gain_db, pt_dbm, w0_hz in read_numeric_rows(path, 3, "user")
    ]
    if not users:
        raise ConfigError(f"no users parsed from {path}")
    return users
