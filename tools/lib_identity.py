"""Check that two source trees give the same `maxbw` library results.

    python3 tools/lib_identity.py PARENT_DIR CHANGE_DIR

Each directory is a checkout of this repository. The script runs one seeded
panel against each tree's `src` in a subprocess, with no bytecode written,
and compares the results call by call. For each function it prints how many
results are identical, how many reach the same point with other rate bits
(and the largest relative difference among those), and how many reach a
different point, listing both results of each. It exits 1 if any result
lies at a different point, else 0.

The panel, drawn with `random.Random` from fixed seeds, so that it does not
depend on either tree:
- LINKS links, a third each Rayleigh, deterministic and a 32-atom
  tabulated law, with Lc log-uniform in 2-1e5 (about 70% at most 4097),
  Pr/N0 in 1e5-1e10 Hz, and W*/Bc log-uniform in 0.3-100 from the
  large-Lc closed form for rho*. Each link calls `solve_continuous`,
  `rate_fixed_bandwidth` at 1 GHz, `discretize` on the continuous optimum,
  and `exhaustive_search` with m_max = max(4, 2 ceil(W*/Bc)).
- WIDE more `rate_fixed_bandwidth` calls per link, from a stream of their
  own, cycling through the three laws: the per-symbol SNR rho log-uniform
  in 1e-20-1e12, Lc in 2-1e8 and W in 1e5-1e10 Hz.
- PAIRS `allocate_pair` calls, and GROUPS `allocate_group` calls on three,
  four and five users in turn, nine groups of each size in a row, so that
  the greedy's choice of pairs is tested past three users. Both cycle
  through the three laws and objectives, with Lc in 1e2-1e4, Bc in
  0.1-3 MHz, each user's baseline bandwidth 5-200 Bc, Pt = 1 W and gains
  log-normal around 75 dB(Hz/W) with sigma 8 dB. A third
  of the pairs, one in each law and each objective per nine, take Lc in
  1e5-1e7 instead: there the pilot guide misses by two counts or more on
  part of the rho axis, and the guided search hands those rates off to the
  slope search of `rate_fixed_bandwidth`.

A point is what a call chose: the bandwidth and pilot ratio of the
continuous optimum, the pilot count at a fixed bandwidth, the (m, n) step
and pilot count of a lattice result with its flags, or every user's power,
bandwidth and pilot count with an allocation's flags. The rates are the
rate of a single link, or an allocation's objective and baseline values
and every user's rate and baseline.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

LINKS, PAIRS, GROUPS = 600, 120, 30
WIDE = 3
LAWS = ("rayleigh", "deterministic", "tabulated")
FUNCTIONS = ("solve_continuous", "rate_fixed_bandwidth", "discretize", "exhaustive_search",
             "allocate_pair", "allocate_group")


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _atoms():
    rng = random.Random(20171)
    values = sorted(rng.gammavariate(1.5, 1.0) for _ in range(32))
    mean = sum(values) / len(values)
    return [(v / mean, 1.0 / 32) for v in values]


def panel(links, pairs, groups):
    """The results of every call of the panel, by function, as lists of
    [point, rates]; run inside the tree under test."""
    from maxbw import allocate, core
    from maxbw.fading import FadingModel

    models = {"rayleigh": FadingModel.rayleigh(), "deterministic": FadingModel.deterministic(),
              "tabulated": FadingModel.tabulated(_atoms())}
    kurtosis = {kind: model.kurtosis() for kind, model in models.items()}
    out = {name: [] for name in FUNCTIONS}

    def lattice(op, bc):
        return [round(op.w_hz / bc), op.pilot_count, list(op.flags)], [op.rate_bps]

    rng = random.Random(1501)
    for i in range(links):
        kind = LAWS[i % 3]
        fading, lc = models[kind], _log_uniform(rng, 2.0, 1e5)
        pd = _log_uniform(rng, 1e5, 1e10)
        w_star = pd / (4.0 / (kurtosis[kind] ** 2 * lc)) ** (1.0 / 3.0)
        steps = _log_uniform(rng, 0.3, 100.0)
        cb = core.CoherenceBlock(lc=lc, bc_hz=w_star / steps)
        op = core.solve_continuous(pd, cb, fading)
        out["solve_continuous"].append([[op.w_hz, op.alpha, list(op.flags)], [op.rate_bps]])
        fixed = core.rate_fixed_bandwidth(pd, 1e9, cb, fading)
        out["rate_fixed_bandwidth"].append([[fixed.pilot_count], [fixed.rate_bps]])
        out["discretize"].append(lattice(core.discretize(op, cb, pd, fading), cb.bc_hz))
        m_max = max(4, 2 * math.ceil(steps))
        out["exhaustive_search"].append(
            lattice(core.exhaustive_search(pd, cb, fading, m_max), cb.bc_hz))

    rng = random.Random(1701)
    for i in range(WIDE * links):
        fading, lc = models[LAWS[i % 3]], _log_uniform(rng, 2.0, 1e8)
        rho, w = _log_uniform(rng, 1e-20, 1e12), _log_uniform(rng, 1e5, 1e10)
        fixed = core.rate_fixed_bandwidth(rho * w, w, core.CoherenceBlock(lc=lc), fading)
        out["rate_fixed_bandwidth"].append([[fixed.pilot_count], [fixed.rate_bps]])

    def allocation(alloc):
        point = [[e.p_w, e.w_hz, e.pilot_count] for e in alloc.entries] + [list(alloc.flags)]
        rates = [alloc.objective_value, alloc.baseline_value]
        return point, rates + [x for e in alloc.entries for x in (e.rate_bps, e.baseline_bps)]

    rng = random.Random(1601)
    for i in range(pairs + groups):
        name, size = (("allocate_pair", 2) if i < pairs
                      else ("allocate_group", 3 + (i - pairs) // 9 % 3))
        large = i < pairs and (i + i // 3) % 3 == 0
        lc = _log_uniform(rng, 1e5, 1e7) if large else _log_uniform(rng, 1e2, 1e4)
        bc = _log_uniform(rng, 1e5, 3e6)
        cb, fading = core.CoherenceBlock(lc=lc, bc_hz=bc), models[LAWS[i % 3]]
        users = [allocate.UserLink(gain_hz_per_watt=10.0 ** ((75.0 + rng.gauss(0.0, 8.0)) / 10.0),
                                   pt_w=1.0, w0_hz=_log_uniform(rng, 5.0, 200.0) * bc, cb=cb,
                                   fading=fading) for _ in range(size)]
        objective = allocate.OBJECTIVES[(i // 3) % 3]
        alloc = (allocate.allocate_pair(*users, objective) if size == 2
                 else allocate.allocate_group(users, objective))
        out[name].append(allocation(alloc))
    return out


def run(tree, links=LINKS, pairs=PAIRS, groups=GROUPS):
    """The panel's results against tree's src, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--panel", str(links),
                          str(pairs), str(groups)], env=env, capture_output=True, text=True,
                         timeout=3600, check=True)
    return json.loads(out.stdout)


def _relative(a, b):
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def compare(old, new):
    """Per function: (identical, same point with other rate bits, the largest
    relative difference among those, indices at a different point)."""
    report = {}
    for name in FUNCTIONS:
        same = bits = 0
        worst, moved = 0.0, []
        for i, ((p0, r0), (p1, r1)) in enumerate(zip(old[name], new[name])):
            if p0 != p1:
                moved.append(i)
            elif r0 == r1:
                same += 1
            else:
                bits += 1
                worst = max(worst, *(_relative(a, b) for a, b in zip(r0, r1)))
        report[name] = (same, bits, worst, moved)
    return report


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 4 and args[0] == "--panel":
        json.dump(panel(*map(int, args[1:])), sys.stdout)
        return 0
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = run(args[0]), run(args[1])
    report = compare(old, new)
    for name, (same, bits, worst, moved) in report.items():
        print(f"{name}: {same} identical, {bits} at the same point with other rate bits "
              f"(largest relative difference {worst:.2g}), {len(moved)} at a different point")
        for i in moved:
            print(f"    case {i}: {old[name][i]} -> {new[name][i]}")
    return 1 if any(moved for *_, moved in report.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
