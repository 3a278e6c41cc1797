"""Record the `maxbw` outputs that tests/test_snapshot.py checks.

    PYTHONPATH=src python3 tools/snapshot.py

writes tests/snapshot.jsonl from the `maxbw` that Python imports. Its first
line holds the Python and numpy versions, since the rates' last bits depend
on numpy's exp and log, and the SIMD targets numpy dispatches to on this
CPU, since the array paths' last bits depend on those too: with AVX-512
turned off (NPY_DISABLE_CPU_FEATURES), 101 library records move in their
last bits, and 6 `_best_pilots` records at Lc = 1e11 and 2**53 move to a
count of near-equal rate. Then comes one record per CLI command, with its
argv, exit code, stdout and stderr, and one per library result, with the
function, the case number, the point the call chose and its rates. Floats
are written in JSON's exact repr. A change that moves an output on purpose
reruns this script and says in CHANGES.md why each moved record moved;
`git diff` shows them.

The commands run in this process through `cli.main`, in a temporary folder
that holds their input files, with COLUMNS = 80, to which argparse wraps its
help. Exit code, stdout and stderr are those of a fresh `python -m maxbw.cli`
process: a SystemExit gives its code, an escaping exception a traceback and
exit 1, and warnings go to stderr under a fresh process's filters.

The 192 commands: `optimize` in three formats with and without `--verify`, and
`baselines` in three formats, on all 7 presets; `sweep` in csv and json on
fig2, fig6a and fig6b; `presets list` and `presets verify`; `allocate` on
2-, 3- and 4-user tables over Rayleigh, deterministic and tabulated
channels, for every objective and format; `optimize --verify` and
`baselines` on a tabulated, a Rayleigh and a wide-link scenario;
`sweep --format json` on a tabulated and a deterministic scenario;
`optimize --verify --format json` on four links whose lattice maximum a
local climb misses, and on four link budgets: a rich-scattering array with
element power over free space, a partially combining array (kt = 16,
g1 = 8) by EIRP behind a blockage, a rich-scattering array by EIRP, which
the CLI refuses with exit 1, and a custom path-loss table with total
transmit power, total receive gain and g2 = 2; `optimize` on three links
whose lattice result carries a flag or takes a branch no other command
prints: a continuous optimum below one coherence bandwidth
(`bandwidth_floor`, with `--verify`), the same with every rate underflowed
(`bandwidth_floor;rate_underflow`) and Lc = 2 (with `--verify`); an
`allocate --objective max-strong` pair whose power split lands on the grid's
edge (`power_grid_edge`); `maxbw --help` and
`allocate --help`; and eighteen bad inputs that the CLI refuses with exit 1
and an `error:` line: dB values past a float (Pr/N0, a swept Pr/N0, an
EIRP, a user's gain and power), a CSV field past the reader's size limit
(users, fading atoms, path loss), a NaN coherence time or bandwidth, an
allocation objective that argparse does not offer, a NaN atom value or
weight in a fading table, a NaN or infinite loss and an infinite distance
in a path-loss table, and an infinite carrier frequency or distance.

The library panel, drawn with `random.Random` from fixed seeds:
- LINKS links, a third each Rayleigh, deterministic and a 32-atom
  tabulated law, with Lc log-uniform in 2-1e5 (about 70% at most 4097),
  Pr/N0 in 1e5-1e10 Hz, and W*/Bc log-uniform in 0.3-100 from the
  large-Lc closed form for rho*. Each link calls `solve_continuous`,
  `rate_fixed_bandwidth` at 1 GHz, `discretize` on the continuous optimum,
  and `exhaustive_search` with m_max = max(4, 2 ceil(W*/Bc)).
- 3 LATTICE_EDGES more `discretize` calls, on links drawn as the first
  panel's but from a stream of their own, past its W*/Bc range: W*/Bc
  log-uniform in 0.01-4, where counts peak below one coherence bandwidth;
  W*/Bc in 2^20-2^30, where `discretize` scores four bandwidth steps per
  count; and a Bc that puts W_n/Bc of the count `discretize` picks at an
  integer, or 1e-12 below or above it, for W_n/Bc up to about 1e3.
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
  1e5-1e7 instead. None of their points reaches the guided search's
  hand-off; the next panel does.
- The roots of the two cached solves under `solve_continuous` and
  `discretize`, as `float.hex`: `core._solve_rho_on_curve` at 40 Lc
  log-spaced in 2.5-1e6 and `core._solve_rho_fixed_pilots` at 35 pilot
  counts log-spaced in 1-1000, on Rayleigh, deterministic and a 64-atom
  tabulated law; then, on the same laws, the on-curve roots at Lc = 1e7,
  1e8, ..., 1e13 and the fixed-pilot roots at n = 1e4, 1e5, ..., 1e13,
  where rounding in the residual shows first.
- `core._guided_pilots`, the allocation layer's pilot search, on 200
  log-spaced rho in 1e-8-1e8 at W = 1 MHz, at Lc = 1e6 and 1e7 on the three
  laws of the first panel. There the pilot guide misses by two counts or
  more on part of the rho axis, and the search hands those points off to
  the slope search: 24 and 62 of the 200 on Rayleigh.
- `core._best_pilots`, the array slope search, on 213 log-spaced rho in
  1e-200-1e12 at W = 1 MHz, at Lc = 2.5, 2500, 1e6, 1e8, 1e11 and 2^53 on
  the three laws. The low end is the run of underflowed slopes down to
  count 1, and the large Lc are past the searches' exact range, where no
  other record reaches the array search.

A point is what a call chose: the bandwidth and pilot ratio of the
continuous optimum, the pilot count at a fixed bandwidth, the (m, n) step
and pilot count of a lattice result with its flags, or every user's power,
bandwidth and pilot count with an allocation's flags, or the law, Lc and
every count of a guided or slope search. The rates are the rate of a single
link, an allocation's objective and baseline values and every user's rate
and baseline, or a pilot search's rates.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import math
import os
import platform
import random
import sys
import tempfile
import traceback
import warnings
from unittest import mock

SNAPSHOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tests", "snapshot.jsonl")

PRESETS = ("abstract-28ghz", "abstract-39ghz", "fcc-28ghz", "fig2", "fig4-left",
           "fig6a", "fig6b")
FORMATS = ("text", "json", "csv")
OBJECTIVES = ("max-weak", "max-strong", "sum")
USERS = {
    "users2.csv": "gain_dB,Pt_dBm,W0_Hz\n68,30,100e6\n80,30,100e6\n",
    "users3.csv": "gain_dB,Pt_dBm,W0_Hz\n66,30,100e6\n74.5,27,150e6\n83,30,80e6\n",
    "users4.csv": "64,30,100e6\n71,30,100e6\n77,33,200e6\n85,30,100e6\n",
}
CHANNELS = ("rayleigh", "deterministic", "tabulated")
SCENARIOS = {
    "tabulated.scn": "pr_n0_dbhz = 80\ntc_ms = 1\nbc_mhz = 10\nfading = tabulated\n"
                     "fading_csv = atoms.csv\n",
    "rayleigh.scn": "pr_n0_dbhz = 75\ntc_ms = 2\nbc_mhz = 5\nfading = rayleigh\n",
    # W*/Bc is about 84 600: the lattice maximum lies far from the rounding cell
    "wide.scn": "pr_n0_dbhz = 90\nlc = 1000\nbc_mhz = 0.1\nfading = rayleigh\n",
    # links where a 3x3 climb from the rounding cell stops at a local maximum
    # of the lattice, (m, n) = (2, 65), (1, 2968) and (352, 29), below the
    # maxima (3, 77), (2, 4172) and (345, 28); on the fourth, W*/Bc is about
    # 3.2e6 and the climb stops at m = 3 014 413, short of m = 3 014 387
    "trap_lc779.scn": "pr_n0_dbhz = 51.26329683440778\nlc = 779.3169181237083\n"
                      "bc_mhz = 0.419673814584786\nfading = rayleigh\n",
    "trap_lc217862.scn": "pr_n0_dbhz = 52.21453417035026\nlc = 217862.6206052734\n"
                         "bc_mhz = 6.91459769641525\nfading = rayleigh\n",
    "trap_lc254.scn": "pr_n0_dbhz = 95.95827125915665\nlc = 254.37946218522276\n"
                      "bc_mhz = 41.18383305106454\nfading = deterministic\n",
    "trap_lc8.scn": "pr_n0_dbhz = 104.40909082065218\nlc = 8\nbc_mhz = 0.0103\n"
                    "fading = rayleigh\n",
    "sweep_tabulated.scn": "pr_n0_dbhz = 80\ntc_ms = 1\nbc_mhz = 10\nfading = tabulated\n"
                           "fading_csv = atoms.csv\nsweep = tc_ms\nsweep_start = 0.1\n"
                           "sweep_stop = 10\nsweep_points = 5\nsweep_spacing = log\n",
    "sweep_deterministic.scn": "pr_n0_dbhz = 80\ntc_ms = 1\nbc_mhz = 10\n"
                               "fading = deterministic\nsweep = pr_n0_dbhz\n"
                               "sweep_start = 60\nsweep_stop = 100\nsweep_points = 5\n",
}
# link budgets, one per way a budget reaches the gain pair and the density
BUDGETS = {
    "budget_rich_element.scn": "fc_ghz = 28\ndistance_m = 100\npt_element_dbm = 10\n"
                               "nt = 4\nnr = 4\ngain_model = rich\npathloss = freespace\n"
                               "tc_ms = 1\nbc_mhz = 10\nfading = rayleigh\n",
    "budget_partial_eirp.scn": "fc_ghz = 28\ndistance_m = 150\neirp_dbm = 52\n"
                               "gr_element_dbi = 3\nnt = 8\nnr = 2\nkt = 16\ng1 = 8\n"
                               "pathloss = blockedlos\ntc_ms = 5\nbc_mhz = 10\n"
                               "fading = deterministic\n",
    "budget_rich_eirp.scn": "fc_ghz = 28\ndistance_m = 100\neirp_dbm = 52\nnt = 4\nnr = 4\n"
                            "gain_model = rich\ntc_ms = 1\nbc_mhz = 10\n",
    "budget_custom_total.scn": "fc_ghz = 39\ndistance_m = 120\npt_total_dbm = 30\n"
                               "gr_total_dbi = 11\nnt = 4\nnr = 2\ng2 = 2\n"
                               "pathloss = custom\npathloss_csv = pathloss.csv\n"
                               "tc_ms = 2\nbc_mhz = 5\nfading = rayleigh\n",
}
# a field past the CSV reader's limit of 131 072 characters
_HUGE = "9" * 200_000
# inputs the CLI refuses with exit 1 and an `error:` line
BAD_USERS = {
    "users_gain_overflow.csv": "68,30,100e6\n4000,30,100e6\n",
    "users_pt_overflow.csv": "68,30,100e6\n80,4000,100e6\n",
    "users_huge_field.csv": "68,30,100e6\n80,30," + _HUGE + "\n",
}
# outputs that carry a flag, or take a branch, that no command above prints
EDGES = {
    "floor.scn": "pr_n0_dbhz = 60\nlc = 1000\nbc_mhz = 100\n",
    "underflow.scn": "pr_n0_dbhz = -2900\nlc = 1e6\nbc_mhz = 10\n",
    "lc2.scn": "pr_n0_dbhz = 80\nlc = 2\nbc_mhz = 1\n",
    "edge_channel.scn": "lc = 3930.5502709142665\nbc_mhz = 1.8615416238398044\n"
                        "fading = rayleigh\n",
    "users_edge.csv": "110.2636,12.7353,14338190\n83.2630,28.3248,455812340\n",
}
_ATOMS = "pr_n0_dbhz = 80\ntc_ms = 1\nbc_mhz = 10\nfading = tabulated\nfading_csv = "
_LOSSES = ("fc_ghz = 28\ndistance_m = 100\neirp_dbm = 52\ntc_ms = 1\nbc_mhz = 10\n"
           "pathloss = custom\npathloss_csv = ")
BAD_SCENARIOS = {
    "overflow_pd.scn": "pr_n0_dbhz = 1e5\ntc_ms = 1\nbc_mhz = 10\n",
    "overflow_sweep.scn": "pr_n0_dbhz = 80\ntc_ms = 1\nbc_mhz = 10\nsweep = pr_n0_dbhz\n"
                          "sweep_start = 80\nsweep_stop = 1e5\nsweep_points = 2\n",
    "overflow_eirp.scn": "fc_ghz = 28\ndistance_m = 100\neirp_dbm = 4000\ntc_ms = 1\n"
                         "bc_mhz = 10\n",
    "huge_atoms.scn": _ATOMS + "huge_table.csv\n",
    "huge_pathloss.scn": _LOSSES + "huge_table.csv\n",
    "nan_tc.scn": "pr_n0_dbhz = 80\ntc_ms = nan\nbc_mhz = 10\n",
    "nan_bc.scn": "pr_n0_dbhz = 80\ntc_ms = 1\nbc_mhz = nan\n",
    # non-finite inputs, each refused under its own name
    **{name + ".scn": _ATOMS + name + ".csv\n" for name in ("nan_atom_value", "nan_atom_weight")},
    **{name + ".scn": _LOSSES + name + ".csv\n" for name in ("nan_loss", "inf_loss",
                                                              "inf_distance_row")},
    "inf_fc.scn": "fc_ghz = inf\ndistance_m = 100\neirp_dbm = 52\ntc_ms = 1\nbc_mhz = 10\n",
    "inf_distance.scn": "fc_ghz = 28\ndistance_m = inf\neirp_dbm = 52\ntc_ms = 1\nbc_mhz = 10\n",
}
BAD_TABLES = {
    "nan_atom_value.csv": "1.0,0.5\nnan,0.5\n",
    "nan_atom_weight.csv": "1.0,0.5\n1.0,nan\n",
    "nan_loss.csv": "10,80\n100,nan\n1000,146\n",
    "inf_loss.csv": "10,80\n100,inf\n1000,146\n",
    "inf_distance_row.csv": "10,80\ninf,112\n",
}

LINKS, PAIRS, GROUPS = 600, 120, 30
LATTICE_EDGES = 36
WIDE = 3
LAWS = ("rayleigh", "deterministic", "tabulated")
FUNCTIONS = ("solve_continuous", "rate_fixed_bandwidth", "discretize", "exhaustive_search",
             "allocate_pair", "allocate_group", "_solve_rho_on_curve", "_solve_rho_fixed_pilots",
             "_guided_pilots", "_best_pilots")
# the coherence lengths and pilot counts whose roots are recorded, log-spaced
ROOT_LCS = tuple(2.5 * 400_000.0 ** (k / 39) for k in range(40))
ROOT_PILOTS = tuple(sorted({round(1000.0 ** (k / 39)) for k in range(40)}))
# and far out, one per decade, recorded after the others
FAR_LCS = tuple(10.0 ** k for k in range(7, 14))
FAR_PILOTS = tuple(10 ** k for k in range(4, 14))
# the coherence lengths of the array slope search's records, up to the largest accepted
BEST_LCS = (2.5, 2500.0, 1e6, 1e8, 1e11, 2.0 ** 53)


def write_inputs(folder: str) -> None:
    """Write every input file that commands() names into folder."""
    rng = random.Random(20171)
    values = sorted(rng.gammavariate(1.5, 1.0) for _ in range(64))
    mean = sum(values) / len(values)
    files = dict(USERS, **SCENARIOS, **BUDGETS, **BAD_USERS, **BAD_SCENARIOS, **BAD_TABLES,
                 **EDGES)
    files["huge_table.csv"] = "1.0," + _HUGE + "\n"
    files["pathloss.csv"] = "distance_m,loss_db\n10,80\n100,112\n1000,146\n"
    files["atoms.csv"] = "value,weight\n" + "".join(f"{v / mean!r},{1 / 64!r}\n" for v in values)
    for kind in CHANNELS:
        files[f"{kind}_channel.scn"] = "tc_ms = 1\nbc_mhz = 2.5\nfading = " + kind + (
            "\nfading_csv = atoms.csv\n" if kind == "tabulated" else "\n")
    for name, text in files.items():
        with open(os.path.join(folder, name), "w") as fh:
            fh.write(text)


def commands():
    """The argument lists, relative to the folder write_inputs filled."""
    cmds = []
    for preset in PRESETS:
        for fmt in FORMATS:
            cmds.append(["optimize", "--preset", preset, "--format", fmt])
            cmds.append(["optimize", "--preset", preset, "--format", fmt, "--verify"])
            cmds.append(["baselines", "--preset", preset, "--format", fmt])
    for preset in ("fig2", "fig6a", "fig6b"):
        for fmt in ("csv", "json"):
            cmds.append(["sweep", "--preset", preset, "--format", fmt])
    cmds += [["presets", "list"], ["presets", "verify"]]
    for users in USERS:
        for kind in CHANNELS:
            for objective in OBJECTIVES:
                for fmt in FORMATS:
                    cmds.append(["allocate", "--scenario", f"{kind}_channel.scn", "--users",
                                 users, "--objective", objective, "--format", fmt])
    for scn in ("tabulated.scn", "rayleigh.scn", "wide.scn"):
        cmds.append(["optimize", "--scenario", scn, "--verify"])
        cmds.append(["baselines", "--scenario", scn])
    for scn in ("sweep_tabulated.scn", "sweep_deterministic.scn"):
        cmds.append(["sweep", "--scenario", scn, "--format", "json"])
    for scn in ("trap_lc779.scn", "trap_lc217862.scn", "trap_lc254.scn", "trap_lc8.scn",
                *BUDGETS):
        cmds.append(["optimize", "--scenario", scn, "--verify", "--format", "json"])
    cmds += [["optimize", "--scenario", "floor.scn", "--verify"],
             ["optimize", "--scenario", "underflow.scn"],
             ["optimize", "--scenario", "lc2.scn", "--verify"],
             ["allocate", "--scenario", "edge_channel.scn", "--users", "users_edge.csv",
              "--objective", "max-strong"]]
    for scn in BAD_SCENARIOS:
        cmds.append(["sweep" if scn.endswith("sweep.scn") else "optimize", "--scenario", scn])
    for users in BAD_USERS:
        cmds.append(["allocate", "--scenario", "rayleigh_channel.scn", "--users", users])
    cmds += [["--help"], ["allocate", "--help"],
             ["allocate", "--scenario", "rayleigh_channel.scn", "--users", "users2.csv",
              "--objective", "bogus"]]
    return cmds


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run(argv):
    """(exit code, stdout, stderr) of `maxbw argv`, as a fresh process gives them."""
    from maxbw import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.resetwarnings()  # a fresh process's filters, each warning once per place
        for category in (DeprecationWarning, PendingDeprecationWarning, ImportWarning,
                         ResourceWarning):
            warnings.simplefilter("ignore", category)
        warnings.showwarning = _show_warning  # write, where pytest would record
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
            if not isinstance(code, int):
                print(code, file=sys.stderr)
                code = 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _atoms(count=32):
    rng = random.Random(20171)
    values = sorted(rng.gammavariate(1.5, 1.0) for _ in range(count))
    mean = sum(values) / len(values)
    return [(v / mean, 1.0 / count) for v in values]


def panel():
    """The results of every call of the library panel, by function, as lists
    of [point, rates]."""
    import numpy as np

    from maxbw import allocate, core
    from maxbw.fading import FadingModel

    models = {"rayleigh": FadingModel.rayleigh(), "deterministic": FadingModel.deterministic(),
              "tabulated": FadingModel.tabulated(_atoms())}
    kurtosis = {kind: model.kurtosis() for kind, model in models.items()}
    out = {name: [] for name in FUNCTIONS}

    def lattice(op, bc):
        return [round(op.w_hz / bc), op.pilot_count, list(op.flags)], [op.rate_bps]

    rng = random.Random(1501)
    for i in range(LINKS):
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

    rng = random.Random(1502)
    for i in range(3 * LATTICE_EDGES):
        fading, lc = models[LAWS[i % 3]], _log_uniform(rng, 2.0, 1e5)
        pd = _log_uniform(rng, 1e5, 1e10)
        w_star = core.solve_continuous(pd, core.CoherenceBlock(lc=lc), fading).w_hz
        if i < LATTICE_EDGES:
            bc = w_star / _log_uniform(rng, 1e-2, 4.0)
        elif i < 2 * LATTICE_EDGES:
            bc = w_star / _log_uniform(rng, 2.0 ** 20, 2.0 ** 30)
        else:
            cb = core.CoherenceBlock(lc=lc, bc_hz=w_star / _log_uniform(rng, 1.0, 1e3))
            n = core.discretize(core.solve_continuous(pd, cb, fading), cb, pd, fading).pilot_count
            steps = pd / core._solve_rho_fixed_pilots(n, fading)[0] / cb.bc_hz
            bc = steps * cb.bc_hz / (max(1, round(steps)) + (i // 3 % 3 - 1) * 1e-12)
        cb = core.CoherenceBlock(lc=lc, bc_hz=bc)
        op = core.solve_continuous(pd, cb, fading)
        out["discretize"].append(lattice(core.discretize(op, cb, pd, fading), bc))

    rng = random.Random(1701)
    for i in range(WIDE * LINKS):
        fading, lc = models[LAWS[i % 3]], _log_uniform(rng, 2.0, 1e8)
        rho, w = _log_uniform(rng, 1e-20, 1e12), _log_uniform(rng, 1e5, 1e10)
        fixed = core.rate_fixed_bandwidth(rho * w, w, core.CoherenceBlock(lc=lc), fading)
        out["rate_fixed_bandwidth"].append([[fixed.pilot_count], [fixed.rate_bps]])

    def allocation(alloc):
        point = [[e.p_w, e.w_hz, e.pilot_count] for e in alloc.entries] + [list(alloc.flags)]
        rates = [alloc.objective_value, alloc.baseline_value]
        return point, rates + [x for e in alloc.entries for x in (e.rate_bps, e.baseline_bps)]

    rng = random.Random(1601)
    for i in range(PAIRS + GROUPS):
        name, size = (("allocate_pair", 2) if i < PAIRS
                      else ("allocate_group", 3 + (i - PAIRS) // 9 % 3))
        large = i < PAIRS and (i + i // 3) % 3 == 0
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

    roots = {"rayleigh": models["rayleigh"], "deterministic": models["deterministic"],
             "tabulated64": FadingModel.tabulated(_atoms(64))}
    for lcs, pilots in ((ROOT_LCS, ROOT_PILOTS), (FAR_LCS, FAR_PILOTS)):
        for kind, fading in roots.items():
            for lc in lcs:
                rho, alpha, flags, e_log1p = core._solve_rho_on_curve(lc, fading)
                out["_solve_rho_on_curve"].append(
                    [[kind, lc, rho.hex(), alpha.hex(), list(flags)], [e_log1p]])
            for n in pilots:
                rho, e_log1p = core._solve_rho_fixed_pilots(n, fading)
                out["_solve_rho_fixed_pilots"].append([[kind, n, rho.hex()], [e_log1p]])

    rho = np.logspace(-8.0, 8.0, 200)
    for kind in LAWS:
        for lc in (1e6, 1e7):
            counts, rates = core._guided_pilots(rho, np.full(rho.size, 1e6), lc, models[kind])
            out["_guided_pilots"].append([[kind, lc, counts.tolist()], rates.tolist()])

    rho = np.logspace(-200.0, 12.0, 213)
    for kind in LAWS:
        for lc in BEST_LCS:
            counts, rates = core._best_pilots(rho, 1e6, lc, models[kind])
            out["_best_pilots"].append([[kind, lc, counts.tolist()], rates.tolist()])
    return out


def lines():
    """The snapshot's lines: the versions and SIMD targets, then every
    command's record, then every library result's."""
    import numpy
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    records = [{"python": platform.python_version(), "numpy": numpy.__version__,
                "simd": sorted(f for f in __cpu_dispatch__ if __cpu_features__[f])}]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as folder, mock.patch.dict(os.environ, COLUMNS="80"):
        write_inputs(folder)
        os.chdir(folder)
        try:
            for argv in commands():
                code, out, err = run(argv)
                records.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
        finally:
            os.chdir(cwd)
    for name, results in panel().items():
        records += [{"function": name, "case": i, "point": point, "rates": rates}
                    for i, (point, rates) in enumerate(results)]
    return [json.dumps(record, separators=(",", ":")) for record in records]


def changed_lines(old: str, new: str):
    """The lines of two outputs that differ: `- ` before each line only old
    has, `+ ` before each line only new has, in the order of a diff."""
    a, b = old.splitlines(), new.splitlines()
    lines = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            lines += ["- " + line for line in a[i1:i2]] + ["+ " + line for line in b[j1:j2]]
    return lines


def _name(record):
    if "argv" in record:
        return "maxbw " + " ".join(record["argv"])
    return f"{record['function']} case {record['case']}"


def _relative(a, b):
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def differences(recorded, running):
    """One line of text per finding between two parsed snapshots: each
    record that changed, is new or is missing, each traceback, and the
    versions and SIMD targets when anything differs under others."""
    report = []
    old = {_name(record): record for record in recorded[1:]}
    new = {_name(record): record for record in running[1:]}
    for name, record in new.items():
        before = old.get(name)
        if before is None:
            report.append(f"new record: {name}")
        elif before == record:
            pass
        elif "argv" in record:
            report.append(f"changed: {name}" + (f", exit {before['exit']} -> {record['exit']}"
                                                if before["exit"] != record["exit"] else ""))
            report += ["    " + line for line in changed_lines(before["stdout"], record["stdout"])]
            report += ["    stderr " + line
                       for line in changed_lines(before["stderr"], record["stderr"])]
        elif before["point"] != record["point"]:
            report.append(f"another point: {name}: {before['point']} {before['rates']} -> "
                          f"{record['point']} {record['rates']}")
        else:
            worst = max(map(_relative, before["rates"], record["rates"]))
            report.append(f"same point, other bits: {name}, largest relative difference "
                          f"{worst:.3g}")
        if "Traceback" in record.get("stderr", ""):
            report.append(f"traceback: {name}\n{record['stderr']}")
    report += [f"missing record: {name}" for name in old if name not in new]
    if report and recorded[0] != running[0]:
        report.append(f"recorded under {recorded[0]}, running under {running[0]}")
    return report


def main() -> None:
    with open(SNAPSHOT, "w") as fh:
        fh.write("\n".join(lines()) + "\n")


if __name__ == "__main__":
    main()
