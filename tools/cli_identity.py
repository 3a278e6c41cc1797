"""Check that two source trees give byte-identical `maxbw` CLI output.

    python3 tools/cli_identity.py PARENT_DIR CHANGE_DIR

Each directory is a checkout of this repository. The script writes its input
files (user tables, a 64-atom fading table and a few scenarios) to a
temporary directory, runs every command of COMMANDS as
`python -m maxbw.cli ...` against each tree's `src`, with no bytecode
written, and prints each command whose stdout, stderr or exit code differs,
followed by the stdout lines that changed (`-` the parent's, `+` the
change's), and each command whose stderr on CHANGE_DIR holds a Python
traceback, even where it matches the parent's. It exits 1 if any command is
printed, else 0.

The 181 commands: `optimize` in three formats with and without `--verify`,
and `baselines` in three formats, on all 7 presets; `sweep` in csv and json
on fig2, fig6a and fig6b; `presets list` and `presets verify`; `allocate` on
2-, 3- and 4-user tables over Rayleigh, deterministic and tabulated
channels, for every objective and format; `optimize --verify` and
`baselines` on a tabulated, a Rayleigh and a wide-link scenario;
`sweep --format json` on a tabulated and a deterministic scenario;
`optimize --verify --format json` on four links whose lattice maximum a
local climb misses, and on four link budgets: a rich-scattering array with
element power over free space, a partially combining array (kt = 16,
g1 = 8) by EIRP behind a blockage, a rich-scattering array by EIRP, which
the CLI refuses with exit 1, and a custom path-loss table with total
transmit power, total receive gain and g2 = 2; `maxbw --help` and
`allocate --help`; and eleven bad inputs that the CLI refuses with exit 1
and an `error:` line: dB values past a float (Pr/N0, a swept Pr/N0, an
EIRP, a user's gain and power), a CSV field past the reader's size limit
(users, fading atoms, path loss), a NaN coherence time or bandwidth, and an
allocation objective that argparse does not offer.
"""

from __future__ import annotations

import difflib
import os
import random
import subprocess
import sys
import tempfile

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
BAD_SCENARIOS = {
    "overflow_pd.scn": "pr_n0_dbhz = 1e5\ntc_ms = 1\nbc_mhz = 10\n",
    "overflow_sweep.scn": "pr_n0_dbhz = 80\ntc_ms = 1\nbc_mhz = 10\nsweep = pr_n0_dbhz\n"
                          "sweep_start = 80\nsweep_stop = 1e5\nsweep_points = 2\n",
    "overflow_eirp.scn": "fc_ghz = 28\ndistance_m = 100\neirp_dbm = 4000\ntc_ms = 1\n"
                         "bc_mhz = 10\n",
    "huge_atoms.scn": "pr_n0_dbhz = 80\ntc_ms = 1\nbc_mhz = 10\nfading = tabulated\n"
                      "fading_csv = huge_table.csv\n",
    "huge_pathloss.scn": "fc_ghz = 28\ndistance_m = 100\neirp_dbm = 52\ntc_ms = 1\n"
                         "bc_mhz = 10\npathloss = custom\npathloss_csv = huge_table.csv\n",
    "nan_tc.scn": "pr_n0_dbhz = 80\ntc_ms = nan\nbc_mhz = 10\n",
    "nan_bc.scn": "pr_n0_dbhz = 80\ntc_ms = 1\nbc_mhz = nan\n",
}


def write_inputs(folder: str) -> None:
    """Write every input file that COMMANDS names into folder."""
    rng = random.Random(20171)
    values = sorted(rng.gammavariate(1.5, 1.0) for _ in range(64))
    mean = sum(values) / len(values)
    files = dict(USERS, **SCENARIOS, **BUDGETS, **BAD_USERS, **BAD_SCENARIOS)
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
    for scn in BAD_SCENARIOS:
        cmds.append(["sweep" if scn.endswith("sweep.scn") else "optimize", "--scenario", scn])
    for users in BAD_USERS:
        cmds.append(["allocate", "--scenario", "rayleigh_channel.scn", "--users", users])
    cmds += [["--help"], ["allocate", "--help"],
             ["allocate", "--scenario", "rayleigh_channel.scn", "--users", "users2.csv",
              "--objective", "bogus"]]
    return cmds


def run(tree: str, argv, folder: str):
    """(exit code, stdout, stderr) of one CLI command against tree's src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-m", "maxbw.cli", *argv], cwd=folder, env=env,
                         capture_output=True, timeout=600)
    return out.returncode, out.stdout, out.stderr


def changed_lines(old: bytes, new: bytes):
    """The lines of two outputs that differ: `- ` before each line only old
    has, `+ ` before each line only new has, in the order of a diff."""
    a, b = (out.decode(errors="replace").splitlines() for out in (old, new))
    lines = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            lines += ["- " + line for line in a[i1:i2]] + ["+ " + line for line in b[j1:j2]]
    return lines


def compare(parent: str, change: str, cmds, folder: str):
    """The commands of cmds whose output differs between the two trees, each
    as (argv, changed stdout lines), and those whose stderr on change holds a
    traceback."""
    differ, tracebacks = [], []
    for argv in cmds:
        old, new = run(parent, argv, folder), run(change, argv, folder)
        if old != new:
            differ.append((argv, changed_lines(old[1], new[1])))
        if b"Traceback" in new[2]:
            tracebacks.append(argv)
    return differ, tracebacks


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cmds = commands()
    with tempfile.TemporaryDirectory() as folder:
        write_inputs(folder)
        differ, tracebacks = compare(args[0], args[1], cmds, folder)
    for argv, lines in differ:
        print("differs: maxbw " + " ".join(argv))
        for line in lines:
            print("    " + line)
    for argv in tracebacks:
        print("traceback: maxbw " + " ".join(argv))
    print(f"{len(cmds) - len(differ)} of {len(cmds)} commands identical, "
          f"{len(tracebacks)} with a traceback")
    return 1 if differ or tracebacks else 0


if __name__ == "__main__":
    sys.exit(main())
