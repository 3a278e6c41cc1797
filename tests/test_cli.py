"""Exercise the CLI through main(argv): exit codes, formats, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from maxbw import beamform, cli, core, scenario
from maxbw._frozen import replace
from maxbw.errors import SolverError

SWEEP_SCENARIO = """\
# small sweep for fast tests
pr_n0_dbhz = 80
tc_ms = 1
bc_mhz = 10
fading = rayleigh
sweep = tc_ms
sweep_start = 0.5
sweep_stop = 2.0
sweep_points = 3
sweep_spacing = log
"""

ALLOC_SCENARIO = """\
tc_ms = 1
bc_mhz = 2.5
fading = rayleigh
"""

USERS_CSV = "gain_dB,Pt_dBm,W0_Hz\n68,30,100e6\n80,30,100e6\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- optimize


def test_optimize_preset_json(capsys):
    code, out, err = run(capsys, "optimize", "--preset", "fig4-left",
                         "--format", "json")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["pd_dbhz"] == pytest.approx(74.27389118510229, abs=1e-6)
    assert 5.4e9 <= report["w_opt_hz"] <= 6.6e9
    assert 0.90e9 <= report["rate_bps"] <= 1.12e9
    for key in ("alpha_opt", "pilots", "rho_opt", "g_rho_db",
                "rate_fixed_1ghz_bps", "rate_csir_bps", "rate_fsk_bps",
                "rate_mi_bps", "lattice_w_hz", "lattice_pilots",
                "lattice_rate_bps"):
        assert key in report
    assert report["rate_bps"] < report["rate_csir_bps"]


def test_optimize_text_format(capsys):
    code, out, _ = run(capsys, "optimize", "--preset", "abstract-28ghz")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(" = " in line for line in lines)
    assert lines[0].startswith("pd_dbhz = ")


def test_optimize_csv_format(capsys):
    code, out, _ = run(capsys, "optimize", "--preset", "abstract-28ghz",
                       "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[0] == "pd_dbhz"
    assert len(header.split(",")) == len(row.split(","))


def test_optimize_verify_passes(capsys):
    code, out, _ = run(capsys, "optimize", "--preset", "abstract-28ghz",
                       "--format", "json", "--verify")
    assert code == 0
    assert json.loads(out)["verified_local_max"] is True


def test_optimize_verify_polishes_flat_peak(capsys):
    # plain floor/ceil rounding of fig4-left's optimum misses the lattice
    # maximum by one bandwidth step; discretize must find it and --verify
    # certify it.
    code, out, _ = run(capsys, "optimize", "--preset", "fig4-left",
                       "--format", "json", "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["verified_local_max"] is True

    res = scenario.resolve(scenario.preset("fig4-left"))
    pd, sub_cb = beamform.substitute(res.pd, res.cb, res.gain, res.sweep_penalty)
    point = beamform.solve_with_gains(res.pd, res.cb, res.gain,
                                      res.sweep_penalty, res.fading)
    m_star, n_star = point.w_hz / sub_cb.bc_hz, point.alpha * sub_cb.lc
    rounded = max(
        (core.rate(pd, m * sub_cb.bc_hz, n / sub_cb.lc, sub_cb, res.fading), m)
        for m in (math.floor(m_star), math.ceil(m_star))
        for n in (math.floor(n_star), math.ceil(n_star))
    )
    assert report["lattice_rate_bps"] > rounded[0]
    assert report["lattice_w_hz"] == (rounded[1] + 1) * sub_cb.bc_hz


def test_optimize_verify_walks_to_distant_lattice_maximum(tmp_path, capsys):
    # W*/Bc is about 84 600 here, and the lattice maximum lies hundreds of
    # Bc steps from the rounding cell of the continuous optimum
    scn = tmp_path / "wide.scn"
    scn.write_text("pr_n0_dbhz = 90\nlc = 1000\nbc_mhz = 0.1\nfading = rayleigh\n")
    code, out, err = run(capsys, "optimize", "--scenario", str(scn), "--format", "json",
                         "--verify")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verified_local_max"] is True
    assert (round(report["lattice_w_hz"] / 1e5), report["lattice_pilots"]) == (84819, 85)


def test_optimize_flags_an_underflowed_lattice_rate(tmp_path, capsys):
    # every lattice rate rounds to 0.0, so the reported point is the tie
    # rule's pick among equal rates, and the report says so
    scn = tmp_path / "underflow.scn"
    scn.write_text("pr_n0_dbhz = -2900\nlc = 1e6\nbc_mhz = 10\nfading = rayleigh\n")
    code, out, err = run(capsys, "optimize", "--scenario", str(scn), "--format", "json",
                         "--verify")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["lattice_rate_bps"], report["lattice_pilots"]) == (0.0, 1)
    assert report["lattice_flags"] == "bandwidth_floor;rate_underflow"


def test_optimize_verify_rejects_a_point_off_the_lattice_maximum(capsys, monkeypatch):
    # --verify checks the neighbors itself, so a point one Bc step off the
    # maximum fails, whatever discretize reports
    discretize = core.discretize

    def one_step_wide(op, cb, pd, fading):
        best = discretize(op, cb, pd, fading)
        w = best.w_hz + cb.bc_hz
        return replace(best, w_hz=w, rate_bps=core.rate(pd, w, best.alpha, cb, fading))

    monkeypatch.setattr(core, "discretize", one_step_wide)
    code, out, err = run(capsys, "optimize", "--preset", "abstract-28ghz",
                         "--format", "json", "--verify")
    assert (code, out) == (2, "")
    assert "lattice certificate failed" in err


def test_optimize_verify_needs_lattice(tmp_path, capsys):
    scn = tmp_path / "nolattice.scn"
    scn.write_text("pr_n0_dbhz = 80\nlc = 10000\nfading = rayleigh\n")
    code, _, err = run(capsys, "optimize", "--scenario", str(scn), "--verify")
    assert code == 1
    assert "bc_mhz" in err


def test_optimize_scenario_file(tmp_path, capsys):
    scn = tmp_path / "direct.scn"
    scn.write_text("pr_n0_dbhz = 80\ntc_ms = 1\nbc_mhz = 10\nfading = rayleigh\n")
    code, out, _ = run(capsys, "optimize", "--scenario", str(scn),
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["pd_dbhz"] == pytest.approx(80.0, abs=1e-9)
    assert report["lc"] == 10000.0


@pytest.mark.parametrize("argv", [
    ["optimize", "--preset", "fig4-left", "--format", "text"],
    ["optimize", "--preset", "fig4-left", "--format", "json"],
    ["optimize", "--preset", "fig4-left", "--format", "csv"],
    ["baselines", "--preset", "fig4-left", "--format", "text"],
    ["baselines", "--preset", "fig4-left", "--format", "json"],
    ["baselines", "--preset", "fig4-left", "--format", "csv"],
    ["sweep", "--scenario", "{sweep}", "--format", "csv"],
    ["sweep", "--scenario", "{sweep}", "--format", "json"],
    ["allocate", "--scenario", "{chan}", "--users", "{users}", "--format", "text"],
    ["allocate", "--scenario", "{chan}", "--users", "{users}", "--format", "json"],
    ["allocate", "--scenario", "{chan}", "--users", "{users}", "--format", "csv"],
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_out_file_holds_the_bytes_stdout_prints(tmp_path, capsys, argv):
    files = {"sweep": SWEEP_SCENARIO, "chan": ALLOC_SCENARIO, "users": USERS_CSV}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(**{name: tmp_path / name for name in files}) for arg in argv]
    code, printed, _ = run(capsys, *argv)
    assert code == 0 and printed
    dest = tmp_path / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(dest))
    assert (code, out, err) == (0, "", "")
    with open(dest, newline="") as fh:
        assert fh.read() == printed


def test_optimize_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "optimize", "--preset", "abstract-28ghz",
                       "--format", "json", "--out", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["lc"] == 50000.0


# ----------------------------------------------------------------- exit codes


def test_missing_scenario_and_preset(capsys):
    code, _, err = run(capsys, "optimize")
    assert code == 1
    assert "error:" in err


def test_both_scenario_and_preset(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("pr_n0_dbhz = 80\nlc = 1000\n")
    code, _, err = run(capsys, "optimize", "--scenario", str(scn),
                       "--preset", "fig2")
    assert code == 1
    assert "not both" in err


def test_unknown_preset(capsys):
    code, _, err = run(capsys, "optimize", "--preset", "fig99")
    assert code == 1
    assert "unknown preset" in err


def test_unknown_scenario_key(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("pr_n0_dbhz = 80\nlc = 1000\nbogus_key = 3\n")
    code, _, err = run(capsys, "optimize", "--scenario", str(scn))
    assert code == 1
    assert "bogus_key" in err
    assert "bad.scn:3" in err


def test_duplicate_scenario_key(tmp_path, capsys):
    scn = tmp_path / "dup.scn"
    scn.write_text("lc = 1000\nlc = 2000\npr_n0_dbhz = 80\n")
    code, _, err = run(capsys, "optimize", "--scenario", str(scn))
    assert code == 1
    assert "duplicate" in err


@pytest.mark.parametrize("keys,table", [
    ("pr_n0_dbhz = 80\nfading = tabulated\nfading_csv = {csv}\n", "value\n1.0\n"),
    ("fc_ghz = 28\ndistance_m = 100\neirp_dbm = 52\npathloss = custom\n"
     "pathloss_csv = {csv}\n", "d,loss\n10\n"),
], ids=["fading_csv", "pathloss_csv"])
def test_one_column_table_row_is_a_config_error(tmp_path, capsys, keys, table):
    # the row used to escape as an IndexError traceback
    csv_path = tmp_path / "table.csv"
    csv_path.write_text(table)
    scn = tmp_path / "t.scn"
    scn.write_text("tc_ms = 1\nbc_mhz = 10\n" + keys.format(csv=csv_path))
    code, out, err = run(capsys, "optimize", "--scenario", str(scn))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "table.csv:2: " in err


LINK_BUDGET = "fc_ghz = 28\ndistance_m = 100\ntc_ms = 1\nbc_mhz = 10\n"
HUGE_FIELD = "9" * 200_000  # past the CSV reader's 131 072-character field limit


@pytest.mark.parametrize("command,scenario,table,named", [
    ("optimize", "pr_n0_dbhz = 1e5\ntc_ms = 1\nbc_mhz = 10\n", None, "100000.0 dB"),
    ("sweep", "pr_n0_dbhz = 80\ntc_ms = 1\nbc_mhz = 10\nsweep = pr_n0_dbhz\n"
              "sweep_start = 80\nsweep_stop = 1e5\nsweep_points = 2\n", None, "100000.0 dB"),
    ("optimize", LINK_BUDGET + "eirp_dbm = 4000\n", None, " dB is too large"),
    ("allocate", ALLOC_SCENARIO, "68,30,100e6\n4000,30,100e6\n", "4000.0 dB"),
    ("allocate", ALLOC_SCENARIO, "68,30,100e6\n80,4000,100e6\n", "3970.0 dB"),
    ("allocate", ALLOC_SCENARIO, "68,30,100e6\n80,30," + HUGE_FIELD + "\n", "table.csv:2: "),
    ("optimize", "pr_n0_dbhz = 80\ntc_ms = 1\nbc_mhz = 10\nfading = tabulated\n"
                 "fading_csv = {table}\n", "1.0," + HUGE_FIELD + "\n", "table.csv:1: "),
    ("optimize", "pr_n0_dbhz = 2800\ntc_ms = 1\nbc_mhz = 10\n", None,
     "Pr/N0 must be positive and at most 1e150 Hz, got 1e+280"),
    ("allocate", ALLOC_SCENARIO, "68,30,100e6\n2000,30,100e6\n",
     "Pr/N0 must be positive and at most 1e150 Hz, got 1e+200"),
], ids=["pr_n0_dbhz", "sweep_pr_n0_dbhz", "eirp_dbm", "users_gain_dB", "users_Pt_dBm",
        "users_huge_field", "atoms_huge_field", "pr_n0_past_1e150", "users_gain_past_1e150"])
def test_out_of_range_input_exits_one_without_a_traceback(tmp_path, command, scenario, table,
                                                          named):
    # the first seven used to escape as an OverflowError or csv.Error
    # traceback, the last two as an error about the expectation's scale
    scn, csv_path = tmp_path / "s.scn", tmp_path / "table.csv"
    scn.write_text(scenario.format(table=csv_path))
    argv = [command, "--scenario", str(scn)]
    if table is not None:
        csv_path.write_text(table)
        if command == "allocate":
            argv += ["--users", str(csv_path)]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "maxbw.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert named in proc.stderr


@pytest.mark.parametrize("line,named", [
    ("eirp_dbm = nan\n", "eirp_dbm must be finite, got nan"),
    ("pt_element_dbm = 10\nnoise_figure_db = nan\n", "noise_figure_db must be finite, got nan"),
    ("pt_element_dbm = 10\ngt_element_dbi = inf\n", "gt_element_dbi must be finite, got inf"),
], ids=["eirp_dbm", "noise_figure_db", "gt_element_dbi"])
def test_non_finite_budget_value_is_named(tmp_path, capsys, line, named):
    # each used to be reported as a bad Pr/N0 of nan or inf
    scn = tmp_path / "s.scn"
    scn.write_text(LINK_BUDGET + line)
    code, out, err = run(capsys, "optimize", "--scenario", str(scn))
    assert (code, out) == (1, "")
    assert err == f"error: {named}\n"


def test_bad_argument_exits_one_not_two(capsys):
    # argparse would exit 2; the contract reserves 2 for solver failures
    code, _, err = run(capsys, "optimize", "--format", "yaml")
    assert code == 1
    code, _, err = run(capsys, "nonsense-command")
    assert code == 1
    assert "invalid choice" in err


def test_solver_failure_exits_two(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise SolverError("forced failure")

    monkeypatch.setattr(cli.core, "solve_continuous", boom)
    code, _, err = run(capsys, "optimize", "--preset", "abstract-28ghz")
    assert code == 2
    assert "solver error" in err


def test_allocate_turns_a_failed_check_into_a_solver_error(tmp_path, capsys, monkeypatch):
    from maxbw import allocate

    solve = allocate.allocate_group

    def one_entry(users, objective):
        good = solve(users, objective)
        return replace(good, entries=good.entries[:1])

    monkeypatch.setattr(allocate, "allocate_group", one_entry)
    scn, users = tmp_path / "chan.scn", tmp_path / "users.csv"
    scn.write_text(ALLOC_SCENARIO)
    users.write_text(USERS_CSV)
    code, out, err = run(capsys, "allocate", "--scenario", str(scn), "--users", str(users))
    assert (code, out) == (2, "")
    assert err == "solver error: allocation failed its check: 1 entries for 2 users\n"


# ---------------------------------------------------------------------- sweep


def test_sweep_csv_and_determinism(tmp_path, capsys):
    scn = tmp_path / "sweep.scn"
    scn.write_text(SWEEP_SCENARIO)
    code, serial, _ = run(capsys, "sweep", "--scenario", str(scn))
    assert code == 0
    lines = serial.strip().splitlines()
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    assert len(lines) == 4  # header + 3 points

    code, again, _ = run(capsys, "sweep", "--scenario", str(scn))
    assert code == 0
    assert again == serial  # byte identical


def test_sweep_json(tmp_path, capsys):
    scn = tmp_path / "sweep.scn"
    scn.write_text(SWEEP_SCENARIO)
    code, out, _ = run(capsys, "sweep", "--scenario", str(scn),
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert rows[0]["x_value"] == pytest.approx(0.5)
    assert rows[-1]["x_value"] == pytest.approx(2.0)
    # longer coherence, higher rate
    assert rows[-1]["rate_bps"] > rows[0]["rate_bps"]


def test_sweep_requires_sweep_block(tmp_path, capsys):
    scn = tmp_path / "nosweep.scn"
    scn.write_text("pr_n0_dbhz = 80\nlc = 1000\n")
    code, _, err = run(capsys, "sweep", "--scenario", str(scn))
    assert code == 1
    assert "sweep" in err


def test_sweep_preset_runs(capsys):
    code, out, _ = run(capsys, "sweep", "--preset", "fig2")
    assert code == 0
    assert len(out.strip().splitlines()) == 26  # header + 25 points


# ------------------------------------------------------------------ baselines


def test_baselines_text(capsys):
    code, out, _ = run(capsys, "baselines", "--preset", "abstract-28ghz")
    assert code == 0
    assert "optimized" in out
    assert "csir-infinite-bw" in out


def test_baselines_csv_fractions(capsys):
    code, out, _ = run(capsys, "baselines", "--preset", "abstract-28ghz",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "scheme,rate_bps,fraction_of_csir"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert float(rows["csir-infinite-bw"][2]) == pytest.approx(1.0)
    assert float(rows["optimized"][2]) < 1.0
    assert float(rows["peaky-fsk"][2]) > float(rows["non-peaky-mi"][2])


# ------------------------------------------------------------------- allocate


def test_allocate_pair_cli(tmp_path, capsys):
    scn = tmp_path / "chan.scn"
    scn.write_text(ALLOC_SCENARIO)
    users = tmp_path / "users.csv"
    users.write_text(USERS_CSV)
    code, out, _ = run(capsys, "allocate", "--scenario", str(scn),
                       "--users", str(users), "--objective", "max-weak",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "user,gain_db,p_w,w_hz,pilots,rate_bps,baseline_bps"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[5]) >= float(cells[6])  # rate >= baseline


def test_allocate_json(tmp_path, capsys):
    scn = tmp_path / "chan.scn"
    scn.write_text(ALLOC_SCENARIO)
    users = tmp_path / "users.csv"
    users.write_text(USERS_CSV)
    code, out, _ = run(capsys, "allocate", "--scenario", str(scn),
                       "--users", str(users), "--objective", "sum",
                       "--format", "json")
    assert code == 0
    result = json.loads(out)
    assert result["objective"] == "sum"
    assert result["objective_value"] >= result["baseline_value"]
    assert len(result["users"]) == 2


def test_allocate_needs_two_users(tmp_path, capsys):
    scn = tmp_path / "chan.scn"
    scn.write_text(ALLOC_SCENARIO)
    users = tmp_path / "one.csv"
    users.write_text("68,30,100e6\n")
    code, _, err = run(capsys, "allocate", "--scenario", str(scn),
                       "--users", str(users))
    assert code == 1
    assert "two users" in err


def test_allocate_refuses_an_unsteppable_baseline_bandwidth(tmp_path, capsys):
    scn = tmp_path / "chan.scn"
    scn.write_text(ALLOC_SCENARIO)
    users = tmp_path / "users.csv"
    users.write_text("68,30,100e6\n80,30,1e300\n")
    code, out, err = run(capsys, "allocate", "--scenario", str(scn),
                         "--users", str(users))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "baseline bandwidth" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("keys", [{"nt": "16", "nr": "4", "gain_model": "ideal"},
                                  {"kt": "2"}, {"g1": "4", "g2": "2"}])
def test_allocate_refuses_array_keys(tmp_path, capsys, keys):
    # an array's gain and sweep penalty would change every user's power and
    # coherence length, which allocate cannot carry: refused, not dropped
    scn = tmp_path / "chan.scn"
    scn.write_text("tc_ms = 5\nbc_mhz = 10\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    users = tmp_path / "users.csv"
    users.write_text(USERS_CSV)
    code, out, err = run(capsys, "allocate", "--scenario", str(scn), "--users", str(users))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert all(repr(key) in err for key in keys)


# -------------------------------------------------------------------- presets


def test_presets_list(capsys):
    code, out, _ = run(capsys, "presets", "list")
    assert code == 0
    assert out.strip().splitlines() == [
        "abstract-28ghz", "abstract-39ghz", "fcc-28ghz",
        "fig2", "fig4-left", "fig6a", "fig6b",
    ]


def test_presets_verify_all_pass(capsys):
    code, out, _ = run(capsys, "presets", "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS") for line in lines)


def test_presets_verify_fails_a_preset_that_cannot_solve_or_leaves_its_range(capsys, monkeypatch):
    monkeypatch.setitem(scenario.PRESETS, "no-link", {"tc_ms": "1", "bc_mhz": "10"})
    monkeypatch.setitem(scenario.PRESETS, "off-range",
                        {"pr_n0_dbhz": "80", "tc_ms": "1", "bc_mhz": "10"})
    monkeypatch.setitem(scenario.PRESET_EXPECTATIONS, "off-range", [("w_opt_hz", 1.0, 2.0)])
    code, out, _ = run(capsys, "presets", "verify", "--name", "no-link")
    assert code == 1
    assert out == "FAIL no-link: need pr_n0_dbhz, or a link budget with fc_ghz and distance_m\n"
    code, out, _ = run(capsys, "presets", "verify", "--name", "off-range")
    assert code == 1
    assert out.startswith("FAIL off-range: w_opt_hz=") and out.endswith(" not in [1, 2]\n")
    code, out, _ = run(capsys, "presets", "verify")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 9
    assert [line.split()[:2] for line in lines if line.startswith("FAIL")] == [
        ["FAIL", "no-link:"], ["FAIL", "off-range:"]]


def test_presets_verify_single(capsys):
    code, out, _ = run(capsys, "presets", "verify", "--name", "fig4-left")
    assert code == 0
    assert out.startswith("PASS fig4-left")
