"""cli-figures: every `python -m maxbw.cli` command as its own cold process.

A pass runs the paper's anchors and figures one command after another:
`optimize --verify` on four presets, three sweeps, `baselines`,
`presets verify`, `allocate` on a seeded two-user CSV and `optimize` on a
seeded scenario with a tabulated fading law.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from timing import minima

OPTIMIZE_PRESETS = ("fig4-left", "abstract-28ghz", "abstract-39ghz", "fcc-28ghz")
SWEEP_PRESETS = ("fig2", "fig6a", "fig6b")
ATOMS = 64
ALLOC_LC, ALLOC_BC_HZ, ALLOC_W0_HZ, ALLOC_PT_W = 2500.0, 2.5e6, 100e6, 1.0
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "cli_child.py")


def setup(seed, outdir):
    """Write the seeded input files and return the command list."""
    rng = np.random.default_rng([seed])
    users = os.path.join(outdir, "users.csv")
    with open(users, "w") as fh:
        fh.write("gain_dB,Pt_dBm,W0_Hz\n")
        for z in rng.standard_normal(2):
            fh.write(f"{75.0 + 6.0 * float(z)!r},30,{ALLOC_W0_HZ!r}\n")
    channel = os.path.join(outdir, "channel.scn")
    with open(channel, "w") as fh:
        fh.write(f"tc_ms = {ALLOC_LC / ALLOC_BC_HZ * 1e3!r}\nbc_mhz = {ALLOC_BC_HZ / 1e6!r}\n"
                 "fading = rayleigh\n")
    values = np.sort(rng.gamma(math.exp(rng.uniform(math.log(0.7), math.log(4.0))), 1.0, ATOMS))
    values /= values.mean()
    atoms = os.path.join(outdir, "atoms.csv")
    with open(atoms, "w") as fh:
        fh.write("value,weight\n")
        fh.writelines(f"{float(v)!r},{1.0 / ATOMS!r}\n" for v in values)
    tabulated = os.path.join(outdir, "tabulated.scn")
    with open(tabulated, "w") as fh:
        fh.write(f"pr_n0_dbhz = {float(rng.uniform(70.0, 90.0))!r}\n"
                 f"tc_ms = {math.exp(rng.uniform(math.log(0.5), math.log(5.0)))!r}\n"
                 f"bc_mhz = {math.exp(rng.uniform(0.0, math.log(10.0)))!r}\n"
                 f"fading = tabulated\nfading_csv = {atoms}\n")
    commands = [(f"optimize {p}", ["optimize", "--preset", p, "--verify", "--format", "json"])
                for p in OPTIMIZE_PRESETS]
    commands += [(f"sweep {p}", ["sweep", "--preset", p, "--format", "json"]) for p in SWEEP_PRESETS]
    commands += [
        ("baselines abstract-28ghz", ["baselines", "--preset", "abstract-28ghz", "--format", "json"]),
        ("presets verify", ["presets", "verify"]),
        ("allocate", ["allocate", "--scenario", channel, "--users", users, "--format", "json"]),
        ("optimize tabulated", ["optimize", "--scenario", tabulated, "--format", "json"]),
    ]
    return {"commands": commands, "atoms": [(float(v), 1.0 / ATOMS) for v in values],
            "env": dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src")),
            "root": os.path.dirname(HERE), "outdir": outdir}


def run_round(state, index, traced=False):
    """One pass over the command list; traced passes run each under cli_child."""
    records = []
    for i, (name, argv) in enumerate(state["commands"]):
        if traced:
            summary = os.path.join(state["outdir"], f"cli-summary-{i}.json")
            spans = os.path.join(state["outdir"], f"cli-spans-{i}.tsv")
            cmd = [sys.executable, CHILD, summary, spans, *argv]
            if os.path.exists(summary):
                os.remove(summary)
        else:
            cmd = [sys.executable, "-m", "maxbw.cli", *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=state["env"], cwd=state["root"])
        seconds = time.perf_counter() - start
        rec = {"op": "command", "name": name, "s": seconds, "round": index,
               "rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        if traced and os.path.exists(summary):
            with open(summary) as fh:
                rec["trace"] = json.load(fh)
        records.append(rec)
    return records


def metrics(records):
    fastest = minima(records, lambda r: r["name"], lambda r: r["rc"] == 0)
    first = {r["name"]: r for r in records if r["round"] == records[0]["round"]}
    gains = []
    for preset in OPTIMIZE_PRESETS:
        rec = first.get(f"optimize {preset}")
        if rec and rec["rc"] == 0:
            report = json.loads(rec["stdout"])
            gains.append(report["rate_bps"] - report["rate_fixed_1ghz_bps"])
    return {
        "light_op_ms": 1e3 * statistics.mean(
            t for name, t in fastest.items() if name.startswith("optimize ")),
        "heavy_op_s": sum(fastest.values()),
        "gain_mbps": sum(gains) / len(gains) / 1e6 if gains else math.nan,
    }


def _rel(a, b):
    return abs(a / b - 1.0)


def check(records, oracle, state):
    """Failed commands (non-zero exit) and property violations of the rest."""
    from maxbw import scenario

    failed, problems = 0, []
    outputs = {}
    for rec in records:
        if rec["rc"] != 0:
            failed += 1
            continue
        first = outputs.setdefault(rec["name"], rec["stdout"])
        if rec["stdout"] != first:
            problems.append(f"{rec['name']}: stdout differs between passes")

    def lattice_checks(name, report, fading):
        gain = 10.0 ** (report["gain_db"] / 10.0)
        pd_sub = 10.0 ** ((report["pd_dbhz"] + report["gain_db"]) / 10.0)
        lc = report["lc_tilde"]
        want = float(oracle.lattice_rate(fading, pd_sub, report["lattice_w_hz"],
                                         report["lattice_pilots"], lc))
        if _rel(report["lattice_rate_bps"], want) > 1e-6:
            problems.append(f"{name}: lattice rate {report['lattice_rate_bps']} vs oracle {want}")
        r_w, r_alpha = oracle.residuals(fading, report["rho_opt"] * gain, report["alpha_opt"], lc)
        if abs(r_w) > 1e-7 or abs(r_alpha) > 1e-9:
            problems.append(f"{name}: residuals r_w={r_w:.3e} r_alpha={r_alpha:.3e}")
        rates_below_csir(name, [report])
        if not report["lattice_rate_bps"] < report["rate_csir_bps"]:
            problems.append(f"{name}: lattice rate not below the CSIR rate")

    def rates_below_csir(name, rows):
        for row in rows:
            if not (row["rate_bps"] < row["rate_csir_bps"]
                    and row["rate_fixed_1ghz_bps"] < row["rate_csir_bps"]):
                problems.append(f"{name}: a rate is not below rate_csir_bps")

    def parsed(name):
        return json.loads(outputs[name]) if name in outputs else None

    for preset in OPTIMIZE_PRESETS:
        name = f"optimize {preset}"
        report = parsed(name)
        if report is None:
            continue
        if report.get("verified_local_max") is not True:
            problems.append(f"{name}: verified_local_max is not true")
        lattice_checks(name, report, oracle.Fading(scenario.PRESETS[preset].get("fading", "rayleigh")))
        if preset in ("abstract-28ghz", "abstract-39ghz"):
            if _rel(report["w_opt_hz"], 1e9) > 0.2 or _rel(report["rate_bps"], 2e8) > 0.2:
                problems.append(f"{name}: W* or rate more than 20% from 1 GHz / 200 Mbps")

    report = parsed("optimize tabulated")
    if report is not None:
        lattice_checks("optimize tabulated", report, oracle.Fading("tabulated", state["atoms"]))

    for preset in SWEEP_PRESETS:
        rows = parsed(f"sweep {preset}")
        if rows is None:
            continue
        rates_below_csir(f"sweep {preset}", rows)
        if preset == "fig2":
            rho = [row["rho_opt"] for row in rows]
            if not all(a > b for a, b in zip(rho, rho[1:])):
                problems.append("sweep fig2: rho* does not fall strictly as Tc grows")
        if preset == "fig6a":
            if any(_rel(row["rho_opt"], rows[0]["rho_opt"]) > 1e-12
                   or _rel(row["alpha_opt"], rows[0]["alpha_opt"]) > 1e-12 for row in rows):
                problems.append("sweep fig6a: rows do not share one rho* and alpha*")
        if preset == "fig6b":
            for row in rows:
                power_ratio = 10.0 ** ((row["x_value"] - rows[0]["x_value"]) / 10.0)
                if _rel(row["w_opt_hz"] / rows[0]["w_opt_hz"], power_ratio) > 1e-9:
                    problems.append("sweep fig6b: W* ratio differs from the power ratio")
                    break

    rows = parsed("baselines abstract-28ghz")
    opt = parsed("optimize abstract-28ghz")
    if rows is not None:
        rates = {row["scheme"]: row["rate_bps"] for row in rows}
        csir = rates.pop("csir-infinite-bw")
        if not all(rate < csir for rate in rates.values()):
            problems.append("baselines: a scheme is not below the CSIR rate")
        if opt is not None and rates["optimized"] != opt["rate_bps"]:
            problems.append("baselines: optimized rate differs from optimize's rate_bps")

    if "presets verify" in outputs:
        lines = outputs["presets verify"].decode().splitlines()
        if len(lines) != len(scenario.PRESETS) or not all(line.startswith("PASS ") for line in lines):
            problems.append("presets verify: not every preset passes")

    alloc = parsed("allocate")
    if alloc is not None:
        _check_allocation(alloc, oracle, problems)
    return failed, problems


def _check_allocation(alloc, oracle, problems):
    fading = oracle.Fading("rayleigh")
    users = alloc["users"]
    if sum(u["p_w"] for u in users) > ALLOC_PT_W * len(users) * (1.0 + 1e-9):
        problems.append("allocate: power budget exceeded")
    if sum(u["w_hz"] for u in users) > ALLOC_W0_HZ * len(users) * (1.0 + 1e-9):
        problems.append("allocate: bandwidth budget exceeded")
    for u in users:
        m = u["w_hz"] / ALLOC_BC_HZ
        if round(m) < 1 or abs(m - round(m)) > 1e-9 * m:
            problems.append("allocate: W is not a positive multiple of Bc")
        if not 1 <= u["pilots"] <= math.ceil(ALLOC_LC) - 1:
            problems.append("allocate: pilot count out of range")
        if u["rate_bps"] < u["baseline_bps"]:
            problems.append("allocate: a user ends below its baseline")
        want = float(oracle.lattice_rate(fading, 10.0 ** (u["gain_db"] / 10.0) * u["p_w"],
                                         u["w_hz"], u["pilots"], ALLOC_LC))
        if _rel(u["rate_bps"], want) > 1e-3:
            problems.append(f"allocate: rate {u['rate_bps']} vs oracle {want}")
    if alloc["objective_value"] < alloc["baseline_value"]:
        problems.append("allocate: objective below the baseline objective")
