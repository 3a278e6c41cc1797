"""Command line front end.

Exit codes: 0 success, 1 configuration or input problems, 2 solver failures.
Output is deterministic: identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional

from . import baselines, beamform, core, scenario
from .errors import ConfigError, SolverError

SWEEP_COLUMNS = [
    "x_value", "w_opt_hz", "alpha_opt", "pilots", "rho_opt", "g_rho_db",
    "rate_bps", "rate_fixed_1ghz_bps",
    "rate_csir_bps", "rate_fsk_bps", "rate_mi_bps",
]

FIXED_REFERENCE_HZ = 1e9


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; our contract reserves 2 for solver
    # failures, so route usage errors through ConfigError instead
    def error(self, message):
        raise ConfigError(message)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _emit(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write(args, data, rows, columns, text_lines=()) -> None:
    """One command's output in args.format: data as JSON, rows as CSV under
    columns, or text_lines as text; to args.out when given, else stdout."""
    if args.format == "json":
        text = json.dumps(data, indent=2)
    elif args.format == "csv":
        text = "\n".join([",".join(columns)]
                         + [",".join(_fmt(row[col]) for col in columns) for row in rows])
    else:
        text = "\n".join(text_lines)
    _emit(text, args.out)


def _load_mapping(args) -> Dict[str, str]:
    if args.preset and args.scenario:
        raise ConfigError("give --scenario or --preset, not both")
    if args.preset:
        return scenario.preset(args.preset)
    if args.scenario:
        return scenario.parse_scenario_file(args.scenario)
    raise ConfigError("need --scenario FILE or --preset NAME")


def _solve_row(res: scenario.Resolved):
    """The substituted problem's continuous optimum, its report row, and the
    substituted (Pr/N0, block). The row reports rho per element, pre-gain,
    as beamform.solve_with_gains does."""
    pd_sub, sub_cb = beamform.substitute(res.pd, res.cb, res.gain, res.sweep_penalty)
    point = core.solve_continuous(pd_sub, sub_cb, res.fading)
    rho = point.rho / res.gain
    fixed = core.rate_fixed_bandwidth(pd_sub, FIXED_REFERENCE_HZ, sub_cb, res.fading)
    return point, {
        "w_opt_hz": point.w_hz,
        "alpha_opt": point.alpha,
        "pilots": max(1, round(point.alpha * sub_cb.lc)),
        "rho_opt": rho,
        "g_rho_db": 10.0 * math.log10(rho * res.gain),
        "rate_bps": point.rate_bps,
        "rate_fixed_1ghz_bps": fixed.rate_bps,
        "rate_csir_bps": baselines.csir_rate(pd_sub),
        "rate_fsk_bps": baselines.peaky_fsk_rate(pd_sub, sub_cb.lc),
        "rate_mi_bps": baselines.non_peaky_mi_rate(pd_sub, sub_cb.lc, res.fading),
    }, (pd_sub, sub_cb)


def cmd_optimize(args) -> int:
    mapping = _load_mapping(args)
    res = scenario.resolve(mapping)
    point, row, (pd_sub, sub_cb) = _solve_row(res)

    report: Dict[str, object] = {
        "pd_dbhz": 10.0 * math.log10(res.pd.pr_over_n0_hz),
        "gain_db": 10.0 * math.log10(res.gain),
        "sweep_penalty": res.sweep_penalty,
        "lc": res.cb.lc,
        "lc_tilde": sub_cb.lc,
    }
    report.update(row)

    if res.cb.bc_hz is not None:
        lattice = core.discretize(point, sub_cb, pd_sub, res.fading)
        report["lattice_w_hz"] = lattice.w_hz
        report["lattice_pilots"] = lattice.pilot_count
        report["lattice_rate_bps"] = lattice.rate_bps
        if lattice.flags:
            report["lattice_flags"] = ";".join(lattice.flags)
        if args.verify:
            m, n = max(1, round(lattice.w_hz / sub_cb.bc_hz)), lattice.pilot_count
            ok = all(core.rate(pd_sub, i * sub_cb.bc_hz, j / sub_cb.lc, sub_cb, res.fading)
                     <= lattice.rate_bps * (1 + 1e-12)  # no 3x3 neighbor wins by more
                     for i in range(max(1, m - 1), m + 2)
                     for j in range(max(1, n - 1), min(n + 2, core._max_pilots(sub_cb.lc) + 1)))
            report["verified_local_max"] = ok
            if not ok:
                raise SolverError("lattice certificate failed: a neighbor beats the "
                                  "reported optimum")
    elif args.verify:
        raise ConfigError("--verify needs a bandwidth lattice; set bc_mhz")

    _write(args, report, [report], list(report),
           [f"{key} = {_fmt(value)}" for key, value in report.items()])
    return 0


def cmd_sweep(args) -> int:
    mapping = _load_mapping(args)
    axis = scenario.sweep_axis(mapping)
    if axis is None:
        raise ConfigError("scenario has no sweep block (set sweep/sweep_start/"
                          "sweep_stop/sweep_points)")
    key, grid = axis

    def one(x: float) -> Dict[str, object]:
        res = scenario.resolve(mapping, overrides={key: x})
        row: Dict[str, object] = {"x_value": x}
        row.update(_solve_row(res)[1])
        return row

    rows = [one(x) for x in grid]
    _write(args, rows, rows, SWEEP_COLUMNS)
    return 0


def cmd_baselines(args) -> int:
    mapping = _load_mapping(args)
    res = scenario.resolve(mapping)
    row = _solve_row(res)[1]
    schemes = [
        ("optimized", row["rate_bps"]),
        (baselines.CSIR_INFINITE_BW, row["rate_csir_bps"]),
        (baselines.PEAKY_FSK, row["rate_fsk_bps"]),
        (baselines.NON_PEAKY_MI, row["rate_mi_bps"]),
    ]
    rows = [
        {"scheme": name, "rate_bps": rate,
         "fraction_of_csir": rate / row["rate_csir_bps"]}
        for name, rate in schemes
    ]
    width = max(len(r["scheme"]) for r in rows)
    _write(args, rows, rows, ["scheme", "rate_bps", "fraction_of_csir"],
           [f"{r['scheme']:<{width}}  {_fmt(r['rate_bps'])} bps  "
            f"({_fmt(r['fraction_of_csir'])} of csir)" for r in rows])
    return 0


def cmd_allocate(args) -> int:
    from . import allocate as allocate_mod  # the scalar commands never load it

    mapping = _load_mapping(args)
    cb, fading = scenario.channel_only(mapping)
    users = allocate_mod.load_users_csv(args.users, cb, fading)
    alloc = allocate_mod.allocate_group(users, args.objective)
    try:
        allocate_mod.check_allocation(users, alloc)
    except AssertionError as exc:
        raise SolverError(f"allocation failed its check: {exc}") from None

    user_rows = [
        {
            "user": i,
            "gain_db": 10.0 * math.log10(u.gain_hz_per_watt),
            "p_w": e.p_w,
            "w_hz": e.w_hz,
            "pilots": e.pilot_count,
            "rate_bps": e.rate_bps,
            "baseline_bps": e.baseline_bps,
        }
        for i, (u, e) in enumerate(zip(users, alloc.entries))
    ]
    data = {
        "objective": alloc.objective,
        "objective_value": alloc.objective_value,
        "baseline_value": alloc.baseline_value,
        "flags": list(alloc.flags),
        "users": user_rows,
    }
    lines = [f"objective {alloc.objective}: {_fmt(alloc.objective_value)} bps "
             f"(baseline {_fmt(alloc.baseline_value)} bps)"]
    lines += [f"user {r['user']}: gain {_fmt(r['gain_db'])} dB, "
              f"p {_fmt(r['p_w'])} W, w {_fmt(r['w_hz'])} Hz, "
              f"pilots {r['pilots']}, rate {_fmt(r['rate_bps'])} bps "
              f"(baseline {_fmt(r['baseline_bps'])})" for r in user_rows]
    if alloc.flags:
        lines.append("flags: " + ";".join(alloc.flags))
    _write(args, data, user_rows, ["user", "gain_db", "p_w", "w_hz", "pilots",
                                   "rate_bps", "baseline_bps"], lines)
    return 0


def cmd_presets(args) -> int:
    if args.action == "list":
        _emit("\n".join(sorted(scenario.PRESETS)), None)
        return 0
    # verify
    names = [args.name] if args.name else sorted(scenario.PRESETS)
    failures = 0
    lines = []
    for name in names:
        mapping = scenario.preset(name)
        try:
            res = scenario.resolve(mapping)
            row = _solve_row(res)[1]
        except (ConfigError, SolverError) as exc:
            lines.append(f"FAIL {name}: {exc}")
            failures += 1
            continue
        checks = scenario.PRESET_EXPECTATIONS.get(name, [])
        bad = [
            f"{field}={_fmt(row[field])} not in [{_fmt(lo)}, {_fmt(hi)}]"
            for field, lo, hi in checks
            if not (lo <= row[field] <= hi)
        ]
        if bad:
            lines.append(f"FAIL {name}: " + "; ".join(bad))
            failures += 1
        elif checks:
            lines.append(f"PASS {name} ({len(checks)} checks)")
        else:
            lines.append(f"PASS {name} (solved, no ranges recorded)")
    _emit("\n".join(lines), None)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maxbw",
                     description="Bandwidth and pilot overhead optimization for "
                                 "noncoherent wideband links")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        p.add_argument("--scenario", help="scenario file (key = value lines)")
        p.add_argument("--preset", help="named preset (see `maxbw presets list`)")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p_opt = sub.add_parser("optimize", help="solve one operating point")
    add_scenario_args(p_opt)
    p_opt.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_opt.add_argument("--verify", action="store_true",
                       help="certify the reported lattice point against its neighbors")
    p_opt.set_defaults(func=cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="solve along the scenario's sweep axis")
    add_scenario_args(p_sweep)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_base = sub.add_parser("baselines", help="compare against reference schemes")
    add_scenario_args(p_base)
    p_base.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_base.set_defaults(func=cmd_baselines)

    p_alloc = sub.add_parser("allocate", help="multi-user power/bandwidth reallocation")
    add_scenario_args(p_alloc)
    p_alloc.add_argument("--users", required=True,
                         help="CSV of users: gain_dB, Pt_dBm, W0_Hz")
    p_alloc.add_argument("--objective", choices=list(core.OBJECTIVES), default=core.MAX_WEAK)
    p_alloc.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_alloc.set_defaults(func=cmd_allocate)

    p_presets = sub.add_parser("presets", help="list or verify named presets")
    p_presets.add_argument("action", choices=["list", "verify"])
    p_presets.add_argument("--name", help="verify only this preset")
    p_presets.set_defaults(func=cmd_presets)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
