"""The CLI and library outputs against tests/snapshot.jsonl, which
tools/snapshot.py writes."""

import importlib.util
import json
import os

from maxbw import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "snapshot", os.path.join(ROOT, "tools", "snapshot.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_committed_snapshot():
    tool = _tool()
    with open(tool.SNAPSHOT) as fh:
        recorded = [json.loads(line) for line in fh]
    running = [json.loads(line) for line in tool.lines()]
    report = tool.differences(recorded, running)
    assert not report, "\n".join(report)


def test_every_subcommand_and_format_is_in_the_snapshot():
    cmds = [" ".join(argv) + " " for argv in _tool().commands()]
    parser = cli.build_parser()
    subcommands = next(action.choices for action in parser._actions if action.dest == "command")
    for name, sub in subcommands.items():
        formats = next((a.choices for a in sub._actions if a.dest == "format"), [None])
        for fmt in formats:
            wanted = "" if fmt is None else f" --format {fmt} "
            assert any(cmd.startswith(name + " ") and wanted in cmd for cmd in cmds), (name, fmt)


def test_changed_lines_lists_each_changed_line_of_both_outputs():
    tool = _tool()
    old = '{\n  "a": 1.0,\n  "b": 0.30000000000000004,\n  "c": 3\n}\n'
    new = '{\n  "a": 1.0,\n  "b": 0.3,\n  "c": 3\n}\n'
    assert tool.changed_lines(old, new) == ['-   "b": 0.30000000000000004,', '+   "b": 0.3,']
    assert tool.changed_lines(old, old) == []
    assert tool.changed_lines("x\ny\n", "x\n") == ["- y"]
    assert tool.changed_lines("", "error\n") == ["+ error"]


def test_differences_name_each_changed_record():
    tool = _tool()
    versions = {"python": "3.11.7", "numpy": "2.4.6"}
    cmd = {"argv": ["presets", "list"], "exit": 0, "stdout": "fig2\nfig6a\n", "stderr": ""}
    lib = {"function": "discretize", "case": 0, "point": [3, 7, []], "rates": [1.0, 2.0]}
    recorded = [versions, cmd, lib, dict(lib, case=1), dict(lib, case=2)]
    assert tool.differences(recorded, recorded) == []
    running = [dict(versions, numpy="9.9"), dict(cmd, stdout="fig2\nfig6b\n"),
               dict(lib, rates=[1.0000000000000002, 2.0]), dict(lib, case=1, point=[3, 8, []]),
               dict(cmd, argv=["--help"], exit=1, stderr="Traceback (most recent call last):\n")]
    report = tool.differences(recorded, running)
    assert report[:4] == ["changed: maxbw presets list", "    - fig6a",
                          "    + fig6b", "same point, other bits: discretize case 0, "
                          "largest relative difference 2.22e-16"]
    assert report[4] == "another point: discretize case 1: [3, 7, []] [1.0, 2.0] -> [3, 8, []] [1.0, 2.0]"
    assert report[5:8] == ["new record: maxbw --help",
                           "traceback: maxbw --help\nTraceback (most recent call last):\n",
                           "missing record: discretize case 2"]
    assert report[8] == f"recorded under {versions}, running under {running[0]}"
    assert len(report) == 9
