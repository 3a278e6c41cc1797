"""Smoke test of tools/cli_identity.py on a few of its commands."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "cli_identity", os.path.join(ROOT, "tools", "cli_identity.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_identity_finds_no_difference_between_a_tree_and_itself(tmp_path):
    tool = _tool()
    cmds = tool.commands()
    assert len(cmds) == 181
    tool.write_inputs(str(tmp_path))
    for argv in cmds:  # every file a command names was written
        for arg in argv:
            if arg.endswith((".csv", ".scn")):
                assert (tmp_path / arg).is_file(), arg
    few = [["presets", "list"],
           ["optimize", "--scenario", "tabulated.scn", "--verify"],
           ["allocate", "--scenario", "tabulated_channel.scn", "--users", "users3.csv",
            "--objective", "sum", "--format", "json"],
           ["optimize", "--scenario", "overflow_pd.scn"]]
    assert all(argv in cmds for argv in few)
    code, out, err = tool.run(ROOT, few[1], str(tmp_path))
    assert (code, err) == (0, b"") and b"verified_local_max = true" in out
    code, out, err = tool.run(ROOT, few[3], str(tmp_path))
    assert (code, out) == (1, b"") and err.startswith(b"error: ")
    assert tool.compare(ROOT, ROOT, few, str(tmp_path)) == ([], [])


def test_changed_lines_lists_each_changed_line_of_both_outputs():
    tool = _tool()
    old = b'{\n  "a": 1.0,\n  "b": 0.30000000000000004,\n  "c": 3\n}\n'
    new = b'{\n  "a": 1.0,\n  "b": 0.3,\n  "c": 3\n}\n'
    assert tool.changed_lines(old, new) == ['-   "b": 0.30000000000000004,', '+   "b": 0.3,']
    assert tool.changed_lines(old, old) == []
    assert tool.changed_lines(b"x\ny\n", b"x\n") == ["- y"]
    assert tool.changed_lines(b"", b"error\n") == ["+ error"]
