"""The CLI's argument grammar: the command first, then --config, --out and
--seed by their full names, as "--name value" or "--name=value".

Every accepted form maps to its command and options; every other argument
list exits 2 with a usage line and an error line, or 0 with the help.
"""

import contextlib
import io
import sys

import pytest

from suptail import cli


def outcome(argv):
    """("ok", (command, options)) or ("exit", status), with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("ok", cli._parse(list(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, options",
    [
        (["constants", "--config", "c", "--out", "o"], {"config": "c", "out": "o", "seed": None}),
        (["bound-sup", "--config=c", "--seed=3", "--out=o"], {"config": "c", "out": "o", "seed": 3}),
        (["bound-growth", "--config", "a", "--config", "b", "--seed", "2", "--seed=4"],
         {"config": "b", "out": ".", "seed": 4}),
        (["simulate-verify", "--config", "c", "--seed", "-3"], {"config": "c", "out": ".", "seed": -3}),
        (["constants", "--config", "c", "--out=-x"], {"config": "c", "out": "-x", "seed": None}),
        # a spaced value is the next argument, whatever it starts with
        (["covering", "--out", "-x", "--config", "c"], {"config": "c", "out": "-x", "seed": None}),
    ],
    ids=["spaced", "equals", "last-wins", "negative-seed", "dash-value-after-equals", "dash-value"],
)
def test_documented_forms(argv, options):
    assert cli._parse(argv) == (argv[0], options)


@pytest.mark.parametrize(
    "argv, prog",
    [
        ([], "suptail"),
        (["nope", "--config", "c"], "suptail"),
        (["--config", "c", "constants"], "suptail"),
        (["constants"], "suptail constants"),
        (["constants", "--config", "c", "--tol", "1"], "suptail constants"),
        (["constants", "--config", "c", "--"], "suptail constants"),
        (["constants", "--config", "c", "--seed", "x"], "suptail constants"),
        (["covering", "--config", "c", "--format", "json"], "suptail covering"),
        (["simulate-verify", "--config", "c", "--format", "csv"], "suptail simulate-verify"),
        (["bound-sup", "--config", "c", "--=x"], "suptail bound-sup"),
        (["constants", "--conf", "c"], "suptail constants"),
        (["constants", "--config", "c", "--o", "o"], "suptail constants"),
        (["constants", "--config", "c", "--s", "1"], "suptail constants"),
        (["constants", "--config", "c", "--he"], "suptail constants"),
        (["constants", "--config", "--out", "o"], "suptail constants"),
        (["constants", "--config", "c", "--out", "--seed"], "suptail constants"),
        (["constants", "--config", "c", "--out"], "suptail constants"),
        (["constants", "--config", "c", "--help=x"], "suptail constants"),
        (["constants", "--config", "c", "-hx"], "suptail constants"),
    ],
    ids=["no-command", "unknown-command", "option-before-command", "no-config", "unknown-option",
         "double-dash", "bad-seed", "format-covering", "format-verify", "ambiguous-after-command",
         "prefix-config", "prefix-out", "prefix-seed", "prefix-help", "option-as-value",
         "option-name-as-last-value", "trailing-option", "help-with-value", "stacked-help"],
)
def test_usage_errors_exit_2(argv, prog):
    result, out, err = outcome(argv)
    assert result == ("exit", 2) and out == ""
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: {prog} [-h]")
    assert error.startswith(f"{prog}: error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["constants", "-h"], ["simulate-verify", "--config", "c", "--help"]])
def test_help_exits_0(argv):
    result, out, err = outcome(argv)
    assert result == ("exit", 0) and err == ""
    assert out.startswith("usage: suptail")


def test_main_reads_sys_argv(tmp_path, monkeypatch):
    # the console script calls main() with no arguments
    config = tmp_path / "c.json"
    config.write_text('{"model": {"hurst": 0.35}}', encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["suptail", "constants", "--config", str(config), "--out", str(tmp_path / "o")])
    assert cli.main() == 0
    assert (tmp_path / "o" / "constants.json").is_file()
