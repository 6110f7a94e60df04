"""The CLI's table-driven argument parser against the argparse parser it replaced.

``reference_parser`` is the argparse parser that ``suptail.cli`` used to
build.  On a generated corpus of argument lists, ``cli._parse`` must give the
same command and options, or exit with the same status.
"""

import argparse
import contextlib
import io
import random
import re
import sys

import pytest

from suptail import cli


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suptail",
        description="Supremum tail bounds for sub-Gaussian-type random fields, "
        "with Monte Carlo verification for the heat-equation fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in cli._COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (required for verify)")
    return parser


REFERENCE = reference_parser()


def outcome(parse, argv):
    """("ok", namespace dict) or ("exit", status), with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("ok", parse(list(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def reference(argv):
    return outcome(lambda a: vars(REFERENCE.parse_args(a)), argv)


def table(argv):
    def parse(a):
        command, opts = cli._parse(a)
        return {"command": command, **opts}

    return outcome(parse, argv)


# values that each option accepts, then values that it refuses or that
# argparse reads as an option
VALUES = {
    "--config": (["c.json", "dir/c.json", "-", "a b", "-a b", "", "=x", "-3"], ["-x", "-h", "--o", "--"]),
    "--out": (["o", "-1", "-1.5", "-.5", "a b", "", "x=y"], ["-x", "-1e3", "--seed", "--"]),
    "--seed": (["7", "-3", "+4", " 5", "0", "1_000", "-0"], ["x", "3.5", "-3.5", "1e3", "-1e3", "", "-"]),
}
# tokens that no command reads as an option, and ways of asking for help;
# not "-hh", which argparse read as -h twice and the table as -h with a value
STRAYS = ["--", "extra", "-", "--tol", "--tol=1", "-x", "-3", "--bogus=1", "a b", "---", "--=x", "-hx", "--help=x",
          "--format", "--format=csv", "--f=json"]
HELP = ["-h", "--help", "--he", "--h"]


def spellings(name, value, rng):
    """One way of writing --name value: spaced, with "=", or by a prefix."""
    prefix = name[: rng.randint(3, len(name))]
    return rng.choice([[name, value], [f"{name}={value}"], [prefix, value], [f"{prefix}={value}"]])


def corpus(n, seed=2024):
    """n argument lists: a command and its options in random order and
    spelling, some repeated, with at times a refused value, a token left
    out or a stray or help token put in, before or after the command."""
    rng = random.Random(seed)
    commands = list(cli._COMMANDS) + ["bogus", "Constants", "bound"]
    names = ["--config", "--out", "--seed"]
    for _ in range(n):
        command = rng.choice(commands) if rng.random() < 0.1 else rng.choice(list(cli._COMMANDS))
        argv, chosen = [], rng.sample(names[1:], rng.randint(0, 2))
        if rng.random() < 0.9:
            chosen.insert(rng.randint(0, len(chosen)), "--config")
        for name in chosen + rng.choices(names, k=rng.choice([0, 0, 1, 2])):
            good, bad = VALUES[name]
            argv += spellings(name, rng.choice(bad if rng.random() < 0.15 else good), rng)
        if argv and rng.random() < 0.1:
            del argv[rng.randrange(len(argv))]
        for _ in range(rng.choice([0] * 8 + [1, 2])):
            argv.insert(rng.randint(0, len(argv)), rng.choice(STRAYS + HELP * (rng.random() < 0.3)))
        head = [rng.choice(STRAYS + HELP)] if rng.random() < 0.05 else []
        yield head + ([] if rng.random() < 0.01 else [command]) + argv


CORPUS = list(corpus(4000))


def test_corpus_covers_the_grammar():
    # every outcome occurs often: parsed, help and usage error
    kinds = [reference(argv)[0] for argv in CORPUS]
    assert sum(k[0] == "ok" for k in kinds) > 1000
    assert kinds.count(("exit", 0)) > 50
    assert kinds.count(("exit", 2)) > 1000


@pytest.mark.parametrize("chunk", range(8))
def test_same_result_as_argparse(chunk):
    for argv in CORPUS[chunk::8]:
        expected, _, _ = reference(argv)
        got, out, err = table(argv)
        if expected[0] == "ok":
            # argparse drops the "--" of "--out=--" and stores an empty list
            expected = ("ok", {k: "--" if v == [] else v for k, v in expected[1].items()})
        assert got == expected, argv
        if got == ("exit", 2):
            assert err.startswith("usage: suptail"), (argv, err)
            assert re.search(r"^suptail( [\w-]+)?: error: \S", err, re.M), (argv, err)
        elif got == ("exit", 0):
            assert out.startswith("usage: suptail"), (argv, out)


@pytest.mark.parametrize(
    "argv, options",
    [
        (["constants", "--config", "c", "--out", "o"], {"config": "c", "out": "o", "seed": None}),
        (["bound-sup", "--config=c", "--seed=3", "--out=o"], {"config": "c", "out": "o", "seed": 3}),
        (["covering", "--conf", "c", "--o", "o", "--s", "1"], {"config": "c", "out": "o", "seed": 1}),
        (["bound-growth", "--config", "a", "--config", "b", "--s", "2", "--seed=4"], {"config": "b", "out": ".", "seed": 4}),
        (["simulate-verify", "--config", "c", "--seed", "-3"], {"config": "c", "out": ".", "seed": -3}),
        (["constants", "--config", "c", "--out=-x"], {"config": "c", "out": "-x", "seed": None}),
    ],
    ids=["spaced", "equals", "prefixes", "last-wins", "negative-seed", "dash-value-after-equals"],
)
def test_documented_forms(argv, options):
    assert cli._parse(argv) == (argv[0], options)


@pytest.mark.parametrize(
    "argv, prog",
    [
        ([], "suptail"),
        (["nope", "--config", "c"], "suptail"),
        (["constants"], "suptail constants"),
        (["constants", "--config", "c", "--tol", "1"], "suptail constants"),
        (["constants", "--config", "c", "--"], "suptail constants"),
        (["constants", "--config", "c", "--seed", "x"], "suptail constants"),
        (["constants", "--config", "c", "--out", "-x"], "suptail constants"),
        (["covering", "--config", "c", "--format", "json"], "suptail covering"),
        (["simulate-verify", "--config", "c", "--format", "csv"], "suptail simulate-verify"),
        # the usage of the command, as argparse's subparser printed it, not suptail's
        (["bound-sup", "--config", "c", "--=x"], "suptail bound-sup"),
    ],
    ids=["no-command", "unknown-command", "no-config", "unknown-option", "double-dash", "bad-seed",
         "dash-value", "format-covering", "format-verify", "ambiguous-after-command"],
)
def test_usage_errors_exit_2(argv, prog):
    result, out, err = table(argv)
    assert result == ("exit", 2) and out == ""
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: {prog} [-h]")
    assert error.startswith(f"{prog}: error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["constants", "-h"], ["simulate-verify", "--config", "c", "--help"]])
def test_help_exits_0(argv):
    result, out, err = table(argv)
    assert result == ("exit", 0) and err == ""
    assert out.startswith("usage: suptail")


def test_main_reads_sys_argv(tmp_path, monkeypatch):
    # the console script calls main() with no arguments
    config = tmp_path / "c.json"
    config.write_text('{"model": {"hurst": 0.35}}', encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["suptail", "constants", "--config", str(config), "--out", str(tmp_path / "o")])
    assert cli.main() == 0
    assert (tmp_path / "o" / "constants.json").is_file()
