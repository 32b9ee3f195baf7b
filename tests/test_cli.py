import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from detlab import cli, suite
from detlab.cli import DEFAULT_SEED, build_parser
from detlab.commalg import FreeModule, ModuleMap, free_resolution
from detlab.commalg.resolution import Resolution

CMD = [sys.executable, "-m", "detlab"]
SRC = str(Path(__file__).resolve().parent.parent / "src")
FROZEN_REPORTS = Path(__file__).resolve().parent / "data" / "frozen_reports.json"
README = Path(__file__).resolve().parent.parent / "README.md"
# keys "detlab <arguments>" hold the whole --json report of that command line
FROZEN_COMMANDS = [
    key for key in json.loads(FROZEN_REPORTS.read_text()) if key.startswith("detlab ")
]


def child_env(env_extra=None):
    env = dict(os.environ)
    # the CLI runs in a child process: let it import this checkout's package
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return env


def run(*args, env_extra=None, timeout=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=child_env(env_extra), timeout=timeout
    )


def test_lr_subcommand():
    r = run("lr", "--a", "1", "--b", "1", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["report_version"] == 1
    got = {tuple(c["gamma"]): c["coefficient"] for c in report["cases"]}
    assert got == {(2,): 1, (1, 1): 1}


def test_empty_partition_token():
    r = run("lr", "--a", "0", "--b", "3,2", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert [c["gamma"] for c in report["cases"]] == [[3, 2]]


def test_tilt_grass_case_count():
    r = run("check-tilt-grass", "--l", "2", "--m", "4", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["pass"] is True
    assert len(report["cases"]) == 36


def test_reader_closing_the_pipe_early_is_not_a_failure():
    """`detlab ... --json | head -1`: the report (over 64 KB, more than a
    pipe holds) is cut short by its reader; the command prints nothing on
    stderr and still exits with the verdict's status."""
    proc = subprocess.Popen(
        CMD + ["check-tilt-grass", "--l", "3", "--m", "8", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, "")


def test_check_mcm_exit_zero():
    r = run("check-mcm", "--m", "2", "--n", "3", "--l", "1", "--alpha", "1", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["cases"][0]["pd"] == 2
    assert report["parameters"] == {"m": 2, "n": 3, "l": 1, "alpha": [1]}


def test_prop31_parameters_name_the_options_that_ran():
    """--alpha and --delta are recorded when given, --delta-max only when
    the deltas are enumerated, so two different command lines never share
    a header."""
    base = ("check-prop31", "--l", "2", "--m", "4", "--alpha", "1")
    got = [
        json.loads(run(*base, *extra, "--json").stdout)["parameters"]
        for extra in (("--delta", "1"), ("--delta", "2"), ("--delta-max", "2"))
    ]
    assert got == [
        {"l": 2, "m": 4, "alpha": [1], "delta": [1]},
        {"l": 2, "m": 4, "alpha": [1], "delta": [2]},
        {"l": 2, "m": 4, "alpha": [1], "delta_max": 2},
    ]


def test_json_reports_are_byte_identical():
    args = ("check-rank", "--m", "2", "--n", "3", "--l", "1", "--alpha", "1", "--json")
    a = run(*args)
    b = run(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_seed_env_is_ignored():
    # the seed comes from --seed alone; the environment does not set it
    r = run(
        "check-rank", "--m", "2", "--n", "2", "--l", "1", "--alpha", "1", "--json",
        env_extra={"DETVAR_SEED": "12345"},
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["seed"] == DEFAULT_SEED


def subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# every option of every subcommand, as (option strings, type, default,
# required, choices); --help is argparse's own and is left out
OPTION_TABLE = {
    "partitions": {
        ("--json", None, False, False, None),
        ("--u", "int", None, True, None),
        ("--v", "int", None, True, None),
    },
    "lr": {
        ("--a", "str", None, True, None),
        ("--b", "str", None, True, None),
        ("--json", None, False, False, None),
    },
    "bott": {
        ("--json", None, False, False, None),
        ("--l", "int", None, True, None),
        ("--m", "int", None, True, None),
        ("--x", "str", None, True, None),
        ("--y", "str", None, True, None),
    },
    "check-prop31": {
        ("--alpha", "str", None, False, None),
        ("--delta", "str", None, False, None),
        ("--delta-max", "int", 6, False, None),
        ("--json", None, False, False, None),
        ("--l", "int", None, True, None),
        ("--m", "int", None, True, None),
    },
    "check-tilt-grass": {
        ("--json", None, False, False, None),
        ("--l", "int", None, True, None),
        ("--m", "int", None, True, None),
    },
    "check-tilt-springer": {
        ("--json", None, False, False, None),
        ("--l", "int", None, True, None),
        ("--m", "int", None, True, None),
        ("--n", "int", None, True, None),
        ("--tmax", "int", 3, False, None),
    },
    "check-dualizing": {
        ("--json", None, False, False, None),
        ("--l", "int", None, True, None),
        ("--m", "int", None, True, None),
        ("--n", "int", None, True, None),
        ("--tmax", "int", 3, False, None),
    },
    "check-fm": {
        ("--json", None, False, False, None),
        ("--l", "int", None, True, None),
        ("--m", "int", None, True, None),
        ("--n", "int", None, True, None),
        ("--tmax", "int", 3, False, None),
    },
    "build-talpha": {
        ("--alpha", "str", None, True, None),
        ("--char", "int", 0, False, None),
        ("--json", None, False, False, None),
        ("--l", "int", None, True, None),
        ("--m", "int", None, True, None),
        ("--n", "int", None, True, None),
    },
    "resolve": {
        ("--alpha", "str", None, True, None),
        ("--char", "int", 0, False, None),
        ("--json", None, False, False, None),
        ("--l", "int", None, True, None),
        ("--m", "int", None, True, None),
        ("--n", "int", None, True, None),
    },
    "check-mcm": {
        ("--alpha", "str", None, False, None),
        ("--char", "int", 0, False, None),
        ("--json", None, False, False, None),
        ("--l", "int", None, True, None),
        ("--m", "int", None, True, None),
        ("--n", "int", None, True, None),
    },
    "check-end-mcm": {
        ("--char", "int", 0, False, None),
        ("--json", None, False, False, None),
        ("--l", "int", None, True, None),
        ("--m", "int", None, True, None),
        ("--n", "int", None, True, None),
    },
    "check-flip": {
        ("--char", "int", 0, False, None),
        ("--json", None, False, False, None),
        ("--l", "int", None, True, None),
        ("--m", "int", None, True, None),
        ("--n", "int", None, True, None),
    },
    "check-end-dual": {
        ("--char", "int", 0, False, None),
        ("--json", None, False, False, None),
        ("--l", "int", None, True, None),
        ("--m", "int", None, True, None),
        ("--n", "int", None, True, None),
    },
    "check-rank": {
        ("--alpha", "str", None, True, None),
        ("--char", "int", 0, False, None),
        ("--json", None, False, False, None),
        ("--l", "int", None, True, None),
        ("--m", "int", None, True, None),
        ("--n", "int", None, True, None),
        ("--seed", "int", 20240611, False, None),
        ("--trials", "int", 5, False, None),
    },
    "suite": {
        ("--inject-corruption", None, False, False, None),
        ("--json", None, False, False, None),
        ("--profile", None, "quick", False, ("quick", "full")),
        ("--seed", "int", 20240611, False, None),
    },
}


def test_option_table_is_frozen():
    # adding, dropping or renaming a knob, or changing its type, default or
    # choices, must be a deliberate edit of this table
    got = {
        name: {
            (
                " ".join(a.option_strings),
                a.type.__name__ if a.type else None,
                a.default,
                a.required,
                tuple(a.choices) if a.choices else None,
            )
            for a in sp._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, sp in subparsers(build_parser()).items()
    }
    assert got == OPTION_TABLE


def readme_command_lines() -> list[list[str]]:
    block = re.search(r"## Command line.*?```sh\n(.*?)```", README.read_text(), re.S)
    return [shlex.split(line, comments=True) for line in block.group(1).splitlines()]


def test_readme_commands_parse():
    # every documented command line parses, and every subcommand is documented
    parser = build_parser()
    seen = set()
    for words in readme_command_lines():
        assert words[0] == "detlab"
        seen.add(parser.parse_args(words[1:]).subcommand)
    assert seen == set(subparsers(parser))


def test_usage_errors_exit_two():
    assert run("check-mcm", "--m", "2").returncode == 2
    assert run("no-such-subcommand").returncode == 2
    assert run("check-mcm", "--m", "2", "--n", "3", "--l", "1", "--badflag").returncode == 2
    # hypothesis violation (m > n) is a usage error as well
    assert run("check-dualizing", "--l", "1", "--m", "3", "--n", "2").returncode == 2


def test_empty_checks_are_usage_errors():
    # a negative degree bound or zero trials would pass with no evidence
    for args in (
        ("check-fm", "--l", "1", "--m", "2", "--n", "2", "--tmax", "-1"),
        ("check-rank", "--m", "2", "--n", "2", "--l", "1", "--alpha", "1", "--trials", "0"),
        ("check-prop31", "--l", "2", "--m", "4", "--delta-max", "-1"),
    ):
        r = run(*args, "--json")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ")


def test_l_zero_is_usage_error():
    # l = 0 has an empty box; the setup rejects it before any checker runs,
    # and the Grassmannian checks reject l outside 1 <= l < m
    for args in (
        ("build-talpha", "--m", "2", "--n", "3", "--l", "0", "--alpha", "0"),
        ("check-prop31", "--l", "0", "--m", "3", "--alpha", "0", "--delta", "0"),
        ("check-prop31", "--l", "2", "--m", "2", "--alpha", "0", "--delta", "1"),
    ):
        r = run(*args, "--json")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ")


def test_grassmannian_outside_1_le_l_lt_m_is_usage_error():
    # Grass(l, m) needs 1 <= l < m: the checks and the Bott table say so by
    # name, before any box or weight is built
    for args in (
        ("check-tilt-grass", "--l", "0", "--m", "3"),
        ("check-tilt-grass", "--l", "3", "--m", "3"),
        ("bott", "--l", "2", "--m", "1", "--x", "0,0", "--y", "0"),
    ):
        r = run(*args, "--json")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert r.stderr == "error: need 1 <= l < m\n"


def test_check_rank_over_f2_returns():
    # over F_2 the points are rank 2 by construction, with entries 0 and 1
    r = run(
        "check-rank", "--m", "3", "--n", "3", "--l", "2", "--alpha", "1",
        "--trials", "1", "--char", "2", "--json", timeout=60,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["pass"] is True


@pytest.mark.parametrize("command", FROZEN_COMMANDS)
def test_json_reports_are_frozen(command):
    want = json.loads(FROZEN_REPORTS.read_text())[command]
    r = run(*command.split()[1:])
    assert r.returncode == 0
    assert r.stdout == json.dumps(want, indent=2) + "\n"


# SHA-256 of the whole --json stdout of the bench-scale Bott checks, of a
# dualizing check with a nonzero twist (n > m), of the (4, 8) tilting check,
# of two presentation dumps with char-0 coefficient strings and of a char-0
# resolution (the reports themselves, up to 1.1 MB each, are too large to
# keep in the repo), and of one report of each subcommand that no frozen
# report covers, in char 0 and over F_32003 where it takes --char
FROZEN_DIGESTS = {
    "build-talpha --m 3 --n 3 --l 1 --alpha 2":
        "d111a84f84047416c5aa913470debc237e99e9474e2163794c3de7f40b333243",
    "build-talpha --m 3 --n 4 --l 2 --alpha 1,1":
        "e91429306876b0f00e6e8c0b568aa4f6876a350dae474d9725e415a938747f00",
    "resolve --m 3 --n 5 --l 2 --alpha 1":
        "b3d83e9661f398f503a9a8155b4dc9b9121cd55ee22a7ee7e77d7a5a0955a87a",
    "check-tilt-grass --l 3 --m 8":
        "50b205ae69f457ac657b8afa81d869a7f50f6b1aa99a82c23dfb933b1fad1799",
    "check-tilt-springer --l 3 --m 6 --n 6 --tmax 2":
        "c6fa5947246e10c200d181a8dd187b6c0fa84640ff90b6dd35ba017925df00a8",
    "check-dualizing --l 3 --m 6 --n 6 --tmax 2":
        "1e0d286482e8146e52474019d1734c91b6759599962568deae6fdfb7875f808c",
    "check-dualizing --l 2 --m 4 --n 6 --tmax 2":
        "3106009fc1754646abbda5a465530296ff31ebbfaae33147ebb4e58a7e2cba96",
    "check-tilt-grass --l 4 --m 8":
        "184e2dd82ffedc42ee9916fc13f567d3d29bb8dbf7530bb079e43258c7d8d2e9",
    "check-mcm --m 3 --n 4 --l 2":
        "3d5e0cf0bb713d93d23840ed0821f0c65e50c2f19a9437232645ab30939302f3",
    "check-mcm --m 2 --n 4 --l 1 --char 32003":
        "b8bea55a86a46d08ee3661b87077378a48cac3914a2f1dcc8f1399b822dbf28c",
    "check-end-mcm --m 3 --n 3 --l 1":
        "cc8fb84fc4da1fa6ca60f39f6d680d73f8a43b64e09092da053a9c33c00ab1db",
    "check-end-mcm --m 2 --n 3 --l 1 --char 32003":
        "bb6049f612c7fe5852e0e6f8e7a81bc1007b47e03faf23144f6f7a6fb93d4f1a",
    "check-rank --m 3 --n 4 --l 2 --alpha 1,1":
        "64c2c428ca79e9553ee78b398ad0e790fb9e5cd2118116f9889b720f9c4ce8a9",
    "check-rank --m 3 --n 3 --l 2 --alpha 1 --char 32003 --trials 2 --seed 5":
        "8906cec7d6ea2d1ec17c0cbeb76fb023fb0c0473ffaa22244e166352457f2aad",
    "lr --a 3,2,1 --b 2,1":
        "b504dc37c270a291f716fea6eba954b94dce4844d5c412b82944936b1bf42919",
    "partitions --u 3 --v 3":
        "b8e86f8d5939b9ae7e66eb470dac3580650c02f23d8a2be4b1157207c76a59ac",
    "bott --l 2 --m 5 --x 1,-1 --y 2,0,-3":
        "f0920349cd85f42abd3fbd207b948f2c8a665be22bcfd009cc142a3bc4e50e8c",
}


@pytest.mark.parametrize("command", sorted(FROZEN_DIGESTS))
def test_json_report_digests_are_frozen(command):
    r = run(*command.split(), "--json")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == FROZEN_DIGESTS[command]


def test_suite_quick_passes():
    r = run("suite", "--profile", "quick")
    assert r.returncode == 0
    assert "PASS" in r.stdout


def test_suite_corruption_fixture_fails():
    r = run("suite", "--profile", "quick", "--inject-corruption")
    assert r.returncode == 1
    assert "FAIL" in r.stdout


def test_build_talpha_roundtrip():
    r = run("build-talpha", "--m", "2", "--n", "3", "--l", "1", "--alpha", "1", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    payload = report["cases"][0]["presentation"]
    from detlab.commalg import presentation_to_json
    from detlab.detvar import generic_setup, wedge_module

    direct = wedge_module(generic_setup(2, 3, 1), (1,)).presentation
    assert payload == presentation_to_json(direct)


def test_resolve_subcommand():
    r = run("resolve", "--m", "2", "--n", "3", "--l", "1", "--alpha", "0", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["cases"][0]["pd"] == 2
    assert report["cases"][0]["betti_ranks"] == [1, 3, 2]


def test_resolve_fails_when_the_betti_table_misses_the_hilbert_series(monkeypatch, capsys):
    """A resolution whose last differential lost a column still composes
    to zero, so only the Euler-series comparison can catch it."""

    def truncated(pres):
        res = free_resolution(pres)
        last = res.maps[-1]
        source = FreeModule(last.source.ring, last.source.degrees[:-1])
        short = ModuleMap(source, last.target, last.columns[:-1])
        return Resolution(res.f0, res.maps[:-1] + [short])

    monkeypatch.setattr(cli, "free_resolution", truncated)
    code = cli.main(["resolve", "--m", "3", "--n", "3", "--l", "1", "--alpha", "2", "--json"])
    out, err = capsys.readouterr()
    assert (code, json.loads(out)["pass"], err) == (1, False, "")


PROFILE_SUBCOMMANDS = {
    "partitions", "check-tilt-grass", "check-prop31", "check-tilt-springer",
    "check-dualizing", "check-fm", "check-mcm", "check-end-mcm", "check-flip",
    "check-end-dual", "check-rank", "resolve",
}


def test_profiles_are_command_lines_of_every_checker():
    # a family dropped from the full profile fails here by name
    parser = build_parser()
    names = {
        profile: {
            parser.parse_args(line.split()).subcommand
            for line in suite.command_lines(profile, DEFAULT_SEED)
        }
        for profile in ("quick", "full")
    }
    assert names["quick"] <= names["full"] == PROFILE_SUBCOMMANDS
    with pytest.raises(ValueError):
        suite.command_lines("medium", DEFAULT_SEED)


def test_partitions_subcommand():
    r = run("partitions", "--u", "2", "--v", "2", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["parameters"]["count"] == 6
    assert [c["partition"] for c in report["cases"]][:3] == [[], [1], [1, 1]]


def test_hom_empty_source():
    # degenerate inputs stay legal through the CLI surface
    r = run("resolve", "--m", "2", "--n", "2", "--l", "1", "--alpha", "0", "--json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["cases"][0]["pd"] == 1


def test_bott_subcommand():
    r = run("bott", "--l", "1", "--m", "2", "--x", "0", "--y", "2", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["cases"] == [
        {
            "degree": 1,
            "weights": [{"weight": [1, 1], "multiplicity": 1}],
            "dimension": 1,
        }
    ]
