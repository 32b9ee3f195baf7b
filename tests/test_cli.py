import json
import os
import subprocess
import sys
from pathlib import Path

CMD = [sys.executable, "-m", "detlab"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(*args, env_extra=None):
    env = dict(os.environ)
    # the CLI runs in a child process: let it import this checkout's package
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env
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


def test_check_mcm_exit_zero():
    r = run("check-mcm", "--m", "2", "--n", "3", "--l", "1", "--alpha", "1", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["cases"][0]["pd"] == 2


def test_json_reports_are_byte_identical():
    args = ("check-rank", "--m", "2", "--n", "3", "--l", "1", "--alpha", "1", "--json")
    a = run(*args)
    b = run(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_seed_env_override():
    r = run(
        "check-rank",
        "--m",
        "2",
        "--n",
        "2",
        "--l",
        "1",
        "--alpha",
        "1",
        "--json",
        env_extra={"DETVAR_SEED": "12345"},
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["seed"] == 12345


def test_usage_errors_exit_two():
    assert run("check-mcm", "--m", "2").returncode == 2
    assert run("no-such-subcommand").returncode == 2
    assert run("check-mcm", "--m", "2", "--n", "3", "--l", "1", "--badflag").returncode == 2
    # hypothesis violation (m > n) is a usage error as well
    assert run("check-dualizing", "--l", "1", "--m", "3", "--n", "2").returncode == 2


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
    from detlab.commalg import hilbert_series, presentation_from_json
    from detlab.detvar import generic_setup, wedge_module

    pres = presentation_from_json(payload)
    setup = generic_setup(2, 3, 1)
    direct = wedge_module(setup, (1,)).presentation
    assert pres.gen_degrees == direct.gen_degrees
    assert hilbert_series(pres) == hilbert_series(direct)


def test_resolve_subcommand():
    r = run("resolve", "--m", "2", "--n", "3", "--l", "1", "--alpha", "0", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["cases"][0]["pd"] == 2
    assert report["cases"][0]["betti_ranks"] == [1, 3, 2]


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
