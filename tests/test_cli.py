"""Command line front end: reports, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from dskrv import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_basis_weight3(capsys):
    code, rep = run_json(capsys, "basis", "--weight", "3")
    assert code == 0
    assert rep["ok"] is True
    assert rep["command"] == "basis"
    assert rep["payload"]["3"]["dimension"] == 1
    assert "timings" not in rep  # opt-in only


def test_basis_rejects_out_of_range_weight(capsys):
    code, _ = run(capsys, "basis", "--weight", "11")
    assert code == 2


def test_unknown_suite_is_a_usage_error(capsys):
    code, _ = run(capsys, "verify", "nope")
    assert code == 2


def test_every_documented_suite_is_registered():
    expected = {
        "thm11", "thm12", "thm21", "thm33", "thm34", "lemma35",
        "lemmaA2", "ecalleA8", "propA3", "group49", "group410", "thm42",
    }
    assert set(cli.SUITES) == expected


def test_verify_vacuous_weight_passes(capsys):
    # the weight-4 space is zero-dimensional: a vacuous pass, exit 0
    code, rep = run_json(capsys, "verify", "ecalleA8", "--weight", "4")
    assert code == 0
    assert rep["ok"] is True
    assert rep["payload"]["4"]["vacuous"] is True


def test_verify_thm21_seeded(capsys):
    code, rep = run_json(
        capsys, "verify", "thm21", "--weights", "3..4", "--seed", "7", "--count", "5"
    )
    assert code == 0
    assert rep["seed"] == 7
    for k in ("3", "4"):
        part = rep["payload"][k]
        assert part["ok"] and part["witness"] is None
        assert part["samples"] == 5
        assert part["lyndon_sweep"]["all_agree"]


def test_map_weight3_frozen(capsys):
    code, rep = run_json(capsys, "map", "--weight", "3")
    assert code == 0
    elem = rep["payload"]["3"][0]
    assert elem["derivation"]["traceA"] == "-1/3"
    assert elem["derivation"]["special"] is True
    assert elem["push_constant"] == "-1"
    assert elem["round_trip"] is True
    assert elem["ok"] is True


def test_bracket_compatibility(capsys):
    code, rep = run_json(capsys, "bracket", "3", "5")
    assert code == 0
    payload = rep["payload"]
    assert payload["is_member"] is True
    assert payload["commutator_compatible"] is True
    assert payload["weight"] == 8


def test_mould_checks(capsys):
    code, rep = run_json(capsys, "mould", "--weight", "5", "--check", "all")
    assert code == 0
    assert rep["ok"] is True


def test_exp_command(capsys):
    code, rep = run_json(capsys, "exp", "--weight", "3", "--truncate", "7")
    assert code == 0
    assert rep["payload"]["3"][0]["checks"]["verdict"] is True
    assert rep["parameters"]["truncate"] == 7


def test_byte_identical_reports(capsys):
    _, out1 = run(capsys, "verify", "thm33", "--weight", "5", "--seed", "3")
    _, out2 = run(capsys, "verify", "thm33", "--weight", "5", "--seed", "3")
    assert out1 == out2


def test_text_format_renders_exponents(capsys):
    code, out = run(capsys, "basis", "--weight", "3", "--format", "text")
    assert code == 0
    assert "x^2 y" in out
    assert "verdict: pass" in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "basis", "--weight", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["payload"]["3"]["dimension"] == 1


def test_timings_flag_is_opt_in(capsys):
    _, rep = run_json(capsys, "basis", "--weight", "3", "--timings")
    assert "timings" in rep and "total" in rep["timings"]


def test_failing_check_exits_one(monkeypatch, capsys):
    def broken(args, weights, seed):
        return False, {str(weights[0]): {"verdict": False}}

    monkeypatch.setitem(cli.SUITES, "thm33", (broken, "patched"))
    code, rep = run_json(capsys, "verify", "thm33", "--weight", "5")
    assert code == 1
    assert rep["ok"] is False


def test_version_recorded(capsys):
    import dskrv

    _, rep = run_json(capsys, "basis", "--weight", "3")
    assert rep["version"] == dskrv.__version__


def test_truncate_env_default(monkeypatch, capsys):
    monkeypatch.setenv("DSKRV_TRUNCATE", "6")
    # parser defaults are bound at construction, so go through main()
    code, rep = run_json(capsys, "exp", "--weight", "3")
    assert code == 0
    assert rep["parameters"]["truncate"] == 6


GROUP_COMMANDS = [("exp",), ("verify", "group49"), ("verify", "group410"), ("verify", "thm42")]


@pytest.mark.parametrize("command", GROUP_COMMANDS)
@pytest.mark.parametrize("trunc", ["0", "2"])
def test_truncation_below_weight_is_a_usage_error(capsys, command, trunc):
    code = cli.main([*command, "--weight", "3", "--truncate", trunc])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # no report, so no vacuous "pass"
    assert f"--truncate {trunc} is below weight 3" in captured.err


@pytest.mark.parametrize("command", GROUP_COMMANDS)
def test_truncation_env_below_weight_is_a_usage_error(monkeypatch, capsys, command):
    monkeypatch.setenv("DSKRV_TRUNCATE", "4")
    code, _ = run(capsys, *command, "--weights", "3..5")
    assert code == 2


def test_verify_thm42_defaults(capsys):
    # weights 3..5 at truncation order 12
    code, rep = run_json(capsys, "verify", "thm42")
    assert code == 0
    assert rep["parameters"]["weights"] == [3, 4, 5]
    assert rep["parameters"]["truncate"] == 12
    assert rep["payload"]["4"]["elements"] == []
    for n in ("3", "5"):
        (element,) = rep["payload"][n]["elements"]
        assert element["verdict"] is True
        assert element["shuffle_grouplike"]["pairs"] == 41025
        assert element["stuffle_grouplike"]["pairs"] == 10272


@pytest.mark.parametrize("flag", ["--index1", "--index2"])
def test_bracket_negative_index_is_a_usage_error(capsys, flag):
    code = cli.main(["bracket", "3", "5", flag, "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # no bracket of the last element instead
    assert "basis index out of range" in captured.err


@pytest.mark.parametrize(
    "command",
    [
        ("basis",),
        ("verify", "propA3"),
        ("verify", "thm21"),
        ("map",),
        ("bracket", "3", "5"),
        ("mould",),
        ("exp",),
    ],
)
def test_negative_count_is_a_usage_error(capsys, command):
    code = cli.main([*command, "--weights", "3..3", "--count", "-5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # no report with "samples: -5"
    assert "--count must be at least 0, got -5" in captured.err
