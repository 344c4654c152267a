"""Command line front end: reports, exit codes, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import time
from fractions import Fraction
from itertools import zip_longest
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dskrv import cli, dshuffle, moulds
from dskrv.poly import Poly


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
    code, _ = run(capsys, "basis", "--weight", str(dshuffle.MAX_WEIGHT + 1))
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


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code = cli.main(["basis", "--weight", "3", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write report to {target}: No such file or directory\n"
    assert not target.exists()


def test_exp_builds_each_series_once(monkeypatch, capsys):
    # one exp_circle per basis element builds Phi for both the report and
    # the checks; log_circle's re-exponentiation of its increments is the
    # logarithm check's own step and is not counted
    from dskrv import groupexp

    calls, in_log = [], []
    exp_circle, log_circle = groupexp.exp_circle, groupexp.log_circle

    def counted_exp(f, trunc=groupexp.DEFAULT_TRUNCATION):
        if not in_log:
            calls.append(trunc)
        return exp_circle(f, trunc)

    def marked_log(phi):
        in_log.append(phi)
        try:
            return log_circle(phi)
        finally:
            in_log.pop()

    monkeypatch.setattr(groupexp, "exp_circle", counted_exp)
    monkeypatch.setattr(groupexp, "log_circle", marked_log)
    code, rep = run_json(capsys, "exp", "--weights", "3..5", "--truncate", "8")
    assert code == 0
    # dimensions 1, 0, 1 at weights 3, 4, 5
    assert [len(rep["payload"][n]) for n in ("3", "4", "5")] == [1, 0, 1]
    assert calls == [8, 8]


def test_timings_flag_is_opt_in(capsys):
    _, out = run(capsys, "basis", "--weight", "3", "--timings")
    rep = json.loads(out)
    total = rep["timings"]["total"]
    # no golden report holds a float: this is the writer's float path
    assert type(total) is float and f'"total": {total!r}' in out
    assert cli._json(rep) + "\n" == out


def test_failing_check_exits_one(monkeypatch, capsys):
    def broken(args, n):
        return {"verdict": False}, False

    monkeypatch.setitem(cli.SUITES, "thm33", (broken, (3, 8), False))
    code, rep = run_json(capsys, "verify", "thm33", "--weight", "5")
    assert code == 1
    assert rep["ok"] is False


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_suites_that_read_truncate_reject_order_zero(capsys, suite):
    # the table alone decides which suites need --truncate >= every weight
    _, _, truncates = cli.SUITES[suite]
    code = cli.main(["verify", suite, "--weight", "3", "--truncate", "0"])
    captured = capsys.readouterr()
    assert code == (2 if truncates else 0), captured.err
    assert (captured.out == "") is truncates


def test_failing_element_check_fails_the_report(monkeypatch, capsys):
    monkeypatch.setattr(moulds, "antipal_sum_check", lambda f: {"verdict": False, "consistent": True})
    code, rep = run_json(capsys, "verify", "thm33", "--weights", "3..4")
    assert code == 1
    assert rep["ok"] is False
    assert rep["payload"]["3"]["ok"] is False
    assert rep["payload"]["4"]["ok"] is True  # no basis elements at weight 4


def test_failing_sample_records_first_seed(monkeypatch, capsys):
    monkeypatch.setattr(cli, "special_equivalences", lambda f: {"agree": False, "existence": False})
    code, rep = run_json(
        capsys, "verify", "thm21", "--weights", "5..5", "--seed", "7", "--count", "3"
    )
    assert code == 1
    part = rep["payload"]["5"]
    assert part["agreements"] == 0
    assert part["witness"]["seed"] == 7


def test_map_failed_round_trip_text(monkeypatch, capsys):
    from dskrv.poly import Poly

    monkeypatch.setattr(cli, "krv_to_ds", lambda d: Poly.zero())
    code, out = run(capsys, "map", "--weight", "3", "--format", "text")
    assert code == 1
    assert "roundtrip=NO" in out
    assert "verdict: FAIL" in out


def test_version_recorded(capsys):
    import dskrv

    _, rep = run_json(capsys, "basis", "--weight", "3")
    assert rep["version"] == dskrv.__version__


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
def test_truncation_above_maximum_is_a_usage_error(monkeypatch, capsys, command):
    # the dense coproducts hold 2^T entries at degree T: an order above the
    # maximum must exit 2 before any series is built
    from dskrv import groupexp

    def refuse(*args, **kwargs):
        raise AssertionError("exp_circle called")

    monkeypatch.setattr(groupexp, "exp_circle", refuse)
    code = cli.main([*command, "--weight", "3", "--truncate", "17"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--truncate 17 is above the maximum order 16" in captured.err


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


@pytest.mark.parametrize("flags", [["--weight", "7"], ["--weights", "7"], ["--weights", "3..5"]])
def test_bracket_rejects_weight_flags(capsys, flags):
    code = cli.main(["bracket", "3", "5", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # not the weight-8 bracket
    assert "bracket takes its weights as w1 w2" in captured.err


def test_bracket_accepts_the_common_sampling_flags(capsys):
    # the benchmark passes these to every command
    code, rep = run_json(
        capsys, "bracket", "3", "5", "--seed", "4", "--count", "5", "--truncate", "12"
    )
    assert code == 0
    assert rep["payload"]["weight"] == 8


def test_bracket_above_the_maximum_weight_is_a_usage_error(capsys, monkeypatch):
    # weight 18 exhausts memory instead of failing; the check comes first
    def refuse(n):
        raise AssertionError("ds_basis called")

    monkeypatch.setattr(cli, "ds_basis", refuse)
    start = time.perf_counter()
    code = cli.main(["bracket", "9", "9"])
    captured = capsys.readouterr()
    assert code == 2 and time.perf_counter() - start < 1
    assert captured.out == ""
    assert "bracket weight 18 is above the maximum 16" in captured.err


def test_main_reuses_one_parser_and_a_usage_error_does_not_leak(capsys):
    cli.build_parser.cache_clear()
    try:
        assert cli.main(["bracket", "3", "5", "--weights", "7", "--index1", "0"]) == 2
        assert cli.main(["verify"]) == 2  # argparse: the suite is missing
        code, out = run(capsys, "bracket", "3", "5", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORTS["bracket 3 5"]["json"]
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser() is cli.build_parser()
    finally:
        cli.build_parser.cache_clear()


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


@pytest.mark.parametrize(
    "command", [("verify", "thm21", "--weights", "5..5"), ("verify", "propA3", "--weights", "3..3")]
)
def test_sampling_suite_with_zero_count_is_a_usage_error(capsys, command):
    code = cli.main([*command, "--count", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # no "samples: 0 ... verdict: pass"
    assert "--count 0 draws no random samples" in captured.err


@pytest.mark.parametrize("command", [("basis",), ("map",), ("mould",), ("verify", "thm33")])
def test_zero_count_is_accepted_where_count_is_unused(capsys, command):
    code, rep = run_json(capsys, *command, "--weights", "3..3", "--count", "0")
    assert code == 0
    assert rep["ok"] is True


def test_basis_weight_zero_is_a_usage_error(capsys):
    code = cli.main(["basis", "--weight", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # not the weight-3 basis
    assert "weight 0 outside supported range" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--weights", ""], "bad weight list ''"),
        (["--weights", "3,3"], "weight list '3,3' repeats a weight"),
        (["--weight", "3", "--weights", "5"], "give --weight or --weights, not both"),
    ],
    ids=["empty-list", "repeated-weight", "weight-and-weights"],
)
def test_ambiguous_weights_are_a_usage_error(capsys, argv, message):
    code = cli.main(["basis", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # no report for a weight set the user did not ask for
    assert message in captured.err


_weight = st.integers(3, 5).map(str)
_weight_args = st.one_of(
    _weight.map(lambda n: ["--weight", n]),
    st.tuples(_weight, _weight).map(lambda ab: ["--weights", "..".join(ab)]),
    st.lists(_weight, min_size=1, max_size=3).map(lambda ws: ["--weights", ",".join(ws)]),
)
_command = st.one_of(
    st.sampled_from([["basis"], ["map"], ["mould"], ["exp"]] + [["verify", s] for s in cli.SUITES]),
    st.tuples(_weight, _weight).map(lambda ab: ["bracket", *ab]),
)


@settings(max_examples=100, deadline=None)
@given(
    command=_command,
    weights=_weight_args,
    count=st.integers(-1, 3),
    trunc=st.integers(0, 6),
    strict=st.booleans(),
)
def test_exit_code_contract(command, weights, count, trunc, strict):
    argv = [*command, *weights, "--count", str(count), "--truncate", str(trunc)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv + ["--strict"] * strict)
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    else:
        assert json.loads(out.getvalue())["ok"] is (code == 0)


def test_internal_error_exits_two(monkeypatch, capsys):
    from dskrv import dshuffle, words
    from dskrv.poly import Poly

    # y^n pairs to nonzero with the stuffle of y^a and y^b, a + b = n
    monkeypatch.setattr(dshuffle, "starred_part", lambda f: Poly.word(words.y_power(f.degree())))
    code = cli.main(["bracket", "3", "5", "--strict"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: internal: CrossCheckError: ")


# sha256 of each report (stdout), recorded before the per-element suite
# loops were folded into one; a refactor of the command layer must keep
# every one of them.  The two --strict entries of bracket and mould were
# recorded when "strict": true entered their parameters.
GOLDEN_REPORTS = {
    "verify thm11 --weights 3..6": {
        "json": "2661a16a14808c3b5f55139a4baad58bca292102888f3a8f131defa2b3239f50",
        "text": "4bb6e5dfc3d85890f43a36c2aaff737005560c624b14d73a94a70cc5c4dc8651",
    },
    "verify thm12 --weights 3..6": {
        "json": "aa5a41176978de7293a770158906c376afc7bdf95bbae695788826e358477683",
        "text": "dc0075521c42285e299c4fa943af065914686209a63ddc7accd60325a05a9e7d",
    },
    "verify thm21 --weights 3..5 --count 5 --seed 7": {
        "json": "7c5a68163460bcfeb1bbcbb91490509e679072d71e04429f48ec2ac472fd4541",
        "text": "9624563877808fbb1d22dcf42b8fbde4a8de54bdbb58cfe0af8b2302aa119a34",
    },
    "verify thm33 --weights 3..6": {
        "json": "6cd84683c47f1063b942be9f9b1f92612b2c04da5ca34f7bc34183f71b86f676",
        "text": "bc4ade63e406170888a219e5ac0c5a6b7b91a722ceda406e45bc7c1be5d6a06c",
    },
    "verify thm34 --weights 3..6": {
        "json": "f21fb4a3063916f5152783bc35e9d1d464c61f2b56f63650e8c3a62ec8050b80",
        "text": "d792f025a34a1d097df16ea02c6c8e1cacca26aa9e97bc7338fa4541b354e80b",
    },
    "verify lemma35 --weights 3..6": {
        "json": "10377e94526fdb2a03642a10b928b2f03c37024e784f57ccc9f7b321673f813f",
        "text": "ff49a97f9bd148883a6da66b4c3beb8a1532f89e9d9bffaa7669fb98f0b32df3",
    },
    "verify lemmaA2 --weights 3..5": {
        "json": "6b481be470156d4e0b0d033e0a3ee3046fd358a5c3b04f14cbc2d34f29cb2066",
        "text": "ef04322624643c99da604e84bb8170824965092bbee547f890b79761e81bf5fc",
    },
    "verify ecalleA8 --weights 3..6": {
        "json": "e53f7944fdba877eac755e6ad526d1e398bf8740c10e31bba6988e90989c3975",
        "text": "d2c4c1edb0804760009d35a0471d09f9a9b76cde25aa175bcc7a4c54b36dc200",
    },
    "verify ecalleA8 --weights 3..8": {
        "json": "a0e3e74d6cb76aef8be80b5be21499fad3f745859022f07eb57618a30dad97b7",
        "text": "ca72bbc40b0bd8f3e941925622e5f143ee0b6bee191ed33ccad8f493c9d8e66f",
    },
    "verify ecalleA8 --weights 3..5 --strict": {
        "json": "b1b99c9ea4da9be1cd50d06bed0acbc30065bcbc4a279d9f5c0162a33bbcf063",
        "text": "33b9f01726770a6cd918138ae4720f45f5c4af645740a35ccf3aa1f08aa20bfb",
    },
    "verify propA3 --weights 3..5 --count 5 --seed 7": {
        "json": "bdc943524afca0067dde9f670a5681464f80327445db9e6ce531526f758c7fd5",
        "text": "f2be05a12574e46d1c168ba53a5b5696c41e2f824c6d4b12644bd4fcb9e0e5d4",
    },
    "verify group49 --weights 3..5 --truncate 8": {
        "json": "7b5610b9f9f7cc25beb7d4614cf10dd0d4d437732a783ea59723459828d7f682",
        "text": "3835babe1a6e57e4cd68e989bfe1fc58b133e5dbc5ee50f50a983a1f9167322a",
    },
    "verify group410 --weights 3..5 --truncate 8": {
        "json": "82a5cbd6e2c970a6af614489f447a3c2b94259e3896737a38af21ee24e2c1d5e",
        "text": "8f3c94d0c877c0f78240ccc7091c752db7401442db3435f47bae70d3816aea9f",
    },
    "verify thm42 --weights 3..5 --truncate 8": {
        "json": "a97722e57ef0e439cdf8648b021d4e94f724ff45b2d04544f163a2b1543a4610",
        "text": "330d2dfa7318838f55b63bac5586e4f1437c57738cf426a75b26d30db586ccd5",
    },
    "map --weights 3..6": {
        "json": "e2e0939cbf97e6382bb1f32b1779b08c9bf8fb23d2c4549948f58803a8c47f7e",
        "text": "91b6001a528c4fa1880551302b971f4e908944baecff76a32c0031ccbe0821dd",
    },
    "mould --weights 3..5 --check all": {
        "json": "ea223f2237e9e2954b40cd55e5c7cab93fad408d9ed288ede817acfeb0e93055",
        "text": "7ba2648c11afe7c35bef09041243c0cfe98f25ebcb0a702c95fd7bdd922320ff",
    },
    "mould --weights 3..8 --check all": {
        "json": "0c916563395b114e0f6678cf0bdda56b54308e12376ba02875a38828b7c28ef2",
        "text": "235f2a024493e14025b6436b4bd9276728d0d20ae6ca72ab9cd4e8b4e2a4552b",
    },
    "mould --weights 3..5 --check fixed": {
        "json": "891b3bc0c322e658bc5523b1d2673069d80c735535213499bcc87d517f3dc57d",
        "text": "9039a1e2c27aafd4b0c7d050a095a76b247d90b4f720f4c7318815ce48f1ce0d",
    },
    "mould --weights 3..5 --check rules": {
        "json": "cd952eface13bd0bdd5feb28f05d0eedb09707fb4dfa7c409af9e210f1849883",
        "text": "ad8d2db37cc6bddd42cbbfab9f29167eb1d6ffcba6f53e7a6c32f00af6ddfe03",
    },
    "mould --weights 3..5 --check ecalle": {
        "json": "5953301276219f508444d73bfeaa308127931af6ad995c806a090352cb482c5c",
        "text": "0f6e815e5c6bb11f76a9c3f8a8bdecfdb483303d157c2115643d86e159401206",
    },
    "mould --weights 3..5 --check all --strict": {
        "json": "7b83ab2bda01b306fa534f0ca9ed41c23dfb6afd8b300574bded425e82165013",
        "text": "8c66b69e86964b64949b2a15847e152374e653feb834a681d8a66ccf2dcf5e13",
    },
    "exp --weights 3..5 --truncate 8": {
        "json": "7ab4011572aa646bf143cc5ac1f40320c7a50bafd9ccf0f9ee0f3c0bc411973e",
        "text": "429c19e04dbdab056b607ecaba8f3dd625783a2a5f66b838a8b5ce5adbc7d7bf",
    },
    "bracket 3 5": {
        "json": "c4054e25de52ec6f171149c61f07ed5451755d778ef769745dd30e421935b078",
        "text": "5d8e02273b2de6038bf7167d69da67bc6bb4c23851198180bfbcde6f14c24adf",
    },
    "bracket 3 5 --strict": {
        "json": "4fc9420d0241506a482b4a34c0d48e0d34d9d13260a07a34900b4b197bf6bea3",
        "text": "da033d97082a788e4970cbe3dd55b086efa7d695f75bde58e582727fdfdddab3",
    },
    "verify thm11 --weights 5,3": {
        "json": "1f7ba3711c44077e9a6cc65f3809fa8e53abb97620f3de6695c0671e63df0655",
        "text": "048c68cc5892dc1d1f9e160f5264a3af93bca1a44184425d71b0e7ce63e0731a",
    },
    "map --weights 5,3": {
        "json": "a3a0f8178bb6d37561991e64537f35da421fccc35484d9721739d8160a848777",
        "text": "f06bf16b21567cf5923a4659025e44c017dab8d3a7d89f75a8c2ef98f7e31369",
    },
    "basis --weights 3..6": {
        "json": "176ede4b94d014982adfd23e830884a4eb299562403eb8d98455d7556a0ec367",
        "text": "d678ab46c28b8baf75834ec2527f8fbab9efc4aa697309c949f30b6fe01e814c",
    },
    # the default ranges of the benchmark's element suites and map, recorded
    # before the per-element certificates moved to integer numerators
    "map --weights 3..8": {
        "json": "c6c16bcc20efecc829c185c2c575e61a58828277a7693737f9c071cfe7f9ab56",
        "text": "a0772e3097052d7ec98a556f5cc454c1a44116d004a1e7e669f3f9cc0bdc8263",
    },
    "verify thm11 --weights 3..8": {
        "json": "2464a27970c0a2f7ba4263b39c33fc04014b9196e915783baa0dcb642520fde6",
        "text": "0945f660824278b39b5c62705f083ca93f07ccebd377b6af9840828ec16c4179",
    },
    "verify thm33 --weights 3..8": {
        "json": "1ae94a7d2425b5e2832a7d4924473bbab5b3ea88f773ac0cddd50ad9fad5c65e",
        "text": "c5c642304dc11dfc5c80e0dbd30cea9ff73d6ff530a46e54d33810b0548e42cb",
    },
    "verify thm34 --weights 3..8": {
        "json": "1e5afce8341a46dce564548f7b4324f79e3021a45b255fdc2b2e5fc05fce05b7",
        "text": "cbb0b22fc99fe1895d3d4df3fafac589b82216d495e4dce488d8c849cd081a79",
    },
    "verify lemma35 --weights 3..8": {
        "json": "48b594bf99c839694c56763a0a3229eec353eae56627a9c76dd65fa1abde5664",
        "text": "278eeff5527a9c35c3017c7466371a8a67b06f596871debcc1ce8b97ed6a8066",
    },
    "verify thm12 --weights 3..7": {
        "json": "e8c27502818af8711e43e9f0dce79607210c1657c7d741d93d5b944c1eda6f6b",
        "text": "8f5c1f2bf03c066bb911f4c1ccbabff8f7855de988908035c20b3ff2331ae56f",
    },
    # recorded when reports were json.dumps of the data that oracles.jsonable makes
    "basis --weights 3..10": {
        "json": "5f8c611d49863b720f9c7405cde87d680fedd4ffa344730ae0706732ca8b1d2d",
        "text": "e18a6c20c122b9b88e017ad18a1b81c6e975ff28b2683c7de1e3ad2a96fdaa57",
    },
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", sorted(GOLDEN_REPORTS))
def test_golden_report_hashes(capsys, command, fmt):
    code, out = run(capsys, *command.split(), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORTS[command][fmt]


def _dumps(obj, pad=""):
    """What json.dumps writes for the reference data of obj, in the layout of _json(obj, pad)."""
    return json.dumps(oracles.jsonable(obj), sort_keys=True, indent=None if pad is None else 2)


def _first_difference(a: str, b: str):
    """None when a == b, else the first pair of lines that differ; pytest's
    own diff of two whole reports takes minutes."""
    return next((ab for ab in zip_longest(a.splitlines(), b.splitlines()) if ab[0] != ab[1]), None)


@pytest.mark.parametrize("command", sorted(GOLDEN_REPORTS))
def test_writer_matches_json_dumps_on_golden_reports(monkeypatch, capsys, command):
    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, *rest: reports.append(report) or emit(report, *rest))
    run(capsys, *command.split())
    (report,) = reports
    assert _first_difference(cli._json(report), _dumps(report)) is None
    assert _first_difference(cli._json(report, None), _dumps(report, None)) is None


_keys = st.one_of(st.text(max_size=4), st.integers(-3, 30))
_fractions = st.one_of(st.fractions(), st.integers().map(Fraction))
_polys = st.dictionaries(
    st.integers(1, 64), st.one_of(st.integers(-3, 3), _fractions), max_size=4
).map(Poly)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),  # non-ASCII and control characters included
    _fractions,
    _polys,
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_values)
@example({"\u00e9": ["\x00\"\\\u2028\U0001f600", (), {}], 3: [Fraction(4, 1), -0.5, None, True]})
def test_writer_matches_json_dumps(obj):
    assert cli._json(obj) == _dumps(obj)
    assert cli._json(obj, None) == _dumps(obj, None)


@pytest.mark.parametrize("obj", [object(), {"a": [1, {2j}]}, [b"xy"]])
def test_writer_rejects_what_json_dumps_rejects(obj):
    with pytest.raises(TypeError):
        _dumps(obj)
    with pytest.raises(TypeError):
        cli._json(obj)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["bracket 3 5", "mould --weights 3..5 --check all"])
def test_strict_report_differs_from_default(capsys, command, fmt):
    _, default = run(capsys, *command.split(), "--format", fmt)
    _, strict = run(capsys, *command.split(), "--strict", "--format", fmt)
    assert strict != default
    assert '"strict": true' in strict and '"strict"' not in default
