import json
import os
import re

import pytest

from metafix import cli, fixpoint
from metafix.braid import GassnerConventionError
from metafix.cli import main
from metafix.fixpoint import InternalCheckError
from metafix.laurent import ExponentOverflowError, LaurentPoly
from metafix.matrices import ExactDivisionError
from metafix.words import MAX_LETTERS
from tests.conftest import data_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_analyze_displaced_pair(capsys):
    rep = run_json(capsys, "analyze", data_path("displaced_pair.endo"), "--json", "--bound", "2")
    assert rep["ia"] is True
    assert rep["det_JmI"] == "0"
    assert rep["rank_JmI"] == 1
    assert rep["fix"]["rank_defect_class"] == "rank=n-1"
    assert rep["fix"]["witness_in_commutator"] is None
    assert all(c["status"] == "none" for c in rep["fix"]["cosets"])


def test_analyze_infinite_fix(capsys):
    rep = run_json(capsys, "analyze", data_path("infinite_fix.endo"), "--json", "--bound", "1")
    assert rep["fix"]["rank_defect_class"] == "rank<=n-2"
    assert rep["fix"]["witness_in_commutator"] == "x3 x2 x3^-1 x2^-1"
    by_a = {tuple(c["a"]): c for c in rep["fix"]["cosets"]}
    assert by_a[(0, 1, 0)]["status"] == "found"
    assert by_a[(0, 1, 0)]["witness"] == "x2"
    assert by_a[(1, 0, 0)]["status"] == "none"


def test_analyze_identity_probes_every_coset(capsys):
    rep = run_json(capsys, "analyze", data_path("identity2.endo"), "--json", "--bound", "1")
    assert all(c["status"] == "found" for c in rep["fix"]["cosets"])


def test_analyze_non_ia_skips_detectors(tmp_path, capsys):
    f = tmp_path / "swap.endo"
    f.write_text("x1 -> x2\nx2 -> x1\n")
    rep = run_json(capsys, "analyze", str(f), "--json")
    assert rep["ia"] is False
    assert rep["fix"] is None
    assert rep["jacobian"] == [["0", "1"], ["1", "0"]]


def test_analyze_input_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.endo"))
    assert code == 2 and "error" in err

    f = tmp_path / "bad.endo"
    f.write_text("x1 -> x9\nx2 -> x2\n")
    code, _, err = run_cli(capsys, "analyze", str(f))
    assert code == 2 and "error" in err


def test_json_is_deterministic(capsys):
    rep1 = run_json(capsys, "analyze", data_path("infinite_fix.endo"), "--json", "--bound", "1")
    rep2 = run_json(capsys, "analyze", data_path("infinite_fix.endo"), "--json", "--bound", "1")
    rep1.pop("timing")
    rep2.pop("timing")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_emitted_witnesses_reverify(capsys):
    rep = run_json(capsys, "analyze", data_path("infinite_fix.endo"), "--json", "--bound", "1")
    witnesses = [rep["fix"]["witness_in_commutator"]]
    witnesses += [c["witness"] for c in rep["fix"]["cosets"] if c["status"] == "found"]
    for w in witnesses:
        check = run_json(capsys, "verify", data_path("infinite_fix.endo"), w, "--json")
        assert check["fixed"] is True


def test_verify_command(capsys):
    rep = run_json(capsys, "verify", data_path("infinite_fix.endo"), "x2", "--json")
    assert rep["fixed"] is True and rep["trivial_word"] is False
    assert rep["difference_coords"] == ["0", "0", "0"]

    rep = run_json(capsys, "verify", data_path("displaced_pair.endo"), "[x1,x2]", "--json")
    assert rep["fixed"] is False

    rep = run_json(capsys, "verify", data_path("displaced_pair.endo"), "1", "--json")
    assert rep["fixed"] is True and rep["trivial_word"] is True


def test_braid_command(capsys):
    rep = run_json(capsys, "braid", "3", "1", "--json")
    assert rep["braid"]["alexander_vanishes"] is True
    assert rep["braid"]["commutator_witness"] is not None
    assert rep["braid"]["bridge_consistent"] is True

    rep = run_json(capsys, "braid", "2", "A[1,2]", "--json")
    assert rep["braid"]["alexander_vanishes"] is False
    assert rep["braid"]["gassner_reduced"] == [["x1*x2"]]
    assert rep["braid"]["bridge_consistent"] is True
    assert rep["braid"]["findings"] == []

    code, _, err = run_cli(capsys, "braid", "2", "A[1,2")
    assert code == 2 and "error" in err


def test_main_repeats_after_a_usage_error(capsys):
    # one parser serves every call in a process, so a usage error must
    # leave nothing behind for the calls after it
    calls = [
        ["verify", data_path("displaced_pair.endo"), "[x1,x2]", "--json"],
        ["verify", data_path("infinite_fix.endo"), "x2"],
    ]
    before = [run_cli(capsys, *argv) for argv in calls]
    # a missing argument, and the oracle re-check, which has no switch
    for bad in (["verify", "--json"], ["analyze", data_path("infinite_fix.endo"), "--no-verify"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        after = [run_cli(capsys, *argv) for argv in calls]
        assert after == before
    assert [code for code, _, _ in before] == [0, 0]


def test_selftest_command(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--seed", "3")
    assert code == 0
    assert "FAIL" not in out


def test_plain_text_output(capsys):
    code, out, _ = run_cli(capsys, "analyze", data_path("displaced_pair.endo"), "--bound", "1")
    assert code == 0
    assert "rank_defect_class: rank=n-1" in out


def test_hostile_power_is_rejected(tmp_path, capsys):
    f = tmp_path / "hostile.endo"
    f.write_text("x1 -> x1 ([x1,x2])^100000000\nx2 -> x2\n")
    code, _, err = run_cli(capsys, "analyze", str(f))
    assert code == 2 and "exceeds" in err


def test_hostile_braids_are_rejected_before_building(monkeypatch, capsys):
    class Built(Exception):
        pass

    def built(b):
        raise Built

    monkeypatch.setattr(cli, "braid_automorphism", built)
    for argv, cap in (
        (["3", f"A[1,2]^{MAX_LETTERS + 1}"], MAX_LETTERS),
        ([str(cli.MAX_STRANDS + 1), "1"], cli.MAX_STRANDS),
    ):
        code, out, err = run_cli(capsys, "braid", *argv)
        assert code == 2 and out == "" and "error" in err and str(cap) in err, argv
    # the caps themselves are accepted
    for argv in (["3", f"A[1,2]^{MAX_LETTERS}"], [str(cli.MAX_STRANDS), "1"]):
        with pytest.raises(Built):
            main(["braid", *argv])


def test_negative_bound_is_rejected(capsys):
    code, out, err = run_cli(capsys, "analyze", data_path("displaced_pair.endo"), "--bound", "-3")
    assert code == 2 and "--bound" in err and out == ""


@pytest.mark.parametrize(
    "error",
    [
        ExactDivisionError,
        ExponentOverflowError,
        InternalCheckError,
        GassnerConventionError,
    ],
)
def test_invariant_errors_exit_3(monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(cli, "search_fixed", fail)
    code, _, err = run_cli(capsys, "analyze", data_path("infinite_fix.endo"))
    assert code == 3 and "internal invariant violation" in err


def test_failing_exact_division_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(LaurentPoly, "divide_exact", lambda self, divisor: None)
    code, _, err = run_cli(capsys, "analyze", data_path("infinite_fix.endo"), "--bound", "0")
    assert code == 3 and "division" in err


def test_input_files_are_closed(monkeypatch, capsys):
    opened = []

    def tracking_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(cli, "open", tracking_open, raising=False)
    run_json(capsys, "analyze", data_path("displaced_pair.endo"), "--json", "--bound", "0")
    run_json(capsys, "verify", data_path("displaced_pair.endo"), "x1", "--json")
    assert len(opened) == 2 and all(fh.closed for fh in opened)


def golden(name):
    with open(data_path(os.path.join("golden", name))) as fh:
        return json.load(fh)


@pytest.mark.parametrize("fixture", ["displaced_pair", "identity2", "infinite_fix", "rank_deficient"])
def test_analyze_matches_golden_report(capsys, fixture):
    # rank_deficient takes the rank-deficient route; the others take the
    # unique and decoupled routes
    rep = run_json(capsys, "analyze", data_path(fixture + ".endo"), "--bound", "2", "--json")
    rep.pop("timing")
    rep["input"]["file"] = fixture + ".endo"
    assert rep == golden(f"analyze_{fixture}.json")


def test_braid_matches_golden_report(capsys):
    rep = run_json(capsys, "braid", "3", "A[1,2] A[2,3]^-1", "--json")
    rep.pop("timing")
    assert rep == golden("braid_3.json")


@pytest.mark.parametrize("fixture,word,name", [
    ("infinite_fix", "x2", "x2"),
    ("infinite_fix", "1", "identity"),
    # 720 letters, not fixed
    ("infinite_fix", "(x1 x2^-1 x3 x1^-2 x2)^120", "power"),
    ("displaced_pair", "[x1,x2]", "commutator"),
])
def test_verify_matches_golden_report(capsys, fixture, word, name):
    rep = run_json(capsys, "verify", data_path(fixture + ".endo"), word, "--json")
    rep["input"]["file"] = fixture + ".endo"
    assert rep == golden(f"verify_{fixture}_{name}.json")


@pytest.mark.parametrize("argv,name", [
    (["analyze", data_path("rank_deficient.endo"), "--bound", "2"], "analyze_rank_deficient.json"),
    (["braid", "3", "A[1,2] A[2,3]^-1"], "braid_3.json"),
    (["verify", data_path("infinite_fix.endo"), "(x1 x2^-1 x3 x1^-2 x2)^120"],
     "verify_infinite_fix_power.json"),
])
def test_json_report_is_one_line(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    assert out.endswith("\n") and out.count("\n") == 1
    rep = json.loads(out)
    # perfbench strips the run time in this form before it compares the
    # answers of repeated passes; verify reports carry no run time
    timing = re.findall(r'"timing": ([-+0-9.e]+)', out)
    if argv[0] == "verify":
        assert timing == []
    else:
        assert [float(t) for t in timing] == [rep.pop("timing")]
    if "file" in rep["input"]:
        rep["input"]["file"] = os.path.basename(rep["input"]["file"])
    assert rep == golden(name)


@pytest.mark.parametrize("argv,message", [
    (["verify", data_path("infinite_fix.endo"), "x²"], "generator name needs an index (at position 0)"),
    (["verify", data_path("infinite_fix.endo"), "x1^²"], "exponent needs digits (at position 2)"),
    (["analyze", "SQUARE"], "line 1: left side must be a generator, got 'x²'"),
])
def test_digits_that_int_rejects_are_input_errors(tmp_path, capsys, argv, message):
    # "²" is a digit to str.isdigit, but int() rejects it
    square = tmp_path / "square.endo"
    square.write_text("x² -> x1\n", encoding="utf-8")
    argv = [str(square) if a == "SQUARE" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_analyze_builds_the_jacobian_once(monkeypatch, capsys):
    calls = []

    def counting(phi, _jacobian=cli.jacobian):
        calls.append(phi)
        return _jacobian(phi)

    monkeypatch.setattr(cli, "jacobian", counting)
    monkeypatch.setattr(fixpoint, "jacobian", counting)
    for fixture in ("displaced_pair", "infinite_fix", "rank_deficient"):
        calls.clear()
        run_json(capsys, "analyze", data_path(fixture + ".endo"), "--bound", "1", "--json")
        assert len(calls) == 1, fixture


def test_nested_commutators_are_rejected_before_expanding(tmp_path, capsys):
    # each level doubles the word: 40 levels would ask for about 2^40 letters
    nested = "[" * 40 + "x1,x2]" + ",x1]" * 39
    f = tmp_path / "nested.endo"
    f.write_text(f"x1 -> x1 {nested}\nx2 -> x2\n")
    code, out, err = run_cli(capsys, "analyze", str(f))
    assert code == 2 and out == ""
    assert "exceeds the limit" in err and str(MAX_LETTERS) in err


def test_oversized_coset_box_is_rejected(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the Jacobian was built for an oversized box")

    monkeypatch.setattr(cli, "jacobian", fail)
    code, out, err = run_cli(capsys, "analyze", data_path("infinite_fix.endo"), "--bound", "1000")
    assert code == 2 and out == ""
    assert "--bound" in err and str(cli.MAX_COSETS) in err
