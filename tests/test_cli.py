import json
import os
import re
import subprocess
import sys

import pytest

from metafix import braid, cli, fox
from metafix.braid import GassnerConventionError
from metafix.cli import main
from metafix.fixpoint import InternalCheckError
from metafix.laurent import ExponentOverflowError, LaurentPoly
from metafix.matrices import ExactDivisionError
from metafix.words import MAX_LETTERS, Word, word_to_text
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


def test_selftest_reports_a_failing_batch(capsys, monkeypatch):
    from metafix import selfcheck

    # a predicate that fails on every third case: cases 2, 5, ..., 29
    failing = ("every third case", lambda rng, k: k % 3 != 2, 30)
    monkeypatch.setattr(selfcheck, "CHECKS", [failing, *selfcheck.CHECKS[1:]])
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "selftest every third case: FAIL (10/30)"
    assert len(lines) == len(selfcheck.CHECKS)
    assert all(line.endswith(": PASS") for line in lines[1:])


def test_plain_text_output(capsys):
    code, out, _ = run_cli(capsys, "analyze", data_path("displaced_pair.endo"), "--bound", "1")
    assert code == 0
    assert "rank_defect_class: rank=n-1" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", data_path("infinite_fix.endo"), "--bound", "1"),
        ("braid", "3", "A[1,2]"),
        ("verify", data_path("infinite_fix.endo"), "x2"),
    ],
)
def test_text_form_names_every_json_key(capsys, argv):
    # the indented text has the keys of the --json report, each top-level
    # key on an unindented line, and a scalar as its value
    report = run_json(capsys, *argv, "--json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    top = [line for line in out.splitlines() if not line.startswith(" ")]
    assert sorted(line.split(":", 1)[0] for line in top) == sorted(report)
    for key, value in report.items():
        if key != "timing" and not isinstance(value, (dict, list)):
            assert f"{key}: {value}" in top, key


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


@pytest.mark.parametrize("word", ["A[1,2]^1048576", "A[1,3]^131073"])
def test_braid_powers_past_the_image_limit_exit_2(capsys, word):
    # A[1,3]^131073 maps x2 alone to 8 * 131073 + 1 letters
    code, out, err = run_cli(capsys, "braid", "3", word)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"exceeds the limit of {MAX_LETTERS}" in err


def child_env(**extra):
    """The environment of a child process that imports this checkout's
    metafix."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_import_loads_no_dataclasses_and_no_selftest_modules():
    # a fresh process: a command loads only what analyze, braid and
    # verify run
    unwanted = {"dataclasses", "inspect", "metafix.selfcheck", "metafix.samples"}
    probe = f"import sys, metafix.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "unbuffered", [pytest.param("", id="buffered"), pytest.param("1", id="unbuffered")]
)
@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", data_path("infinite_fix.endo"), "--bound", "1", "--json"),
        ("braid", "3", "A[1,2]"),
        ("verify", data_path("infinite_fix.endo"), "x2"),
        ("--help",),
        ("analyze", "--help"),
    ],
)
def test_closed_stdout_exits_1_without_a_message(argv, unbuffered):
    # stdout's read end is closed before the child starts, so its first
    # write fails, or with buffered stdout the flush of its report
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "metafix.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env(PYTHONUNBUFFERED=unbuffered),
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


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


def test_unfixed_product_word_exits_3(monkeypatch, capsys):
    # on rank n - 1 the braid command reads its commutator answer off the
    # coordinates of x1 x2 x3; coordinates that J - I does not annihilate
    # (those of x1, which A[1,2] A[2,3] moves) abort as a convention bug
    assert run_json(capsys, "braid", "3", "A[1,2] A[2,3]", "--json")["rank_JmI"] == 2
    monkeypatch.setattr(braid, "fixed_word_coords", lambda n: fox.word_coords(Word.generator(0, n)))
    code, out, err = run_cli(capsys, "braid", "3", "A[1,2] A[2,3]")
    assert (code, out) == (3, "")
    assert err.startswith("internal invariant violation: ") and err.count("\n") == 1


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


def test_a_byte_order_mark_is_not_part_of_the_input(tmp_path, capsys):
    # files are read as UTF-8 whatever the locale, and a leading byte
    # order mark is dropped, not taken for part of the first generator
    plain = data_path("infinite_fix.endo")
    marked = tmp_path / "marked.endo"
    with open(plain, "rb") as fh:
        marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
    reports = []
    for path in (plain, str(marked)):
        rep = run_json(capsys, "analyze", path, "--bound", "1", "--json")
        rep.pop("timing")
        rep["input"].pop("file")
        reports.append(rep)
    assert reports[0] == reports[1]


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


RUN = 5000  # digits: past the 4300 that int() converts


@pytest.mark.parametrize("argv,message", [
    (["verify", data_path("infinite_fix.endo"), "x²"], "generator name needs an index (at position 0)"),
    (["verify", data_path("infinite_fix.endo"), "x1^²"], "exponent needs digits (at position 2)"),
    (["analyze", "SQUARE"], "line 1: left side must be a generator, got 'x²'"),
    pytest.param(
        ["verify", data_path("infinite_fix.endo"), "x1^" + "1" * RUN],
        f"number of {RUN} digits exceeds the limit of 7 digits (at position 2)",
        id="long-exponent",
    ),
    pytest.param(
        ["analyze", "LONG_LEFT"],
        f"line 2: left side: number of {RUN} digits exceeds the limit of 7 digits (at position 0)",
        id="long-left-side",
    ),
])
def test_digits_that_int_rejects_are_input_errors(tmp_path, capsys, argv, message):
    # "²" is a digit to str.isdigit, but int() rejects it, as it rejects a
    # run of more than 4300 digits; the message does not echo the run
    files = {"SQUARE": "x² -> x1\n", "LONG_LEFT": "x1 -> x1\nx" + "2" * RUN + " -> x2\n"}
    for key, text in files.items():
        (tmp_path / key).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_leading_zeros_of_a_long_exponent_are_dropped(tmp_path, capsys):
    f = tmp_path / "padded.endo"
    f.write_text("x1 -> x1^" + "0" * RUN + "1\nx2 -> x2 [x1,x2]\n")
    rep = run_json(capsys, "analyze", str(f), "--bound", "0", "--json")
    assert rep["input"]["images"] == ["x1", "x2 x1^-1 x2^-1 x1 x2"]


def record_image_passes(monkeypatch):
    """The words of the Fox passes that `fox.jacobian` runs: one per image
    word each time it builds J, and none when it returns the kept J."""
    passes = []

    def recording(w, abelian=False, _word_coords=fox.word_coords):
        passes.append(w)
        return _word_coords(w, abelian)

    monkeypatch.setattr(fox, "word_coords", recording)
    return passes


def test_analyze_builds_the_jacobian_once(monkeypatch, capsys):
    passes = record_image_passes(monkeypatch)
    for fixture in ("displaced_pair", "infinite_fix", "rank_deficient"):
        passes.clear()
        rep = run_json(capsys, "analyze", data_path(fixture + ".endo"), "--bound", "1", "--json")
        assert [word_to_text(w) for w in passes] == rep["input"]["images"], fixture


def test_braid_builds_the_jacobian_once(monkeypatch, capsys):
    passes = record_image_passes(monkeypatch)
    rep = run_json(capsys, "braid", "3", "A[1,2] A[1,3]", "--json")
    assert [word_to_text(w) for w in passes] == rep["braid"]["automorphism"]


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

    monkeypatch.setattr(fox, "word_coords", fail)
    code, out, err = run_cli(capsys, "analyze", data_path("infinite_fix.endo"), "--bound", "1000")
    assert code == 2 and out == ""
    assert "--bound" in err and str(cli.MAX_COSETS) in err


@pytest.mark.parametrize("argv", [
    pytest.param(["analyze", "MISSING"], id="missing-file"),
    pytest.param(["analyze", "DIR"], id="directory"),
    pytest.param(["verify", "UNDECODABLE", "x1"], id="undecodable-file"),
    pytest.param(["analyze", data_path("infinite_fix.endo"), "--bound", "-1"], id="negative-bound"),
    pytest.param(["analyze", data_path("infinite_fix.endo"), "--bound", "1000"], id="box-over-cap"),
    pytest.param(["analyze", data_path("infinite_fix.endo"), "--bound", "١"], id="arabic-indic-bound"),
    pytest.param(["analyze", data_path("infinite_fix.endo"), "--bound", "0_1"], id="underscore-bound"),
    pytest.param(["analyze", data_path("infinite_fix.endo"), "--bound", "1" * RUN], id="long-bound"),
    pytest.param(["braid", "٣", "A[1,2]"], id="arabic-indic-strands"),
    pytest.param(["braid", "1", "1"], id="one-strand"),
    pytest.param(["braid", "200", "1"], id="too-many-strands"),
    pytest.param(["braid", "3", "A[1,2] B[1,2]"], id="bad-braid-token"),
    pytest.param(["braid", "3", "A[1,2]^" + "1" * RUN], id="long-braid-exponent"),
    pytest.param(["braid", "3", f"A[{'1' * RUN},2]"], id="long-braid-index"),
    pytest.param(["braid", "3", "A[1,2]^1_0"], id="underscore-exponent"),
    pytest.param(["braid", "3", "A[1,2]^+2"], id="plus-exponent"),
    pytest.param(["braid", "3", "A[1,2]^٣"], id="arabic-indic-exponent"),
    pytest.param(["verify", data_path("infinite_fix.endo"), "x1 )"], id="bad-word"),
    pytest.param(["verify", data_path("infinite_fix.endo"), "(" * 10_000 + "x1"], id="deep-parentheses"),
    pytest.param(["verify", data_path("infinite_fix.endo"), "[1," * 10_000 + "x1"], id="deep-commutators"),
    pytest.param(["analyze", "DEEP"], id="deep-endomorphism-file"),
    pytest.param(["analyze", "LONG_SIDE"], id="long-left-side-text"),
])
def test_every_input_error_is_one_line_on_stderr_and_exit_2(tmp_path, capsys, argv):
    (tmp_path / "UNDECODABLE").write_bytes(b"x1 -> x1 \xff\n")
    (tmp_path / "LONG_SIDE").write_text("x1" + "1" * RUN + "y -> x1\n")
    (tmp_path / "DEEP").write_text("x1 -> " + "(" * 10_000 + "x1" + ")" * 10_000 + "\nx2 -> x2\n")
    files = {"MISSING": tmp_path / "missing.endo", "DIR": tmp_path}
    for name in ("UNDECODABLE", "LONG_SIDE", "DEEP"):
        files[name] = tmp_path / name
    code, out, err = run_cli(capsys, *(str(files.get(a, a)) for a in argv))
    assert code == 2 and out == ""
    line, newline, rest = err.partition("\n")
    assert newline and not rest
    assert line.startswith("error: ") and "Traceback" not in line and len(line) <= 200


@pytest.mark.parametrize("argv,name", [
    (["analyze", data_path("infinite_fix.endo"), "--bound", "-3"], "--bound"),
    (["analyze", data_path("infinite_fix.endo"), "--bound", "1" * RUN], "--bound"),
    (["braid", "٣", "A[1,2]"], "strands"),
    (["braid", "1" * RUN, "A[1,2]"], "strands"),
])
def test_cli_numbers_are_ascii_digits_and_errors_name_the_argument(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: argument {name}: ") and "1" * 100 not in err


def test_cli_numbers_drop_leading_zeros(capsys):
    rep = run_json(capsys, "braid", "03", "A[1,2]", "--json")
    assert rep["input"]["strands"] == 3
    rep = run_json(capsys, "analyze", data_path("infinite_fix.endo"), "--bound", "0001", "--json")
    assert len(rep["fix"]["cosets"]) == 26


TOP_USAGE = "usage: metafix [-h] {analyze,braid,verify,selftest} ..."
ANALYZE_USAGE = "usage: metafix analyze [-h] [--bound BOUND] [--json] file"


@pytest.mark.parametrize("argv,usage", [
    (["--help"], TOP_USAGE),
    (["-h"], TOP_USAGE),
    (["analyze", "--help"], ANALYZE_USAGE),
])
def test_help_exits_0_with_its_usage_line(capsys, argv, usage):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert info.value.code == 0 and err == ""
    assert out.splitlines()[0] == usage


@pytest.mark.parametrize("argv,usage,error", [
    ([], TOP_USAGE, "metafix: error: the following arguments are required: command"),
    (["nosuch"], TOP_USAGE, "metafix: error: argument command: invalid choice: 'nosuch'"),
    (["analyze"], ANALYZE_USAGE, "metafix analyze: error: the following arguments are required: file"),
    (["analyze", "f.endo", "extra"], TOP_USAGE, "metafix: error: unrecognized arguments: extra"),
    (["selftest", "--seed", "q"], "usage: metafix selftest [-h] [--seed SEED]",
     "metafix selftest: error: argument --seed: invalid int value: 'q'"),
])
def test_usage_errors_exit_2_with_the_usage_line(capsys, argv, usage, error):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert info.value.code == 2 and out == ""
    first, second = err.splitlines()
    assert first == usage and second.startswith(error)


def test_a_known_command_is_parsed_by_its_own_parser_alone(monkeypatch, capsys):
    def full_parse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a known command")

    monkeypatch.setattr(cli._PARSER, "parse_args", full_parse)
    monkeypatch.setattr(cli._PARSER, "parse_known_args", full_parse)
    rep = run_json(capsys, "analyze", data_path("identity2.endo"), "--bound", "0", "--json")
    assert rep["rank_JmI"] == 0
