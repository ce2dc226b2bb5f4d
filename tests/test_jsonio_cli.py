import collections
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie import appendix, brackets, cli, envelope, jsonio, nichols
from quadlie.braided import IndexOutOfRange, MinusOneNotSimple, NotYangBaxter, diagonal_braiding, require_words
from quadlie.brackets import BasisMismatch, Inconsistent, verify_lifted
from quadlie.classify import InternalContradiction, PreconditionViolated, UnsupportedField, canonical_form, conjugate
from quadlie.cli import main
from quadlie.envelope import Unstabilized
from quadlie.fields import GF, QQ, CharTwo, CheckFailed, DivisionByZero, FieldMismatch
from quadlie.jsonio import (
    InputError,
    algebra_from_json,
    algebra_to_json,
    field_from_json,
    field_to_json,
    load_input,
    scalar_from_json,
    scalar_to_json,
    validate_input,
)
from quadlie.linalg import HypothesisViolated, Mat
from quadlie.table import default_gamma, row_instance
from quadlie.tensoralg import DegreeMismatch


def test_scalar_roundtrip():
    for v in [QQ(3), QQ(-7) / QQ(2), QQ(0)]:
        assert scalar_from_json(QQ, scalar_to_json(v)) == v
    assert scalar_to_json(QQ(-7) / QQ(2)) == "-7/2"
    assert scalar_to_json(QQ(5)) == 5
    F = GF(7)
    assert scalar_from_json(F, scalar_to_json(F(12))) == F(5)
    with pytest.raises(InputError):
        scalar_from_json(GF(5), "1/2")
    with pytest.raises(InputError):
        scalar_from_json(QQ, "1/0")


def test_field_roundtrip():
    assert field_from_json("Q") is QQ
    assert field_from_json("GF(5)") is GF(5)
    assert field_from_json("GF5") is GF(5)
    assert field_to_json(GF(11)) == "GF(11)"
    with pytest.raises(InputError):
        field_from_json("R")
    with pytest.raises(InputError):
        field_from_json("GF(6)")


def test_algebra_roundtrip():
    for row in (1, 4, 7):
        q = row_instance(row, QQ, default_gamma(row, QQ))
        doc = algebra_to_json(q)
        q2 = algebra_from_json(doc)
        assert q2.space.c == q.space.c and q2.beta == q.beta


def test_validate_input_reports_pointer():
    with pytest.raises(InputError) as exc:
        validate_input({"field": "Q", "dim": 2})
    assert "at /" in str(exc.value)
    with pytest.raises(InputError):
        validate_input({"space": {"field": "Q", "dim": 2, "c": [[1]]}, "beta": [["x"]]})


def test_load_input_both_kinds():
    q = row_instance(1, QQ)
    doc = algebra_to_json(q)
    got = load_input(doc)
    assert got.beta == q.beta
    space_only = doc["space"]
    sp = load_input(space_only)
    assert sp.c == q.space.c


def _run(capsys, argv, stdin_text=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_verify_matches_library(capsys):
    q = row_instance(1, QQ)
    doc = json.dumps(algebra_to_json(q))
    code, out, _ = _run(capsys, ["verify", "--input", "-"], doc)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    lib = verify_lifted(q).as_dict()
    for k, v in lib.items():
        assert report[k] == v


def test_cli_verify_failure_names_axiom(capsys):
    q = row_instance(1, QQ)
    doc = algebra_to_json(q)
    doc["beta"][1][1] = 1
    code, out, _ = _run(capsys, ["verify", "--input", "-"], json.dumps(doc))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert "antisymmetry" in report["violated"]


def test_cli_classify_matches_library(capsys):
    q = row_instance(7, QQ, 3)
    from quadlie.classify import conjugate
    from quadlie.linalg import Mat

    moved = conjugate(q, Mat.from_rows(QQ, [[1, 1], [0, 1]]))
    doc = json.dumps(algebra_to_json(moved))
    code, out, _ = _run(capsys, ["classify", "--input", "-"], doc)
    assert code == 0
    report = json.loads(out)
    lib = canonical_form(moved)
    assert report["row"] == lib.row == 7
    assert report["gamma"] == 3


def test_cli_classify_verifies_once(capsys, monkeypatch):
    # the command line checks the axioms, and canonical_form does not check
    # them again; a failing bracket still exits 1 with its violated list
    from quadlie import classify

    calls = []

    def counted(q):
        calls.append(q)
        return verify_lifted(q)

    monkeypatch.setattr(cli, "verify_lifted", counted)
    monkeypatch.setattr(classify, "verify_lifted", counted)
    shear = Mat.from_rows(GF(5), [[1, 1], [0, 1]])
    for row in range(1, 9):
        q = classify.conjugate(row_instance(row, GF(5), default_gamma(row, GF(5))), shear)
        calls.clear()
        code, out, _ = _run(capsys, ["classify", "--input", "-"], json.dumps(algebra_to_json(q)))
        assert code == 0 and json.loads(out)["row"] == row
        assert len(calls) == 1, row
    calls.clear()
    code, out, _ = _run(capsys, ["classify", "--input", "-"], json.dumps(_BAD_BRACKET))
    assert code == 1 and out == _ANTISYMMETRY_FAILED
    assert len(calls) == 1


def test_cli_envelope(capsys):
    q = row_instance(1, QQ)
    doc = json.dumps(algebra_to_json(q))
    code, out, _ = _run(capsys, ["envelope", "--input", "-", "--degree", "4"], doc)
    assert code == 0
    report = json.loads(out)
    assert report["filtration_dims"] == [1, 2, 3, 4, 5]
    assert report["sq_graded_dims"] == [1, 2, 3, 4, 5]
    assert report["pbw"] is True
    assert report["bg_conditions"] == {"I": True, "J": True}


def test_cli_primitives(capsys):
    q = row_instance(1, QQ)
    doc = json.dumps({"field": "Q", "dim": 2, "c": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]})
    code, out, _ = _run(capsys, ["primitives", "--input", "-", "--degree", "4"], doc)
    assert code == 0
    report = json.loads(out)
    assert report["primitives_equal_generators"] is True
    assert report["primitive_dim"] == 2


def test_cli_primitives_with_bracket(capsys):
    q = row_instance(1, QQ)
    doc = json.dumps(algebra_to_json(q))
    code, out, _ = _run(capsys, ["primitives", "--input", "-", "--degree", "4"], doc)
    assert code == 0
    report = json.loads(out)
    assert report["primitives_equal_generators"] is True
    assert report["levels"]["1"] == [
        [{"word": [1], "coeff": 1}],
        [{"word": [2], "coeff": 1}],
    ]


def test_cli_nichols_check(capsys):
    doc = json.dumps({"field": "GF(3)", "dim": 2, "c": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]})
    code, out, _ = _run(capsys, ["nichols-check", "--input", "-", "--degree", "3"], doc)
    assert code == 1  # the characteristic-3 obstruction is a failed check
    report = json.loads(out)
    assert report["quadratic_at_truncation"] is False


def test_cli_table_deterministic(capsys):
    code1, out1, _ = _run(capsys, ["table", "--gamma", "2"])
    code2, out2, _ = _run(capsys, ["table", "--gamma", "2"])
    assert code1 == code2 == 0
    assert out1 == out2
    rows = json.loads(out1)["rows"]
    assert [r["row"] for r in rows] == list(range(1, 9))
    # row 5 lists x1^2 - x2 x1 + x1 x2 + x1
    assert rows[4]["relations"] == [
        [
            {"word": [1], "coeff": 1},
            {"word": [1, 1], "coeff": 1},
            {"word": [2, 1], "coeff": -1},
            {"word": [1, 2], "coeff": 1},
        ]
    ]


def test_cli_table_prime_field_and_fraction_gamma(capsys):
    code, out, _ = _run(capsys, ["table", "--field", "GF(7)", "--gamma", "3"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 8 and rows[2]["gamma"] == 3
    # the field is echoed as written, in any spelling the schema allows
    code, bare, _ = _run(capsys, ["table", "--field", "GF7", "--gamma", "3"])
    assert code == 0 and bare == out.replace('"GF(7)"', '"GF7"', 1)
    code, out, _ = _run(capsys, ["table", "--gamma", "1/4"])
    assert code == 0
    assert json.loads(out)["rows"][2]["gamma"] == "1/4"
    # argparse reads "--gamma -3/2" as an option, so a negative fraction is
    # written with "="
    code, out, _ = _run(capsys, ["table", "--gamma=-3/2"])
    assert code == 0
    assert json.loads(out)["rows"][2]["gamma"] == "-3/2"


def test_cli_search_dim1(capsys):
    code, out, _ = _run(capsys, ["search", "--field", "GF(5)", "--scope", "dim1_rigidity"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_cli_search_udu(capsys):
    code, out, _ = _run(capsys, ["search", "--field", "Q", "--scope", "udu", "--samples", "25"])
    assert code == 0


def test_cli_search_survey_over_q_is_usage_error(capsys):
    code, _, err = _run(capsys, ["search", "--field", "Q", "--scope", "random_survey"])
    assert code == 2
    assert "input error" in err


def test_cli_bad_input_exit_2(capsys):
    code, _, err = _run(capsys, ["verify", "--input", "-"], '{"field": "Q"}')
    assert code == 2
    assert "input error" in err
    code, _, err = _run(capsys, ["verify", "--input", "/nonexistent.json"])
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "envelope"])
def test_cli_input_path_directory_exit_2(capsys, tmp_path, command):
    # an OSError other than a missing file is an input error too
    code, out, err = _run(capsys, [command, "--input", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


@pytest.mark.parametrize(
    "field, scalar, pointer",
    [
        ("Q\n", "-3/2\n", "/field"),
        ("Q", "-3/2\n", "/c/0/0"),
        (" Q ", 1, "/field"),
        ("GF((5))", 1, "/field"),
        ("GF(5)\n", 1, "/field"),
        ("GF(3) ", 1, "/field"),
        ("Q", "1_0", "/c/0/0"),
        ("Q", " 1/ 2", "/c/0/0"),
        ("Q", "\u0663", "/c/0/0"),
        ("Q", True, "/c/0/0"),
    ],
    ids=[
        "field",
        "scalar",
        "padded-Q",
        "doubled-parens",
        "GF-newline",
        "GF-space",
        "underscore",
        "padded-fraction",
        "Arabic-Indic-digit",
        "bool",
    ],
)
def test_cli_trailing_newline_exit_2(capsys, field, scalar, pointer):
    # a pattern matches the whole string: "$" does not also match before a
    # final newline, as it does in Python's re.match; the command line's
    # --field and --gamma and the converters hold a literal to the same
    # patterns as a document
    doc = {"field": field, "dim": 1, "c": [[scalar]]}
    code, out, err = _run(capsys, ["verify", "--input", "-"], json.dumps(doc))
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: at {pointer}: ")
    if pointer == "/field":
        with pytest.raises(InputError):
            field_from_json(field)
        argvs = [["table", "--field", field], ["search", "--field", field, "--scope", "dim1_rigidity"]]
    else:
        with pytest.raises(InputError):
            scalar_from_json(QQ, scalar)
        argvs = [["table", f"--gamma={scalar}"]]
    for argv in argvs:
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("input error: "), argv


def test_cli_oversized_modulus_exit_2(capsys):
    code, _, err = _run(capsys, ["table", "--field", f"GF({2**64 + 13})"])
    assert code == 2
    assert "input error" in err and "2**64" in err


@pytest.mark.parametrize(
    "exc, code, label",
    [
        (HypothesisViolated, 1, "check failed"),
        (BasisMismatch, 1, "check failed"),
        (Inconsistent, 1, "check failed"),
        (DegreeMismatch, 1, "check failed"),
        (CharTwo, 1, "check failed"),
        (NotYangBaxter, 1, "check failed"),
        (MinusOneNotSimple, 1, "check failed"),
        (Unstabilized, 1, "check failed"),
        (InternalContradiction, 1, "check failed"),
        (ValueError, 2, "input error"),
        (InputError, 2, "input error"),
    ],
)
def test_cli_exit_code_of_raised_error(capsys, monkeypatch, exc, code, label):
    # mathematical failures exit 1; only bad input exits 2
    def raising(field, gamma):
        raise exc("raised inside the command")

    monkeypatch.setattr(cli, "table_emit", raising)
    got, out, err = _run(capsys, ["table"])
    assert got == code
    assert out == ""
    assert err == f"{label}: raised inside the command\n"


_CHECK_FAILURES = [
    (CharTwo, ValueError),
    (NotYangBaxter, ValueError),
    (MinusOneNotSimple, ValueError),
    (Unstabilized, RuntimeError),
    (HypothesisViolated, ValueError),
    (BasisMismatch, ValueError),
    (Inconsistent, ValueError),
    (DegreeMismatch, ValueError),
    (InternalContradiction, RuntimeError),
]


def test_check_failures_share_one_base():
    # the command line exits 1 on exactly CheckFailed; library callers that
    # catch the old bases still catch every failure
    for exc, old_base in _CHECK_FAILURES:
        err = exc("x")
        assert isinstance(err, CheckFailed) and isinstance(err, old_base), exc
    for exc in (InputError, PreconditionViolated, UnsupportedField, FieldMismatch, DivisionByZero, IndexOutOfRange):
        assert not issubclass(exc, CheckFailed), exc


_NON_BRAID = {"field": "Q", "dim": 2, "c": [[1, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 2]]}
_ROW1 = algebra_to_json(row_instance(1, QQ))
_BAD_BRACKET = {**_ROW1, "beta": [list(_ROW1["beta"][0]), [0, 1, 0, 0]]}  # beta[1][1] = 1 breaks antisymmetry
_ROW3_SHEARED = algebra_to_json(conjugate(row_instance(3, QQ, default_gamma(3, QQ)), Mat.from_rows(QQ, [[1, 1], [0, 1]])))
_ANTISYMMETRY_FAILED = '{\n  "ok": false,\n  "violated": [\n    "antisymmetry"\n  ]\n}\n'

# stdout bytes and exit codes that no benchmark digest covers
_PINNED = {
    "dim1_rigidity": (
        ["search", "--scope", "dim1_rigidity", "--field", "GF(5)"],
        None,
        0,
        '{\n  "field": "GF(5)",\n  "ok": true,\n  "scope": "dim1_rigidity"\n}\n',
    ),
    "dim1_rigidity_bare_modulus": (
        ["search", "--scope", "dim1_rigidity", "--field", "GF5"],
        None,
        0,
        '{\n  "field": "GF5",\n  "ok": true,\n  "scope": "dim1_rigidity"\n}\n',
    ),
    "verify_text": (
        ["verify", "--input", "-", "--format", "text"],
        _ROW1,
        0,
        "antisymmetry   True\nbracket_left   True\nbracket_right  True\njacobi         True\n"
        "ok             True\nviolated       []\nyang_baxter    True\n",
    ),
    "classify_text": (
        # a matrix keeps its shape: one line per row
        ["classify", "--input", "-", "--format", "text"],
        _ROW3_SHEARED,
        0,
        "change_of_basis:\n  1 -1\n  0 1\ngamma                    2\n"
        "gamma_square_class_note  True\nok                       True\nrow                      3\n",
    ),
    "udu_text": (
        ["search", "--scope", "udu", "--field", "Q", "--format", "text"],
        None,
        0,
        "ok       True\nsamples  100\nscope    udu\n",
    ),
    "verify_non_braid": (
        ["verify", "--input", "-"],
        _NON_BRAID,
        1,
        '{\n  "ok": false,\n  "violated": [\n    "yang_baxter"\n  ],\n  "yang_baxter": false\n}\n',
    ),
    "classify_bad_bracket": (["classify", "--input", "-"], _BAD_BRACKET, 1, _ANTISYMMETRY_FAILED),
    "envelope_bad_bracket": (["envelope", "--input", "-"], _BAD_BRACKET, 1, _ANTISYMMETRY_FAILED),
    "classify_bad_bracket_text": (
        ["classify", "--input", "-", "--format", "text"],
        _BAD_BRACKET,
        1,
        "ok        False\nviolated:\n  antisymmetry\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_cli_pinned_output(capsys, case):
    argv, doc, code, stdout = _PINNED[case]
    got, out, err = _run(capsys, argv, None if doc is None else json.dumps(doc))
    assert (got, out, err) == (code, stdout, "")


def test_cli_text_format(capsys):
    q = row_instance(1, QQ)
    doc = json.dumps(algebra_to_json(q))
    code, out, _ = _run(capsys, ["verify", "--input", "-", "--format", "text"], doc)
    assert code == 0
    assert "yang_baxter" in out and "True" in out


@pytest.mark.parametrize("jobs", [0, -1, 3])
def test_cli_search_jobs_out_of_range_exit_2(capsys, jobs):
    # --jobs is removed, so every value, in range or not, is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["search", "--field", "GF(3)", "--scope", "case_families", "--jobs", str(jobs)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: quadlie") and f"unrecognized arguments: --jobs {jobs}" in err


def test_cli_search_refuses_removed_jobs_flag(capsys):
    # a removed option is refused with a usage error, never silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["search", "--field", "GF(3)", "--scope", "case_families", "--jobs", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: quadlie") and "unrecognized arguments: --jobs 2" in err


@pytest.mark.parametrize(
    "scope, field",
    [
        ("dim1_rigidity", "GF(263)"),
        ("case_families", "GF(11)"),
        ("random_survey", "GF(13)"),
    ],
)
def test_cli_search_enumeration_limit_exit_2(capsys, scope, field):
    code, out, err = _run(capsys, ["search", "--field", field, "--scope", scope])
    assert code == 2
    assert out == ""
    assert "input error" in err and "exceeds the limit" in err


@pytest.mark.parametrize("scope", ["case_families", "random_survey", "dim1_rigidity"])
def test_cli_search_characteristic_two_exit_2(capsys, scope):
    # GF(2) is refused by the same input check as Q and primes above the
    # limit, not reported as a failed check
    code, out, err = _run(capsys, ["search", "--field", "GF(2)", "--scope", scope])
    assert code == 2
    assert out == ""
    assert "input error" in err and "odd prime field" in err


def test_cli_search_large_prime_rejected_fast(capsys):
    start = time.perf_counter()
    code, _, err = _run(capsys, ["search", "--field", "GF(1000003)", "--scope", "dim1_rigidity"])
    assert code == 2
    assert "exceeds the limit" in err
    assert time.perf_counter() - start < 1.0


def test_enumeration_limits_admit_small_primes():
    for p in (3, 5, 7):
        assert p <= appendix.CASE_FAMILIES_MAX_P
        assert p <= appendix.SURVEY_MAX_P
        assert p <= brackets.DIM1_RIGIDITY_MAX_P
    assert appendix.CASE_FAMILIES_MAX_P < 11 <= appendix.SURVEY_MAX_P < 13 and brackets.DIM1_RIGIDITY_MAX_P < 263


@pytest.mark.parametrize("entry", [7, 9, -1])
def test_prime_field_entries_outside_range_rejected(capsys, entry):
    with pytest.raises(InputError, match=r"\[0, 7\)"):
        scalar_from_json(GF(7), entry)
    c = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, entry]]
    doc = json.dumps({"field": "GF(7)", "dim": 2, "c": c})
    code, out, err = _run(capsys, ["verify", "--input", "-"], doc)
    assert code == 2 and out == ""
    assert "input error" in err
    code, out, err = _run(capsys, ["table", "--field", "GF(7)", "--gamma", str(entry)])
    assert code == 2 and out == ""
    assert "input error" in err
    # over Q the same integers are plain rationals
    assert scalar_from_json(QQ, entry) == QQ(entry)


def test_cli_udu_sample_limit_exit_2(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["search", "--field", "GF(5)", "--scope", "udu", "--samples", "1000000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "input error" in err and "exceeds the limit" in err
    # the default (100) and the largest batch of the benchmark (430) pass
    assert appendix.UDU_MAX_SAMPLES >= 430
    code, out, _ = _run(capsys, ["search", "--field", "GF(5)", "--scope", "udu", "--samples", "430"])
    assert code == 0 and json.loads(out)["ok"] is True


@pytest.mark.parametrize("scope", ["udu", "random_survey"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_cli_samples_below_one_exit_2(capsys, scope, samples):
    # a search that would check nothing is refused, not reported as passed
    code, out, err = _run(capsys, ["search", "--field", "GF(5)", "--scope", scope, "--samples", samples])
    assert code == 2 and out == ""
    assert "input error" in err and "below the minimum 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["envelope", "--degree", "40"],
        ["envelope", "--degree", "6", "--buffer", "1000000000"],
        ["primitives", "--degree", "40"],
        ["nichols-check", "--degree", "40"],
        ["nichols-check", "--degree", "1000000000"],
        ["nichols-check", "--degree", "-1"],
        ["nichols-check", "--degree", "-5"],
    ],
    ids=" ".join,
)
def test_cli_degree_limit_exit_2(capsys, argv):
    doc = json.dumps(algebra_to_json(row_instance(8, QQ, default_gamma(8, QQ))))
    start = time.perf_counter()
    code, out, err = _run(capsys, [argv[0], "--input", "-", *argv[1:]], doc)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "input error" in err and "words of length" in err


@pytest.mark.parametrize("wrap", [False, True], ids=["space", "algebra"])
def test_cli_dim_limit_exit_2(capsys, monkeypatch, wrap):
    from quadlie import jsonio

    def no_matrix(*args, **kwargs):
        raise AssertionError("a matrix was built above the dimension limit")

    monkeypatch.setattr(jsonio, "mat_from_json", no_matrix)
    monkeypatch.setattr(jsonio, "BraidedSpace", no_matrix)
    n = jsonio.MAX_DIM + 1
    space = {"field": "Q", "dim": n, "c": [[int(i == j) for j in range(n * n)] for i in range(n * n)]}
    doc = {"space": space, "beta": [[0] * (n * n)] * n} if wrap else space
    start = time.perf_counter()
    code, out, err = _run(capsys, ["verify", "--input", "-"], json.dumps(doc))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "input error" in err and f"exceeds the limit {jsonio.MAX_DIM}" in err


def test_cli_envelope_word_limit_on_a_space_document(capsys):
    # a graded truncation builds words only up to degree max(N, 3), but the
    # command line holds envelope to the words of length <= degree + buffer + 2
    space = algebra_to_json(row_instance(1, QQ))["space"]
    got = _run(capsys, ["envelope", "--input", "-", "--degree", "10"], json.dumps(space))
    assert got == (2, "", "input error: ideal truncation: more than 16384 words of length <= 14 over 2 letters\n")


def test_cli_envelope_on_a_space_document_truncates_once(capsys, monkeypatch):
    # a bare space's presentation is the quadratic symmetric algebra's, so
    # its filtration is already sq_graded_dims
    calls = []
    truncate = envelope.ideal_truncation
    monkeypatch.setattr(envelope, "ideal_truncation", lambda *args: calls.append(args) or truncate(*args))
    space = algebra_to_json(row_instance(4, QQ, default_gamma(4, QQ)))["space"]
    code, out, _ = _run(capsys, ["envelope", "--input", "-", "--degree", "5", "--buffer", "1"], json.dumps(space))
    report = json.loads(out)
    assert code == 0 and len(calls) == 1
    assert report["sq_graded_dims"] == report["filtration_dims"] == envelope.sq_graded_dims(jsonio.load_input(space), 5)


def test_cli_nichols_check_on_four_letters(capsys):
    # nichols-check is held to its own word limit only, not to the envelope's
    doc = {"field": "Q", "dim": 4, "c": diagonal_braiding(4, [[1] * 4] * 4)}
    code, out, _ = _run(capsys, ["nichols-check", "--input", "-", "--degree", "4"], json.dumps(doc))
    assert code == 0 and json.loads(out)["symmetrizer_ranks"] == [1, 4, 10, 20, 35]


A2_AT_MINUS_ONE = {"field": "Q", "dim": 2, "c": diagonal_braiding(2, [[-1, -1], [1, -1]])}


def test_cli_nichols_check_a2_at_minus_one(capsys):
    # the first degree above 2 where the Nichols algebra is not quadratic:
    # rank 1 against the quadratic dimension 2 in degree 4
    doc = json.dumps(A2_AT_MINUS_ONE)
    code, out, _ = _run(capsys, ["nichols-check", "--input", "-", "--degree", "4"], doc)
    report = json.loads(out)
    assert code == 1 and report["quadratic_at_truncation"] is False
    assert report["symmetrizer_ranks"] == [1, 2, 2, 2, 1] and report["sq_graded_dims"] == [1, 2, 2, 2, 2]
    code, out, _ = _run(capsys, ["nichols-check", "--input", "-", "--degree", "3"], doc)
    assert code == 0 and json.loads(out)["quadratic_at_truncation"] is True


def test_cli_nichols_check_builds_no_symmetrizer(capsys, monkeypatch):
    # the ranks come from the row-space recursion: the dense symmetrizer and
    # the braid lifts are oracles only
    def dense(*args):
        raise AssertionError("dense symmetrizer built")

    monkeypatch.setattr(nichols, "quantum_symmetrizer", dense)
    monkeypatch.setattr(nichols, "braid_lift", dense)
    row2 = algebra_to_json(row_instance(2, QQ))["space"]
    flip3 = {"field": "Q", "dim": 3, "c": diagonal_braiding(3, [[1] * 3] * 3)}
    for doc, ranks in ((row2, [1, 2, 3, 4, 5, 6]), (flip3, [1, 3, 6, 10, 15, 21])):
        code, out, _ = _run(capsys, ["nichols-check", "--input", "-", "--degree", "5"], json.dumps(doc))
        assert code == 0 and json.loads(out)["symmetrizer_ranks"] == ranks


def test_cli_nichols_check_over_gf2(capsys):
    # pinned: over GF(2) the flip's Nichols algebra is the exterior algebra,
    # which is its quadratic algebra too, so nichols-check exits 0 with the
    # dense symmetrizer's ranks
    doc = {"field": "GF(2)", "dim": 2, "c": diagonal_braiding(2, [[1, 1], [1, 1]])}
    code, out, _ = _run(capsys, ["nichols-check", "--input", "-", "--degree", "3"], json.dumps(doc))
    report = json.loads(out)
    space = load_input(doc)
    assert code == 0 and report["quadratic_at_truncation"] is True
    assert report["symmetrizer_ranks"] == [nichols.quantum_symmetrizer(space, n).rank() for n in range(4)] == [1, 2, 1, 0]


def test_word_limits_admit_the_documented_degrees():
    # envelope and primitives up to --degree 9 at the default buffer 2,
    # nichols-check up to --degree 8, on two letters
    require_words(2, 9 + 2 + 2, envelope.MAX_WORDS, "envelope")
    require_words(2, 8, nichols.MAX_SYMMETRIZER_WORDS, "nichols-check")
    with pytest.raises(ValueError):
        require_words(2, 10 + 2 + 2, envelope.MAX_WORDS, "envelope")
    with pytest.raises(ValueError):
        require_words(2, 9, nichols.MAX_SYMMETRIZER_WORDS, "nichols-check")
    # on one letter the count still grows with the length
    with pytest.raises(ValueError):
        require_words(1, 10**9, envelope.MAX_WORDS, "envelope")


def _pointer(doc):
    """None if validate_input accepts doc, else the pointer it reports."""
    try:
        validate_input(doc)
    except InputError as exc:
        msg = str(exc)
        assert msg.startswith("at /"), msg
        return msg[3 : msg.index(": ")]
    return None


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("wrap", [False, True], ids=["space", "algebra"])
@pytest.mark.parametrize("where", ["dim", "scalar"])
def test_cli_integral_float_exit_2(capsys, command, wrap, where):
    # JSON Schema's "integer" admits 2.0; the input check does not, so a
    # float dim no longer reaches range(dim) and a float scalar is reported
    # at its pointer instead of as a bare "bad scalar 1.0"
    space = algebra_to_json(row_instance(1, QQ))["space"]
    if where == "dim":
        space["dim"], pointer = 2.0, "/dim"
    else:
        space["c"][0][0], pointer = 1.0, "/c/0/0"
    doc = {"space": space, "beta": [[0] * 4] * 2} if wrap else space
    code, out, err = _run(capsys, [command, "--input", "-"], json.dumps(doc))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: at {'/space' if wrap else ''}{pointer}: ")


_SCALARS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.from_regex(r"-?[0-9]{1,4}(/[1-9][0-9]{0,3})?", fullmatch=True),
)
_MATRICES = st.lists(st.lists(_SCALARS, min_size=1, max_size=2), min_size=1, max_size=2)
_SPACES = st.fixed_dictionaries(
    {
        "field": st.sampled_from(["Q", "GF(5)", "GF7", "GF(11", "GF3)", "GF(18446744073709551629)"]),
        "dim": st.integers(1, 9),
        "c": _MATRICES,
    }
)
_DOCS = st.one_of(_SPACES, st.fixed_dictionaries({"space": _SPACES, "beta": _MATRICES}))
_BAD_FIELDS = ["R", "", "GF", "GF()", "gf(5)", "GF(5))", "Q ", "QQ", "GF(-5)", "GF(5.0)"]
_BAD_SCALARS = ["x", "", "1/0", "1/-2", "1/", "/2", "1.5", "+1", "--1", " 1", "1/2/3", "0x10", "1e3", "½"]
_WRONG = {
    "root": [None, 5, "x", [], 1.5],
    "space": [None, 5, "x", [], 1.5],
    "field": [None, 5, [], {}, 1.5],
    "dim": [None, "2", [], {}, 1.5],
    "matrix": [None, 5, "x", {}, 1.5],
    "row": [None, 5, "x", {}, 1.5],
    "scalar": [None, [], {}, 1.5],
}
_KINDS = [
    "none",
    "missing key",
    "extra key",
    "wrong type",
    "bad field",
    "bad scalar",
    "empty matrix",
    "empty row",
    "dim below one",
    "boolean",
    "integral float",
]


def _mutate(data, doc, kind):
    """Apply one defect of the given kind to the valid doc, in place.
    Returns the document and the pointer of its defect (None for none)."""
    algebra = "space" in doc
    space, at = (doc["space"], "/space") if algebra else (doc, "")
    holder, key, m_at = data.draw(st.sampled_from([(space, "c", f"{at}/c")] + [(doc, "beta", "/beta")] * algebra))
    m = holder[key]
    i = data.draw(st.integers(0, len(m) - 1))
    j = data.draw(st.integers(0, len(m[i]) - 1))
    if kind == "none":
        return doc, None
    if kind in ("missing key", "extra key"):
        obj, pointer = data.draw(st.sampled_from([(doc, "/"), (space, "/space")] if algebra else [(doc, "/")]))
        if kind == "missing key":
            del obj[data.draw(st.sampled_from(sorted(obj)))]
        else:
            # at the root only an unknown key: a key of the other shape with
            # a bad value makes jsonschema's best match report that value
            obj["x" if obj is doc else data.draw(st.sampled_from(["x", "space", "beta"]))] = 0
        return doc, pointer
    if kind == "wrong type":
        where = data.draw(st.sampled_from(["root", "field", "dim", "matrix", "row", "scalar"] + ["space"] * algebra))
        value = data.draw(st.sampled_from(_WRONG[where]))
        if where == "root":
            return value, "/"
        if where == "space":
            doc["space"] = value
            return doc, "/space"
        if where in ("field", "dim"):
            space[where] = value
            return doc, f"{at}/{where}"
        if where == "matrix":
            holder[key] = value
            return doc, m_at
        if where == "row":
            m[i] = value
            return doc, f"{m_at}/{i}"
        m[i][j] = value
        return doc, f"{m_at}/{i}/{j}"
    if kind == "bad field":
        space["field"] = data.draw(st.sampled_from(_BAD_FIELDS))
        return doc, f"{at}/field"
    if kind == "empty matrix":
        m.clear()
        return doc, m_at
    if kind == "empty row":
        m[i] = []
        return doc, f"{m_at}/{i}"
    if kind == "dim below one":
        space["dim"] = data.draw(st.integers(-3, 0))
        return doc, f"{at}/dim"
    values = {
        "bad scalar": st.sampled_from(_BAD_SCALARS),
        "boolean": st.booleans(),
        "integral float": st.integers(-5, 5).map(float),
    }[kind]
    if data.draw(st.booleans()) or kind == "bad scalar":
        m[i][j] = data.draw(values)
        return doc, f"{m_at}/{i}/{j}"
    space["dim"] = data.draw(st.booleans() if kind == "boolean" else st.integers(1, 9).map(float))
    return doc, f"{at}/dim"


@pytest.mark.parametrize("kind", _KINDS)
def test_validate_input_agrees_with_schema_oracle(kind):
    # the shipped schema, through jsonschema, is the oracle of the direct
    # check: accept/reject agree on every document and, since each document
    # has at most one defect, so does the pointer; the one divergence is an
    # integral float (2.0), which JSON Schema counts as an integer
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = Path(jsonio.__file__).parent / "schemas" / "input.schema.json"
    validator = jsonschema.Draft202012Validator(json.loads(schema_path.read_text()))

    def oracle(doc):
        errors = sorted(validator.iter_errors(doc), key=lambda e: (len(e.absolute_path), str(e.absolute_path)))
        if not errors:
            return None
        return "/" + "/".join(str(p) for p in jsonschema.exceptions.best_match(errors).absolute_path)

    seen = collections.Counter()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_DOCS, st.data())
    def check(doc, data):
        doc, pointer = _mutate(data, doc, kind)
        ours = _pointer(doc)
        assert ours == pointer, doc
        assert oracle(doc) == (None if kind == "integral float" else pointer), doc
        seen["accepted" if ours is None else "rejected"] += 1

    check()
    # not vacuous: the valid documents are accepted, and each defect rejected
    assert list(seen) == ["accepted" if kind == "none" else "rejected"]
    assert seen.total() >= 40


_WITHOUT_JSONSCHEMA = """
import sys
sys.modules["jsonschema"] = None  # from now on, importing jsonschema raises ImportError
import quadlie.cli
code = quadlie.cli.main(sys.argv[1:])
loaded = [m for m in sys.modules if m.split(".")[0] in ("jsonschema", "referencing") and sys.modules[m] is not None]
sys.exit(f"loaded {loaded}" if loaded else code)
"""


def _subprocess_env():
    """The environment of a child interpreter that imports this package."""
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_runs_without_jsonschema():
    def verify(doc):
        argv = [sys.executable, "-c", _WITHOUT_JSONSCHEMA, "verify", "--input", "-"]
        return subprocess.run(argv, input=json.dumps(doc), capture_output=True, text=True, env=_subprocess_env(), timeout=60)

    ok = verify(algebra_to_json(row_instance(3, QQ, 2)))
    assert (ok.returncode, ok.stderr) == (0, "")
    assert json.loads(ok.stdout)["ok"] is True
    bad = verify({"field": "Q", "dim": 2})
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("input error: at /: ")


#: A braiding that fails the Yang-Baxter equation: verify's verdict is 1.
_NOT_YANG_BAXTER = {"field": "Q", "dim": 2, "c": [[1, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 2]]}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "argv, doc, code",
    [(["table"], None, 0), (["verify", "--input", "-"], _NOT_YANG_BAXTER, 1)],
    ids=["table", "verify"],
)
def test_closed_reader_keeps_the_verdict(argv, doc, code, fmt):
    # the read end of the stdout pipe is closed before the command starts,
    # so every write of the report fails: the command still exits with its
    # verdict, and writes nothing to stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quadlie.cli", *argv, "--format", fmt],
            input="" if doc is None else json.dumps(doc),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_subprocess_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")
