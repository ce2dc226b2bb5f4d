import io
import json
import multiprocessing
import os
import sys
import time

import pytest

from quadlie import appendix, brackets, cli, envelope, nichols
from quadlie.braided import require_words
from quadlie.brackets import BasisMismatch, Inconsistent, verify_lifted
from quadlie.classify import canonical_form
from quadlie.cli import main
from quadlie.fields import GF, QQ
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
from quadlie.linalg import HypothesisViolated
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
    code, out, _ = _run(capsys, ["table", "--gamma", "1/4"])
    assert code == 0
    assert json.loads(out)["rows"][2]["gamma"] == "1/4"


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


def test_cli_text_format(capsys):
    q = row_instance(1, QQ)
    doc = json.dumps(algebra_to_json(q))
    code, out, _ = _run(capsys, ["verify", "--input", "-", "--format", "text"], doc)
    assert code == 0
    assert "yang_baxter" in out and "True" in out


@pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
def test_cli_search_jobs_out_of_range_exit_2(capsys, monkeypatch, jobs):
    # rejected before any worker process exists
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was created")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out, err = _run(capsys, ["search", "--field", "GF(3)", "--scope", "case_families", "--jobs", str(jobs)])
    assert code == 2
    assert out == ""
    assert "input error" in err and "--jobs" in err


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
