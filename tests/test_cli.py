"""Command-line front end: job execution, JSON output, exit codes."""

import hashlib
import io
import json
import random
import sys
from fractions import Fraction

import pytest

import whlaurent as wl
from whlaurent.cli import main, run_job
from whlaurent.corpus import (random_orthogonal_pair, random_rational_factors,
                             random_rational_parameter)
from whlaurent.serialize import series_to_json

GOLDEN_JOB = {
    "ring": {"kind": "rational"},
    "window": 16,
    "factors": [
        {"type": "antiholo", "alpha": "1/2"},
        {"type": "mono", "p": 1, "u": "1"},
        {"type": "holo", "beta": "1/3"},
    ],
}


def run(tmp_path, capsys, job, *extra):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["--input", str(path), *extra])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_factorize_golden_output(tmp_path, capsys):
    code, payload = run(tmp_path, capsys, GOLDEN_JOB)
    assert code == 0
    assert payload["pi_minus"] == [{"n": -1, "c": "-1/2"}, {"n": 0, "c": "1"}]
    assert payload["pi_tilde"] == [{"n": 1, "c": "1"}]
    assert payload["pi_plus"] == [{"n": 0, "c": "1"}, {"n": 1, "c": "-1/3"}]
    assert payload["winding"] == 1
    assert float(payload["residual"]) == 0.0


def test_constant_one_symbol(tmp_path, capsys):
    job = {"ring": {"kind": "rational"}, "window": 8,
           "factors": [{"type": "mono", "p": 0, "u": "1"}]}
    code, payload = run(tmp_path, capsys, job)
    assert code == 0
    for key in ("pi_minus", "pi_tilde", "pi_plus"):
        assert payload[key] == [{"n": 0, "c": "1"}]
    assert payload["winding"] == 0


def test_verify_round_trip_and_corruption(tmp_path, capsys):
    code, payload = run(tmp_path, capsys, GOLDEN_JOB)
    assert code == 0
    verify_job = dict(GOLDEN_JOB)
    verify_job["mode"] = "verify"
    verify_job["factorization"] = {k: payload[k]
                                   for k in ("pi_minus", "pi_tilde", "pi_plus")}
    code, report = run(tmp_path, capsys, verify_job)
    assert code == 0 and float(report["residual"]) == 0.0
    corrupted = json.loads(json.dumps(verify_job))
    corrupted["factorization"]["pi_plus"][1]["c"] = "-1/4"
    code, report = run(tmp_path, capsys, corrupted)
    assert code == 3 and "reconstruction residual" in report["error"]


def _count_orthogonality_tests(monkeypatch):
    # a spy on is_orthogonal in every library module that holds it, so
    # that a second test of the same symbol anywhere would count
    calls = []
    test = wl.is_orthogonal
    for name, module in list(sys.modules.items()):
        if name.startswith("whlaurent") and getattr(module, "is_orthogonal", None) is test:
            monkeypatch.setattr(module, "is_orthogonal", lambda a: calls.append(a) or test(a))
    return calls


def test_orthogonal_mode(tmp_path, capsys, monkeypatch):
    calls = _count_orthogonality_tests(monkeypatch)
    job = {
        "ring": {"kind": "product", "arity": 2},
        "mode": "orthogonal",
        "window": 8,
        "coefficients": [{"n": 1, "c": "(1|0)"}, {"n": -1, "c": "(0|1)"}],
        "inverse": [{"n": -1, "c": "(1|0)"}, {"n": 1, "c": "(0|1)"}],
    }
    code, payload = run(tmp_path, capsys, job)
    assert code == 0
    assert payload["idempotents"] == [{"n": -1, "c": "(0|1)"},
                                      {"n": 1, "c": "(1|0)"}]
    assert payload["unit"] == "(1|1)"
    assert len(calls) == 1


def test_orthogonal_mode_rejects_non_orthogonal_symbol(tmp_path, capsys, monkeypatch):
    # a job error (exit 2) that names the problem, not a numerical failure
    calls = _count_orthogonality_tests(monkeypatch)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(dict(GOLDEN_JOB, mode="orthogonal")))
    assert main(["--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "orthogonal mode needs an orthogonal symbol" in err
    assert len(calls) == 1


def test_orthogonal_mode_checks_the_pair_first(tmp_path, capsys):
    # 2z times z^-1/3 is 2/3: the pair residual, not the idempotents, fails
    job = {"mode": "orthogonal", "coefficients": [{"n": 1, "c": "2"}],
           "inverse": [{"n": -1, "c": "1/3"}], "window": 4}
    code, report = run(tmp_path, capsys, job)
    assert code == 3 and report["error"].startswith("pair residual 0.333: "), report


def test_orthogonal_mode_needs_b_on_the_mirrored_support(tmp_path, capsys):
    # 2z^5 reads b_-5, outside the window: a window error, not a wrong sum
    job = {"mode": "orthogonal", "coefficients": [{"n": 5, "c": "2"}],
           "inverse": [{"n": -5, "c": "1/2"}], "window": 2}
    code, report = run(tmp_path, capsys, job)
    assert code == 3 and report == {
        "error": "inverse window [-2,2] too small; need at least [-5,-5]"}, report


def test_matrix_dump_mode(tmp_path, capsys):
    job = dict(GOLDEN_JOB)
    job["mode"] = "matrix-dump"
    code, payload = run(tmp_path, capsys, job)
    assert code == 0
    dumps = payload["matrices"]
    assert set(dumps) == {"U(a)", "F^{R+}(1,w)", "F^{R-}(1,w)", "Utilde(a,w)"}
    for text in dumps.values():
        assert "|" in text and any(set(l) == {"-"} for l in text.splitlines())


def test_dump_matrices_flag(tmp_path, capsys):
    code, payload = run(tmp_path, capsys, GOLDEN_JOB, "--dump-matrices")
    assert code == 0 and "matrices" in payload


def test_oracle_compare_seeded(tmp_path, capsys):
    job = {"ring": {"kind": "complex"}, "mode": "oracle-compare",
           "window": 24, "count": 5}
    code, payload = run(tmp_path, capsys, job, "--seed", "42")
    assert code == 0
    assert payload["cases"] == 5
    assert payload["max_diff"] <= 1e-8
    assert payload["windings_agree"] is True


def test_oracle_compare_on_given_factors(tmp_path, capsys):
    # a job with its own symbol is one case, not a seeded corpus
    job = {"ring": {"kind": "complex"}, "mode": "oracle-compare", "window": 24,
           "factors": [{"type": "antiholo", "alpha": "0.5,0.25"},
                       {"type": "mono", "p": -1, "u": "2,0"},
                       {"type": "holo", "beta": "-0.3,0.4"}]}
    code, payload = run(tmp_path, capsys, job)
    assert code == 0
    assert payload["cases"] == 1
    assert payload["max_diff"] <= 1e-8
    assert payload["windings_agree"] is True


def test_mode_and_window_overrides(tmp_path, capsys):
    job = dict(GOLDEN_JOB)
    job["mode"] = "matrix-dump"
    code, payload = run(tmp_path, capsys, job, "--mode", "factorize",
                        "--window", "20")
    assert code == 0 and payload["winding"] == 1


def test_validation_errors_exit_2(tmp_path, capsys):
    bad_jobs = [
        {"mode": "bogus", "factors": []},
        {"factors": [], "coefficients": []},          # both symbol forms
        {"window": 0, "factors": [{"type": "mono"}]},
        {"factors": [{"type": "spiral", "alpha": "1"}]},
        {"ring": {"kind": "rational"},                # exact ring, no inverse
         "coefficients": [{"n": 0, "c": "1"}, {"n": 1, "c": "-1/3"}]},
        {"ring": {"kind": "rational"}, "mode": "oracle-compare"},
        {"ring": {"kind": "rational"}, "mode": "verify",
         "factors": [{"type": "mono", "p": 0, "u": "1"}]},
    ]
    for job in bad_jobs:
        code, _ = run(tmp_path, capsys, job)
        assert code == 2, job


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--input", str(path)]) == 2
    assert main(["--input", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_job_must_be_a_json_object(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([GOLDEN_JOB])))
    assert main(["--input", "-"]) == 2
    assert "job must be a JSON object" in capsys.readouterr().err


def test_stdin_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(GOLDEN_JOB)))
    code = main(["--input", "-"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["winding"] == 1


def test_numerical_failure_exit_3(tmp_path, capsys):
    # a truncated inverse that does not actually invert the symbol
    job = {"ring": {"kind": "rational"}, "window": 8,
           "coefficients": [{"n": 0, "c": "1"}, {"n": 1, "c": "-1/3"}],
           "inverse": [{"n": 0, "c": "1"}, {"n": 1, "c": "1/3"},
                       {"n": 2, "c": "1/9"}]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["--input", str(path)])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert "error" in payload


def test_malformed_fields_exit_2(tmp_path, capsys):
    bad_jobs = [
        {"factors": [{"type": "antiholo"}]},          # no alpha
        {"window": "x", "factors": []},
        {"window": 4097, "factors": [{"type": "holo", "beta": "1/2"},
                                     {"type": "antiholo", "alpha": "1/3"}]},
        {"ring": {"kind": "complex", "tolerance": "tight"}, "factors": []},
        {"ring": {"kind": "complex"}, "samples": 1000,
         "coefficients": [{"n": 0, "c": "1,0"}]},
        {"ring": {"kind": "rational"}, "coefficients": [{"c": "1"}],
         "inverse": []},
        {"ring": {"kind": "complex"}, "mode": "oracle-compare", "count": "many"},
    ]
    for job in bad_jobs:
        code, _ = run(tmp_path, capsys, job)
        assert code == 2, job
    # a factor list that cannot be read or inverted names the field: a
    # mono factor whose u is no unit, over Q, Q^2 and C, and over C a
    # geometric parameter on the unit circle
    for job in [
        {"factors": [{"type": "mono", "p": 1, "u": "0"}]},
        {"ring": Q2_RING, "factors": [{"type": "holo", "beta": "(1/2|1/3)"},
                                      {"type": "mono", "u": "(1|0)"}]},
        {"ring": {"kind": "complex"}, "factors": [{"type": "mono", "u": "0,0"}]},
        {"ring": {"kind": "complex"}, "factors": [{"type": "antiholo", "alpha": "0,1"}]},
        # factors that each pass but whose product has no inverse
        {"ring": {"kind": "complex"}, "factors": [{"type": "holo", "beta": "0.5,0"},
                                                  {"type": "mono", "u": "1e-5,0"},
                                                  {"type": "mono", "u": "1e-5,0"}]},
        {"factors": [{"type": "antiholo", "alpha": "1/2"}, {"type": "holo", "beta": "2"}]},
        {"factors": [{"type": "antiholo", "alpha": "-2/3"},
                     {"type": "holo", "beta": "-3/2"}]},
        {"factors": ["antiholo"]},
        {"factors": [{"type": "spiral"}]},
    ]:
        code, err = run_err(tmp_path, capsys, job)
        assert code == 2 and "'factors'" in err, (job, err)


def test_internal_error_is_not_a_validation_error(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("internal bug")

    monkeypatch.setattr("whlaurent.cli.factorize", broken)
    with pytest.raises(TypeError):
        run(tmp_path, capsys, GOLDEN_JOB)
    # building the inverse names the 'factors' field only for a RingError
    monkeypatch.setattr("whlaurent.cli.invert_from_factors", broken)
    with pytest.raises(TypeError):
        run(tmp_path, capsys, GOLDEN_JOB)


def test_repeated_exponent_exit_2(tmp_path, capsys):
    # two entries for z^1 must not silently keep the last one (which would
    # factorize 1 - z/3, whose exact inverse is given)
    inverse = [{"n": k, "c": str(Fraction(1, 3 ** k))} for k in range(17)]
    job = {"ring": {"kind": "rational"}, "window": 16,
           "coefficients": [{"n": 0, "c": "1"}, {"n": 1, "c": "-1/2"},
                            {"n": 1, "c": "-1/3"}],
           "inverse": inverse}
    code, _ = run(tmp_path, capsys, job)
    assert code == 2
    job["coefficients"].pop(1)
    code, payload = run(tmp_path, capsys, job)
    assert code == 0 and payload["pi_plus"] == [{"n": 0, "c": "1"}, {"n": 1, "c": "-1/3"}]


def test_non_finite_complex_input_exit_2(tmp_path, capsys):
    # nan and inf parse as floats; a complex element must reject them
    jobs = [
        {"ring": {"kind": "complex"}, "factors": [{"type": "mono", "p": 0, "u": "inf,0"}]},
        {"ring": {"kind": "complex"}, "coefficients": [{"n": 0, "c": "nan,0"}]},
        {"ring": {"kind": "complex"}, "factors": [{"type": "holo", "beta": "nan,0"}]},
    ]
    for job in jobs:
        code, _ = run(tmp_path, capsys, job)
        assert code == 2, job


def run_err(tmp_path, capsys, job, *extra):
    """Exit code and standard error of one job."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["--input", str(path), *extra])
    return code, capsys.readouterr().err


HOLO_JOB = {"ring": {"kind": "complex"}, "factors": [{"type": "holo", "beta": "0.5,0"}]}


@pytest.mark.parametrize("value, flag", [("nan", False), ("inf", False), ("nan", True),
                                         (True, False)],
                         ids=["nan", "inf", "flag-nan", "bool"])
def test_non_finite_ring_tolerance_exit_2(tmp_path, capsys, value, flag):
    # a NaN or infinite tolerance, or a JSON boolean (float(True) is 1.0),
    # must fail as a bad ring, not later in the inverse with a message that
    # names no field
    job = json.loads(json.dumps(HOLO_JOB))
    if flag:
        code, err = run_err(tmp_path, capsys, job, "--tolerance", value)
    else:
        job["ring"]["tolerance"] = value
        code, err = run_err(tmp_path, capsys, job)
    assert code == 2 and "'ring'" in err and "finite" in err


@pytest.mark.parametrize("value", ["nan", "-1", "inf", True])
def test_bad_compare_tolerance_exit_2(tmp_path, capsys, value):
    # NaN and -1 rejected every difference (exit 3), inf and a JSON boolean
    # (read as 1) accepted any (exit 0)
    job = dict(ORACLE_JOB, compare_tolerance=value)
    code, err = run_err(tmp_path, capsys, job)
    assert code == 2 and "'compare_tolerance'" in err


@pytest.mark.parametrize("count", [-2, 0])
def test_oracle_compare_needs_a_case(tmp_path, capsys, count):
    # no case compared is no agreement: a count below 1 must not exit 0
    code, err = run_err(tmp_path, capsys, dict(ORACLE_JOB, count=count))
    assert code == 2 and "'count'" in err


Q2_RING = {"kind": "product", "arity": 2}
ZERO_DENOMINATOR_JOBS = {  # field: a job with a zero denominator in it
    "factors": {"factors": [{"type": "antiholo", "alpha": "1/0"}]},
    "coefficients": {"ring": Q2_RING, "window": 4,
                     "coefficients": [{"n": 0, "c": "(1|1/0)"}],
                     "inverse": [{"n": 0, "c": "(1|1)"}]},
    "inverse": {"window": 4, "coefficients": [{"n": 0, "c": "2"}],
                "inverse": [{"n": 0, "c": "1/2"}, {"n": 3, "c": "-7/0"}]},
    "factorization": dict(GOLDEN_JOB, mode="verify", factorization={
        "pi_minus": [{"n": 0, "c": "1"}], "pi_tilde": [{"n": 1, "c": "0/0"}],
        "pi_plus": [{"n": 0, "c": "1"}]}),
}


@pytest.mark.parametrize("field", sorted(ZERO_DENOMINATOR_JOBS))
def test_zero_denominator_exit_2(tmp_path, capsys, field):
    # a zero denominator is a validation error that names its field, not a
    # ZeroDivisionError traceback
    code, err = run_err(tmp_path, capsys, ZERO_DENOMINATOR_JOBS[field])
    assert code == 2 and "'%s'" % field in err and "zero denominator" in err


def _series(*terms):
    """A series as a JSON coefficient list, from ``(n, c)`` pairs."""
    return [{"n": n, "c": c} for n, c in terms]


# a = (1 - alpha/z)(1 - beta z) over Q, Q^2 and C, and triples that multiply
# to a (but "wrong-product", and "stray-beyond-window", whose product is a
# on the job window but not beyond it) and are not its factorization
PARTS = ("pi_minus", "pi_tilde", "pi_plus")
Q_A = {"window": 16, "factors": [{"type": "antiholo", "alpha": "1/2"},
                                 {"type": "holo", "beta": "1/3"}]}
Q2_A = {"ring": Q2_RING, "window": 16,
        "factors": [{"type": "antiholo", "alpha": "(1/2|1/5)"},
                    {"type": "holo", "beta": "(1/3|1/7)"}]}
C_A = {"ring": {"kind": "complex"}, "window": 16,
       "factors": [{"type": "antiholo", "alpha": "0.5,0"},
                   {"type": "holo", "beta": "0.25,0"}]}
NOT_FACTORIZATIONS = {  # case: (job, (pi_minus, pi_tilde, pi_plus), message)
    "1-a-1-Q": (Q_A, ("1", _series((-1, "-1/2"), (0, "7/6"), (1, "-1/3")), "1"),
                "middle projection is not orthogonal"),
    "1-a-1-Q^2": (Q2_A, ("(1|1)", _series((-1, "(-1/2|-1/5)"), (0, "(7/6|36/35)"),
                                          (1, "(-1/3|-1/7)")), "(1|1)"),
                  "middle projection is not orthogonal"),
    "1-a-1-C": (C_A, ("1,0", _series((-1, "-0.5,0"), (0, "1.125,0"), (1, "-0.25,0")), "1,0"),
                "middle projection is not orthogonal"),
    "holomorphic-middle": (Q_A, (_series((-1, "-1/2"), (0, "1")),
                                 _series((0, "1"), (1, "-1/3")), "1"),
                           "middle projection is not orthogonal"),
    "pi_plus-stray": (Q_A, ("1", "7/6", _series((-1, "-3/7"), (0, "1"), (1, "-2/7"))),
                      "pi_plus has stray exponents [-1]"),
    "pi_minus-constant": (Q_A, (_series((-1, "-1"), (0, "2")), "1/2",
                                _series((0, "1"), (1, "-1/3"))),
                          "pi_minus has a constant term other than 1"),
    "wrong-product": (Q_A, (_series((-1, "-1/2"), (0, "1")), "1",
                            _series((0, "1"), (1, "-1/4"))),
                      "reconstruction residual 0.0833 exceeds its bound 0"),
    "stray-beyond-window": (Q_A, (_series((-1, "-1/2"), (0, "1")), "1",
                                  _series((0, "1"), (1, "-1/3"), (20, "5"))),
                            "reconstruction residual 5 exceeds its bound 0"),
    "not-a-unit": ({"ring": Q2_RING, "window": 16, "coefficients": _series((0, "(1|0)")),
                    "inverse": _series((0, "(1|0)"))}, ("(1|1)", "(1|0)", "(1|1)"),
                   "pair residual 1"),
}


@pytest.mark.parametrize("case", sorted(NOT_FACTORIZATIONS))
def test_verify_rejects_what_is_not_the_factorization(tmp_path, capsys, case):
    # each triple fails one condition of factorization.certify, the first
    # in its order: the pair, pi_minus and pi_plus, the product, pi_tilde
    job, parts, message = NOT_FACTORIZATIONS[case]
    triple = [_series((0, p)) if isinstance(p, str) else p for p in parts]
    job = dict(job, mode="verify",
               factorization=dict(zip(PARTS, triple)))
    code, report = run(tmp_path, capsys, job)
    assert code == 3 and message in report["error"], report


@pytest.mark.parametrize("job", [GOLDEN_JOB, Q2_A, C_A], ids=["Q", "Q^2", "C"])
def test_verify_accepts_factorize_output(tmp_path, capsys, job):
    code, payload = run(tmp_path, capsys, job)
    assert code == 0
    fac = {k: payload[k] for k in PARTS}
    code, report = run(tmp_path, capsys, dict(job, mode="verify", factorization=fac))
    assert code == 0 and report["residual"] == payload["residual"]


@pytest.mark.parametrize("key", PARTS)
def test_verify_needs_every_part(tmp_path, capsys, key):
    # a missing part is a validation error that names it, not the zero series
    fac = {k: _series((0, "1")) for k in PARTS if k != key}
    code, err = run_err(tmp_path, capsys, dict(Q_A, mode="verify", factorization=fac))
    assert code == 2 and "'factorization'" in err and "'%s'" % key in err


MONO_JOB = {"ring": {"kind": "rational"}, "factors": [{"type": "mono", "p": 1, "u": "2"}]}
COEFF_JOB = {"ring": {"kind": "complex"}, "coefficients": [{"n": 0, "c": "1,0"}]}
ORACLE_JOB = {"ring": {"kind": "complex"}, "mode": "oracle-compare", "count": 1}


INT_FIELDS = {  # field: (job, keys down to the field, a value that runs)
    "p": (MONO_JOB, ("factors", 0, "p"), 1),
    "n": (COEFF_JOB, ("coefficients", 0, "n"), 0),
    "window": (MONO_JOB, ("window",), 8),
    "arity": ({"ring": {"kind": "product", "arity": 2},
               "factors": [{"type": "mono", "p": 1, "u": "(2|3)"}]}, ("ring", "arity"), 2),
    "samples": (COEFF_JOB, ("samples",), 64),
    "seed": (ORACLE_JOB, ("seed",), 3),
    "count": (ORACLE_JOB, ("count",), 1),
}


@pytest.mark.parametrize("field", sorted(INT_FIELDS))
def test_integer_fields_are_not_truncated(tmp_path, capsys, field):
    # an int or a string int() reads runs; a float or a bool exits 2
    job, path, good = INT_FIELDS[field]

    def with_value(value):
        out = json.loads(json.dumps(job))
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return out

    for value in (good, str(good)):
        code, _ = run(tmp_path, capsys, with_value(value))
        assert code == 0, value
    for value in (good + 0.7, float(good), True, [good], None):
        code, _ = run(tmp_path, capsys, with_value(value))
        assert code == 2, value


# -- a fixed seeded set of exact jobs, pinned by one digest -----------

Q2 = wl.product_ring(wl.rational_ring(), 2)
GOLDEN_HALF = 40


def _fmt_q2(x):
    return "(%s|%s)" % x


def _factor_json(f, fmt):
    if isinstance(f, wl.Antiholo):
        return {"type": "antiholo", "alpha": fmt(f.alpha)}
    if isinstance(f, wl.Holo):
        return {"type": "holo", "beta": fmt(f.beta)}
    return {"type": "mono", "p": f.p, "u": fmt(f.u)}


def _paired(rng, facs):
    """Each Q factor with an independent second component."""
    out = []
    for f in facs:
        if isinstance(f, wl.Antiholo):
            out.append(wl.Antiholo((f.alpha, random_rational_parameter(rng))))
        elif isinstance(f, wl.Holo):
            out.append(wl.Holo((f.beta, random_rational_parameter(rng))))
        else:
            out.append(wl.Mono(f.p, (f.u, Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 3)))))
    return out


def golden_jobs():
    """Q factor jobs, Q^2 factor jobs and Q^2 jobs times an orthogonal
    multiplier sent as coefficients and inverse, in turn."""
    rng = random.Random(20261018)
    jobs = []
    for i in range(36):
        facs = random_rational_factors(rng, max_factors=4)
        if i % 3 == 0:
            jobs.append({"window": GOLDEN_HALF,
                         "factors": [_factor_json(f, str) for f in facs]})
            continue
        facs = _paired(rng, facs)
        job = {"ring": Q2_RING, "window": GOLDEN_HALF}
        if i % 3 == 1:
            job["factors"] = [_factor_json(f, _fmt_q2) for f in facs]
        else:
            o = random_orthogonal_pair(2, rng)
            a = wl.factors_to_series(Q2, facs).mul(o.a)
            wide = (-GOLDEN_HALF - 3, GOLDEN_HALF + 3)
            b = wl.invert_from_factors(Q2, facs, wide).b.mul(o.b)
            job["coefficients"] = [{"n": n, "c": _fmt_q2(c)} for n, c in sorted(a.coeffs.items())]
            job["inverse"] = [{"n": n, "c": _fmt_q2(c)} for n, c in sorted(b.coeffs.items())
                              if -GOLDEN_HALF <= n <= GOLDEN_HALF]
        jobs.append(job)
    return jobs


# the SHA-256 of the payloads below: an exact output that changes changes it
GOLDEN_DIGEST = "1df3c8827edd0179bff3d675c3258631d6c45d8f931f20ed2315dd5dd2f38d11"


def test_exact_jobs_golden_digest():
    digest = hashlib.sha256()
    for job in golden_jobs():
        code, payload = run_job(job)
        assert code == 0
        digest.update(json.dumps(payload, sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_q2_leaves_far_apart_at_the_inverse_window_bound(tmp_path, capsys):
    # (1 - z^-1/2)(1 - z/3)(1 - 2z/5), other parameters in the second
    # component, times z^8 in the first component and z^-8 in the second:
    # the leaves span [7, 10] and [-9, -6].  Re-centred by e = 7 and -6,
    # their blocks read b on [e - 2 hi, e - 2 lo] = [-13, -7] and [6, 12],
    # so the job needs the hull [-13, 12] (not the union bound [-31, 31]):
    # at half-window 13 it gives the closed-form factors, at 12 it is
    # refused
    anti = [wl.Antiholo((Fraction(1, 2), Fraction(-2, 3)))]
    holo = [wl.Holo((Fraction(1, 3), Fraction(1, 4))), wl.Holo((Fraction(2, 5), Fraction(-1, 5)))]
    one, zero = Fraction(1), Fraction(0)
    tilde = wl.LaurentSeries(Q2, {8: (one, zero), -8: (zero, one)})
    a = wl.factors_to_series(Q2, anti + holo).mul(tilde)
    b = wl.invert_from_factors(Q2, anti + holo, (-60, 60)).b.mul(tilde.reflect())

    def job(half):
        return {"ring": Q2_RING, "window": half,
                "coefficients": [{"n": n, "c": _fmt_q2(c)} for n, c in sorted(a.coeffs.items())],
                "inverse": [{"n": n, "c": _fmt_q2(c)} for n, c in sorted(b.coeffs.items())
                            if -half <= n <= half]}

    code, payload = run(tmp_path, capsys, job(12))
    assert code == 3
    assert "inverse window [-12,12] too small; need at least [-13,12]" in payload["error"]
    code, payload = run(tmp_path, capsys, job(13))
    assert code == 0
    assert payload["pi_minus"] == series_to_json(wl.factors_to_series(Q2, anti))
    assert payload["pi_tilde"] == series_to_json(tilde)
    assert payload["pi_plus"] == series_to_json(wl.factors_to_series(Q2, holo))
    assert payload["winding"] is None and float(payload["residual"]) == 0.0
