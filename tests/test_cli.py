import json
import math

import numpy as np
import pytest

from conjalg import diskmaps, dynsys, reps
from conjalg.cli import main, validate_report
from conjalg.diskmaps import MobiusMap
from conjalg.dynsys import ConjugacyWitness, FiniteDynSys, relabel
from conjalg.skewpoly import SkewPoly


# classified as a non-automorphism, though within 1e-9 of a hyperbolic
# automorphism: both fixed points lie in the boundary band
NEAR_AUTOMORPHISM = {"matrix": [[0.8431568420118366, 0.537667685256076],
                                [0.667117203048414, 0.1698644347189945],
                                [0.6538150512198956, 0.21546500188555823], [1, 0]]}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_finite_conjugate(tmp_path, capsys):
    a = write_json(tmp_path, "a.json", {"n": 3, "map": [0, 0, 1]})
    b = write_json(tmp_path, "b.json", {"n": 3, "map": [1, 1, 0]})
    code, report = run(capsys, ["finite", a, b])
    assert code == 0
    assert report["conjugate"] is True
    assert report["witness"] == [1, 0, 2]


def test_finite_not_conjugate(tmp_path, capsys):
    a = write_json(tmp_path, "a.json", {"n": 2, "map": [1, 0]})
    b = write_json(tmp_path, "b.json", {"n": 2, "map": [0, 1]})
    code, report = run(capsys, ["finite", a, b])
    assert code == 0
    assert report == {"command": "finite", "conjugate": False}


def test_finite_bad_json(tmp_path, capsys):
    bad = write_json(tmp_path, "bad.json", {"n": 2})
    ok = write_json(tmp_path, "ok.json", {"n": 2, "map": [0, 1]})
    code, _ = run(capsys, ["finite", bad, ok])
    assert code == 2
    code, _ = run(capsys, ["finite", str(tmp_path / "missing.json"), ok])
    assert code == 2


def test_canon_rejects_non_integer_map(tmp_path, capsys):
    s = write_json(tmp_path, "s.json", {"n": 2, "map": [0, 1.7]})
    code, report = run(capsys, ["canon", s])
    assert code == 2
    assert report is None
    s = write_json(tmp_path, "n.json", {"n": 2.0, "map": [0, 1]})
    assert run(capsys, ["canon", s])[0] == 2


def test_canon(tmp_path, capsys):
    s = write_json(tmp_path, "s.json", {"n": 3, "map": [0, 0, 1]})
    code, report = run(capsys, ["canon", s])
    assert code == 0
    assert report["canonical_form"] == "1:((()))"
    assert report["format"] == 2


def test_finite_long_path(tmp_path, capsys):
    n = 1000
    a = FiniteDynSys(n, [0] + list(range(n - 1)))
    b = relabel(a, np.random.default_rng(0).permutation(n))
    pa = write_json(tmp_path, "a.json", a.to_json())
    pb = write_json(tmp_path, "b.json", b.to_json())
    code, report = run(capsys, ["finite", pa, pb])
    assert code == 0
    assert report["conjugate"] is True
    ConjugacyWitness(a, b, report["witness"])  # raises unless it intertwines


def test_char_space(tmp_path, capsys):
    s = write_json(tmp_path, "s.json", {"n": 3, "map": [0, 0, 1]})
    code, report = run(capsys, ["char-space", s])
    assert code == 0
    assert report["points"][0] == {"x": 0, "kind": "disc", "r": 1.0}
    assert report["points"][1]["kind"] == "point"


def test_norms(tmp_path, capsys):
    sys_ = FiniteDynSys(2, (1, 0))
    p = SkewPoly.monomial(sys_, [1, 1], 1)
    path = write_json(tmp_path, "p.json", p.to_json())
    code, report = run(capsys, ["norms", path, "--trunc", "16"])
    assert code == 0
    assert report["estimate"] == pytest.approx(1.0)
    assert report["monotone_check"] is True
    assert report["estimate"] <= report["l1_norm"] + 1e-9


@pytest.mark.filterwarnings("ignore:polynomial degree")
def test_norms_reports_the_estimate_at_the_truncation_asked(tmp_path, capsys):
    """At --trunc 1 and 2 the smaller sizes of the monotone check must not
    exceed the truncation, or the N = 3 value goes out under "N": 1 or 2."""
    obj = {"system": {"n": 2, "map": [1, 0]}, "coeffs": [[[1, 0], [2, 0]], [[0.5, 0], [0, 1]]]}
    p = SkewPoly.from_json(obj)
    path = write_json(tmp_path, "p.json", obj)
    for trunc in (1, 2):
        code, report = run(capsys, ["norms", path, "--trunc", str(trunc)])
        assert code == 0 and report["N"] == trunc
        assert report["estimate"] == reps.norm_estimate(p, trunc)


def test_norms_writes_each_truncation_warning_as_one_line(tmp_path, capsys):
    """A degree-4 polynomial at --trunc 4 is estimated at N = 2, 3 and 4, each
    at or below the degree: one `warning:` line each, naming no source file."""
    obj = {"system": {"n": 2, "map": [1, 0]},
           "coeffs": [[[1, 0], [2, 0]]] + [[[0, 0], [0, 0]]] * 3 + [[[0.5, 0], [0, 1]]]}
    path = write_json(tmp_path, "p.json", obj)
    assert main(["norms", path, "--trunc", "4"]) == 0
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("warning: ") and "reps.py" not in line for line in lines)
    assert "truncation 2;" in lines[0] and "truncation 4;" in lines[2]
    with pytest.warns(UserWarning):
        assert json.loads(out)["estimate"] == reps.norm_estimate(SkewPoly.from_json(obj), 4)


def test_pencil_check(tmp_path, capsys):
    s = write_json(tmp_path, "s.json", {"n": 3, "map": [0, 0, 1]})
    code, report = run(capsys, ["pencil-check", s, "1", "--samples", "20"])
    assert code == 0
    assert report["passed"] is True
    assert report["max_deviation"] <= 1e-12


def test_pencil_check_precondition(tmp_path, capsys):
    s = write_json(tmp_path, "s.json", {"n": 3, "map": [0, 0, 1]})
    code, _ = run(capsys, ["pencil-check", s, "0"])  # 0 is fixed
    assert code == 3
    code, _ = run(capsys, ["pencil-check", s, "1", "--z-re", "1.0"])
    assert code == 3


@pytest.mark.parametrize("x", ["7", "-3"])
def test_pencil_check_base_point_out_of_range(tmp_path, capsys, x):
    s = write_json(tmp_path, "s.json", {"n": 3, "map": [1, 1, 1]})
    code = main(["pencil-check", s, "--", x])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "out of range" in captured.err and "Traceback" not in captured.err


def test_disk_classify(tmp_path, capsys):
    m = write_json(tmp_path, "m.json", {"preset": "blaschke_half"})
    code, report = run(capsys, ["disk", "classify", m])
    assert code == 0
    assert report["kind"] == "hyperbolic"
    assert report["normal_form"][0] == pytest.approx([1 / 3, 0])


def test_disk_classify_classifies_once(tmp_path, capsys, monkeypatch):
    calls = []
    classified = diskmaps.classify
    monkeypatch.setattr(diskmaps, "classify", lambda m: calls.append(m) or classified(m))
    m = write_json(tmp_path, "m.json", {"preset": "blaschke_half"})
    code, report = run(capsys, ["disk", "classify", m])
    assert code == 0 and report["kind"] == "hyperbolic"
    assert len(calls) == 1


def test_disk_classify_precondition(tmp_path, capsys):
    m = write_json(tmp_path, "m.json", {"preset": "dilation", "lambda": [3, 0]})
    code, _ = run(capsys, ["disk", "classify", m])
    assert code == 3


def test_disk_classify_rejects_pole_inside_disk(tmp_path, capsys):
    m = write_json(tmp_path, "m.json", {"matrix": [
        [0.861339, -2.808223], [2.863657, 0.496038],
        [-4.911719, -2.15325], [1.602235, -4.763671]]})
    code, report = run(capsys, ["disk", "classify", m])
    assert code == 3
    assert report is None


def test_disk_classify_huge_scale_identity(tmp_path, capsys):
    m = write_json(tmp_path, "m.json", {"matrix": [[1e200, 0], [0, 0], [0, 0], [1e200, 0]]})
    code, report = run(capsys, ["disk", "classify", m])
    assert code == 0
    assert report["kind"] == "identity"


@pytest.mark.parametrize("command", ["classify", "conjugate", "iso"])
def test_disk_map_past_the_float_range_is_a_parse_error(tmp_path, capsys, command):
    # z -> 0.5/(z + 1e308 (1 + i)) maps the disk into itself, but at
    # determinant one |d| is about 2e308, past the float range
    m = write_json(tmp_path, "m.json", {"matrix": [[0, 0], [0.5, 0], [1, 0], [1e308, 1e308]]})
    half = write_json(tmp_path, "half.json", {"preset": "blaschke_half"})
    for argv in ([m, m], [m, half], [half, m]) if command != "classify" else ([m],):
        code = main(["disk", command] + argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: bad Mobius map JSON")
        assert "Overflow" not in captured.err


@pytest.mark.parametrize("command", ["classify", "conjugate", "iso"])
def test_disk_map_whose_derivative_squares_past_the_float_range(tmp_path, capsys, command):
    # at the interior fixed point |cz + d| is about 1.4e236, so (cz + d)^2 overflows
    m = write_json(tmp_path, "m.json", {"matrix": [[2.2e-311, 5e-324], [3, 1e-320], [0, 1e-308],
                                                   [4.4989137945431964e+161, 0.5]]})
    code, report = run(capsys, ["disk", command] + [m] * (1 if command == "classify" else 2))
    assert code == 0
    if command == "classify":
        assert report["kind"] == "elliptic_nonautomorphism"
        assert all(math.isfinite(v) for v in report["multiplier"])


def test_a_report_that_is_not_json_never_reaches_stdout(tmp_path, capsys, monkeypatch):
    # json.dumps would write NaN, which is not JSON; `python -O` strips an assert
    monkeypatch.setattr(diskmaps.DiskClassification, "to_json",
                        lambda cl: {"multiplier": [math.nan, math.nan]})
    m = write_json(tmp_path, "m.json", {"preset": "blaschke_half"})
    code = main(["disk", "classify", m])
    assert_clean_failure(capsys, code, 3, "disk classify", "not valid JSON")


def test_disk_conjugate(tmp_path, capsys):
    c = [0.6, 0.8]
    m1 = write_json(tmp_path, "m1.json", {"preset": "rotation", "c": c})
    m2 = write_json(tmp_path, "m2.json",
                    MobiusMap.rotation(complex(*c)).to_json())
    code, report = run(capsys, ["disk", "conjugate", m1, m2])
    assert code == 0
    assert report["conjugate"] is True
    assert report["deviation_bound"] <= 1e-10

    m3 = write_json(tmp_path, "m3.json", {"preset": "blaschke_quarter"})
    e1 = write_json(tmp_path, "e1.json", {"preset": "blaschke_half"})
    code, report = run(capsys, ["disk", "conjugate", e1, m3])
    assert code == 0
    assert report["conjugate"] is False


def test_disk_iso(tmp_path, capsys):
    m1 = write_json(tmp_path, "m1.json", {"preset": "rotation", "c": [0.6, 0.8]})
    m2 = write_json(tmp_path, "m2.json", {"preset": "rotation", "c": [0.6, -0.8]})
    code, report = run(capsys, ["disk", "iso", m1, m2])
    assert code == 0
    assert report["verdict"] == "InverseConjugate"


def test_disk_near_automorphism_against_itself(tmp_path, capsys):
    m = write_json(tmp_path, "m.json", NEAR_AUTOMORPHISM)
    code, report = run(capsys, ["disk", "iso", m, m])
    assert code == 0
    assert report["verdict"] == "Conjugate"
    code, report = run(capsys, ["disk", "conjugate", m, m])
    assert code == 0
    assert report["conjugate"] is True
    assert report["deviation_bound"] <= 1e-10


# raises MobiusError("conjugated map does not fix infinity") in the normal form
NO_HALFPLANE_FORM = {"matrix": [[1.000000011901459, 0.010479098063841915],
                                [0.009255416342930199, 0.004916561207690128],
                                [0.009255416345958221, -0.0049165612017815765],
                                [1.0000000119080983, -0.010479098063841915]]}


@pytest.mark.parametrize("command", ["classify", "iso", "conjugate"])
def test_disk_commands_report_mobius_errors(tmp_path, capsys, command):
    m = write_json(tmp_path, "m.json", NO_HALFPLANE_FORM)
    code = main(["disk", command] + [m] * (1 if command == "classify" else 2))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "does not fix infinity" in captured.err and "Traceback" not in captured.err


def test_disk_verify_witness(tmp_path, capsys):
    m1 = write_json(tmp_path, "m1.json", {"preset": "dilation", "lambda": [0.5, 0]})
    m2 = write_json(tmp_path, "m2.json", {"preset": "dilation", "lambda": [0.25, 0]})
    code, report = run(capsys, ["disk", "verify-witness", "radial-square", m1, m2,
                                "--tolerance", "1e-12"])
    assert code == 0
    assert report["passed"] is True

    e1 = write_json(tmp_path, "e1.json", {"preset": "blaschke_half"})
    d3 = write_json(tmp_path, "d3.json",
                    {"preset": "dilation", "lambda": [1 / 3, 0]})
    code, report = run(capsys, ["disk", "verify-witness", "cayley-flip", e1, d3])
    assert code == 0
    assert report["passed"] is True

    code, _ = run(capsys, ["disk", "verify-witness", "nope", e1, d3])
    assert code == 2


def test_verify_suite_quick_deterministic(capsys):
    code1 = main(["verify-suite", "--quick", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = main(["verify-suite", "--quick", "--seed", "7"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for a fixed seed
    report = json.loads(out1)
    assert report["passed"] is True
    assert validate_report(report)


QUICK_CASES = [
    ("conjugacy_oracle", 200), ("skew_mul_convolution", 100), ("associativity", 200),
    ("covariance_relation", 200), ("transport_homomorphism", 200),
    ("character_multiplicativity", 300), ("pencil_homomorphism", 100),
    ("nest_rep_second_point", 800), ("fixed_derivative_multiplier", 100),
    ("rotation_dichotomy", 50), ("worked_examples", None), ("norm_chain", 10),
    ("multiplier_invariance", 50), ("witness_soundness", 40),
]


def test_verify_suite_quick_case_counts(capsys):
    code = main(["verify-suite", "--quick"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [(c["name"], c.get("cases")) for c in report["checks"]] == QUICK_CASES
    with pytest.raises(SystemExit) as exc:  # the suite's sizes are not options
        main(["verify-suite", "--quick", "--oracle-pairs", "50"])
    assert exc.value.code == 2


def test_conj_seed_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CONJ_SEED", "99")
    code1 = main(["verify-suite", "--quick"])
    out1 = capsys.readouterr().out
    code2 = main(["verify-suite", "--quick", "--seed", "99"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["seed"] == 99


def test_parse_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["norms", "x.json", "--trunc", "-4"])
    assert exc.value.code == 2


def test_validate_report():
    assert validate_report({"command": "x", "v": 1.5})
    assert not validate_report({"v": 1})
    assert not validate_report(["command"])
    assert not validate_report({"command": "x", "v": float("nan")})


def assert_clean_failure(capsys, code, expected, *words):
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert all(w in captured.err for w in words)


def test_pencil_check_rejects_nan_parameter(tmp_path, capsys):
    s = write_json(tmp_path, "s.json", {"n": 2, "map": [1, 1]})
    code = main(["pencil-check", s, "0", "--z-re", "nan"])
    assert_clean_failure(capsys, code, 2, "finite")


def test_disk_verify_witness_rejects_nan_matrix(tmp_path, capsys):
    bad = write_json(tmp_path, "nan.json", {"matrix": [[float("nan"), 0], [0, 0], [0, 0], [1, 0]]})
    ok = write_json(tmp_path, "id.json", {"matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]})
    code = main(["disk", "verify-witness", "identity", bad, ok])
    assert_clean_failure(capsys, code, 2, "finite")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", [
    ["char-space", "{s}", "--radius"],
    ["pencil-check", "{s}", "1", "--tolerance"],
    ["disk", "verify-witness", "identity", "{m}", "{m}", "--tolerance"],
], ids=["char-space-radius", "pencil-check-tolerance", "verify-witness-tolerance"])
def test_positive_options_reject_non_finite_values(tmp_path, capsys, command, value):
    files = {"{s}": write_json(tmp_path, "s.json", {"n": 3, "map": [0, 0, 1]}),
             "{m}": write_json(tmp_path, "m.json", {"preset": "blaschke_half"})}
    with pytest.raises(SystemExit) as exc:
        main([files.get(word, word) for word in command] + [value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "must be positive and finite" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("command, obj", [
    (["finite", "{f}", "{f}"], {"n": 2, "map": [True, False]}),
    (["canon", "{f}"], {"n": True, "map": [0]}),
    (["canon", "{f}"], {"n": 2, "map": [True, 1]}),
    (["norms", "{f}"], {"system": {"n": 1, "map": [0]}, "coeffs": [[[True, 0]]]}),
    (["disk", "classify", "{f}"], {"matrix": [[True, 0], [0, 0], [0, 0], [1, 0]]}),
], ids=["map", "n", "mixed-map", "coefficient", "mobius"])
def test_booleans_are_not_numbers(tmp_path, capsys, command, obj):
    path = write_json(tmp_path, "in.json", obj)
    code = main([path if word == "{f}" else word for word in command])
    assert_clean_failure(capsys, code, 2, "boolean")


def test_norms_rejects_nan_coefficient(tmp_path, capsys):
    obj = SkewPoly.monomial(FiniteDynSys(2, (1, 0)), [1, 1], 1).to_json()
    obj["coeffs"][-1][0] = [float("nan"), 0.0]
    code = main(["norms", write_json(tmp_path, "p.json", obj)])
    assert_clean_failure(capsys, code, 2, "finite")


def test_fault_in_a_decision_exits_3_naming_the_stage(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    a = write_json(tmp_path, "a.json", {"n": 2, "map": [1, 0]})
    monkeypatch.setattr(dynsys, "are_conjugate", boom)
    assert_clean_failure(capsys, main(["finite", a, a]), 3, "finite: RuntimeError: boom")

    m = write_json(tmp_path, "m.json", {"preset": "blaschke_half"})
    monkeypatch.setattr(diskmaps, "mobius_apply", boom)
    code = main(["disk", "verify-witness", "cayley", m, m])
    assert_clean_failure(capsys, code, 3, "verify_conjugacy_witness: RuntimeError: boom")



@pytest.mark.parametrize("command, obj", [
    (["disk", "classify", "{f}"], {"matrix": [[10**400, 0], [0, 0], [0, 0], [1, 0]]}),
    (["disk", "classify", "{f}"], {"preset": "rotation", "c": [0, 10**400]}),
    (["norms", "{f}"], {"system": {"n": 1, "map": [0]}, "coeffs": [[[10**400, 0]]]}),
], ids=["mobius", "preset", "coefficient"])
def test_integers_beyond_the_float_range_are_parse_errors(tmp_path, capsys, command, obj):
    path = write_json(tmp_path, "in.json", obj)
    code = main([path if word == "{f}" else word for word in command])
    assert_clean_failure(capsys, code, 2, "float range")


@pytest.mark.parametrize("command", [
    ["verify-suite", "--quick"],
    ["disk", "verify-witness", "identity", "m.json", "m.json"],
    ["pencil-check", "s.json", "0"],
])
def test_bad_conj_seed_is_a_parse_error(capsys, monkeypatch, command):
    monkeypatch.setenv("CONJ_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(command)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--seed" in captured.err and "'abc'" in captured.err
    assert "Traceback" not in captured.err


def test_bad_conj_seed_leaves_commands_without_a_seed_alone(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CONJ_SEED", "abc")
    m = write_json(tmp_path, "m.json", {"preset": "blaschke_half"})
    code, report = run(capsys, ["disk", "classify", m])
    assert code == 0 and report["kind"] == "hyperbolic"
