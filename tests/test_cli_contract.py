"""The command line contract, on generated input files.

Every subcommand that reads a file exits 0, 2 or 3.  On 0 stdout holds one
JSON document; otherwise stdout is empty and stderr holds one `error:`
line.  A file that cannot be read exits 2.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conjalg.cli import main

# each takes one file or two ({a} and {b}); sizes are small, so that a call
# that reaches a decision stays cheap
COMMANDS = [
    ["finite", "{a}", "{b}"],
    ["canon", "{a}"],
    ["char-space", "{a}"],
    ["norms", "{a}", "--trunc", "3"],
    ["pencil-check", "{a}", "1", "--samples", "2"],
    ["disk", "classify", "{a}"],
    ["disk", "conjugate", "{a}", "{b}"],
    ["disk", "iso", "{a}", "{b}"],
    ["disk", "verify-witness", "cayley", "{a}", "{b}", "--samples", "4"],
]
COMMAND_IDS = [" ".join(w for w in c if not w.startswith(("{", "-"))) for c in COMMANDS]

EXTREMES = st.sampled_from([10**400, 2**63, -2**63, 1e308, -1e308, 1e-320, -0.0,
                            math.nan, math.inf, True, False, "1", ""])
PLAIN = st.one_of(st.integers(-2, 4), st.floats(-2, 2))
PRESETS = st.sampled_from(["rotation", "dilation", "blaschke_half", "blaschke_quarter", "x"])
KEYS = st.sampled_from(["n", "map", "system", "coeffs", "matrix", "preset", "c", "lambda"])
SYSTEMS = st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries(
    {"n": st.just(n), "map": st.lists(st.integers(0, n - 1), min_size=n, max_size=n)}))


def inputs(number):
    """Systems, polynomials, Mobius matrices and presets in the documented
    shapes, with their numbers drawn from `number`."""
    pair = st.lists(number, min_size=2, max_size=2)
    return st.one_of(
        SYSTEMS,
        st.fixed_dictionaries({"n": number, "map": st.lists(number, max_size=4)}),
        SYSTEMS.flatmap(lambda s: st.fixed_dictionaries({
            "system": st.just(s),
            "coeffs": st.lists(st.lists(pair, min_size=s["n"], max_size=s["n"]), max_size=3)})),
        st.fixed_dictionaries({"matrix": st.lists(pair, min_size=4, max_size=4)}),
        st.fixed_dictionaries({"preset": PRESETS}, optional={"c": pair, "lambda": pair}),
    )


NUMBERS = st.one_of(PLAIN, EXTREMES)
VALUES = st.one_of(
    inputs(PLAIN),
    inputs(NUMBERS),
    st.recursive(st.one_of(st.none(), NUMBERS, PRESETS),
                 lambda inner: st.one_of(st.lists(inner, max_size=4),
                                         st.dictionaries(KEYS, inner, max_size=4)),
                 max_leaves=12),
)


def call(command, files):
    """(exit code, stdout, stderr) of `conj` with the files filled in."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([files.get(word, word) for word in command])
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)
    else:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(VALUES, VALUES)
def test_every_file_reading_subcommand_keeps_the_contract(workdir, a, b):
    files = {"{a}": str(workdir / "a.json"), "{b}": str(workdir / "b.json")}
    for key, value in (("{a}", a), ("{b}", b)):
        with open(files[key], "w", encoding="utf-8") as fh:
            json.dump(value, fh)
    for command in COMMANDS:
        assert_contract(*call(command, files))


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
def test_a_file_that_cannot_be_read_exits_2(tmp_path, command):
    good = tmp_path / "good.json"
    good.write_text('{"preset": "blaschke_half"}' if command[0] == "disk" else
                    '{"n": 3, "map": [0, 0, 1]}')
    for path in (tmp_path / "missing.json", tmp_path):
        code, out, err = call(command, {"{a}": str(path), "{b}": str(good)})
        assert_contract(code, out, err)
        assert code == 2 and err.startswith("error: bad ") and str(path) in err
