"""`import conjalg` loads nothing, and each `conj` subcommand loads only its layers."""

import importlib
import json
import types

import pytest

import conjalg
from conjalg.cli import main

# the names loaded besides conjalg itself, printed by a child interpreter
LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("conjalg.") or m == "numpy")))
"""

RUN_CLI = """
import sys
from conjalg.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write("exit %d\\n" % code)
"""

NOT_A_DISK_MAP = {"matrix": [[2, 0], [0, 0], [0, 0], [1, 0]]}   # z -> 2z
MATRIX = {"matrix": [[0.4, 0.1], [0.2, 0], [-0.1, 0.3], [1, 0]]}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_import_loads_no_layer_and_no_numpy(fresh_python):
    done = fresh_python("import conjalg\n" + LOADED)
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads(done.stdout) == []


def test_every_export_is_its_home_object():
    assert len(conjalg.__all__) == 48
    for name in conjalg.__all__:
        obj = getattr(conjalg, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module("conjalg." + name)
        else:
            assert obj.__module__.startswith("conjalg.")
            assert obj is getattr(importlib.import_module(obj.__module__), name)
    assert set(conjalg.__all__) <= set(dir(conjalg))
    assert not hasattr(conjalg, "no_such_name")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from conjalg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == conjalg.__all__


def test_submodule_resolves_after_a_bare_import(fresh_python):
    done = fresh_python("import conjalg\nprint(conjalg.verify.__name__, conjalg.dynsys.__name__)")
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == ["conjalg.verify", "conjalg.dynsys"]


@pytest.mark.parametrize("command, inputs", [
    (["disk", "classify"], [{"preset": "blaschke_half"}]),
    (["disk", "classify"], [MATRIX]),
    (["disk", "classify"], [NOT_A_DISK_MAP]),
    (["disk", "conjugate"], [{"preset": "rotation", "c": [0.6, 0.8]}, MATRIX]),
    (["disk", "conjugate"], [{"preset": "blaschke_half"}, {"preset": "blaschke_quarter"}]),
    (["disk", "iso"], [{"preset": "rotation", "c": [0.6, 0.8]},
                       {"preset": "rotation", "c": [0.6, -0.8]}]),
    (["disk", "iso"], [MATRIX, MATRIX]),
], ids=["classify-preset", "classify-matrix", "classify-not-a-disk-map", "conjugate-no",
        "conjugate-hyperbolic", "iso-inverse", "iso-conjugate"])
def test_disk_commands_run_without_numpy(tmp_path, capsys, fresh_python, command, inputs):
    argv = command + [write_json(tmp_path, "m%d.json" % k, obj) for k, obj in enumerate(inputs)]
    code = main(argv)
    captured = capsys.readouterr()
    done = fresh_python(RUN_CLI, *argv, block_numpy=True)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == captured.out
    assert done.stderr.decode() == captured.err + "exit %d\n" % code


@pytest.mark.parametrize("command", ["finite", "canon"])
def test_finite_commands_load_neither_verify_nor_diskmaps(tmp_path, fresh_python, command):
    a = write_json(tmp_path, "a.json", {"n": 3, "map": [0, 0, 1]})
    argv = [command, a, a] if command == "finite" else [command, a]
    done = fresh_python(RUN_CLI + LOADED, *argv)
    assert done.returncode == 0, done.stderr.decode()
    loaded = json.loads(done.stdout.decode().splitlines()[-1])
    assert "conjalg.dynsys" in loaded
    assert "conjalg.verify" not in loaded and "conjalg.diskmaps" not in loaded
