"""What `import dqc` loads, and the value types that replaced dataclasses."""

import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
import typing

import pytest

import dqc
from dqc import (
    Classification,
    DimensionMismatch,
    EntanglementClass,
    StateVector,
    validate_prime,
)
from dqc.cli import main

SRC = os.path.dirname(os.path.dirname(dqc.__file__))


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )


def test_import_loads_no_unused_stdlib_module():
    # multiprocessing is imported on the first pool start, fractions by
    # maxent_to_unentangled_ratio, decimal by errors.exact_str past the
    # int-to-str digit limit, and dataclasses by nothing
    proc = run_python(
        "-c",
        "import sys, dqc, dqc.cli\n"
        "print(sorted({'multiprocessing', 'fractions', 'dataclasses', 'decimal'}"
        " & set(sys.modules)))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


def test_every_annotation_resolves():
    # typing.get_type_hints evaluates each annotation in its module, so
    # a name the module imports only lazily (fractions) must not appear
    # in one; every function and method of every dqc module is resolved
    resolved = 0
    for info in pkgutil.iter_modules(dqc.__path__):
        module = importlib.import_module(f"dqc.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for fn in filter(inspect.isfunction, members):
                typing.get_type_hints(fn)
                resolved += 1
    assert resolved > 100


def test_python_m_dqc_runs_the_cli(capsys):
    assert main(["verify", "--p", "3", "--n", "2"]) == 0
    expected = capsys.readouterr().out.encode()
    proc = run_python("-m", "dqc", "verify", "--p", "3", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    usage = run_python("-m", "dqc", "verify", "--p", "3")
    assert usage.returncode == 2
    assert b"usage: dqc verify" in usage.stderr


def test_value_types(f3):
    assert repr(validate_prime(7)) == "ComplexifiablePrime(p=7)"
    psi = StateVector(field=f3, n=1, amps=((1, 0), (0, 0)))
    assert repr(psi) == (
        "StateVector(field=ComplexifiablePrime(p=3), n=1, amps=((1, 0), (0, 0)))"
    )
    with pytest.raises(AttributeError):
        psi.n = 2
    assert pickle.loads(pickle.dumps(psi)) == psi
    with pytest.raises(DimensionMismatch):
        StateVector(f3, 2, psi.amps)
    with pytest.raises(ValueError):
        Classification(EntanglementClass.MAXIMAL, 2, frozenset({0}))
