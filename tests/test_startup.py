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


# what the package exported when it imported every module eagerly, by home
EXPORTS = {
    "basefield": {"ComplexifiablePrime", "is_prime", "validate_prime"},
    "census": {
        "CountReport", "closed_form_counts", "count_irreducible",
        "count_norm_class", "full_scan_norm_counts", "irreducible_count",
        "irreducible_product_form", "iter_irreducible", "iter_norm_class",
        "maxent_irreducible_count", "maxent_to_unentangled_ratio",
        "total_count", "unentangled_irreducible_count", "unit_norm_count",
        "verify", "zero_norm_by_recurrence", "zero_norm_count",
    },
    "complexfield": {
        "cadd", "cinv", "cmul", "cneg", "conj", "cpow", "fnorm", "frobenius",
        "norm_fiber", "phase_group",
    },
    "entangle": {
        "CensusTally", "Classification", "EntanglementClass",
        "PauliExpectations", "PurityValue", "census_tally", "classify",
        "pauli_expectations", "purity", "separable_qubits",
    },
    "errors": {
        "BudgetExceeded", "DimensionMismatch", "DivisionByZero", "DqcError",
        "NonRealExpectation", "NotComplexifiable", "NotPrime", "NotUnitNorm",
        "VerificationFailed", "ZeroVector",
    },
    "hopf": {
        "BlochPoint", "bloch_export", "canonical_rep", "fingerprint",
        "hopf_map_1q", "is_canonical", "phase_class",
    },
    "states": {"StateVector", "format_amp", "parse_amp"},
}


def dqc_modules_after(code):
    """The dqc submodules a fresh interpreter holds after running code."""
    proc = run_python(
        "-c",
        f"import sys\n{code}\n"
        "print(*(m[4:] for m in sys.modules if m.startswith('dqc.')))",
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.decode().splitlines()[-1].split())


def test_each_run_loads_only_the_modules_it_uses():
    assert dqc_modules_after("import dqc") == set()
    assert dqc_modules_after(
        "import dqc\ndqc.census.enum_tables(dqc.validate_prime(7).p)"
    ) == {"basefield", "errors", "census"}
    tables = dqc_modules_after(
        "from dqc.cli import main\nmain(['tables', '--p', '7', '--n', '2'])"
    )
    assert "cli" in tables
    assert not tables & {"complexfield", "entangle", "states", "hopf"}
    verify = dqc_modules_after(
        "from dqc.cli import main\nmain(['verify', '--p', '7', '--n', '2'])"
    )
    assert {"complexfield", "entangle"} <= verify
    assert "hopf" not in verify


def test_exports_resolve_through_their_modules(monkeypatch):
    names = set().union(*EXPORTS.values())
    assert set(dqc.__all__) == names
    assert len(dqc.__all__) == len(names)
    assert set(dir(dqc)) == names
    for home, exported in EXPORTS.items():
        module = importlib.import_module(f"dqc.{home}")
        assert getattr(dqc, home) is module
        for name in exported:
            assert getattr(dqc, name) is getattr(module, name), name
    # nothing is copied into the package: a rebound attribute shows at once
    monkeypatch.setattr(dqc.census, "verify", len)
    assert dqc.verify is len
    with pytest.raises(AttributeError):
        dqc.no_such_name
    with pytest.raises(ImportError):
        exec("from dqc import no_such_name", {})


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
