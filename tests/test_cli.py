import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from itertools import islice

import pytest

import dqc
import dqc.census as census
import dqc.cli as cli
import dqc.entangle as entangle
from dqc.basefield import validate_prime
from dqc.cli import log10_decimal, main, mask_bits
from dqc.entangle import iter_classified_prefixes
from dqc.errors import exact_str
from dqc.hopf import bloch_export
from dqc.states import format_amp

from _oracles import (
    CLASSIFY_HEADER,
    ENUMERATE_HEADER,
    classify_rows,
    enumerate_rows,
    stdlib_written,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_log10_decimal_matches_math_log10():
    import math

    for x in (1, 5, 81, 6561, 10**20, 3**200, 19**128):
        digits = str(x)
        assert abs(log10_decimal(digits) - len(digits) + 1) < 1.0
        if x < 10**15:
            assert abs(log10_decimal(digits) - math.log10(x)) < 1e-9


def test_mask_bits_orders_qubit_zero_first():
    assert mask_bits(0b01, 2) == "10"  # bit 0 set -> qubit 0 separable
    assert mask_bits(0b10, 2) == "01"
    assert mask_bits(0b101, 3) == "101"


def test_verify_single_cell(capsys):
    code, out, err = run(capsys, "verify", "--p", "3", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 3 and doc["n"] == 1 and doc["D"] == 2
    assert doc["total"] == "81"
    assert doc["unit_norm"] == "24"
    assert doc["irreducible"] == "6"
    assert doc["verified"] is True
    assert doc["enumerated"]["irreducible"] == "6"


def test_verify_multiple_cells_gives_array(capsys):
    code, out, _ = run(capsys, "verify", "--p-list", "3,7", "--n", "1")
    assert code == 0
    docs = json.loads(out)
    assert [d["p"] for d in docs] == [3, 7]
    assert all(d["verified"] for d in docs)


def test_verify_rejects_bad_prime(capsys):
    code, _, err = run(capsys, "verify", "--p", "5", "--n", "1")
    assert code == 2
    assert "usage error" in err
    code, _, err = run(capsys, "verify", "--p", "9", "--n", "1")
    assert code == 2


def test_verify_budget_note_and_success(capsys):
    code, out, err = run(capsys, "verify", "--p", "19", "--n", "4", "--budget", "1000")
    assert code == 0
    assert "enumeration skipped" in err
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["enumerated"] == {}


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(census, "count_irreducible", lambda *a, **k: 1)
    code, out, err = run(capsys, "verify", "--p", "3", "--n", "1")
    assert code == 1
    assert "verification failed" in err
    # the message names the flag and both values
    assert "'irreducible_enumerated': expected 6, found 1" in err
    # and the report is still written, marked as failing
    doc = json.loads(out)
    assert doc["verified"] is False
    assert doc["enumerated"]["irreducible"] == "1"
    # every cell runs and is written; only the failing ones are false
    monkeypatch.setattr(census, "count_irreducible", lambda p, n: 1 if n == 1 else 540)
    code, out, err = run(capsys, "verify", "--p", "3", "--n-max", "2")
    assert code == 1
    assert [doc["verified"] for doc in json.loads(out)] == [False, True]
    assert err.count("verification failed: p=3 n=1:") == 1


def test_verify_writes_a_failed_zero_norm_recurrence(capsys, monkeypatch):
    # one more zero-norm 3-vector than there are: 226 for 225
    counts = census.norm_counts
    monkeypatch.setattr(
        census,
        "norm_counts",
        lambda p, d: ((z + (m == 3), o) for m, (z, o) in enumerate(counts(p, d))),
    )
    code, out, err = run(capsys, "verify", "--p", "3", "--n", "2")
    assert code == 1
    assert "verification failed: p=3 n=2:" in err
    assert "'zero_norm_recurrence': expected (3, 225), found (3, 226)" in err
    doc = json.loads(out)
    assert doc["verified"] is False
    # the irreducible count reads the same recurrence
    assert doc["enumerated"]["irreducible"] == "541"


def test_counts_beyond_the_int_text_limit(capsys):
    # 3**16384 has 7,818 digits, beyond the 4,300 that Python 3.11
    # converts to text by default: tables writes them all, and the
    # budget message of an enumeration that large prints its prefix count
    code, out, err = run(capsys, "tables", "--p", "3", "--n", "13")
    assert code == 0
    assert list(csv.reader(out.splitlines()))[1][2] == exact_str(3**16384)
    code, out, err = run(capsys, "enumerate", "--p", "3", "--n", "13")
    assert code == 3
    assert out == ""
    assert err.startswith("budget exceeded: enumeration needs ")


def test_main_leaves_the_int_text_limit_as_it_found_it(tmp_path, capsys):
    # every count dqc writes goes through exact_str, so no command
    # changes the interpreter's int-to-str digit limit; under the default
    # of 4,300 digits, tables and verify still write the p=3 n=13 counts
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    cell = ("--p", "3", "--n", "13")
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for argv, code, digest in (
            (("tables", *cell), 0,
             "702fb3ce4f570e31ce9e856fe1532c006bec03edd9bda25fe752059418a43912"),
            (("verify", *cell), 0,
             "55999388c343b9f471132568b255209cf08f8e1032b4fc7a0ccfb0764ff5aa59"),
            (("enumerate", *cell), 3, sha256("")),
            (("classify", "--p", "3", "--n", "2"), 0,
             "27e3644aa4f85a083c2a931797336f306bc9ec23093b8cce868a184ffd5a534a"),
            (("classify", "--p", "3", "--n", "2", "--out", str(tmp_path / "c.csv")),
             0, sha256("")),
        ):
            got, out, _ = run(capsys, *argv)
            assert got == code, argv
            assert sha256(out) == digest, argv
            assert sys.get_int_max_str_digits() == 4300, argv
    finally:
        sys.set_int_max_str_digits(old)


def test_package_error_exits_1_without_traceback(capsys, monkeypatch):
    # a DqcError that is no usage or budget error prints one line and
    # exits 1: here irreducible_count's divisibility check, with a
    # sign-flipped unit_norm_count
    def flipped(p, d):
        sign = -1 if d % 2 else 1
        return p ** (d - 1) * (p**d + sign)

    monkeypatch.setattr(census, "unit_norm_count", flipped)
    code, out, err = run(capsys, "verify", "--p", "3", "--n", "2")
    assert code == 1
    assert out == ""
    assert err == "error: unit sphere size not divisible by p+1 for p=3, d=4\n"


def test_enumerate_budget_exit_code(capsys):
    code, out, err = run(
        capsys, "enumerate", "--p", "19", "--n", "3", "--budget", "100"
    )
    assert code == 3
    assert "budget exceeded" in err
    assert out == ""  # not even a header before the failure
    # a refused second cell stops the first from writing too
    code, out, err = run(
        capsys, "enumerate", "--p-list", "3,19", "--n", "1", "--budget", "100"
    )
    assert code == 3
    assert "budget exceeded" in err
    assert out == ""


def test_classify_budget_failure_writes_nothing(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _, err = run(
        capsys, "classify", "--p", "19", "--n", "3",
        "--budget", "100", "--out", str(target),
    )
    assert code == 3
    assert "budget exceeded" in err
    assert not target.exists()
    # a refused second cell stops the first from writing too
    code, out, err = run(
        capsys, "classify", "--p-list", "3,19", "--n", "1",
        "--budget", "100", "--out", str(target),
    )
    assert code == 3
    assert "budget exceeded" in err
    assert out == ""
    assert not target.exists()


def test_canonical_streams_are_charged_the_prefixes_they_walk(capsys):
    # the p=7 n=2 canonical walk visits 1 + 6 (1 + 49 + 2401) = 14,707
    # prefixes; the unit stream walks all 7**6 = 117,649
    for argv in (
        ("classify", "--p", "7", "--n", "2", "--out", os.devnull),
        ("enumerate", "--p", "7", "--n", "2", "--class", "irreducible"),
    ):
        code, _, err = run(capsys, *argv, "--budget", "14706")
        assert code == 3
        assert err.startswith("budget exceeded: enumeration needs 14707 prefixes")
        code, _, _ = run(capsys, *argv, "--budget", "14707")
        assert code == 0
    code, _, err = run(capsys, "enumerate", "--p", "7", "--n", "2", "--budget", "117648")
    assert code == 3
    assert err.startswith("budget exceeded: enumeration needs 117649 prefixes")


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("DQC_BUDGET", "100")
    code, _, err = run(capsys, "enumerate", "--p", "19", "--n", "3")
    assert code == 3
    # explicit flag overrides the environment
    monkeypatch.setenv("DQC_BUDGET", "100")
    code, out, _ = run(capsys, "enumerate", "--p", "3", "--n", "1", "--budget", "1000")
    assert code == 0
    # a value that is not a positive integer is a usage error naming it
    for value in ("abc", "0", "-5"):
        monkeypatch.setenv("DQC_BUDGET", value)
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--p", "3", "--n", "1"])
        assert exc.value.code == 2
        assert "DQC_BUDGET" in capsys.readouterr().err
    # subcommands without --budget do not read it
    monkeypatch.setenv("DQC_BUDGET", "0")
    code, _, _ = run(capsys, "tables", "--p", "3", "--n", "1")
    assert code == 0


def test_tables_defaults(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    lines = out.strip().split("\n")
    rows = list(csv.reader(lines))
    assert rows[0] == [
        "p", "n", "total", "unit_norm", "irreducible",
        "log10_total", "log10_unit_norm", "log10_irreducible",
    ]
    assert len(rows) == 1 + 6 * 4  # six default primes, n = 1..4
    first = rows[1]
    assert first[:5] == ["3", "1", "81", "24", "6"]
    assert first[5] == "1.908"  # log10(81)
    # big cells never overflow to floats: exact digits survive
    last = rows[-1]
    assert last[0] == "31" and last[1] == "4"
    assert last[2] == str(31**32)


def test_tables_json_format(capsys):
    code, out, _ = run(capsys, "tables", "--p", "3", "--n", "2", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert docs == [
        {
            "p": 3,
            "n": 2,
            "total": "6561",
            "unit_norm": "2160",
            "irreducible": "540",
            "log10_total": "3.817",
            "log10_unit_norm": "3.334",
            "log10_irreducible": "2.732",
        }
    ]


def test_bloch_budget_exit_code(capsys):
    # --budget reaches the export: p=7 is charged 7**2 prefixes
    code, out, err = run(capsys, "bloch", "--p", "7", "--budget", "10")
    assert code == 3
    assert "budget exceeded" in err
    assert out == ""


def test_bloch_export_row_counts(capsys):
    code, out, _ = run(capsys, "bloch", "--p", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,X,Y,Z,ex,ey,ez,degenerate_flag"
    assert len(lines) == 1 + 42
    rows = list(csv.reader(lines[1:]))
    for row in rows:
        p, x, y, z = int(row[0]), int(row[1]), int(row[2]), int(row[3])
        assert p == 7
        assert (x * x + y * y + z * z) % 7 == 1
        assert row[7] == "0"
        length = sum(float(row[k]) ** 2 for k in (4, 5, 6))
        assert abs(length - 1.0) < 1e-9
    assert sha256(out) == (
        "4509a57ada442e20522787e163aeaded3de8fb5b40ba2b4f43c0e8aa48c8e91d"
    )


def test_enumerate_irreducible_frozen(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--p", "3", "--n", "1", "--class", "irreducible"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,n,norm_class,amplitudes"
    assert len(lines) == 1 + 6
    assert lines[1] == "3,1,irreducible,0+0i;0+1i"
    amps = [line.split(",")[3] for line in lines[1:]]
    assert amps == sorted(amps)
    code, out, _ = run(
        capsys, "enumerate", "--p", "3", "--n", "2", "--class", "irreducible"
    )
    assert code == 0
    assert sha256(out) == (
        "a7f5e9f25e6bfacc43965a802924f5f8f7c0bf5755a50d24dc525fb63470a94f"
    )


def test_enumerate_zero_class(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "3", "--n", "1", "--class", "zero")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 33
    code, out, _ = run(capsys, "enumerate", "--p", "3", "--n", "2", "--class", "zero")
    assert code == 0
    assert sha256(out) == (
        "29e8089ae6a84c1db1b155ab8f78b2570d08545ce4fdec06de6382ba2304a2f2"
    )


def test_enumerate_unit_class_pinned_bytes(capsys):
    # the default class is unit
    code, out, _ = run(capsys, "enumerate", "--p", "3", "--n", "2")
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 2160
    assert sha256(out) == (
        "7ea856223955963a3026118eacba51ea097d6d2668f036fe310289afb6be402a"
    )


def test_classify_summary_to_stdout(capsys):
    code, out, _ = run(capsys, "classify", "--p", "3", "--n", "2")
    assert code == 0
    assert (
        "p=3 n=2 irreducible=540 "
        "{Maximal: 216, Partial: 288, Unentangled: 36}" in out
    )
    assert "p=3 n=2 purity-1-without-factorization: 0" in out
    assert "p=3 n=2 purity-histogram: {0: 216, 1: 288, 2: 36}" in out


def test_classify_rows_to_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _, _ = run(
        capsys, "classify", "--p", "3", "--n", "2", "--out", str(target)
    )
    assert code == 0
    rows = list(csv.reader(target.read_text().strip().split("\n")))
    assert rows[0] == [
        "p", "n", "state", "class", "sum_sq", "reduced_purity", "separable_mask",
    ]
    assert len(rows) == 1 + 540
    kinds = {}
    for row in rows[1:]:
        kinds[row[3]] = kinds.get(row[3], 0) + 1
        assert row[6] in ("00", "10", "01", "11")
    assert kinds == {"Unentangled": 36, "Partial": 288, "Maximal": 216}
    # product rows carry reduced purity 1 and a full mask
    unent = [row for row in rows[1:] if row[3] == "Unentangled"]
    assert all(row[5] == "1" and row[6] == "11" for row in unent)


def test_classify_rows_p7_pinned_bytes(tmp_path, capsys):
    # all 102900 rows at p=7 n=2, pinned byte for byte
    target = tmp_path / "c.csv"
    code, _, _ = run(
        capsys, "classify", "--p", "7", "--n", "2", "--out", str(target)
    )
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "7f68c75e6dca53146bd40c16364ac6f84113f8997f719f6f98b49597428d84a6"
    )


def test_classify_csv_rows_match_the_stream(tmp_path, capsys, monkeypatch):
    # each file against csv.writer or json.dumps on rows formatted from
    # the per-state stream; most runs have several cells, so a table of
    # one cell that leaks into the next shows
    for fmt in ("csv", "json"):
        for argv, cells, limit in (
            (("--p-list", "3,7", "--n", "1"), [(3, 1), (7, 1)], None),
            (("--p", "3", "--n-max", "2"), [(3, 1), (3, 2)], None),
            # the first p=7 n=2 rows share (class, sum_sq, mask) with p=3
            # n=2 rows, but not their reduced purity; 11 parents are 448
            # p=7 n=2 prefixes
            (("--p-list", "3,7", "--n", "2"), [(3, 2), (7, 2)], 11),
            # p divides n, so reduced_purity is NA; 58 parents are 507
            # prefixes
            (("--p", "3", "--n", "3"), [(3, 3)], 58),
            # no rows: the header alone, or []
            (("--p-list", "3,7", "--n", "1"), [(3, 1), (7, 1)], 0),
        ):
            # limit counts parents; the rows are their prefixes' states
            monkeypatch.setattr(
                entangle, "iter_classified_prefixes",
                lambda prime, n, budget: islice(
                    iter_classified_prefixes(prime, n, budget), limit
                ),
            )
            target = tmp_path / "rows.out"
            code, _, _ = run(
                capsys, "classify", *argv, "--format", fmt, "--out", str(target)
            )
            assert code == 0
            rows = []
            for p, n in cells:
                states = None
                if limit is not None:
                    groups = iter_classified_prefixes(validate_prime(p), n)
                    states = sum(
                        len(completions)
                        for _, children in islice(groups, limit)
                        for _, _, completions in children
                    )
                rows += classify_rows([(p, n)], states)
            assert any(row[5] == "NA" for row in rows) == (cells == [(3, 3)])
            expected = stdlib_written(fmt, CLASSIFY_HEADER, rows)
            assert target.read_bytes() == expected.encode(), (fmt, argv)

    # the other row outputs, against rows built here from the library
    counted = [
        (p, n, [
            str(count(p, 1 << n)) for count in
            (census.total_count, census.unit_norm_count, census.irreducible_count)
        ])
        for p in (3, 7)
        for n in (1, 2)
    ]
    tables = [
        [p, n, *counts, *(f"{log10_decimal(c):.3f}" for c in counts)]
        for p, n, counts in counted
    ]
    bloch = [
        [
            p, b.x, b.y, b.z, f"{b.ex:.9g}", f"{b.ey:.9g}", f"{b.ez:.9g}",
            int(b.degenerate),
        ]
        for p in (3, 7)
        for b in bloch_export(validate_prime(p))
    ]
    for fmt in ("csv", "json"):
        for argv, header, rows in (
            (
                ("tables", "--p-list", "3,7", "--n-max", "2"),
                [
                    "p", "n", "total", "unit_norm", "irreducible",
                    "log10_total", "log10_unit_norm", "log10_irreducible",
                ],
                tables,
            ),
            (
                ("bloch", "--p-list", "3,7"),
                ["p", "X", "Y", "Z", "ex", "ey", "ez", "degenerate_flag"],
                bloch,
            ),
            (
                ("enumerate", "--p-list", "3,7", "--n", "1"),
                ENUMERATE_HEADER,
                enumerate_rows([(3, 1), (7, 1)], "unit"),
            ),
        ):
            code, out, _ = run(capsys, *argv, "--format", fmt)
            assert code == 0
            assert out == stdlib_written(fmt, header, rows), (fmt, argv)


def test_state_rows_match_the_stdlib_oracle(capsys, monkeypatch):
    # the per-prefix blocks of `dqc classify --out` and `dqc enumerate`
    # against csv.writer and json.dumps over the per-state streams, cell
    # by cell and in one run of four cells
    grid = [(p, n) for p in (3, 7) for n in (1, 2)]
    classified = {cell: classify_rows([cell]) for cell in grid}
    irreducible = {cell: enumerate_rows([cell], "irreducible") for cell in grid}
    runs = [
        (("classify", "--p", str(p), "--n", str(n), "--out", "-"),
         CLASSIFY_HEADER, classified[p, n])
        for p, n in grid
    ]
    runs += [
        (("enumerate", "--p", str(p), "--n", str(n), "--class", norm_class),
         ENUMERATE_HEADER,
         irreducible[p, n] if norm_class == "irreducible"
         else enumerate_rows([(p, n)], norm_class))
        for p, n in grid
        for norm_class in ("unit", "zero", "irreducible")
        # 823,200 and 825,601 rows: the CI pins their bytes instead
        if (p, n, norm_class) not in ((7, 2, "unit"), (7, 2, "zero"))
    ]
    cells = ("--p-list", "3,7", "--n-max", "2")
    runs += [
        (("classify", *cells, "--out", "-"),
         CLASSIFY_HEADER, sum((classified[cell] for cell in grid), [])),
        (("enumerate", *cells, "--class", "irreducible"),
         ENUMERATE_HEADER, sum((irreducible[cell] for cell in grid), [])),
    ]
    for fmt in ("csv", "json"):
        for argv, header, rows in runs:
            if fmt == "json" and argv[1:5] == ("--p", "7", "--n", "2"):
                continue  # the four-cell runs hold these rows; json.dumps is slow
            code, out, _ = run(capsys, *argv, "--format", fmt)
            assert code == 0
            assert out == stdlib_written(fmt, header, rows), (fmt, argv)
    # no rows at all: the header alone, or []
    monkeypatch.setattr(entangle, "iter_classified_prefixes", lambda *a, **k: iter(()))
    monkeypatch.setattr(census, "iter_norm_prefixes", lambda *a, **k: iter(()))
    for fmt in ("csv", "json"):
        for argv, header in (
            (("classify", "--p-list", "3,7", "--n", "2", "--out", "-"), CLASSIFY_HEADER),
            (("enumerate", "--p-list", "3,7", "--n", "2"), ENUMERATE_HEADER),
        ):
            code, out, _ = run(capsys, *argv, "--format", fmt)
            assert code == 0
            assert out == stdlib_written(fmt, header, []), (fmt, argv)


def test_a_full_row_cache_changes_no_byte(capsys, monkeypatch):
    # the p=7 n=2 walk has 1,225 distinct row keys and the p=3 n=3 walk
    # 28,543; a cache of one entry drops its key at nearly every prefix.
    # p=3 n=3 runs over its first 2,224 parents, 20,001 prefixes
    argvs = [
        ("classify", "--p", "7", "--n", "2", "--out", "-"),
        ("classify", "--p", "7", "--n", "2", "--out", "-", "--format", "json"),
        ("enumerate", "--p-list", "3,7", "--n", "2", "--class", "zero"),
    ]
    whole = [run(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(
        entangle, "iter_classified_prefixes",
        lambda prime, n, budget: islice(
            iter_classified_prefixes(prime, n, budget), 2224
        ),
    )
    whole.append(run(capsys, "classify", "--p", "3", "--n", "3", "--out", "-"))
    argvs.append(("classify", "--p", "3", "--n", "3", "--out", "-"))
    monkeypatch.setattr(cli, "ROW_CACHE_ENTRIES", 1)
    for argv, (code, out, _) in zip(argvs, whole):
        assert code == 0
        assert run(capsys, *argv) == (0, out, ""), argv


def row_caches(monkeypatch, per_block):
    """Wrap cli._state_lines so that per_block(suffixes) is called after
    each block of a cell, suffixes being that cell's row cache."""
    lines = cli._state_lines

    def watched(*args):
        blocks = lines(*args)
        for block in blocks:
            per_block(blocks.gi_frame.f_locals["suffixes"])
            yield block

    monkeypatch.setattr(cli, "_state_lines", watched)


def test_row_cache_misses_once_per_key_at_p7_n2(monkeypatch):
    # the p=7 n=2 walk has 1,225 distinct row keys in 14,707 prefixes;
    # the cache keeps the keys used last, so none is built twice.  A
    # qubit with no nonzero head column has the test _ALWAYS, (0, 0, 0, 0),
    # so a prefix with such a qubit shares its key with one whose test
    # for that qubit is all zeros
    infos = []
    row_caches(monkeypatch, lambda suffixes: infos.append(suffixes.cache_info()))
    assert main(["classify", "--p", "7", "--n", "2", "--out", os.devnull]) == 0
    assert len(infos) == 14707
    assert infos[-1].misses == 1225
    assert infos[-1].currsize == cli.ROW_CACHE_ENTRIES


def test_row_cache_stays_bounded(monkeypatch):
    # `dqc classify --p 7 --n 3 --out` on its first 4,084 parents, whose
    # 200,025 prefixes hold 28,594 distinct row keys: the cache never
    # holds more than its cap.  Over the first 2 * 10**4 prefixes, under
    # tracemalloc, the capped writer peaks at about 0.9 MB and an
    # uncapped one at about 3.8 MB.
    limit, prefixes, traced = 4084, 200_025, 20_000
    monkeypatch.setattr(
        entangle, "iter_classified_prefixes",
        lambda prime, n, budget: islice(
            iter_classified_prefixes(prime, n, budget), limit
        ),
    )
    sizes, peaks = [], []

    def watched(suffixes):
        sizes.append(suffixes.cache_info().currsize)
        if len(sizes) == traced:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    row_caches(monkeypatch, watched)
    argv = ["classify", "--p", "7", "--n", "3", "--budget", str(7**14),
            "--out", os.devnull]
    tracemalloc.start()
    try:
        assert main(argv) == 0
    finally:
        tracemalloc.stop()
    assert len(sizes) == prefixes  # one block per prefix
    assert max(sizes) == cli.ROW_CACHE_ENTRIES  # it filled up
    assert peaks[0] < 2_500_000


def test_blocks_hold_one_prefix(monkeypatch):
    # the writer yields one block per prefix, at most p + 1 rows, even
    # where a parent holds many prefixes: at p=43 n=1 the canonical
    # walk's second parent holds 42 and the full walk's one parent all
    # p**2; at p=7 n=2 each parent holds up to 49
    lines = cli._state_lines
    rows = []

    def watched(layout, p, lead, groups, tail):
        for block in lines(layout, p, lead, groups, tail):
            rows.append(block.count(layout[2]))  # every row ends so
            assert rows[-1] <= p + 1, (p, lead, rows[-1])
            yield block

    monkeypatch.setattr(cli, "_state_lines", watched)
    for argv, p, blocks, states in (
        (("classify", "--p", "43", "--n", "1", "--out", os.devnull), 43, 43, 1806),
        (("enumerate", "--p", "43", "--n", "1", "--out", os.devnull),
         43, 43 * 43, 43**3 - 43),
        (("classify", "--p", "7", "--n", "2", "--out", os.devnull), 7, 14707, 102900),
    ):
        for fmt in ("csv", "json"):
            rows.clear()
            assert main([*argv, "--format", fmt]) == 0
            assert (len(rows), sum(rows), max(rows)) == (blocks, states, p + 1), argv


def test_rows_are_written_as_they_are_drawn(monkeypatch):
    # before the stream yields group k + 1, the output already ends with
    # the last row of group k: nothing is collected before writing
    ends = {"csv": ",%s\n", "json": '"amplitudes": "%s"\n  }'}
    walk = census.iter_norm_prefixes
    for fmt, end in ends.items():
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        shown = []

        def checked(*args, **kwargs):
            for parent, children in walk(*args, **kwargs):
                if shown:
                    assert out.getvalue().endswith(end % shown[-1]), len(shown)
                shown.extend(
                    ";".join(map(format_amp, parent + (y, x)))
                    for y, _, completions in children
                    for x in completions
                )
                yield parent, children

        monkeypatch.setattr(census, "iter_norm_prefixes", checked)
        argv = ["enumerate", "--p", "3", "--n", "2", "--class", "irreducible"]
        assert main(argv + ["--format", fmt]) == 0
        assert len(shown) == 540
        closing = "\n]\n" if fmt == "json" else ""
        assert out.getvalue().endswith(end % shown[-1] + closing)


def test_outputs_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "classify", "--p", "3", "--n", "2", "--out", str(a))
    run(capsys, "classify", "--p", "3", "--n", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    # --out - writes to stdout the bytes --out FILE writes
    run(capsys, "classify", "--p", "3", "--n", "1", "--out", str(a))
    _, out, _ = run(capsys, "classify", "--p", "3", "--n", "1", "--out", "-")
    assert out.encode() == a.read_bytes()
    assert sha256(out) == (
        "972fda521863d7eeddcb5d632e08549ef495e1621bd131e475b5b453fa1c8057"
    )


def test_summary_thread_invariant(capsys):
    _, one, _ = run(capsys, "classify", "--p", "3", "--n", "2", "--threads", "1")
    _, four, _ = run(capsys, "classify", "--p", "3", "--n", "2", "--threads", "4")
    assert one == four
    # 17,496 prefixes, enough for two workers to start a pool
    _, one, _ = run(capsys, "classify", "--p", "3", "--n", "3", "--threads", "1")
    _, two, _ = run(capsys, "classify", "--p", "3", "--n", "3", "--threads", "2")
    assert one == two == (
        "p=3 n=3 irreducible=3586680 "
        "{Maximal: 257904, Partial: 3328560, Unentangled: 216}\n"
        "p=3 n=3 purity-1-without-factorization: 1311984\n"
        "p=3 n=3 purity-histogram: {0: 1312200, 1: 1154736, 2: 1119744}\n"
    )


def test_threads_zero_is_one_per_usable_cpu():
    assert cli.workers("0") == census.usable_cpus()
    assert cli.workers("3") == 3


def test_verify_output_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--p", "7", "--n", "1", "--threads", "1")
    _, second, _ = run(capsys, "verify", "--p", "7", "--n", "1", "--threads", "3")
    assert first == second


def test_usage_errors_exit_2():
    for argv in (
        ["verify", "--n", "1"],  # missing prime
        ["verify", "--p", "3"],  # missing qubit count
        ["verify", "--p", "3", "--p-list", "3,7", "--n", "1"],
        ["verify", "--p", "3", "--n", "1", "--n-max", "2"],
        ["verify", "--p", "3", "--n", "1", "--budget", "0"],
        ["verify", "--p", "3", "--n", "1", "--threads", "-2"],
        ["classify", "--p", "3", "--n", "1", "--threads", "-1"],
        ["verify", "--p", "3", "--n", "0"],
        ["enumerate", "--p", "3", "--n", "1", "--class", "bogus"],
        # flags a subcommand does not read are not accepted
        ["verify", "--p", "3", "--n", "1", "--format", "csv"],
        ["tables", "--budget", "10"],
        ["tables", "--seed", "1"],
        ["bloch", "--p", "3", "--n", "1"],
        ["bloch", "--p", "3", "--n-max", "2"],
        ["bloch", "--p", "3", "--seed", "1"],
        ["enumerate", "--p", "3", "--n", "1", "--seed", "1"],
        ["classify", "--p", "3", "--n", "1", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_empty_prime_list_is_a_usage_error(capsys):
    # --p-list of separators alone names no modulus
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p-list", ",", "--n", "1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "dqc verify: error: argument --p-list: invalid prime_list value: ','" in err


def test_usage_errors_print_the_subcommand_usage(capsys, monkeypatch):
    for budget_env, argv in (
        (None, ["verify", "--p", "3", "--n", "1", "--threads", "-2"]),
        (None, ["verify", "--p", "3", "--n", "1", "--budget", "0"]),
        (None, ["verify", "--p", "3", "--p-list", "3,7", "--n", "1"]),
        (None, ["verify", "--p", "3"]),
        (None, ["verify", "--p", "3", "--n", "1", "--format", "csv"]),
        (None, ["tables", "--p-list", "3,x"]),
        ("abc", ["enumerate", "--p", "3", "--n", "1"]),
    ):
        if budget_env is None:
            monkeypatch.delenv("DQC_BUDGET", raising=False)
        else:
            monkeypatch.setenv("DQC_BUDGET", budget_env)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2, argv
        assert f"usage: dqc {argv[0]} " in err, argv
        assert f"dqc {argv[0]}: error: " in err, argv


def test_pipe_closed_early_ends_quietly():
    # like `dqc enumerate --p 3 --n 2 | head -n 1`: the reader stops
    # after one line, and dqc ends without a traceback
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe size cannot be set on this platform")
    read_fd, write_fd = os.pipe()
    # a one-page pipe cannot take the 62 kB of output in advance, so dqc
    # is still writing when the reader closes
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    src = os.path.dirname(os.path.dirname(dqc.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dqc.cli", "enumerate", "--p", "3", "--n", "2"],
        stdout=write_fd,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as reader:
        assert reader.readline() == b"p,n,norm_class,amplitudes\n"
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == -signal.SIGPIPE


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--p", "3", "--n", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["verified"] is True
    assert doc["enumerated"]["maxent_irreducible"] == "216"


def test_verify_checks_primes_and_out_before_the_first_cell(
    tmp_path, capsys, monkeypatch
):
    # an unopenable --out, or a bad modulus anywhere in the list, fails
    # before any cell is verified, and a bad modulus writes no file
    calls = []
    verify = census.verify
    monkeypatch.setattr(
        census, "verify", lambda *a, **k: calls.append(a) or verify(*a, **k)
    )
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "verify", "--p", "3", "--n", "1", "--out", str(target))
    assert (code, out, calls) == (1, "", [])
    assert err == f"error: cannot write {target}: No such file or directory\n"
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--p-list", "3,5", "--n", "1", "--out", str(target)
    )
    assert (code, out, calls) == (2, "", [])
    assert "usage error" in err
    assert not target.exists()
    # and a good run still verifies every cell once
    code, _, _ = run(
        capsys, "verify", "--p-list", "3,7", "--n", "1", "--out", str(target)
    )
    assert code == 0 and len(calls) == 2
    assert [doc["p"] for doc in json.loads(target.read_text())] == [3, 7]


def test_unopenable_out_exits_1_without_traceback(tmp_path, capsys):
    # every subcommand opens --out in one place, which turns the OSError
    # into one line on stderr and exit 1, with nothing on stdout
    commands = (
        ["verify", "--p", "3", "--n", "1"],
        ["tables", "--p", "3", "--n", "1"],
        ["bloch", "--p", "3"],
        ["enumerate", "--p", "3", "--n", "1"],
        ["classify", "--p", "3", "--n", "1"],
    )
    targets = (
        (tmp_path / "missing" / "x", "No such file or directory"),
        (tmp_path, "Is a directory"),
    )
    for argv in commands:
        for target, reason in targets:
            code, out, err = run(capsys, *argv, "--out", str(target))
            assert code == 1
            assert out == ""
            assert err == f"error: cannot write {target}: {reason}\n"
    assert list(tmp_path.iterdir()) == []
