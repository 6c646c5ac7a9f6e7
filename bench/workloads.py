"""The benchmark's workloads: one cell each, its pinned output and its gate.

Every workload is a closed loop: one caller runs one cell after another.
The enumerations are deterministic, so each cell's output is compared
with values pinned here from the seed of this benchmark; the run seed
only reaches ``verify(seed=...)`` and the kernel sample, neither of
which changes an output byte.

``Pins`` holds the sizes and the pinned outputs.  ``FULL`` is what the
benchmark runs; the benchmark's own tests build a tiny ``Pins`` (p=3,
n=2) so that every path runs in a second.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from dqc import census, cli, entangle
from dqc.basefield import validate_prime


@dataclass(frozen=True)
class Pins:
    """Sizes of the cells and the outputs they must reproduce."""

    p: int  # prime of every workload cell
    n: int  # qubit count of every workload cell
    report: dict  # census.verify(p, n).to_json_dict()
    classify_rows: int  # data rows of `dqc classify --out`
    classify_sha256: str  # digest of that file
    sample_states: int = 10000  # size of the n=3 kernel sample


FULL = Pins(
    p=7,
    n=2,
    report={
        "p": 7, "n": 2, "D": 4,
        "total": "5764801",
        "zero_norm": "825601",
        "unit_norm": "823200",
        "irreducible": "102900",
        "unentangled_irreducible": "1764",
        "maxent_irreducible": "16464",
        "unentangled_unit": "14112",
        "maxent_unit": "131712",
        "enumerated": {
            "irreducible": "102900",
            "maxent_irreducible": "16464",
            "unentangled_irreducible": "1764",
            "unit_norm": "823200",
            "zero_norm": "825601",
        },
        "verified": True,
    },
    classify_rows=102900,
    classify_sha256="7f68c75e6dca53146bd40c16364ac6f84113f8997f719f6f98b49597428d84a6",
)


def prefixes(p: int, d: int) -> int:
    """Prefixes one fiber-completion pass walks in dimension d."""
    return p ** (2 * (d - 1))


def report_bytes(report: census.CountReport) -> bytes:
    """The report as `dqc verify` writes it."""
    return (json.dumps(report.to_json_dict(), indent=2) + "\n").encode()


@dataclass
class Workload:
    """One cell, its gate and the work it does per cell.

    ``prepare`` runs once before timing and returns what the gate needs;
    ``check`` returns None when the cell's output is correct, else the
    reason it is not.
    """

    name: str
    prefixes: int  # prefixes walked per cell, all passes together
    states: int  # states classified or emitted per cell
    prepare: Callable[[], dict]
    cell: Callable[[dict], object]
    check: Callable[[dict, object], str | None]
    out_file: Path | None = None  # file a cell writes, for the byte counts


def build(pins: Pins, out_dir: Path, seed: int) -> dict:
    """The workloads by name, sized and pinned by ``pins``."""
    p, n = pins.p, pins.n
    d = 1 << n
    closed_forms = tuple(
        int(pins.report[k]) for k in ("unit_norm", "zero_norm", "irreducible")
    )
    classify_path = out_dir / f"classify-{seed}.csv"

    def verify_cell(threads):
        def cell(ctx):
            return census.verify(ctx["field"], n, threads=threads, seed=seed)
        return cell

    def prepare_field():
        return {"field": validate_prime(p)}

    def check_verify(ctx, report):
        found = report.to_json_dict()
        if found != pins.report:
            return f"report {json.dumps(found)} != pinned {json.dumps(pins.report)}"
        return None

    def prepare_verify_2w():
        ctx = prepare_field()
        ctx["one_worker"] = report_bytes(
            census.verify(ctx["field"], n, threads=1, seed=seed)
        )
        return ctx

    def check_verify_2w(ctx, report):
        if report_bytes(report) != ctx["one_worker"]:
            return "2-worker report bytes differ from the 1-worker report"
        return check_verify(ctx, report)

    def count_cell(ctx):
        f = ctx["field"]
        return (
            census.count_norm_class(f, d, 1),
            census.count_norm_class(f, d, 0),
            census.count_irreducible(f, n),
        )

    def check_count(ctx, counts):
        if tuple(counts) != closed_forms:
            return f"(unit, zero, irreducible) {counts} != closed forms {closed_forms}"
        return None

    def prepare_classify():
        f = validate_prime(p)
        return {"field": f, "tally": entangle.census_tally(f, n).class_counts}

    def classify_cell(ctx):
        return cli.main(
            ["classify", "--p", str(p), "--n", str(n), "--out", str(classify_path)]
        )

    def check_classify(ctx, code):
        if code != 0:
            return f"dqc classify exited {code}"
        return check_classify_file(classify_path, pins, ctx["tally"])

    wls = [
        Workload(
            name=f"verify-p{p}n{n}",
            prefixes=4 * prefixes(p, d),
            states=pins.classify_rows,
            prepare=prepare_field,
            cell=verify_cell(1),
            check=check_verify,
        ),
        Workload(
            name=f"count-p{p}n{n}",
            prefixes=3 * prefixes(p, d),
            states=0,
            prepare=prepare_field,
            cell=count_cell,
            check=check_count,
        ),
        Workload(
            name=f"classify-out-p{p}n{n}",
            prefixes=prefixes(p, d),
            states=pins.classify_rows,
            prepare=prepare_classify,
            cell=classify_cell,
            check=check_classify,
            out_file=classify_path,
        ),
        Workload(
            name=f"verify-p{p}n{n}-2w",
            prefixes=4 * prefixes(p, d),
            states=pins.classify_rows,
            prepare=prepare_verify_2w,
            cell=verify_cell(2),
            check=check_verify_2w,
        ),
    ]
    return {w.name: w for w in wls}


def pinned_tally(pins: Pins) -> dict:
    """Class counts of the verify/classify cell, from the pinned report."""
    unentangled = int(pins.report["unentangled_irreducible"])
    maximal = int(pins.report["maxent_irreducible"])
    partial = int(pins.report["irreducible"]) - unentangled - maximal
    return {"Unentangled": unentangled, "Partial": partial, "Maximal": maximal}


def check_classify_file(path: Path, pins: Pins, tally: dict) -> str | None:
    """Gate on a `dqc classify --out` file: digest, row count and class
    histogram against the census tally."""
    # Streamed, so that the gate holds no more memory than dqc's own
    # streaming writer and peak_rss_mb stays dqc's.
    h = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    if h.hexdigest() != pins.classify_sha256:
        return f"sha256 {h.hexdigest()} != pinned {pins.classify_sha256}"
    with path.open(newline="") as f:
        rows = csv.reader(f)
        column = next(rows).index("class")
        kinds = Counter(row[column] for row in rows)
    if sum(kinds.values()) != pins.classify_rows:
        return f"{sum(kinds.values())} rows != pinned {pins.classify_rows}"
    if kinds != Counter(tally):
        return f"class histogram {dict(kinds)} != census_tally {tally}"
    return None
