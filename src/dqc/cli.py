"""Command-line interface: verification, tables, Bloch export,
enumeration and classification.

Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 budget exceeded.  Big integers are always written as decimal
strings; log columns are computed from decimal digit counts so no
value ever passes through a float.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import signal
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from . import census
from .basefield import ComplexifiablePrime, validate_prime
from .entangle import census_tally, iter_classified
from .errors import (
    BudgetExceeded,
    DqcError,
    NotComplexifiable,
    NotPrime,
    VerificationFailed,
)
from .hopf import bloch_export
from .states import format_amp

DEFAULT_PRIMES = (3, 7, 11, 19, 23, 31)


@dataclass
class RunConfig:
    command: str
    primes: list
    n_values: list
    norm_class: str = "unit"
    budget: int = census.DEFAULT_BUDGET
    threads: int = 0
    format: str = "csv"
    out: str = "-"
    seed: int = 0

    @property
    def workers(self) -> int:
        return self.threads if self.threads > 0 else (os.cpu_count() or 1)


def log10_decimal(x: int) -> float:
    """Base-10 log of a positive big integer from its decimal digits."""
    s = str(x)
    head = s[:15]
    return math.log10(int(head)) + (len(s) - len(head))


def mask_bits(mask: int, n: int) -> str:
    """Bit string with qubit 0 leftmost."""
    return "".join("1" if mask >> j & 1 else "0" for j in range(n))


@contextmanager
def _sink(cfg: RunConfig):
    """cfg.out opened for writing, or stdout for '-'."""
    if cfg.out == "-":
        yield sys.stdout
    else:
        with open(cfg.out, "w", encoding="utf-8") as sink:
            yield sink


def _write_json(cfg: RunConfig, payload):
    with _sink(cfg) as sink:
        json.dump(payload, sink, indent=2)
        sink.write("\n")


def _write_rows(cfg: RunConfig, header: list, rows):
    """Emit rows as CSV or a JSON array to cfg.out ('-' = stdout)."""
    if cfg.format == "json":
        _write_json(cfg, [dict(zip(header, row)) for row in rows])
        return
    with _sink(cfg) as sink:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_verify(cfg: RunConfig) -> int:
    reports = []
    for p in cfg.primes:
        prime = validate_prime(p)
        for n in cfg.n_values:
            rep = census.verify(
                prime,
                n,
                budget=cfg.budget,
                threads=cfg.workers,
                seed=cfg.seed,
            )
            for note in rep.notes:
                print(f"note: p={p} n={n}: {note}", file=sys.stderr)
            reports.append(rep.to_json_dict())
    _write_json(cfg, reports[0] if len(reports) == 1 else reports)
    return 0


def cmd_tables(cfg: RunConfig) -> int:
    header = [
        "p", "n", "total", "unit_norm", "irreducible",
        "log10_total", "log10_unit_norm", "log10_irreducible",
    ]
    rows = []
    for p in cfg.primes:
        validate_prime(p)
        for n in cfg.n_values:
            d = 1 << n
            total = census.total_count(p, d)
            unit = census.unit_norm_count(p, d)
            irr = census.irreducible_count(p, d)
            rows.append([
                p, n, str(total), str(unit), str(irr),
                f"{log10_decimal(total):.3f}",
                f"{log10_decimal(unit):.3f}",
                f"{log10_decimal(irr):.3f}",
            ])
    _write_rows(cfg, header, rows)
    return 0


def cmd_bloch(cfg: RunConfig) -> int:
    header = ["p", "X", "Y", "Z", "ex", "ey", "ez", "degenerate_flag"]
    rows = []
    for p in cfg.primes:
        prime = validate_prime(p)
        for b in bloch_export(prime, budget=cfg.budget):
            rows.append([
                p, b.x, b.y, b.z,
                f"{b.ex:.9g}", f"{b.ey:.9g}", f"{b.ez:.9g}",
                int(b.degenerate),
            ])
    _write_rows(cfg, header, rows)
    return 0


def _per_cell(cfg: RunConfig, fn) -> list:
    """[(p, n, fn(prime, n))] for every cell, in order.  Streams are
    created here, so every budget is checked before any row is written."""
    cells = []
    for p in cfg.primes:
        prime = validate_prime(p)
        cells.extend((p, n, fn(prime, n)) for n in cfg.n_values)
    return cells


def cmd_enumerate(cfg: RunConfig) -> int:
    header = ["p", "n", "norm_class", "amplitudes"]

    def stream(prime, n):
        if cfg.norm_class == "irreducible":
            return census.iter_irreducible(prime, n, budget=cfg.budget)
        target = 1 if cfg.norm_class == "unit" else 0
        return census.iter_norm_class(prime, 1 << n, target, budget=cfg.budget)

    rows = (
        [p, n, cfg.norm_class, ";".join(map(format_amp, amps))]
        for p, n, amps_stream in _per_cell(cfg, stream)
        for amps in amps_stream
    )
    _write_rows(cfg, header, rows)
    return 0


def cmd_classify(cfg: RunConfig) -> int:
    header = [
        "p", "n", "state", "class", "sum_sq", "reduced_purity", "separable_mask",
    ]
    if cfg.out != "-":
        streams = _per_cell(
            cfg, lambda prime, n: iter_classified(prime, n, budget=cfg.budget)
        )
        rows = (
            [
                p, n,
                ";".join(map(format_amp, amps)),
                kind.value,
                sum_sq,
                "NA" if reduced is None else reduced,
                mask_bits(mask, n),
            ]
            for p, n, stream in streams
            for amps, kind, sum_sq, reduced, mask in stream
        )
        _write_rows(cfg, header, rows)
        return 0

    # summary only; the row dump is opt-in via --out
    tallies = _per_cell(
        cfg,
        lambda prime, n: census_tally(
            prime, n, budget=cfg.budget, threads=cfg.workers
        ),
    )
    for p, n, tally in tallies:
        parts = ", ".join(
            f"{k}: {v}" for k, v in sorted(tally.class_counts.items())
        )
        print(f"p={p} n={n} irreducible={tally.irreducible_total} {{{parts}}}")
        print(
            f"p={p} n={n} purity-1-without-factorization: "
            f"{tally.purity_one_not_product}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqc",
        description="Exact census of discrete qubits over F_p[i], p % 4 == 3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--p": dict(type=int, help="prime modulus (p %% 4 == 3)"),
        "--p-list": dict(type=str, help="comma-separated primes"),
        "--n": dict(type=int, help="qubit count"),
        "--n-max": dict(type=int, help="run n = 1..n_max"),
        "--budget": dict(type=int, help="prefix-count budget (default: DQC_BUDGET or 10^8)"),
        "--threads": dict(type=int, default=0, help="workers (0 = auto)"),
        "--class": dict(
            dest="norm_class", choices=("unit", "zero", "irreducible"), default="unit"
        ),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--out": dict(type=str, default="-", help="output path ('-' = stdout)"),
        "--seed": dict(type=int, default=0, help="seed for sampled checks"),
    }
    cells = ("--p", "--p-list", "--n", "--n-max")
    # each subcommand takes only the flags it reads
    for command, help_text, names in (
        ("verify", "cross-check closed forms by enumeration",
         (*cells, "--budget", "--threads", "--out", "--seed")),
        ("tables", "closed-form count tables", (*cells, "--format", "--out")),
        ("bloch", "export the discrete Bloch sphere",
         ("--p", "--p-list", "--budget", "--format", "--out")),
        ("enumerate", "stream vectors of a norm class",
         (*cells, "--budget", "--class", "--format", "--out")),
        ("classify", "entanglement census",
         (*cells, "--budget", "--threads", "--format", "--out")),
    ):
        sp = sub.add_parser(command, help=help_text)
        for name in names:
            sp.add_argument(name, **flags[name])
    return parser


def make_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    # a subcommand's namespace holds only its own flags
    n, n_max = getattr(args, "n", None), getattr(args, "n_max", None)
    if args.p is not None and args.p_list:
        parser.error("--p and --p-list are mutually exclusive")
    if args.p_list:
        try:
            primes = [int(tok) for tok in args.p_list.split(",") if tok.strip()]
        except ValueError:
            parser.error(f"--p-list must be comma-separated integers, got {args.p_list!r}")
    elif args.p is not None:
        primes = [args.p]
    elif args.command == "tables":
        primes = list(DEFAULT_PRIMES)
    else:
        parser.error("one of --p or --p-list is required")
    if not primes:
        parser.error("empty prime list")

    if n is not None and n_max is not None:
        parser.error("--n and --n-max are mutually exclusive")
    if n_max is not None:
        n_values = list(range(1, n_max + 1))
    elif n is not None:
        n_values = [n]
    elif args.command == "tables":
        n_values = [1, 2, 3, 4]
    elif args.command == "bloch":
        n_values = [1]
    else:
        parser.error("one of --n or --n-max is required")
    if not n_values or any(k < 1 for k in n_values):
        parser.error("qubit counts must be >= 1")

    budget = getattr(args, "budget", census.DEFAULT_BUDGET)
    if budget is None:  # only subcommands that take --budget read DQC_BUDGET
        raw = os.environ.get("DQC_BUDGET", str(census.DEFAULT_BUDGET))
        try:
            budget = int(raw)
        except ValueError:
            budget = 0
        if budget <= 0:
            parser.error(f"DQC_BUDGET must be a positive integer, got {raw!r}")
    elif budget <= 0:
        parser.error("--budget must be positive")
    if getattr(args, "threads", 0) < 0:
        parser.error("--threads must be >= 0")

    # flags a subcommand does not take keep RunConfig's defaults
    optional = ("norm_class", "threads", "format", "out", "seed")
    return RunConfig(
        command=args.command,
        primes=primes,
        n_values=n_values,
        budget=budget,
        **{key: value for key, value in vars(args).items() if key in optional},
    )


COMMANDS = {
    "verify": cmd_verify,
    "tables": cmd_tables,
    "bloch": cmd_bloch,
    "enumerate": cmd_enumerate,
    "classify": cmd_classify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args, parser)
        return COMMANDS[cfg.command](cfg)
    except (NotPrime, NotComplexifiable) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


def entry():
    # end quietly, like other filters, when the reader closes the pipe
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
