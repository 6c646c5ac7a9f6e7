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

from . import census
from .basefield import validate_prime
from .entangle import census_tally, iter_classified
from .errors import (
    BudgetExceeded,
    NotComplexifiable,
    NotPrime,
    VerificationFailed,
)
from .hopf import bloch_export
from .states import format_amp

def log10_decimal(x: int) -> float:
    """Base-10 log of a positive big integer from its decimal digits."""
    s = str(x)
    head = s[:15]
    return math.log10(int(head)) + (len(s) - len(head))


def mask_bits(mask: int, n: int) -> str:
    """Bit string with qubit 0 leftmost."""
    return "".join("1" if mask >> j & 1 else "0" for j in range(n))


@contextmanager
def _sink(out: str):
    """out opened for writing, or stdout for '-'."""
    if out == "-":
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8") as sink:
            yield sink


def _write_json(out: str, payload):
    with _sink(out) as sink:
        json.dump(payload, sink, indent=2)
        sink.write("\n")


def _write_rows(args: argparse.Namespace, header: list, rows):
    """Emit rows as CSV or a JSON array to args.out ('-' = stdout)."""
    if args.format == "json":
        _write_json(args.out, [dict(zip(header, row)) for row in rows])
        return
    with _sink(args.out) as sink:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_verify(args: argparse.Namespace) -> int:
    reports = []
    for p in args.primes:
        prime = validate_prime(p)
        for n in args.n_values:
            rep = census.verify(
                prime,
                n,
                budget=args.budget,
                threads=args.threads,
                seed=args.seed,
            )
            for note in rep.notes:
                print(f"note: p={p} n={n}: {note}", file=sys.stderr)
            reports.append(rep.to_json_dict())
    _write_json(args.out, reports[0] if len(reports) == 1 else reports)
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    header = [
        "p", "n", "total", "unit_norm", "irreducible",
        "log10_total", "log10_unit_norm", "log10_irreducible",
    ]
    rows = []
    for p in args.primes:
        validate_prime(p)
        for n in args.n_values:
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
    _write_rows(args, header, rows)
    return 0


def cmd_bloch(args: argparse.Namespace) -> int:
    header = ["p", "X", "Y", "Z", "ex", "ey", "ez", "degenerate_flag"]
    rows = []
    for p in args.primes:
        prime = validate_prime(p)
        for b in bloch_export(prime, budget=args.budget):
            rows.append([
                p, b.x, b.y, b.z,
                f"{b.ex:.9g}", f"{b.ey:.9g}", f"{b.ez:.9g}",
                int(b.degenerate),
            ])
    _write_rows(args, header, rows)
    return 0


def _per_cell(args: argparse.Namespace, fn) -> list:
    """[(p, n, fn(prime, n))] for every cell, in order.  Streams are
    created here, so every budget is checked before any row is written."""
    cells = []
    for p in args.primes:
        prime = validate_prime(p)
        cells.extend((p, n, fn(prime, n)) for n in args.n_values)
    return cells


def cmd_enumerate(args: argparse.Namespace) -> int:
    header = ["p", "n", "norm_class", "amplitudes"]

    def stream(prime, n):
        if args.norm_class == "irreducible":
            return census.iter_irreducible(prime, n, budget=args.budget)
        target = 1 if args.norm_class == "unit" else 0
        return census.iter_norm_class(prime, 1 << n, target, budget=args.budget)

    rows = (
        [p, n, args.norm_class, ";".join(map(format_amp, amps))]
        for p, n, amps_stream in _per_cell(args, stream)
        for amps in amps_stream
    )
    _write_rows(args, header, rows)
    return 0


def _classify_lines(p: int, n: int, stream):
    """The CSV lines of one cell's classify rows.

    A line is head + amplitude + tail: the head ("p,n,a+bi;...;") is
    built once per prefix, since rows arrive in lexicographic order,
    and the tail (",class,sum_sq,reduced,mask\\n") once per (kind,
    sum_sq, mask); reduced follows from sum_sq and n.  No field holds a
    comma, quote or newline, so the lines are what csv.writer writes.
    The tables belong to this cell: the same prefix has another lead,
    and the same key another reduced purity, in another cell.
    """
    amp_text = {(a, b): format_amp((a, b)) for a in range(p) for b in range(p)}
    lead = f"{p},{n},"
    tails = {}
    prefix = head = None
    for amps, kind, sum_sq, reduced, mask in stream:
        if amps[:-1] != prefix:
            prefix = amps[:-1]
            head = lead + "".join(amp_text[x] + ";" for x in prefix)
        key = (kind, sum_sq, mask)
        tail = tails.get(key)
        if tail is None:
            shown = "NA" if reduced is None else reduced
            tail = tails[key] = (
                f",{kind.value},{sum_sq},{shown},{mask_bits(mask, n)}\n"
            )
        yield head + amp_text[amps[-1]] + tail


def cmd_classify(args: argparse.Namespace) -> int:
    header = [
        "p", "n", "state", "class", "sum_sq", "reduced_purity", "separable_mask",
    ]
    if args.out != "-":
        streams = _per_cell(
            args, lambda prime, n: iter_classified(prime, n, budget=args.budget)
        )
        if args.format == "csv":
            with _sink(args.out) as sink:
                sink.write(",".join(header) + "\n")
                for p, n, stream in streams:
                    sink.writelines(_classify_lines(p, n, stream))
            return 0
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
        _write_rows(args, header, rows)
        return 0

    # summary only; the row dump is opt-in via --out
    tallies = _per_cell(
        args,
        lambda prime, n: census_tally(
            prime, n, budget=args.budget, threads=args.threads
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


# -- argument types: argparse reports their errors under the subcommand's usage

def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def budget(text: str) -> int:
    """--budget, whose default is DQC_BUDGET or census.DEFAULT_BUDGET."""
    try:
        return positive_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--budget and DQC_BUDGET must be positive integers, got {text!r}"
        ) from None


def workers(text: str) -> int:
    """--threads: worker processes, 0 for one per CPU."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value or os.cpu_count() or 1


def one_prime(text: str) -> list:
    """--p: a single modulus."""
    return [int(text)]


def prime_list(text: str) -> list:
    """--p-list: comma-separated moduli, at least one."""
    primes = [int(tok) for tok in text.split(",") if tok.strip()]
    if not primes:
        raise ValueError(text)
    return primes


def one_qubit_count(text: str) -> list:
    """--n: a single qubit count."""
    return [positive_int(text)]


def qubit_counts_to(text: str) -> list:
    """--n-max: the qubit counts 1..n_max."""
    return list(range(1, positive_int(text) + 1))


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser: a flag it does not take is an error under
    its own usage, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqc",
        description="Exact census of discrete qubits over F_p[i], p % 4 == 3.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Subcommand
    )
    flags = {
        "--p": dict(dest="primes", metavar="P", type=one_prime,
                    help="prime modulus (p %% 4 == 3)"),
        "--p-list": dict(dest="primes", metavar="P_LIST", type=prime_list,
                         help="comma-separated primes"),
        "--n": dict(dest="n_values", metavar="N", type=one_qubit_count, help="qubit count"),
        "--n-max": dict(dest="n_values", metavar="N_MAX", type=qubit_counts_to,
                        help="run n = 1..n_max"),
        # a string default goes through `type`, so a bad DQC_BUDGET is a
        # usage error, raised only when --budget is not given
        "--budget": dict(
            type=budget,
            default=os.environ.get("DQC_BUDGET", str(census.DEFAULT_BUDGET)),
            help="prefix-count budget (default: DQC_BUDGET or 10^8)",
        ),
        "--threads": dict(type=workers, default="0", help="workers (0 = auto)"),
        "--class": dict(
            dest="norm_class", choices=("unit", "zero", "irreducible"), default="unit"
        ),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--out": dict(default="-", help="output path ('-' = stdout)"),
        "--seed": dict(type=int, default=0, help="seed for sampled checks"),
    }
    # each pair fills one destination; one of the two flags is required
    # unless the subcommand sets that destination's default
    pairs = {"--p": "--p-list", "--n": "--n-max"}
    # the grid `dqc tables` prints when no cell is given
    table_grid = {"primes": [3, 7, 11, 19, 23, 31], "n_values": [1, 2, 3, 4]}
    # each subcommand takes only the flags it reads
    for command, run, help_text, names in (
        ("verify", cmd_verify, "cross-check closed forms by enumeration",
         ("--p", "--n", "--budget", "--threads", "--out", "--seed")),
        ("tables", cmd_tables, "closed-form count tables",
         ("--p", "--n", "--format", "--out")),
        ("bloch", cmd_bloch, "export the discrete Bloch sphere",
         ("--p", "--budget", "--format", "--out")),
        ("enumerate", cmd_enumerate, "stream vectors of a norm class",
         ("--p", "--n", "--budget", "--class", "--format", "--out")),
        ("classify", cmd_classify, "entanglement census",
         ("--p", "--n", "--budget", "--threads", "--format", "--out")),
    ):
        sp = sub.add_parser(command, help=help_text)
        defaults = table_grid if command == "tables" else {}
        sp.set_defaults(run=run, **defaults)
        for name in names:
            if name not in pairs:
                sp.add_argument(name, **flags[name])
                continue
            group = sp.add_mutually_exclusive_group(required=not defaults)
            for flag in (name, pairs[name]):
                group.add_argument(flag, **flags[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
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
