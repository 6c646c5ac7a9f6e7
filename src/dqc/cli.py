"""Command-line interface: verification, tables, Bloch export,
enumeration and classification.

Exit codes: 0 success, 1 verification mismatch or another package
error, 2 usage error, 3 budget exceeded.  Every count is written as
decimal text by errors.exact_str, so Python's int-to-str limit stays as
set; log columns are read from that text, so no count passes through a
float.

Row outputs stream: enumerate and classify --out write one block of
rows per prefix, a parent at a time, from a bounded cache (_state_lines)
whose misses build the rows of a prefix's whole circle at once.

A module only some subcommands use is imported where it is used:
entangle in cmd_classify, hopf in cmd_bloch and states in _state_lines.
So `dqc tables` loads none of the three, nor complexfield, and
`dqc verify` no hopf.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
from contextlib import contextmanager
from functools import lru_cache
from itertools import chain, repeat

from . import census
from .basefield import validate_prime
from .errors import (
    BudgetExceeded,
    DqcError,
    NotComplexifiable,
    NotPrime,
    VerificationFailed,
    exact_str,
)


def log10_decimal(digits: str) -> float:
    """Base-10 log of a positive integer from its decimal digits."""
    head = digits[:15]
    return math.log10(int(head)) + (len(digits) - len(head))


def mask_bits(mask: int, n: int) -> str:
    """Bit string with qubit 0 leftmost."""
    return "".join("1" if mask >> j & 1 else "0" for j in range(n))


@contextmanager
def _sink(out: str):
    """out opened for writing, or stdout for '-'; DqcError if it cannot be."""
    if out == "-":
        yield sys.stdout
        return
    try:
        sink = open(out, "w", encoding="utf-8", buffering=1 << 16)
    except OSError as exc:
        raise DqcError(f"cannot write {out}: {exc.strerror}") from exc
    with sink:
        yield sink


def _layout(fmt: str, header: list) -> tuple:
    """(render, seps, end, between) of a row in fmt: the row v0, v1, ...
    is seps[0] + render(v0) + seps[1] + render(v1) + ... + end, and
    between separates two rows.

    CSV fields are written bare, since none holds a comma, a quote or a
    newline.  A JSON row is the object json.dump(rows, indent=2) writes
    as an element of the array.
    """
    if fmt == "csv":
        return str, [""] + [","] * (len(header) - 1), "\n", ""
    seps = [f",\n    {json.dumps(key)}: " for key in header]
    seps[0] = "  {" + seps[0][1:]
    return json.dumps, seps, "\n  }", ",\n"


def _fields(layout: tuple, values, first: int = 0) -> str:
    """The text of values as the fields first, first + 1, ... of a row,
    and the row's end if they run to its last field."""
    render, seps, end, _ = layout
    text = "".join(s + render(v) for s, v in zip(seps[first:], values))
    return text + end if first + len(values) == len(seps) else text


def _write_rows(args: argparse.Namespace, header: list, lines) -> None:
    """Stream the row texts in lines, laid out by _layout(args.format,
    header), to args.out ('-' = stdout): after the CSV header, or as
    the elements of a JSON array.  No row is held back."""
    with _sink(args.out) as sink:
        if args.format == "csv":
            sink.write(",".join(header) + "\n")
            sink.writelines(lines)
            return
        lead = "[\n"
        for line in lines:
            sink.write(lead + line)
            lead = ",\n"
        sink.write("[]\n" if lead == "[\n" else "\n]\n")


def cmd_verify(args: argparse.Namespace) -> int:
    """Write every cell's report, a failing one with verified false, and
    exit 1 if any failed.  Every prime is validated and --out opened
    before the first cell is verified."""
    cells = _per_cell(args, lambda prime, n: (prime, n))
    reports, failed = [], False
    with _sink(args.out) as sink:
        for prime, n in cells:
            try:
                rep = census.verify(
                    prime, n, budget=args.budget, threads=args.threads, seed=args.seed
                )
            except VerificationFailed as exc:
                rep, failed = exc.report, True
                print(f"verification failed: p={prime.p} n={n}: {exc}", file=sys.stderr)
            for note in rep.notes:
                print(f"note: p={prime.p} n={n}: {note}", file=sys.stderr)
            reports.append(rep.to_json_dict())
        json.dump(reports[0] if len(reports) == 1 else reports, sink, indent=2)
        sink.write("\n")
    return 1 if failed else 0


def _per_cell(args: argparse.Namespace, fn) -> list:
    """[fn(prime, n)] for every cell, in order.  Streams are created
    here, so every budget is checked before any row is written."""
    return [
        fn(prime, n)
        for prime in map(validate_prime, args.primes)
        for n in args.n_values
    ]


def cmd_tables(args: argparse.Namespace) -> int:
    header = [
        "p", "n", "total", "unit_norm", "irreducible",
        "log10_total", "log10_unit_norm", "log10_irreducible",
    ]
    layout = _layout(args.format, header)

    def row(prime, n):
        counts = [
            exact_str(count(prime.p, 1 << n)) for count in
            (census.total_count, census.unit_norm_count, census.irreducible_count)
        ]
        return _fields(layout, [
            prime.p, n, *counts, *(f"{log10_decimal(c):.3f}" for c in counts),
        ])

    _write_rows(args, header, _per_cell(args, row))
    return 0


def cmd_bloch(args: argparse.Namespace) -> int:
    from .hopf import bloch_export

    header = ["p", "X", "Y", "Z", "ex", "ey", "ez", "degenerate_flag"]
    layout = _layout(args.format, header)
    exports = [
        (p, bloch_export(validate_prime(p), budget=args.budget))
        for p in args.primes
    ]
    _write_rows(args, header, (
        _fields(layout, [
            p, b.x, b.y, b.z,
            f"{b.ex:.9g}", f"{b.ey:.9g}", f"{b.ez:.9g}",
            int(b.degenerate),
        ])
        for p, points in exports
        for b in points
    ))
    return 0


# Keys one cell's row cache holds; the key used least recently is
# dropped when it is full, so its memory is bounded whatever the size of
# the walk.  A key takes about 0.7 KB at n = 2.  The p=7 n=2 walk misses
# once per distinct key, 1,225 times over its 14,707 prefixes, and p=11
# n=2 misses 31,086 times (7,381 keys, 147,631 prefixes).  The n = 3
# working set does not fit: p=3 n=3 misses 971,038 times (28,543 keys,
# 1,195,743 prefixes).
ROW_CACHE_ENTRIES = 512


def _state_lines(layout: tuple, p: int, lead: list, groups, tail):
    """One text block per prefix, at most p + 1 rows (a parent may hold
    a whole cell), for enumerate and classify: groups yields (parent,
    children), children (y, key, completions) per prefix parent + (y,),
    key the norm c of census.iter_norm_prefixes or the forms of
    entangle.iter_classified_prefixes.

    The row of state parent + (y, x) is a head, the lead fields and the
    amplitudes ('a+bi;' each, the parent's joined once), and a suffix,
    x's text and its end, from tail(completions, key), which gives a
    prefix's row ends in order.  Suffix lists depend on (completions,
    key) alone, which repeats across prefixes, so they are cached for
    the ROW_CACHE_ENTRIES keys used last and share equal strings.  The
    cache belongs to this cell: another cell has another lead and tail.
    """
    from .states import format_amp

    render, seps, _, between = layout
    amp_text = {(a, b): format_amp((a, b)) + ";" for a in range(p) for b in range(p)}
    # render only wraps amplitude text: none of it is quoted or escaped
    opening, closing = render(";").split(";")
    x_text = {x: text[:-1] + closing for x, text in amp_text.items()}
    lead_text = _fields(layout, lead) + seps[len(lead)] + opening
    shared = {}  # each distinct suffix string, held once for every list

    @lru_cache(maxsize=ROW_CACHE_ENTRIES)
    def suffixes(completions, key):
        ends = tail(completions, key)
        built = map(str.__add__, map(x_text.__getitem__, completions), ends)
        return [shared.setdefault(text, text) for text in built]

    for parent, children in groups:
        text = lead_text + "".join(map(amp_text.__getitem__, parent))
        for y, key, completions in children:
            head = text + amp_text[y]
            yield head + (between + head).join(suffixes(completions, key))


def cmd_enumerate(args: argparse.Namespace) -> int:
    header = ["p", "n", "norm_class", "amplitudes"]
    layout = _layout(args.format, header)
    target = 0 if args.norm_class == "zero" else 1
    canonical = args.norm_class == "irreducible"

    def lines(prime, n):
        groups = census.iter_norm_prefixes(
            prime, 1 << n, target, budget=args.budget, canonical_only=canonical
        )
        return _state_lines(
            layout, prime.p, [prime.p, n, args.norm_class], groups,
            lambda completions, _: repeat(layout[2]),  # the amplitudes end a row
        )

    _write_rows(args, header, chain.from_iterable(_per_cell(args, lines)))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    from . import entangle

    header = ["p", "n", "state", "class", "sum_sq", "reduced_purity", "separable_mask"]
    if args.out is not None:
        layout = _layout(args.format, header)

        def lines(prime, n):
            p = prime.p
            groups = entangle.iter_classified_prefixes(prime, n, budget=args.budget)
            purity = [entangle.reduced_purity(p, n, s) for s in range(p)]
            purity = ["NA" if r is None else r for r in purity]  # p divides n
            # a row's fields after its amplitudes, by its (kind, sum_sq, mask)
            ends = {
                (kind, s, mask): _fields(
                    layout, [kind.value, s, purity[s], mask_bits(mask, n)], 3
                )
                for kind in entangle.EntanglementClass
                for s in range(p)
                for mask in range(1 << n)
            }
            return _state_lines(
                layout, p, [p, n], groups,
                lambda completions, forms: map(
                    ends.__getitem__,
                    entangle.classify_completions(p, forms, completions)
                ),
            )

        _write_rows(args, header, chain.from_iterable(_per_cell(args, lines)))
        return 0

    # summary only; the row dump is opt-in via --out
    tallies = _per_cell(
        args,
        lambda prime, n: entangle.census_tally(
            prime, n, budget=args.budget, threads=args.threads
        ),
    )
    for tally in tallies:
        cell = f"p={tally.p} n={tally.n}"
        parts = ", ".join(
            f"{k}: {v}" for k, v in sorted(tally.class_counts.items())
        )
        print(f"{cell} irreducible={tally.irreducible_total} {{{parts}}}")
        print(f"{cell} purity-1-without-factorization: {tally.purity_one_not_product}")
        hist = ", ".join(f"{s}: {k}" for s, k in sorted(tally.purity_hist.items()))
        print(f"{cell} purity-histogram: {{{hist}}}")
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
    """--threads: worker processes, 0 for one per usable CPU."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value or census.usable_cpus()


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
        if command == "classify":  # no --out: the summary, not the rows
            sp.set_defaults(out=None)
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
    except DqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    # end quietly, like other filters, when the reader closes the pipe
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
