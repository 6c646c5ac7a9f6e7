"""Micro-cells for the layers that no workload cell isolates.

The traced run of every workload runs all of them at the same sizes, so
these per-layer numbers are measured the same way on every workload:
draining the state generator, the classification kernel per state (at
the cell size and on a seeded n=3 sample), a pool start, and the
formatting and writing that ``dqc classify --out`` adds to the stream.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from dqc import census, cli, entangle
from dqc.basefield import validate_prime
from dqc.entangle import classify_raw

from workloads import Pins, check_classify_file, pinned_tally

KERNEL_REPS = 3
DRAIN_REPS = 3
POOL_REPS = 5
CLASSIFY_REPS = 2
POOL_BLOCKS = 8
POOL_WORKERS = 2
SAMPLE_P = 3  # prime of the n=3 kernel sample


def best_time(fn, reps: int) -> float:
    """Wall seconds of the fastest of ``reps`` calls of ``fn``; on a
    shared host the slower ones mostly measure other tenants."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def noop_block(args) -> None:
    """Worker for the pool-start micro-cell; top level so it pickles."""
    return None


def kernel_loop(p: int, n: int, states: list) -> None:
    for amps in states:
        classify_raw(p, n, amps)


def measure(pins: Pins, path: Path, seed: int) -> tuple:
    """Run every micro-cell; return (metrics, failures)."""
    field = validate_prime(pins.p)
    p, n = pins.p, pins.n
    irreducible = int(pins.report["irreducible"])
    metrics: dict = {}
    failures: list = []

    drained = []
    metrics["census.iter_irreducible_s"] = best_time(
        lambda: drained.append(sum(1 for _ in census.iter_irreducible(field, n))),
        DRAIN_REPS,
    )
    if set(drained) != {irreducible}:
        failures.append(f"iter_irreducible yielded {drained}, pinned {irreducible}")

    states = list(census.iter_irreducible(field, n))
    metrics["entangle.classify_us_per_state.n2"] = (
        best_time(lambda: kernel_loop(p, n, states), KERNEL_REPS)
        / len(states) * 1e6
    )

    sample_field = validate_prime(SAMPLE_P)
    rng = random.Random(seed)
    sample = [
        census.sample_unit_amps(sample_field, 8, rng)
        for _ in range(pins.sample_states)
    ]
    metrics["entangle.classify_us_per_state.n3"] = (
        best_time(lambda: kernel_loop(SAMPLE_P, 3, sample), KERNEL_REPS)
        / len(sample) * 1e6
    )

    metrics["census.pool_start_s"] = best_time(
        lambda: census.run_blocks(noop_block, [()] * POOL_BLOCKS, POOL_WORKERS),
        POOL_REPS,
    )

    argv = ["classify", "--p", str(p), "--n", str(n), "--out", str(path)]
    codes = []
    write_s = best_time(lambda: codes.append(cli.main(argv)), CLASSIFY_REPS)
    stream_s = best_time(
        lambda: sum(1 for _ in entangle.iter_classified(field, n)), CLASSIFY_REPS
    )
    metrics["cli.format_write_s"] = write_s - stream_s
    metrics["cli.bytes_out"] = path.stat().st_size
    if set(codes) != {0}:
        failures.append(f"dqc classify exited {codes}")
    else:
        reason = check_classify_file(path, pins, pinned_tally(pins))
        if reason:
            failures.append(reason)
    return metrics, failures
