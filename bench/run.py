"""Run one workload of the dqc benchmark and print its metrics.

From the repository root:

    python3 bench/run.py --workload verify-p7n2 --seed 1 --seconds 20 --trace 0

The run builds nothing; it imports ``dqc`` from ``src/`` next to this
directory and fails with exit code 2, printing no result, when that
package is missing.  It measures set-up in fresh interpreters, runs the
workload's cell in a closed loop for ``--seconds``, checks every cell's
output against pinned values, prints each metric on its own line with
its unit and, as the last line, one JSON object with the metrics listed
in BENCHMARK.json.  Exit code 1 means a cell's output was wrong.

``--trace 0`` gives the end-to-end metrics.  ``--trace 1`` runs the
layer micro-cells, then splits the rest of ``--seconds`` between
untraced and traced cells, and gives the per-layer metrics, the spans and the tracing overhead.  Full
records go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import normalised, reference_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 15
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

# The metrics BENCHMARK.json lists; the final JSON line carries exactly these.
END_TO_END = {
    "cell_norm_s": "s",
    "cpu_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "basefield.validate_prime_s": "s",
    "census.enum_tables_s": "s",
    "census.prefixes": "count",
    "census.pool_starts": "count",
    "census.pool_start_s": "s",
    "census.iter_irreducible_s": "s",
    "entangle.states_classified": "count",
    "entangle.classify_us_per_state.n2": "us",
    "entangle.classify_us_per_state.n3": "us",
    "cli.format_write_s": "s",
    "cli.bytes_out": "count",
}
# Printed and recorded, but not in BENCHMARK.json: raw times that other
# tenants of the host move, values that are zero on some workload, and
# spans of layers that some workload never calls.
EXTRA_UNITS = {
    "cell_s": "s",
    "cell_s_tail": "s",
    "cpu_s": "s",
    "prefixes_per_s": "1/s",
    "cpu_wall_ratio": "ratio",
    "states_per_s": "1/s",
    "out_bytes_per_s": "B/s",
    "fail_ratio": "ratio",
    "setup.spawn_s": "s",
    "host.reference_s": "s",
    "trace.overhead_s": "s",
}


def faster_half(values) -> float:
    """Mean of the smaller half of ``values`` (at least one of them).

    When the host slows, dqc's loops slow more than the reference loop,
    so the larger scaled times mostly measure the host.
    """
    xs = sorted(values)
    return statistics.fmean(xs[: max(1, len(xs) // 2)])


def scaled(samples: list, key: str) -> float:
    """The cells' ``key`` seconds at nominal host speed, faster half."""
    return faster_half(normalised(s[key], s["ref"]) for s in samples)


def live_children_cpu() -> float:
    """CPU seconds used so far by the live multiprocessing children.

    ``active_children()`` first reaps the children that have ended, so
    their time is in ``RUSAGE_CHILDREN`` and they are not listed here.
    """
    total = 0.0
    for child in multiprocessing.active_children():
        try:
            stat = Path(f"/proc/{child.pid}/stat").read_text()
        except OSError:  # reaped since it was listed
            continue
        fields = stat.rsplit(")", 1)[1].split()  # from field 3, state, on
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / CLOCK_TICKS


def cpu_seconds() -> float:
    """CPU time of this process, of every child it has reaped, and of its
    live multiprocessing children, so that pool workers which outlive a
    cell count as well as those joined inside it."""
    live = live_children_cpu()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime + live


def git_commit() -> str | None:
    """HEAD of the repository holding this benchmark, if it is one."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    """sha256 over the package sources, to name the code without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def host_context() -> dict:
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def measure_setup(p: int) -> dict:
    """Medians over fresh interpreters of set-up and its layers.

    ``setup_s`` is scaled to the nominal host speed by the reference
    loop the probe runs around its set-up; the other times are raw.
    """
    argv = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(p)]
    rows = []
    for rep in range(SETUP_REPS + 1):
        spawned = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        t = json.loads(proc.stdout)
        if rep:  # the first one may compile bytecode
            rows.append({
                "setup_s": normalised(t["ready"] - t["started"], t["ref"]),
                "setup.spawn_s": t["ready"] - spawned - t["ref_before"],
                "basefield.validate_prime_s": t["validated"] - t["imported"],
                "census.enum_tables_s": t["ready"] - t["validated"],
            })
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def run_cells(wl, ctx: dict, seconds: float, tracer=None) -> list:
    """Closed loop: run cells until the next would pass ``seconds``.

    At least one cell runs.  Each sample holds wall and CPU seconds, the
    mean of the reference times before and after the cell, the bytes the
    cell wrote, and the reason its output was wrong, if it was.
    """
    samples = []
    begun = time.perf_counter()
    ref = reference_s()
    while True:
        if tracer is not None:
            tracer.begin_cell(len(samples))
            root = tracer.open("cell")
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            out = wl.cell(ctx)
            error = None
        except Exception:
            error = traceback.format_exc(limit=4)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if tracer is not None:
            tracer.close(root)
        ref_before, ref = ref, reference_s()
        if error is None:
            try:
                error = wl.check(ctx, out)
            except Exception:
                error = traceback.format_exc(limit=4)
        written = wl.out_file.stat().st_size if wl.out_file and error is None else 0
        samples.append({
            "wall": wall, "cpu": cpu, "ref": (ref_before + ref) / 2,
            "bytes": written, "error": error,
        })
        if time.perf_counter() - begun + wall > seconds:
            return samples


def tail(values: list) -> tuple:
    """(value, percentile, count): the highest percentile with at least
    ten samples beyond it; the maximum when there are ten or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(wl, samples: list, setup: dict) -> dict:
    walls = [s["wall"] for s in samples]
    cell = statistics.median(walls)
    cpu = statistics.median(s["cpu"] for s in samples)
    return {
        "cell_norm_s": scaled(samples, "wall"),
        "cpu_norm_s": scaled(samples, "cpu"),
        "cell_s": cell,
        "cell_s_tail": tail(walls)[0],
        "cpu_s": cpu,
        "cpu_wall_ratio": statistics.median(s["cpu"] / s["wall"] for s in samples),
        "states_per_s": wl.states / cell,
        "prefixes_per_s": wl.prefixes / cell,
        "out_bytes_per_s": statistics.median(s["bytes"] for s in samples) / cell,
        "setup_s": setup["setup_s"],
        "setup.spawn_s": setup["setup.spawn_s"],
        "host.reference_s": statistics.median(s["ref"] for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": sum(1 for s in samples if s["error"]) / len(samples),
    }


def traced_run(wl, ctx: dict, seconds: float, pins, seed: int, setup: dict) -> tuple:
    """Micro-cells, then untraced and traced halves; (metrics, samples, record)."""
    import layers
    from tracer import Tracer

    begun = time.perf_counter()
    scratch = OUT / f"layers-{seed}.csv"
    try:
        micro, micro_failures = layers.measure(pins, scratch, seed)
    finally:
        scratch.unlink(missing_ok=True)
    # the micro-cells count against --seconds; the cells share what is left
    half = max(seconds - (time.perf_counter() - begun), 0.0) / 2
    untraced = run_cells(wl, ctx, half)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_cells(wl, ctx, half, tracer)
    finally:
        tracer.uninstall()
    cells = tracer.per_cell(len(traced))
    metrics = {k: setup[k] for k in ("basefield.validate_prime_s", "census.enum_tables_s")}
    metrics.update(micro)
    for key in cells[0]:
        metrics[key] = statistics.median_low(c[key] for c in cells)
    metrics["trace.overhead_s"] = scaled(traced, "wall") - scaled(untraced, "wall")
    metrics["fail_ratio"] = sum(1 for s in untraced + traced if s["error"]) / (
        len(untraced) + len(traced)
    )
    record = {
        "micro_failures": micro_failures,
        "untraced": untraced,
        "per_cell": cells,
    }
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.json"
    spans_path.write_text(json.dumps(tracer.dump()))
    # the micro-cells count as one more operation
    samples = untraced + traced + [
        {"wall": 0.0, "cpu": 0.0, "ref": 0.0, "bytes": 0,
         "error": "; ".join(micro_failures) or None}
    ]
    return metrics, samples, record


def units_of(name: str) -> str:
    for table in (END_TO_END, PER_LAYER, EXTRA_UNITS):
        if name in table:
            return table[name]
    return "count" if not name.endswith("_s") else "s"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, pins=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dqc" / "__init__.py").is_file():
        print(f"error: no dqc package at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dqc
    import workloads

    if Path(dqc.__file__).resolve().parent != SRC / "dqc":
        print(f"error: imported dqc from {dqc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    pins = pins or workloads.FULL
    OUT.mkdir(exist_ok=True)
    wls = workloads.build(pins, OUT, args.seed)
    if args.workload not in wls:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wls)}",
              file=sys.stderr)
        return 2
    wl = wls[args.workload]

    host = host_context()
    setup = measure_setup(pins.p)
    ctx = wl.prepare()
    dqc.census.enum_tables(pins.p)
    try:
        if args.trace:
            metrics, samples, record = traced_run(
                wl, ctx, args.seconds, pins, args.seed, setup
            )
            gated = PER_LAYER
        else:
            samples = run_cells(wl, ctx, args.seconds)
            metrics, record = end_to_end(wl, samples, setup), {}
            gated = END_TO_END
    finally:
        if wl.out_file is not None:
            wl.out_file.unlink(missing_ok=True)
    host["loadavg_end"] = os.getloadavg()

    failures = [s["error"] for s in samples if s["error"]]
    attempted, failed = len(samples), len(failures)
    record.update(
        workload=wl.name, seed=args.seed, seconds=args.seconds,
        trace=args.trace, host=host, setup=setup, metrics=metrics,
        samples=samples, attempted=attempted, failed=failed,
    )
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print(
        f"host usable_cpus={host['usable_cpus']} loadavg={host['loadavg']} "
        f"python={host['python']} commit={host['git_commit']} "
        f"src_sha256={host['src_sha256'][:16]}"
    )
    if not args.trace:
        walls = [s["wall"] for s in samples]
        _, pct, n = tail(walls)
        beyond = "10 beyond" if n > 10 else "fewer than 11 cells, maximum"
        print(f"cells {n}; cell_s_tail is p{pct:.1f} ({beyond})")
        print("cpu_wall_ratio per cell: "
              + " ".join(f"{s['cpu'] / s['wall']:.3f}" for s in samples))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units_of(name)}")
    print(f"failed {failed} of {attempted} operations")
    for reason in failures[:3]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in gated.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
