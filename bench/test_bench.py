"""The benchmark's own tests, at a tiny size (p=3, n=2).

From the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Pins(
    p=3,
    n=2,
    report={
        "p": 3, "n": 2, "D": 4,
        "total": "6561",
        "zero_norm": "2241",
        "unit_norm": "2160",
        "irreducible": "540",
        "unentangled_irreducible": "36",
        "maxent_irreducible": "216",
        "unentangled_unit": "144",
        "maxent_unit": "864",
        "enumerated": {
            "full_scan_unit_norm": "2160",
            "full_scan_zero_norm": "2241",
            "irreducible": "540",
            "maxent_irreducible": "216",
            "unentangled_irreducible": "36",
            "unit_norm": "2160",
            "zero_norm": "2241",
        },
        "verified": True,
    },
    classify_rows=540,
    classify_sha256="1d05b101382c8a1c8e9b3537c7c3dab02a7e06dcdf32f3cc58cb54ff7ddb043c",
    sample_states=200,
)
NAMES = sorted(workloads.build(TINY, run.OUT, 0))

# Every metric the benchmark promises, printed on each run of its kind.
PROMISED_END_TO_END = {
    "cell_norm_s": "s", "cpu_norm_s": "s", "cell_s": "s", "cell_s_tail": "s",
    "cpu_s": "s", "states_per_s": "1/s",
    "prefixes_per_s": "1/s", "out_bytes_per_s": "B/s", "setup_s": "s",
    "peak_rss_mb": "MB", "fail_ratio": "ratio", "setup.spawn_s": "s",
    "host.reference_s": "s",
}
PROMISED_PER_LAYER = {
    "basefield.validate_prime_s": "s", "census.enum_tables_s": "s",
    "census.count_norm_class_s": "s", "census.count_irreducible_s": "s",
    "census.prefixes": "count", "census.verify_fixed_s": "s",
    "census.iter_irreducible_s": "s", "census.run_blocks_s": "s",
    "census.pool_starts": "count", "census.pool_start_s": "s",
    "entangle.census_tally_s": "s", "entangle.tally_merge_s": "s",
    "entangle.states_classified": "count",
    "entangle.classify_us_per_state.n2": "us",
    "entangle.classify_us_per_state.n3": "us",
    "cli.format_write_s": "s", "cli.bytes_out": "count",
    "trace.overhead_s": "s",
}


def run_tiny(capsys, workload, trace, pins=TINY):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.3",
            "--trace", str(trace)]
    code = run.main(argv, pins=pins)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def printed(lines):
    """name -> unit of every 'name = value unit' line."""
    out = {}
    for line in lines:
        name, sep, rest = line.partition(" = ")
        if sep:
            value, unit = rest.split(" ")
            float(value)
            out[name] = unit
    return out


def check_result(result, gated):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_print_with_units(capsys, workload):
    code, lines, result = run_tiny(capsys, workload, 0)
    assert code == 0
    check_result(result, run.END_TO_END)
    assert printed(lines).items() >= PROMISED_END_TO_END.items()
    assert any(line.startswith("host usable_cpus=") for line in lines)
    assert any(line.startswith("cpu_wall_ratio per cell:") for line in lines)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_prints_every_layer(capsys, workload):
    code, lines, result = run_tiny(capsys, workload, 1)
    assert code == 0
    check_result(result, run.PER_LAYER)
    assert printed(lines).items() >= PROMISED_PER_LAYER.items()
    spans = json.loads((run.OUT / f"spans-{workload}-seed3.json").read_text())
    assert spans and all(s["end"] >= s["start"] for s in spans)


def test_traced_counters(capsys):
    _, _, one = run_tiny(capsys, "verify-p3n2", 1)
    _, _, two = run_tiny(capsys, "verify-p3n2-2w", 1)
    for result, pools in ((one, 0), (two, 4)):
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["census.pool_starts"] == pools
        assert m["census.prefixes"] == 4 * 3**6
        assert m["entangle.states_classified"] == 540


WRONG = {
    "verify-p3n2": {"report": {**TINY.report, "maxent_irreducible": "217"}},
    "verify-p3n2-2w": {"report": {**TINY.report, "verified": False}},
    "count-p3n2": {"report": {**TINY.report, "zero_norm": "2242"}},
    "classify-out-p3n2": {"classify_sha256": "0" * 64},
}


@pytest.mark.parametrize("workload", sorted(WRONG))
def test_gate_trips_on_wrong_pinned_value(capsys, workload):
    pins = dataclasses.replace(TINY, **WRONG[workload])
    code, _, result = run_tiny(capsys, workload, 0, pins=pins)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    full = workloads.build(workloads.FULL, run.OUT, 0)
    assert [w["name"] for w in spec["workloads"]] == list(full)


def test_fails_without_the_package():
    bare = run.OUT / "bare"  # BENCHMARK.json and bench/ only
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "verify-p7n2",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
