"""Self-tests of the benchmark: the failure path, the printed metrics and
their units, the machine-speed probe, provenance checks and the refusal to
run without sources.

    python3 -m pytest perfbench -q

They run tiny grids through the same child interpreters and checks as the
real workloads, so they take seconds, not minutes.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import run as bench
from probe import Probe
from tracer import tail_percentile
from workloads import DEFAULT_SEED

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

TINY_GRID = {
    "identity": "prop2", "m": [1, 2], "n": [2, 3], "r": [0], "p": [1],
    "lambdas": ["2"], "sequences": ["ramanujan", "random:1"],
}
TINY = {"identity": "prop2", "grid": TINY_GRID, "workers": 1, "cases": 8}
TINY_POOL = {"identity": "moebius", "cli": True, "workers": "nproc", "cases": 11}


def printed(record: dict) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        bench.print_record(record, ROOT / "record.json")
    return buf.getvalue()


def test_perturbed_case_fails_the_run():
    workload = dict(TINY, grid=dict(TINY_GRID, perturb_index=0))
    record = bench.measure("selftest", workload, seed=7, seconds=0, trace="0")
    assert not record["correct"]
    assert record["failed"] / record["attempted"] > 0  # the case fail ratio
    assert record["metrics"]["case_pass_ratio"]["value"] < 1.0
    assert "FAILED CHECK" in printed(record)


def test_digest_mismatch_counts_every_case_as_failed():
    it = {"seed": DEFAULT_SEED, "sha256": "0" * 64, "cases": 16800, "not_pass": 0, "fail": 0}
    attempted, failed, problems = bench.check("prop2-serial", {"cases": 16800}, [it])
    assert (attempted, failed) == (16800, 16800)
    assert problems


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", [TINY, TINY_POOL], ids=["serial", "pool"])
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    record = bench.measure("selftest", workload, seed=5, seconds=0, trace=trace)
    assert record["correct"], record["problems"]
    expected = {m["name"] for m in SPEC[kind]}
    assert set(record["metrics"]) == expected
    text = printed(record)
    for name, m in record["metrics"].items():
        assert m["unit"] == UNITS[name]
        assert any(line.split()[:1] == [name] and f" {m['unit']}" in line
                   for line in text.splitlines()), name
    line = json.loads(bench.result_line([record]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == expected
    if trace == "1" and not workload.get("cli"):
        layers = record["metrics"]
        assert layers["spectra.dft_inverse.calls"]["value"] == TINY["cases"]
        assert layers["verify.case.count"]["value"] == TINY["cases"]
        assert layers["series.mul.calls"]["value"] == 0
    if trace == "1" and workload.get("cli") and bench.nproc() > 1:
        assert bench.POOL_NOTE in text
        assert record["metrics"]["verify.runner.job_pickle_bytes"]["value"] > 0


def test_provenance_is_recorded():
    record = bench.measure("selftest", TINY, seed=3, seconds=0, trace="0")
    prov = record["provenance"]
    assert prov["kernel_backend"] in ("python", "compiled")
    assert prov["nproc"] >= 1 and prov["seed"] == 3 and prov["cases"] == TINY["cases"]
    assert prov["python"] and prov["git_revision"]


def test_probe_samples_during_a_phase_and_restores_sigalrm():
    probe = Probe()
    probe.sample()
    probe.start()
    end = time.perf_counter() + 0.5
    while time.perf_counter() < end:
        pass
    probe.stop()
    probe.sample()
    assert probe.ticks >= 1 and probe.tick_wall_s > 0 and probe.tick_cpu_s > 0
    assert probe.scale() > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_times_are_rescaled_by_the_probe():
    record = bench.measure("selftest", TINY, seed=9, seconds=0, trace="0")
    s = record["samples"]
    for key in ("wall", "cpu"):
        for value, raw, scale in zip(s[f"{key}_s"], s[f"{key}_raw_s"], s["scale"]):
            assert scale > 0 and value == pytest.approx(raw * scale)
    for value, raw, scale in zip(s["setup_s"], s["setup_raw_s"], s["setup_scale"]):
        assert raw > 0 and value == pytest.approx(raw * scale)
    assert record["metrics"]["wall_s"]["value"] == pytest.approx(
        sorted(s["wall_s"])[len(s["wall_s"]) // 2])


def test_compare_refuses_other_backend_or_nproc(tmp_path):
    record = {"workload": "w", "trace": "0", "metrics": {},
              "provenance": {"kernel_backend": "python", "nproc": 2}}
    (tmp_path / "a.json").write_text(json.dumps(record))
    other = dict(record, provenance={"kernel_backend": "compiled", "nproc": 2})
    (tmp_path / "b.json").write_text(json.dumps(other))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    other = dict(record, provenance={"kernel_backend": "python", "nproc": 8})
    (tmp_path / "b.json").write_text(json.dumps(other))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gseries-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(16800)))[0] == 99.9
    assert tail_percentile(list(range(96)))[0] == 75.0
    assert tail_percentile(list(range(40)))[0] == 75.0
    assert tail_percentile(list(range(5))) == (0.0, 0.0)
