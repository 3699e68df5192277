"""cyclosum campaign benchmark.

Runs one workload (see workloads.py and README.md), checks every report
(against its recorded digest at the default seed, for zero failing cases at
any other), and prints every metric by name and unit.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.

    python3 perfbench/run.py --workload prop2-serial --seed 1009 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 makes
one untraced and one traced iteration and reports the per-layer metrics;
--trace both does both.  --workload all runs every workload in turn.

Each iteration is a fresh interpreter started from this process, one at a
time (a closed loop with a single client), so every cache starts cold as it
does for a CLI user.  Iterations repeat while the next one is expected to
end within --seconds; at least one always runs.  Each run is also saved
under .perfbench_out/results/ with its provenance, for compare.py.

The reported wall_s, cpu_s and setup_s are at a reference machine speed:
each iteration's raw times are rescaled by a fixed probe computation that is
timed before, during and after it (probe.py), because the shared machine's
speed drifts more than the changes the benchmark must resolve.  The raw
medians are printed on a comment line and kept in the saved record.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, DIGESTS, WORKLOADS, nproc, resolve_workers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_SAMPLES = 9
SEED_STRIDE = 100003
CHILD_TIMEOUT_S = 170
POOL_NOTE = (
    "per-layer metrics on this workload cover the parent process only; "
    "pool workers run untraced and their counters are not collected"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: dict, seed: int, mode: str) -> dict:
    """Run one child interpreter; returns its result plus its set-up time.

    Times ending in ``_raw_s`` are as measured; ``setup_s``, ``wall_s`` and
    ``cpu_s`` are rescaled to the reference machine speed (probe.py).

    The child gets its own process group, so that on a timeout or an
    interrupt its pool workers are killed with it.
    """
    argv = [sys.executable, str(CHILD), str(ROOT), json.dumps(workload), str(seed), mode]
    started = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{mode} iteration failed ({proc.returncode}):\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["seed"] = seed
    result["setup_raw_s"] = result["ready"] - started - result["setup_probe_wall_s"]
    result["setup_s"] = result["setup_raw_s"] * result["setup_scale"]
    if mode != "setup":
        result["wall_s"] = result["wall_raw_s"] * result["scale"]
        result["cpu_s"] = result["cpu_raw_s"] * result["scale"]
    result["elapsed_s"] = time.monotonic() - started
    return result


def iteration_seed(seed: int, i: int) -> int:
    """Seed of the i-th timed iteration: the run's own seed first, then seeds
    derived from it, so that a run's median spans several random inputs."""
    return seed + i * SEED_STRIDE


def check(name: str, workload: dict, iterations: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the iterations of one run.

    A report at the default seed must match its recorded digest; at any
    other seed no case may fail.  Iterations with the same seed must give
    the same report bytes.  A report that fails a check counts all of its
    cases as failed.
    """
    attempted = failed = 0
    problems = []
    first: dict[int, str] = {}
    for it in iterations:
        attempted += it["cases"]
        expected = DIGESTS.get(name) if it["seed"] == DEFAULT_SEED else None
        bad = None
        if expected is not None and it["sha256"] != expected:
            bad = f"report sha256 {it['sha256'][:12]} != recorded {expected[:12]}"
        elif first.setdefault(it["seed"], it["sha256"]) != it["sha256"]:
            bad = f"reports at seed {it['seed']} differ between iterations"
        elif "cases" in workload and it["cases"] != workload["cases"]:
            bad = f"{it['cases']} cases, expected {workload['cases']}"
        elif expected is None and it["fail"]:
            bad = f"{it['fail']} failing cases at seed {it['seed']}"
        if bad is not None:
            problems.append(bad)
            failed += it["cases"]
        else:
            failed += it["not_pass"]
    return attempted, failed, problems


def measure(name: str, workload: dict, seed: int, seconds: float, trace: str) -> dict:
    """Run one workload and return its record (metrics, provenance, checks)."""
    # set-up samples are taken before and after the timed iterations, so
    # that their median spans the whole run, not one moment of it
    setups = [spawn(workload, seed, "setup") for _ in range(SETUP_SAMPLES // 2)]
    plain: list[dict] = []
    if trace in ("0", "both"):
        start = time.monotonic()
        while True:
            plain.append(spawn(workload, iteration_seed(seed, len(plain)), "plain"))
            elapsed = time.monotonic() - start
            if elapsed + plain[-1]["elapsed_s"] > seconds:
                break
    metrics: dict[str, tuple[float, str]] = {}
    notes: list[str] = []
    ratio_bases: dict[str, str] = {}
    extra: list[dict] = []  # traced and serial-reference iterations
    if trace in ("1", "both"):
        if not plain:
            plain.append(spawn(workload, seed, "plain"))
        traced = spawn(workload, seed, "traced")
        extra.append(traced)
        metrics.update({k: tuple(v) for k, v in traced["layers"].items()})
        ratio_bases = traced["ratio_bases"]
        # the same seed as the traced iteration; raw times, because the
        # traced iteration takes no periodic probe samples
        metrics["trace.overhead_ratio"] = (traced["wall_raw_s"] / plain[0]["wall_raw_s"], "ratio")
        metrics["trace.wall_s"] = (traced["wall_raw_s"], "s")
        workers = resolve_workers(workload)
        if workers > 1:
            serial = spawn(dict(workload, workers=1), seed, "plain")
            extra.append(serial)  # same report bytes, so it is checked like the others
            efficiency = serial["wall_s"] / (workers * plain[0]["wall_s"])
            notes.append(POOL_NOTE)
        else:
            efficiency = 1.0
        metrics["verify.runner.parallel_efficiency"] = (efficiency, "ratio")
    iterations = plain + extra
    setups += [spawn(workload, seed, "setup") for _ in range(SETUP_SAMPLES - len(setups))]
    setups += iterations
    attempted, failed, problems = check(name, workload, iterations)
    if trace in ("0", "both"):
        metrics["wall_s"] = (statistics.median(it["wall_s"] for it in plain), "s")
        metrics["cpu_s"] = (statistics.median(it["cpu_s"] for it in plain), "s")
        metrics["peak_rss_mib"] = (statistics.median(it["peak_rss_mib"] for it in plain), "MiB")
        metrics["setup_s"] = (statistics.median(it["setup_s"] for it in setups), "s")
        metrics["case_pass_ratio"] = (1.0 - failed / attempted, "ratio")
    backends = {it["backend"] for it in iterations}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": {
            "kernel_backend": ",".join(sorted(backends)),
            "python": platform.python_version(),
            "nproc": nproc(),
            "git_revision": git_revision(ROOT),
            "seed": seed,
            "iteration_seeds": [it["seed"] for it in plain],
            "cases": iterations[0]["cases"],
            "report_sha256": iterations[0]["sha256"],
            "iterations": len(plain),
        },
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "notes": notes,
        "ratio_bases": ratio_bases,
        "samples": {
            key: [it[key] for it in plain]
            for key in ("wall_s", "cpu_s", "wall_raw_s", "cpu_raw_s", "scale", "probe_ticks")
        } | {key: [it[key] for it in setups] for key in ("setup_s", "setup_raw_s", "setup_scale")},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def save(record: dict) -> Path:
    out_dir = ROOT / ".perfbench_out" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{record['workload']}-s{record['seed']}-t{record['trace']}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def print_record(record: dict, path: Path) -> None:
    prov = record["provenance"]
    print(
        f"# {record['workload']}: seed={prov['seed']} trace={record['trace']} "
        f"backend={prov['kernel_backend']} python={prov['python']} nproc={prov['nproc']} "
        f"rev={prov['git_revision']} cases={prov['cases']} iterations={prov['iterations']}"
    )
    samples = record["samples"]
    if samples["wall_raw_s"]:
        print(f"# as measured: wall_s {statistics.median(samples['wall_raw_s']):.6g} s, "
              f"cpu_s {statistics.median(samples['cpu_raw_s']):.6g} s, "
              f"setup_s {statistics.median(samples['setup_raw_s']):.6g} s; "
              f"machine-speed scale {statistics.median(samples['scale']):.3f}")
    for note in record["notes"]:
        print(f"# note: {note}")
    for problem in record["problems"]:
        print(f"# FAILED CHECK: {problem}")
    width = max((len(k) for k in record["metrics"]), default=0)
    for key, m in record["metrics"].items():
        base = record["ratio_bases"].get(key)
        suffix = f"  ({base})" if base else ""
        print(f"{key:<{width}}  {m['value']:.6g} {m['unit']}{suffix}")
    print(f"# record: {path.relative_to(ROOT)}")


def result_line(records: list[dict]) -> str:
    metrics: dict = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "/"
        for key, m in rec["metrics"].items():
            metrics[prefix + key] = m
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cyclosum campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = parser.parse_args(argv)
    # a SIGTERM becomes SystemExit, so that spawn() kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "cyclosum" / "__init__.py").is_file():
        print(f"perfbench: no cyclosum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = measure(name, WORKLOADS[name], args.seed, args.seconds, args.trace)
            print_record(record, save(record))
            records.append(record)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(result_line(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
