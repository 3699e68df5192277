"""One workload iteration in a fresh interpreter, so every cache starts cold.

Usage (from run.py): python3 perfbench/child.py ROOT WORKLOAD_JSON SEED MODE

MODE is ``setup`` (import and build the grid, then stop), ``plain`` (one
untraced iteration) or ``traced`` (one iteration under the layer tracer,
then the kernel microbenchmarks).  The last stdout line is a JSON object;
``ready`` is the CLOCK_MONOTONIC time at which set-up finished, which the
parent turns into the set-up time of this interpreter.  Times are raw, with
the probe's own time taken out; ``setup_scale`` and ``scale`` are the
machine-speed factors (probe.py) of the set-up and of the iteration.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux: this process plus its largest reaped child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def build(workload: dict, seed: int, root: Path):
    """Import the package and prepare the workload; returns a callable that
    runs it and returns the report bytes."""
    from cyclosum import cli, verify
    from workloads import resolve_workers

    workers = resolve_workers(workload)
    identity = workload["identity"]
    if workload.get("cli"):
        out_dir = root / ".perfbench_out" / "reports"
        out_dir.mkdir(parents=True, exist_ok=True)
        out = out_dir / f"report-{os.getpid()}.json"
        argv = ["verify", "--identity", identity, "--workers", str(workers),
                "--seed", str(seed), "--out", str(out)]

        def run() -> bytes:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code not in (0, 1):
                raise RuntimeError(f"cyclosum verify exited with {code}")
            data = out.read_bytes()
            out.unlink()
            return data

        return run

    if workload["grid"] == "default":
        spec = verify.default_grid(identity, seed=seed)
    else:
        spec = verify.GridSpec.from_json(dict(workload["grid"], seed=seed), identity=identity)

    def run() -> bytes:
        cases = verify.run_grid(spec, workers=workers)
        return verify.report_json_bytes(verify.build_report(identity, cases, [spec]))

    return run


def kernel_micro() -> dict:
    """The kernel microbenchmarks: per-call time of conv on two 48-entry
    bigint vectors and of reduce_cyclo at level 105 (phi = 48), with the
    active backend; the median of five batches."""
    from cyclosum import _kernel
    from cyclosum.cyclotomic import _reduction_rows

    rng = random.Random(11)
    a = [rng.randint(-10 ** 18, 10 ** 18) for _ in range(48)]
    b = [rng.randint(-10 ** 18, 10 ** 18) for _ in range(48)]
    rows = _reduction_rows(105)
    vec = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(2 * 48 - 1)]

    def per_call_us(fn, reps: int) -> float:
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            samples.append((time.perf_counter() - t0) / reps * 1e6)
        return sorted(samples)[2]

    return {
        "kernel.micro.conv48_us": (per_call_us(lambda: _kernel.conv(a, b), 100), "us"),
        "kernel.micro.reduce105_us": (per_call_us(lambda: _kernel.reduce_cyclo(vec, rows, 48), 200), "us"),
    }


def main(argv: list[str]) -> int:
    root = Path(argv[0])
    workload = json.loads(argv[1])
    seed = int(argv[2])
    mode = argv[3]
    from probe import Probe

    # set-up is too short for periodic samples: sample before the imports
    # (the parent takes that time out of the set-up time) and after them
    setup_probe = Probe()
    setup_probe_wall, _ = setup_probe.sample()
    sys.path.insert(0, str(root / "src"))
    import cyclosum

    if Path(cyclosum.__file__).resolve().parent != (root / "src" / "cyclosum").resolve():
        raise RuntimeError(f"imported cyclosum from {cyclosum.__file__}, not from {root / 'src'}")
    run = build(workload, seed, root)
    ready = time.monotonic()
    setup_probe.sample()
    result: dict = {
        "ready": ready,
        "setup_probe_wall_s": setup_probe_wall,
        "setup_scale": setup_probe.scale(),
        "backend": cyclosum.kernel_backend,
    }
    if mode == "setup":
        print(json.dumps(result))
        return 0

    # the traced iteration runs without periodic probe samples, which the
    # tracer would count in whichever layer they interrupt
    probe = Probe()
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer().install()
    probe.sample()
    if tracer is None:
        probe.start()
    cpu0 = _cpu_now()
    t0 = time.perf_counter()
    try:
        data = run()
    finally:
        wall = time.perf_counter() - t0 - probe.tick_wall_s
        cpu = _cpu_now() - cpu0 - probe.tick_cpu_s
        probe.stop()
        if tracer is not None:
            tracer.uninstall()
    probe.sample()
    statuses = [case["status"] for case in json.loads(data)["cases"]]
    result.update(
        wall_raw_s=wall,
        cpu_raw_s=cpu,
        scale=probe.scale(),
        probe_ticks=probe.ticks,
        peak_rss_mib=_peak_rss_mib(),
        sha256=hashlib.sha256(data).hexdigest(),
        cases=len(statuses),
        not_pass=sum(1 for s in statuses if s != "pass"),
        fail=sum(1 for s in statuses if s == "fail"),
    )
    if tracer is not None:
        layers, bases = tracer.layer_metrics(wall)
        layers.update(kernel_micro())
        result["layers"] = layers
        result["ratio_bases"] = bases
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
