"""Summarize saved benchmark runs, or compare two sets of them.

    python3 perfbench/compare.py RUNS            # median, quartiles, spread
    python3 perfbench/compare.py BASE CHANGE     # the same, plus the change

RUNS, BASE and CHANGE are record files written by run.py or directories of
them (.perfbench_out/results/ by default).  For each workload and end-to-end
metric it prints the median and quartiles over runs and the spread (the
distance between the quartiles as a share of the median).  With two sets it
also prints how far the change's median moved and whether that stays within
the bound fixed in BENCHMARK.json.

Results are comparable only when they come from the same kernel backend and
the same CPU count; the script refuses any other mix with exit code 2.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def provenance_key(record: dict) -> tuple:
    prov = record["provenance"]
    return prov["kernel_backend"], prov["nproc"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(records: list[dict], metric_names: list[str]) -> dict:
    """{workload: {metric: (q1, median, q3, runs)}} over end-to-end runs."""
    out: dict = {}
    for rec in records:
        if rec["trace"] not in ("0", "both"):
            continue
        for name in metric_names:
            if name in rec["metrics"]:
                out.setdefault(rec["workload"], {}).setdefault(name, []).append(
                    rec["metrics"][name]["value"])
    return {
        w: {m: quartiles(v) + (len(v),) for m, v in metrics.items()}
        for w, metrics in out.items()
    }


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(a)) for a in argv]
    keys = {provenance_key(r) for records in sets for r in records}
    if len(keys) > 1:
        print(f"refusing to compare runs from different backends or CPU counts: {sorted(keys)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summaries = [summarize(records, list(bounds)) for records in sets]
    worse = 0
    for workload in sorted(summaries[0]):
        print(f"# {workload}")
        for name, m in bounds.items():
            base = summaries[0][workload].get(name)
            if base is None:
                continue
            q1, med, q3, runs = base
            spread = (q3 - q1) / med if med else 0.0
            line = (f"{name:<16} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                    f"spread {spread:.3f} (bound {m['bound']})  runs {runs}")
            if len(summaries) == 2:
                new = summaries[1].get(workload, {}).get(name)
                if new is not None:
                    change = (new[1] - med) / med if med else 0.0
                    regress = change if m["better"] == "lower" else -change
                    verdict = "WORSE THAN BOUND" if regress > m["bound"] else "within bound"
                    worse += regress > m["bound"]
                    line += f"  | change median {new[1]:.6g} ({change:+.3f}) {verdict}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
