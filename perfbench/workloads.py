"""The benchmark's workloads, their expected case counts and report digests.

A workload is a plain dict so that it can be handed to a fresh interpreter
on the command line:

- ``{"identity": ..., "grid": "default" | {grid JSON}, "workers": 1}`` runs
  ``run_grid`` on the default grid or on ``GridSpec.from_json`` of the
  object, then serializes the report as ``cyclosum verify`` does;
- ``{"identity": ..., "cli": True, "workers": "nproc"}`` runs
  ``cyclosum.cli.main(["verify", ...])`` and reads the written report.

The seed is a benchmark argument; it replaces the grid's seed, which is
what the ``random:N`` sequences are drawn from.
"""
from __future__ import annotations

import os

DEFAULT_SEED = 1009

WORKLOADS: dict[str, dict] = {
    "prop2-serial": {"identity": "prop2", "grid": "default", "workers": 1, "cases": 16800},
    "gseries-serial": {"identity": "gseries", "grid": "default", "workers": 1, "cases": 96},
    "prop2-hilevel": {
        "identity": "prop2",
        "grid": {
            "identity": "prop2", "m": {"min": 1, "max": 10}, "n": [35, 45],
            "r": [1], "p": [1], "lambdas": ["2"], "sequences": ["ramanujan", "random:1"],
        },
        "workers": 1,
        "cases": 40,
    },
    "verify-all-pool": {"identity": "all", "cli": True, "workers": "nproc", "cases": 19953},
}

# sha256 of each workload's report bytes at DEFAULT_SEED.  Any other seed is
# checked by requiring that no case fails.
DIGESTS = {
    "prop2-serial": "d486b2cb441a1d9da03ccf81eca77b5b9e5b1ad7f5ea06bbb3dc5d98cbf8c524",
    "gseries-serial": "73d2281bccec035c95dc35e63fd7ac009b49b7952e4ec5f554c6d0181c1fe820",
    "prop2-hilevel": "bda6e32a9c0fd726e4e23b4b6200f6cc086fdb83f4a21bf661401875deb91f1a",
    "verify-all-pool": "5c6885bdfb0643ac3b7a91ecd2663589532183844851bef856662a6e1dbc2dd7",
}


def nproc() -> int:
    return os.cpu_count() or 1


def resolve_workers(workload: dict) -> int:
    workers = workload["workers"]
    return nproc() if workers == "nproc" else int(workers)
