"""Setup probe: a fresh interpreter imports pairkey the way the CLI does,
builds the workload's first call, and exits at once, skipping interpreter
teardown, so that its CPU time is the set-up cost alone.

    python3 benchmarks/probe.py '{"kind": "sweep", "params": {...}, "seed": 1}'
"""

import os
import sys

import pairkey.cli  # noqa: F401  (the CLI's cold start imports every module)
from pairkey import montecarlo as mc

import json  # after pairkey.cli, which imports it, so -X importtime charges it there


def main(argv: list[str]) -> None:
    spec = json.loads(argv[1])
    if spec["kind"] == "sweep":
        mc.ExperimentConfig(**spec["params"], seed=spec["seed"])
    sys.stderr.flush()  # -X importtime's report
    os._exit(0)


if __name__ == "__main__":
    main(sys.argv)
