"""Time the Tier-1 test suite once and record its wall time and test count.

This is a one-off yardstick kept next to the benchmark results, not a
benchmark workload. Run from the repository root:

    python3 benchmarks/tier1.py --out benchmarks/results/tier1.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from manifest import ROOT, run_manifest

COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
_COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)")


def parse_summary(text: str) -> dict[str, int]:
    """Outcome counts from pytest's last summary line, e.g. "212 passed"."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    counts: dict[str, int] = {}
    for n, kind in _COUNT.findall(lines[-1] if lines else ""):
        counts["errors" if kind.startswith("error") else kind] = int(n)
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="write the record as JSON here")
    args = ap.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(COMMAND, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - t0
    counts = parse_summary(proc.stdout)
    record = {
        "command": "PYTHONPATH=src python -m pytest -q "
                   "--continue-on-collection-errors",
        "exit_code": proc.returncode,
        "wall_s": round(wall, 3),
        "tests": sum(counts.values()),
        "outcomes": counts,
        "manifest": run_manifest(),
    }
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
    sys.stdout.write(text)
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
