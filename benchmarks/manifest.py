"""What a benchmark result ran on: the checkout, the machine and the libraries."""

from __future__ import annotations

import os
import platform
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def git_commit(root: Path = ROOT):
    """HEAD's commit id, read from .git without running git; None outside a
    git checkout. Looks only inside `root`, never in its parents."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(src: Path = SRC) -> int:
    """Line count of the package sources, tracked next to the bench numbers."""
    return sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))


def run_manifest() -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }
