"""Command-line entry point: sweeps, theory reports, bound validation,
figure presets, and instance dumps.

Exit status: 0 success, 1 usage, I/O or out-of-memory error (one
"error: ..." line on stderr), 2 validation-suite failure.

Each command imports montecarlo (numpy, and scipy when it needs it) only if
it uses it, so `theory`, `--help` and a usage error load neither.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import os
import secrets
import sys
from pathlib import Path

from . import theory

# simulate's defaults are the figure grid; dump-instance's are the
# fig-intersection instance
_SIM_DEFAULTS = {"n": 200, "K": tuple(range(1, 26)), "p": (0.2, 0.4, 0.6, 0.8, 1.0),
                 "trials": 500, "seed": 0, "channel": "on_off"}
_INSTANCE_DEFAULTS = {"n": 50, "K": 5, "p": 0.2}

# `figure NAME ARGS...` runs the command FIGURES[NAME] + ARGS; fig2 and fig3
# are the connectivity and isolation columns of one on/off table
FIGURES = {"fig2": ["simulate"], "fig3": ["simulate"],
           "fig4": ["simulate", "--channel", "disk_forced"],
           "fig-intersection": ["dump-instance"]}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def parse_k_values(text: str, n: int) -> tuple[int, ...]:
    """Accepts comma lists and inclusive "a..b" ranges, e.g. "1..25" or "2,5,9";
    a range's ends are checked against n before the range is expanded."""
    out: list[int] = []
    for item in text.split(","):
        lo, sep, hi = item.partition("..")
        try:
            lo, hi = int(lo), int(hi if sep else lo)
        except ValueError:
            raise ValueError(f"bad K list {text!r}: {item.strip()!r} is not "
                             "an integer or an a..b range") from None
        if hi < lo:
            raise ValueError(f"empty K range {item.strip()!r}")
        theory.check_nk(n, lo)
        theory.check_nk(n, hi)
        out.extend(range(lo, hi + 1))
    return tuple(out)


def parse_p_values(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as e:
        raise ValueError(f"bad p list {text!r}: {e}") from None


def _grid(key: str, value, parse) -> tuple:
    """A K or p grid from --config or a flag: a string is parsed as the flag
    text, a number is a one-cell grid, a list of numbers is taken as is.
    ExperimentConfig checks the values."""
    if isinstance(value, str):
        return parse(value)
    items = value if isinstance(value, (list, tuple)) else [value]
    if not all(isinstance(v, numbers.Real) for v in items):
        raise ValueError(f"{key} must be a grid string, a number or a list "
                         f"of numbers, got {value!r}")
    return tuple(items)


def _workers(flag) -> int:
    """--workers, else PAIRKEY_WORKERS, else the CPU count: the CPUs this
    process may run on where the platform tells (sched_getaffinity), else
    os.cpu_count(). Below 1 or above the CPU count (a pool forks every worker
    at once) is an error."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if flag is not None:
        workers, source = flag, "--workers"
    elif os.environ.get("PAIRKEY_WORKERS"):
        text, source = os.environ["PAIRKEY_WORKERS"], "PAIRKEY_WORKERS"
        try:
            workers = int(text)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {text!r}") from None
    else:
        return cpus
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    if workers > cpus:
        raise ValueError(f"{source} must be at most the CPU count {cpus}, got {workers}")
    return workers


def _effective_seed(seed: int) -> int:
    """seed 0 means: derive one from entropy. Callers print the seed once
    every other input has passed its checks."""
    theory.check_int("seed", seed, 0)
    return seed or secrets.randbits(63) or 1


def _json_text(obj) -> str:
    """obj as strict JSON, keys sorted: None is null, and a NaN or infinity
    raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _write_text(path, text: str) -> None:
    """Write text to path with LF line endings, whatever the platform."""
    with open(path, "w", newline="\n") as f:
        f.write(text)


def _check_out(path: str) -> None:
    """Fail before any work unless `path` names a file, not a directory, in a
    writable directory."""
    folder = Path(path).parent
    if Path(path).is_dir() or not (folder.is_dir() and os.access(folder, os.W_OK)):
        raise ValueError(f"cannot write {path}: not a file in a writable directory")


def _sweep_config(config=None, **flags):
    """simulate's inputs as a checked config: the defaults, then the JSON
    object in the file `config`, if named, then the flags that are not None."""
    from . import montecarlo as mc
    values = dict(_SIM_DEFAULTS)
    if config:
        with open(config) as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ValueError(f"{config}: config must be a JSON object")
        unknown = sorted(set(loaded) - set(_SIM_DEFAULTS))
        if unknown:
            raise ValueError(f"{config}: unknown config key(s) {', '.join(unknown)}; "
                             f"known: {', '.join(_SIM_DEFAULTS)}")
        values.update(loaded)
    values.update((k, v) for k, v in flags.items() if v is not None)
    n = values["n"]
    return mc.ExperimentConfig(
        n=n, K_grid=_grid("K", values["K"], lambda text: parse_k_values(text, n)),
        p_grid=_grid("p", values["p"], parse_p_values), trials=values["trials"],
        seed=values["seed"], channel=values["channel"])


def _write_edges(path: Path, a, b) -> None:
    """One "i j" line per edge, 1-based, in the (sorted) order given."""
    _write_text(path, "".join(f"{i} {j}\n"
                              for i, j in zip((a + 1).tolist(), (b + 1).tolist())))


def dump_instance(n: int, K: int, p: float, seed: int, outdir: str) -> None:
    """Write edge lists for one channel graph, one key-sharing graph, and
    their intersection, plus the intersection's component labels and the
    pairing (partners ascending), of montecarlo.sample_instance. `outdir` is
    checked before the O(n^2) draw, and made only after it succeeds."""
    from . import montecarlo as mc
    out = Path(outdir)
    base = next(d for d in (out, *out.parents) if d.exists())
    if not outdir or not (base.is_dir() and os.access(base, os.W_OK)):
        raise ValueError(f"outdir must be a writable directory or a new path "
                         f"in one, got {outdir!r}")
    partners, keyed, channel, (a, b) = mc.sample_instance(n, K, p, seed)
    out.mkdir(parents=True, exist_ok=True)
    _write_edges(out / "channel.edges", *channel)
    _write_edges(out / "pairwise.edges", *keyed)
    _write_edges(out / "intersection.edges", a, b)
    count, labels = mc.components(n, a, b, return_labels=True)
    _write_text(out / "intersection.components", f"# components: {count}\n" + "".join(
        f"{i} {lab}\n" for i, lab in enumerate(labels.tolist(), start=1)))
    _write_text(out / "pairing.txt", "".join(
        f"{i}: {' '.join(map(str, row))}\n"
        for i, row in enumerate((partners + 1).tolist(), start=1)))


def _build_parser() -> _Parser:
    parser = _Parser(prog="pairkey")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo sweep")
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--K", type=str, default=None,
                     help='K grid, e.g. "1..25" or "2,5,9"')
    sim.add_argument("--p", type=str, default=None, help='p list, e.g. "0.2,0.4"')
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--channel", choices=theory.CHANNELS, default=None)
    sim.add_argument("--workers", type=int, default=None)
    sim.add_argument("--out", type=str, required=True)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--config", type=str, default=None,
                     help="JSON config file; explicit flags override it")

    th = sub.add_parser("theory", help="print a theory report as JSON")
    th.add_argument("--n", type=int, required=True)
    th.add_argument("--K", type=int, required=True)
    th.add_argument("--p", type=float, required=True)

    val = sub.add_parser("validate", help="run the 3-sigma bound suite")
    val.add_argument("--n", type=int, default=5)
    val.add_argument("--K", type=int, default=2)
    val.add_argument("--p", type=float, default=0.5)
    val.add_argument("--samples", type=int, default=100_000)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--out", type=str, default=None)

    fig = sub.add_parser("figure", help="run a figure preset: the command it "
                         "names, with the arguments that follow")
    fig.add_argument("name", choices=FIGURES)
    fig.add_argument("args", nargs=argparse.REMAINDER)

    dmp = sub.add_parser("dump-instance", help="dump one sampled instance")
    dmp.add_argument("--n", type=int, default=_INSTANCE_DEFAULTS["n"])
    dmp.add_argument("--K", type=int, default=_INSTANCE_DEFAULTS["K"])
    dmp.add_argument("--p", type=float, default=_INSTANCE_DEFAULTS["p"])
    dmp.add_argument("--seed", type=int, default=0)
    dmp.add_argument("--outdir", type=str, required=True)

    return parser


def main(argv=None) -> int:
    try:
        status = _run(_build_parser().parse_args(argv))
        # a reader that closed stdout shows up here at the latest, not at exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # nobody reads the rest: send it to devnull so the flush at exit
        # does not fail again, and report nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        # numpy's MemoryError names the array it could not allocate; a bare one is empty
        detail = f": {e}" if str(e) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


def _run(args) -> int:
    """Run one parsed command; returns the exit status."""
    if args.command == "simulate":
        from concurrent.futures.process import BrokenProcessPool
        from . import montecarlo as mc
        config = _sweep_config(args.config,
                               **{k: getattr(args, k) for k in _SIM_DEFAULTS})
        workers = _workers(args.workers)
        _check_out(args.out)
        config = dataclasses.replace(config, seed=_effective_seed(config.seed))
        print(f"seed: {config.seed}", file=sys.stderr)
        try:
            table = mc.sweep(config, workers=workers)
        except BrokenProcessPool as e:
            # a worker killed from outside, e.g. when memory runs out
            raise OSError(f"a sweep worker process died: {e}") from None
        _write_text(args.out, table.to_csv_text() if args.format == "csv"
                    else _json_text(table.to_json_obj()) + "\n")
        return 0

    if args.command == "theory":
        report = theory.theory_report(args.n, args.K, args.p)
        print(_json_text(report.to_dict()))
        return 0

    if args.command == "validate":
        from . import montecarlo as mc
        if args.out:
            _check_out(args.out)
        seed = _effective_seed(args.seed)
        report = mc.validate_bounds(args.n, args.K, args.p,
                                    samples=args.samples, seed=seed)
        print(f"seed: {seed}", file=sys.stderr)
        for c in report.checks:
            print(f"{c.name}: {c.status}" if c.status != "checked" else
                  f"{c.name}: empirical={c.empirical:.6g} "
                  f"reference={c.reference:.6g} sigma={c.sigma:.6g} "
                  f"[{c.kind}] {'PASS' if c.passed else 'FAIL'}")
        if args.out:
            _write_text(args.out, _json_text(report.to_dict()) + "\n")
        return 0 if report.all_passed else 2

    if args.command == "figure":
        return main(FIGURES[args.name] + args.args)

    if args.command == "dump-instance":
        seed = _effective_seed(args.seed)
        dump_instance(args.n, args.K, args.p, seed=seed, outdir=args.outdir)
        print(f"seed: {seed}", file=sys.stderr)
        return 0

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
