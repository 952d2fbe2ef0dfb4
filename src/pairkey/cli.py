"""Command-line entry point: sweeps, theory reports, bound validation,
figure presets, and instance dumps.

Exit status: 0 success, 1 usage or I/O error (one "error: ..." line on
stderr), 2 validation-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from . import montecarlo as mc
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


def parse_k_values(text: str) -> tuple[int, ...]:
    """Accepts comma lists and inclusive "a..b" ranges, e.g. "1..25" or "2,5,9"."""
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
    """--workers, else PAIRKEY_WORKERS, else the CPU count; below 1 is an error."""
    if flag is not None:
        workers, source = flag, "--workers"
    elif os.environ.get("PAIRKEY_WORKERS"):
        text, source = os.environ["PAIRKEY_WORKERS"], "PAIRKEY_WORKERS"
        try:
            workers = int(text)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {text!r}") from None
    else:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    return workers


def _effective_seed(seed: int) -> int:
    """seed 0 means: derive one from entropy. Callers print the seed once
    every other input has passed its checks."""
    theory.check_int("seed", seed, 0)
    return seed or secrets.randbits(63) or 1


def _finite(obj):
    """obj with every non-finite float, which JSON cannot write, as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    """obj as strict JSON: keys sorted, non-finite floats as null."""
    return json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False)


def write_outputs(obj, path: str, fmt: str) -> None:
    """Write an EstimateTable or report dict as csv or json.

    CSV probabilities carry 6 significant digits; JSON keeps full precision
    so a round trip reproduces the value exactly, and writes a non-finite
    value (a skipped check's NaN) as null. Output is bit-stable for
    fixed inputs (fixed column order, LF line endings).
    """
    if fmt == "csv":
        if not isinstance(obj, mc.EstimateTable):
            raise ValueError("csv format is only defined for sweep tables")
        text = obj.to_csv_text()
    elif fmt == "json":
        payload = obj.to_json_obj() if isinstance(obj, mc.EstimateTable) else obj
        text = _json_text(payload) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", newline="\n") as f:
        f.write(text)


def _check_out(path: str) -> None:
    """Fail before any work unless `path` names a file, not a directory, in a
    writable directory."""
    folder = Path(path).parent
    if Path(path).is_dir() or not (folder.is_dir() and os.access(folder, os.W_OK)):
        raise ValueError(f"cannot write {path}: not a file in a writable directory")


def _sweep_config(**values) -> mc.ExperimentConfig:
    """simulate's defaults, updated by `values`, as a checked config."""
    values = {**_SIM_DEFAULTS, **values}
    return mc.ExperimentConfig(
        n=values["n"], K_grid=_grid("K", values["K"], parse_k_values),
        p_grid=_grid("p", values["p"], parse_p_values), trials=values["trials"],
        seed=values["seed"], channel=values["channel"])


def _write_edges(path: Path, a, b) -> None:
    """One "i j" line per edge, 1-based, in the (sorted) order given."""
    with open(path, "w", newline="\n") as f:
        f.writelines(f"{i} {j}\n" for i, j in zip((a + 1).tolist(), (b + 1).tolist()))


def dump_instance(n: int, K: int, p: float, seed: int, outdir: str) -> None:
    """Write edge lists for one channel graph, one key-sharing graph, and
    their intersection, plus the intersection's component labels and the
    pairing (partners ascending). The draws are the on/off trial's: pairing,
    then one uniform per pair."""
    theory.check_nk(n, K)
    theory.check_p(p)
    theory.check_int("seed", seed, 0)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    rng = mc.rng_from_entropy((seed, 201, n, K))
    gamma = mc.sample_gamma_matrix(n, K, rng)
    a, b = mc.keyed_pairs(gamma)
    up = mc.onoff_links(n, p, np.arange(n * (n - 1) // 2), rng)
    both = up[mc.pair_index(n, a, b)]
    iu, ju = np.triu_indices(n, k=1)
    _write_edges(out / "channel.edges", iu[up], ju[up])
    _write_edges(out / "pairwise.edges", a, b)
    _write_edges(out / "intersection.edges", a[both], b[both])
    count, labels = mc.components(n, a[both], b[both], return_labels=True)
    with open(out / "intersection.components", "w", newline="\n") as f:
        f.write(f"# components: {count}\n")
        f.writelines(f"{i} {lab}\n" for i, lab in enumerate(labels.tolist(), start=1))
    with open(out / "pairing.txt", "w", newline="\n") as f:
        f.writelines(f"{i}: {' '.join(map(str, row))}\n"
                     for i, row in enumerate((np.sort(gamma, axis=1) + 1).tolist(), start=1))


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


def _simulate_config(args) -> mc.ExperimentConfig:
    """simulate's defaults, then the --config file, then the flags given."""
    values = {}
    if args.config:
        with open(args.config) as f:
            values = json.load(f)
        if not isinstance(values, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(values) - set(_SIM_DEFAULTS))
        if unknown:
            raise ValueError(f"{args.config}: unknown config key(s) {', '.join(unknown)}; "
                             f"known: {', '.join(_SIM_DEFAULTS)}")
    flags = {key: getattr(args, key) for key in _SIM_DEFAULTS}
    return _sweep_config(**values | {k: v for k, v in flags.items() if v is not None})


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


def _run(args) -> int:
    """Run one parsed command; returns the exit status."""
    if args.command == "simulate":
        config = _simulate_config(args)
        workers = _workers(args.workers)
        _check_out(args.out)
        config = dataclasses.replace(config, seed=_effective_seed(config.seed))
        print(f"seed: {config.seed}", file=sys.stderr)
        write_outputs(mc.sweep(config, workers=workers), args.out, args.format)
        return 0

    if args.command == "theory":
        report = theory.theory_report(args.n, args.K, args.p)
        print(_json_text(report.to_dict()))
        return 0

    if args.command == "validate":
        if args.out:
            _check_out(args.out)
        seed = _effective_seed(args.seed)
        report = mc.validate_bounds(args.n, args.K, args.p,
                                    samples=args.samples, seed=seed)
        print(f"seed: {seed}", file=sys.stderr)
        for c in report.checks:
            line = (f"{c.name}: empirical={c.empirical:.6g} "
                    f"reference={c.reference:.6g} sigma={c.sigma:.6g} "
                    f"[{c.kind}] {'PASS' if c.passed else 'FAIL'}")
            if c.status != "checked":
                line = f"{c.name}: {c.status}"
            print(line)
        if args.out:
            write_outputs(report.to_dict(), args.out, "json")
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
