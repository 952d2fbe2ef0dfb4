"""The benchmark's workloads: fixed parameters, and small ones for smoke runs.

A sweep workload is the keyword arguments of `ExperimentConfig` minus the
seed. `validate_small_n` is the arguments of `validate_bounds` and
`estimate_edge_prob` minus the seed. Each workload's reason is written in
BENCHMARK.json.
"""

from __future__ import annotations

FIG_GRID = {"n": 200, "K_grid": tuple(range(1, 26)),
            "p_grid": (0.2, 0.4, 0.6, 0.8, 1.0)}
SMOKE_GRID = {"n": 30, "K_grid": (1, 2, 3, 4), "p_grid": (0.5, 1.0)}

WORKLOADS = {
    "fig2_onoff": {
        "kind": "sweep",
        "params": {**FIG_GRID, "channel": "on_off", "trials": 4},
        "smoke": {**SMOKE_GRID, "channel": "on_off", "trials": 2},
    },
    "fig4_disk": {
        "kind": "sweep",
        "params": {**FIG_GRID, "channel": "disk_forced", "trials": 2},
        "smoke": {**SMOKE_GRID, "channel": "disk_forced", "trials": 2},
    },
    "threshold_n4000": {
        "kind": "sweep",
        "params": {"n": 4000, "K_grid": (16, 20, 24), "p_grid": (0.2,),
                   "channel": "on_off", "trials": 2},
        "smoke": {"n": 300, "K_grid": (10, 13, 16), "p_grid": (0.2,),
                  "channel": "on_off", "trials": 1},
    },
    "validate_small_n": {
        "kind": "validate",
        "params": {"validate": {"n": 5, "K": 2, "p": 0.5, "samples": 200_000},
                   "edge_prob": {"n": 200, "K": 12, "p": 0.2,
                                 "trials": 100_000}},
        "smoke": {"validate": {"n": 5, "K": 2, "p": 0.5, "samples": 2000},
                  "edge_prob": {"n": 200, "K": 12, "p": 0.2, "trials": 2000}},
    },
}


def resolve(name: str, smoke: bool = False, trials: int | None = None) -> dict:
    """The parameters one run uses. `trials` replaces the trials per cell of
    a sweep, or the samples of both validate_small_n calls."""
    w = WORKLOADS[name]
    params = dict(w["smoke" if smoke else "params"])
    if trials is not None:
        if w["kind"] == "sweep":
            params["trials"] = trials
        else:
            params = {"validate": {**params["validate"], "samples": trials},
                      "edge_prob": {**params["edge_prob"], "trials": trials}}
    return params
