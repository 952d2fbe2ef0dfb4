"""Monte Carlo engine: the trial kernel, parameter sweeps with standard
errors, crossover extraction, and the bound-validation suite.

A trial's graph is held as sorted edge arrays (a, b), a < b: the keyed pairs
of the pairing, filtered by the channel. A trial builds no n x n array and
draws O(nK) random numbers: the pairing (scheme.sample_gamma_matrix), then
one on/off uniform per keyed pair, or n positions for disk, whose distances
are computed at the keyed pairs only. So a trial takes O(nK) time and memory.
The keyed pairs are codes min * n + max of the nK picks, built in place from
the pairing's int32 ids, in int32 while n * n fits (n <= 46340) and int64
beyond, then sorted and deduplicated (_pair_codes). One split (_edges) turns
codes into int64 (a, b): on/off draws its uniforms over the codes and splits
only the kept ones, disk splits them all before its distance mask. Both take
the surviving links by index (np.flatnonzero), as numpy copies through a
boolean mask one run of True at a time, slow on a random mask.
(validate_bounds, for small n only, runs dense matrices over tiles of
samples instead, and ranks uniforms for its pairings, as estimate_edge_prob
does; both draw them through scheme.uniform_rows.)

Every trial is seeded by a counter-based derivation from
(master seed, channel tag, n, K-index, p-index, trial index), so results are
bit-identical regardless of execution order or worker count. A sweep asked
for more than one worker first runs the grid's last trial in-process and
times it; only when that time, times the number of trials, reaches
POOL_MIN_S does a pool run the rest, its workers taking a few contiguous
ranges of the grid's trials each, which may span cells. The (cells, 2)
count arrays of all parts are added up.

Importing this module loads numpy but not scipy. scipy.sparse, which only
`components` uses, loads in the first `sweep` or `components` call; `sweep`
loads it before its first trial and its pool, so forked workers inherit it.
scipy.special loads in the bound suite's first rate check.
"""

from __future__ import annotations

import math
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from itertools import combinations, product
from typing import Optional

import numpy as np

from . import scheme, theory
from .channels import toroidal_distance_matrix
from .scheme import sample_gamma_matrix, uniform_rows
from .theory import check_channel, check_int, check_nk, check_p, match_rho

_CHANNEL_TAGS = {"on_off": 1, "disk": 2, "disk_forced": 3}
TAIL_T = 0.5  # validate_bounds' estar_tail: P(count <= (1 - TAIL_T) * mean)
R = 2  # validate_bounds' inside nodes 0, 1; _dense_tile reads them and node 2 by index
# Least projected CPU time (one timed trial x trials) for which a sweep
# starts a pool. An empty 2-worker pool takes 10-12 ms to start and stop, and
# a pooled sweep also pays its workers' first page faults and its last
# range's wait: 6 trials at n=4000 (projected 20-90 ms, the most on a
# process's first sweep) ran 37.6 ms pooled against 16 ms in-process, while
# the fig2 and fig4 presets at 2-4 trials a cell (projected 160-400 ms and
# more) gain from 2 workers. 0.12 s is about 1.35 times the first and 1/1.35
# of the second, so noise in one timed trial moves neither across it.
POOL_MIN_S = 0.12


def trial_entropy(seed: int, channel: str, n: int, k_index: int,
                  p_index: int, trial_index: int) -> tuple[int, ...]:
    """Entropy tuple identifying one trial; feeds numpy's SeedSequence, which
    hashes it into an independent stream per trial."""
    return (seed, _CHANNEL_TAGS[channel], n, k_index, p_index, trial_index)


def rng_from_entropy(entropy) -> np.random.Generator:
    """PCG64 seeded by SeedSequence(entropy), for an int or a tuple of ints."""
    return np.random.default_rng(entropy)


@dataclass(frozen=True)
class TrialOutcome:
    connected: bool
    isolated_count: int
    edge_count: int


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a (K, p) grid at fixed n, with a trial count and master seed.
    Every cell's parameters are checked at construction, before any trial."""

    n: int
    K_grid: tuple[int, ...]
    p_grid: tuple[float, ...]
    trials: int
    seed: int
    channel: str = "on_off"

    def __post_init__(self):
        K_grid, p_grid = tuple(self.K_grid), tuple(self.p_grid)
        for k in K_grid:
            check_nk(self.n, k)
        for p in p_grid:
            check_p(p)
            check_channel(self.channel, p)
        # repeats by the rule EstimateTable.cell finds cells by: K exactly,
        # p by math.isclose
        for name, grid, same in (("K_grid", K_grid, operator.eq),
                                 ("p_grid", p_grid, math.isclose)):
            if not grid or any(same(x, y) for x, y in combinations(grid, 2)):
                raise ValueError(f"{name} must be non-empty, without repeats, got {grid}")
        check_int("trials", self.trials, 1)
        check_int("seed", self.seed, 0)
        # plain Python numbers, so a table's rows serialise to JSON
        for name in ("n", "trials", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "K_grid", tuple(map(int, K_grid)))
        object.__setattr__(self, "p_grid", tuple(map(float, p_grid)))


def _pair_codes(gamma: np.ndarray) -> np.ndarray:
    """Sorted distinct codes min(i, j) * n + max(i, j) of the keyed pairs
    {i, j} of a pairing, in scheme._id_dtype(n * n), built in a copy of it."""
    n, K = gamma.shape
    dtype = scheme._id_dtype(n * n)
    i = np.arange(n, dtype=dtype)[:, None]
    j = gamma.astype(dtype)
    code = np.maximum(i, j).ravel()
    np.minimum(i, j, out=j)
    j *= n
    code += j.ravel()
    # np.unique is an order of magnitude slower than sort plus compare here
    code.sort()
    new = np.ones(code.size, dtype=bool)
    np.not_equal(code[1:], code[:-1], out=new[1:])
    # boolean take: this mask is nearly all True, so it copies in long runs
    return code[new]


def _edges(code: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted pair codes a * n + b as int64 edge arrays (a, b), by a floor
    division in the codes' dtype and a multiply-subtract: numpy's divmod, which
    has no fast path for one divisor, took about three times as long."""
    a = (code // n).astype(np.int64, copy=False)
    b = a * n
    np.subtract(code, b, out=b)
    return a, b


def _describe(x) -> str:
    """An array's dtype and shape, or the type of anything else."""
    return f"{x.dtype} {x.shape}" if isinstance(x, np.ndarray) else type(x).__name__


def keyed_pairs(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Key-sharing graph of a pairing as int64 edge arrays (a, b) with
    a < b, sorted by (a, b): {i, j} is an edge iff i picked j or j picked i.
    gamma is a 2-D integer array whose row i holds ids in [0, n) other than i."""
    if not (isinstance(gamma, np.ndarray) and gamma.ndim == 2
            and gamma.dtype.kind in "iu"):
        raise ValueError(f"a pairing must be a 2-D integer array, got {_describe(gamma)}")
    n = len(gamma)
    if gamma.size and (gamma.min() < 0 or gamma.max() >= n
                       or (gamma == np.arange(n)[:, None]).any()):
        raise ValueError(f"row i of a pairing must hold ids in [0, {n}) other than i")
    return _edges(_pair_codes(gamma), n)


def _intersection_edges(n: int, K: int, p: float, channel: str,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample one intersection graph as sorted int64 edge arrays (a, b), a < b.

    The pairing is drawn first, then the channel: one on/off uniform per
    keyed pair, in (a, b) order, or n positions for disk. Only keyed pairs
    are tested against the channel; on/off splits only the kept pair codes.
    The surviving links are taken by index, since a boolean take copies one
    run of True at a time and a random mask's runs are short.
    """
    if channel == "on_off":
        code = _pair_codes(sample_gamma_matrix(n, K, rng))
        # index take: this mask is random at density p, so its runs are short
        return _edges(code[np.flatnonzero(rng.random(code.size) < p)], n)
    a, b = _edges(_pair_codes(sample_gamma_matrix(n, K, rng)), n)
    # index take, one index array for both: the disk mask's runs are short too
    up = np.flatnonzero(toroidal_distance_matrix(rng.random((n, 2)), a, b)
                        < match_rho(p, channel))
    return a[up], b[up]


def _scipy_graph():
    """scipy.sparse's CSR constructor and component search, imported at call time."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    return csr_matrix, connected_components


# the two scipy calls of `components`, under names a tracer can rebind
def csr_matrix(*args, **kwargs):
    return _scipy_graph()[0](*args, **kwargs)


def _sparse_components(*args, **kwargs):
    return _scipy_graph()[1](*args, **kwargs)


def _check_edges(n: int, a: np.ndarray, b: np.ndarray) -> None:
    """Edges (a, b) on nodes 0..n-1: 1-D integer arrays, equal length, ids in [0, n)."""
    check_int("n", n, 0)
    ints = isinstance(a, np.ndarray) and isinstance(b, np.ndarray) \
        and a.dtype.kind in "iu" and b.dtype.kind in "iu"
    if not ints or a.ndim != 1 or a.shape != b.shape or a.size and (
            min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= n):
        raise ValueError(f"edges must be two 1-D arrays of equal length of integers in "
                         f"[0, {n}), got {_describe(a)} and {_describe(b)}")


def components(n: int, a: np.ndarray, b: np.ndarray, return_labels: bool = False):
    """Connected components of the graph with edges (a, b) on nodes 0..n-1;
    labels, if asked for, number components in order of smallest member.

    The edges go straight into the CSR arrays the search reads, in its dtypes
    (float64 data, int32 indices), so scipy neither converts nor copies them;
    that constructor does not check the edges, so they are checked here."""
    _check_edges(n, a, b)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(a, minlength=n), out=indptr[1:])
    # a no-op pass on the kernel's edges, which come sorted by a
    indices = b[np.argsort(a, kind="stable")].astype(np.int32)
    graph = csr_matrix((np.ones(a.size), indices, indptr), shape=(n, n))
    return _sparse_components(graph, directed=False, return_labels=return_labels)


def degrees(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Degree of each node 0..n-1 of the graph with edges (a, b)."""
    _check_edges(n, a, b)
    return np.bincount(np.concatenate((a, b)), minlength=n)


def run_trial(n: int, K: int, p: float, channel: str, trial_seed) -> TrialOutcome:
    """Sample one pairing, one channel graph, intersect, and measure.

    trial_seed is an int >= 0 or a tuple of them (see trial_entropy); a bool
    is rejected. Identical seeds give identical outcomes. The intersection's
    int64 edge arrays go through `degrees`, then `components`, each of which
    checks them.
    """
    check_nk(n, K)
    check_p(p)
    check_channel(channel, p)
    for part in trial_seed if isinstance(trial_seed, tuple) else (trial_seed,):
        check_int("trial_seed", part, 0)
    rng = rng_from_entropy(trial_seed)
    a, b = _intersection_edges(n, K, p, channel, rng)
    iso = int(np.count_nonzero(degrees(n, a, b) == 0))
    # an isolated node settles connectivity without the component search
    connected = iso == 0 and components(n, a, b) == 1
    return TrialOutcome(connected=connected, isolated_count=iso, edge_count=int(a.size))


def sample_instance(n: int, K: int, p: float, seed: int):
    """The on/off instance `pairkey dump-instance` writes, seeded by
    (seed, 201, n, K): the partners (n, K), each row ascending, then the
    key-sharing, channel and intersection graphs as sorted edge arrays
    (a, b), a < b. It draws the pairing, then one on/off uniform per pair,
    keyed or not, in row-major upper-triangle order: (0, 1), (0, 2), ..."""
    check_nk(n, K)
    check_p(p)
    check_int("seed", seed, 0)
    rng = rng_from_entropy((seed, 201, n, K))
    gamma = sample_gamma_matrix(n, K, rng)
    a, b = _edges(_pair_codes(gamma), n)
    chan = np.triu(np.ones((n, n), dtype=bool), 1)
    # a block of rows at a time: PCG64 gives the same doubles in blocks
    step = max(1, scheme._BLOCK // n)
    for r in range(0, n, step):
        blk = chan[r:r + step]
        blk[blk] = rng.random(np.count_nonzero(blk)) < p
    both = chan[a, b]
    return np.sort(gamma, axis=1), (a, b), np.nonzero(chan), (a[both], b[both])


def _binomial_stderr(q: float, trials: int) -> float:
    """Standard error of a rate q observed over `trials` Bernoulli trials."""
    return math.sqrt(q * (1.0 - q) / trials)


@dataclass(frozen=True)
class CellEstimate:
    """Empirical probabilities for one (channel, n, K, p) cell."""

    channel: str
    n: int
    K: int
    p: float
    trials: int
    count_connected: int
    count_no_isolated: int
    seed: int

    @property
    def prob_connected(self) -> float:
        return self.count_connected / self.trials

    @property
    def stderr_connected(self) -> float:
        return _binomial_stderr(self.prob_connected, self.trials)

    @property
    def prob_no_isolated(self) -> float:
        return self.count_no_isolated / self.trials

    @property
    def stderr_no_isolated(self) -> float:
        return _binomial_stderr(self.prob_no_isolated, self.trials)

    @property
    def notes(self) -> tuple[str, ...]:
        """A rule-of-three note for each estimate that is 0 or 1."""
        return tuple(
            f"{name} estimate at boundary; rule-of-three upper bound "
            f"{3.0 / self.trials:.3g}"
            for name, count in (("connected", self.count_connected),
                                ("no_isolated", self.count_no_isolated))
            if count in (0, self.trials))


CSV_COLUMNS = (
    "channel", "n", "K", "p", "trials",
    "count_connected", "prob_connected", "stderr_connected",
    "count_no_isolated", "prob_no_isolated", "stderr_no_isolated",
    "seed",
)


@dataclass(frozen=True)
class EstimateTable:
    rows: tuple[CellEstimate, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.rows, key=lambda r: (r.channel, r.p, r.K)))
        object.__setattr__(self, "rows", ordered)

    def cell(self, channel: str, K: int, p: float) -> CellEstimate:
        for r in self.rows:
            if r.channel == channel and r.K == K and math.isclose(r.p, p):
                return r
        raise KeyError(f"no cell for channel={channel}, K={K}, p={p}")

    def column(self, p: float, channel: Optional[str] = None) -> list[CellEstimate]:
        """All cells at a given p, ascending in K; `channel` may be left out
        only when the cells at p come from one channel."""
        out = [r for r in self.rows
               if math.isclose(r.p, p) and (channel is None or r.channel == channel)]
        channels = sorted({r.channel for r in out})
        if len(channels) > 1:
            raise ValueError(f"cells at p={p} come from channels {channels}; name one")
        return sorted(out, key=lambda r: r.K)

    def to_csv_text(self) -> str:
        """CSV_COLUMNS of each row: floats to 6 significant digits."""
        def cell(value) -> str:
            return format(value, ".6g") if isinstance(value, float) else str(value)
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(cell(getattr(r, c)) for c in CSV_COLUMNS) for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> list[dict]:
        return [asdict(r) | {"notes": list(r.notes)} for r in self.rows]

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> "EstimateTable":
        """Rows from to_json_obj; a `notes` key is ignored (notes are derived)."""
        return cls(rows=tuple(CellEstimate(**{k: v for k, v in d.items() if k != "notes"})
                              for d in obj))


def _run_cell(config: ExperimentConfig, cell: int, start: int,
              stop: int) -> tuple[int, int]:
    """(count_connected, count_no_isolated) over trials [start, stop) of a cell."""
    pi, ki = divmod(cell, len(config.K_grid))
    conn = noiso = 0
    for t in range(start, stop):
        out = run_trial(config.n, config.K_grid[ki], config.p_grid[pi], config.channel,
                        trial_entropy(config.seed, config.channel, config.n, ki, pi, t))
        conn += out.connected
        noiso += out.isolated_count == 0
    return conn, noiso


def _run_range(config: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    """Worker: units [start, stop) of a sweep, unit cell * trials + t being
    trial t of that cell, one _run_cell per cell the range touches. Returns
    their (count_connected, count_no_isolated) as a (cells, 2) int64 array."""
    trials = config.trials
    counts = np.zeros((len(config.K_grid) * len(config.p_grid), 2), dtype=np.int64)
    for cell in range(start // trials, (stop - 1) // trials + 1):
        first = cell * trials
        counts[cell] = _run_cell(config, cell, max(start, first) - first,
                                 min(stop, first + trials) - first)
    return counts


def sweep(config: ExperimentConfig, workers: int = 1) -> EstimateTable:
    """Run every (K, p) cell of the grid. Output is bit-identical for any
    worker count; trials are seeded independently of scheduling.

    The work is the flat list of (p, K, trial) units in grid order. One
    worker runs it whole, in this process, one _run_cell call per cell.
    More workers first run the last unit in this process and time its CPU
    time: if that time, times the number of units, is under POOL_MIN_S, or
    one unit is left, the rest runs in this process too, since a pool would
    cost more to start than it saves. Otherwise min(workers, units - 1)
    workers get the rest cut into min(units - 1, 4 * workers) contiguous
    ranges, one job each, which may span cells or cut one. The parts' count
    arrays are added up. Four ranges per worker keep a worker that drew the
    costlier (higher-K) ranges from idling the other for long, at a few
    pool round trips per worker."""
    check_int("workers", workers, 1)
    _scipy_graph()  # here, not in a trial: forked workers inherit it
    units = len(config.K_grid) * len(config.p_grid) * config.trials
    workers = min(workers, units)
    if workers == 1:
        counts = _run_range(config, 0, units)
    else:
        rest = units - 1
        start = time.process_time()
        counts = _run_range(config, rest, units)
        projected = (time.process_time() - start) * units
        workers = min(workers, rest)
        if workers == 1 or projected < POOL_MIN_S:
            counts += _run_range(config, 0, rest)
        else:
            ranges = min(rest, 4 * workers)
            cuts = [rest * j // ranges for j in range(ranges + 1)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                counts += sum(pool.map(_run_range, [config] * ranges,
                                       cuts[:-1], cuts[1:]))
    return EstimateTable(rows=tuple(
        CellEstimate(channel=config.channel, n=config.n, K=K, p=p,
                     trials=config.trials, count_connected=conn,
                     count_no_isolated=noiso, seed=config.seed)
        for (p, K), (conn, noiso) in zip(product(config.p_grid, config.K_grid),
                                         counts.tolist())))


def find_crossover(table: EstimateTable, p: float, level: float = 0.5,
                   channel: Optional[str] = None) -> Optional[int]:
    """Smallest K in the sweep whose P(connected) reaches `level`; None if
    never reached. `level` must be in (0, 1]."""
    check_p(level, "level")
    column = table.column(p, channel=channel)
    if not column:
        raise KeyError(f"table has no cells at p={p}")
    return next((r.K for r in column if r.prob_connected >= level), None)


# ---------------------------------------------------------------------------
# Targeted estimators and the bound-validation suite
# ---------------------------------------------------------------------------

def estimate_edge_prob(n: int, K: int, p: float, trials: int,
                       seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the probability that nodes 1 and 2 are
    adjacent in the intersection graph. Samples only the two relevant
    partner sets plus the one channel variable, so it scales to large n.

    Returns (estimate, stderr).
    """
    check_nk(n, K)
    check_p(p)
    check_int("trials", trials, 1)
    check_int("seed", seed, 0)
    rng = rng_from_entropy((seed, 101, n, K))
    hits = 0
    # a chunk's t pairing draws come before its t link uniforms, so the chunk
    # size sets the stream; the pairing draws are read a block at a time
    chunk = max(1024, min(trials, int(4e6 / (2 * (n - 1)))))
    for done in range(0, trials, chunk):
        t = min(chunk, trials - done)
        keyed = np.empty(t, dtype=bool)
        for start, u in uniform_rows(rng, t, 2 * (n - 1)):
            u = u.reshape(-1, 2, n - 1)
            # node 2 is candidate 0 of node 1, node 1 is candidate 0 of
            # node 2: either picked the other iff its rank is below K
            ranks = np.count_nonzero(u < u[:, :, :1], axis=2)
            keyed[start:start + len(u)] = (ranks < K).any(axis=1)
        b = rng.random(t) < p
        hits += int(np.count_nonzero(keyed & b))
    return hits / trials, _binomial_stderr(hits / trials, trials)


@dataclass(frozen=True)
class BoundCheck:
    """A skipped check has passed=True and None for each number it lacks."""

    name: str
    empirical: float | None
    reference: float | None
    sigma: float | None
    kind: str  # "two_sided" | "upper"
    passed: bool
    status: str = "checked"


@dataclass(frozen=True)
class ValidationReport:
    n: int
    K: int
    p: float
    samples: int
    seed: int
    checks: tuple[BoundCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return asdict(self) | {"all_passed": self.all_passed}


def _check(name, emp, ref, sigma, kind) -> BoundCheck:
    """emp within 3 sigma of ref ("two_sided") or at most ref + 3 sigma
    ("upper"), with rounding slack for an estimate that equals ref but is
    computed by another formula (sigma = 0 at K = n-1)."""
    tol = 3.0 * sigma + 1e-12 * max(1.0, abs(ref))
    passed = abs(emp - ref) <= tol if kind == "two_sided" else emp <= ref + tol
    return BoundCheck(name=name, empirical=emp, reference=ref, sigma=sigma,
                      kind=kind, passed=passed)


_PHI_MINUS_3 = 0.5 * math.erfc(3.0 / math.sqrt(2.0))  # normal tail beyond 3 sigma


def _rate_check(name, count, trials, q) -> BoundCheck:
    """A count of events in `trials` Bernoulli(q) samples, against q. It
    passes iff both exact binomial tails, P(X <= count) and P(X >= count),
    are at least the normal 3-sigma tail, which holds for rare events too,
    where a 3-sigma band on the count does not. q is clipped to [0, 1]
    against rounding in its closed form; sigma is reported, not used."""
    # imported here: a sweep never needs scipy.special (54 ms, 2.6 MB)
    from scipy.special import bdtr, bdtrc
    q = min(max(q, 0.0), 1.0)
    tail = min(bdtr(count, trials, q), bdtrc(count - 1, trials, q))
    return BoundCheck(name=name, empirical=count / trials, reference=q,
                      sigma=_binomial_stderr(q, trials), kind="two_sided",
                      passed=bool(tail >= _PHI_MINUS_3))


def _pick_candidates(t: int, n: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """Picks of t pairings of n nodes as int32 candidate ids (t, n, K): (s, i)
    holds the candidates of the K smallest uniforms of row s * n + i of
    rng.random((t * n, n-1)), read through uniform_rows, in no set order."""
    cand = np.empty((t * n, K), dtype=np.int32)
    for s, u in uniform_rows(rng, t * n, n - 1):
        cand[s:s + len(u)] = np.argpartition(u, min(K, n - 2), axis=1)[:, :K]
    return cand.reshape(t, n, K)


def _pick_matrices(cand: np.ndarray) -> np.ndarray:
    """Pick matrices (t, n, n) of candidate ids (t, n, K): (s, i, j) is True
    iff node i of sample s picked node j. The picks fill the off-diagonal, so
    candidate c of node i lands in column c if c < i else c + 1."""
    t, n, _ = cand.shape
    pick = np.zeros((t, n, n - 1), dtype=bool)
    np.put_along_axis(pick, cand, True, axis=2)
    picked = np.zeros((t, n, n), dtype=bool)
    picked[:, ~np.eye(n, dtype=bool)] = pick.reshape(t, -1)
    return picked


def _dense_tile(picked: np.ndarray, ub: np.ndarray, p: float,
                tail_cut: float) -> np.ndarray:
    """Tallies of validate_bounds over a tile of t samples, from their pick
    matrices (t, n, n) and channel uniforms (t, C(n,2)), through dense
    (t, n, n) matrices, as one int64 vector: the counts of edge {0,1}, of
    pick 2->0, of node 0 isolated, of nodes 0 and 1 both isolated, of keyed
    {0,1}, of keyed {0,2} and of both; the histogram of X+Y in {0, 1, 2},
    X and Y the picks 2->0 and 2->1; and the sum, the sum of squares and the
    count at or below tail_cut of the outside-pick count."""
    t, n, _ = picked.shape
    keyed = picked | picked.transpose(0, 2, 1)

    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    chan = np.zeros((t, n, n), dtype=bool)
    chan[:, upper] = ub < p
    chan |= chan.transpose(0, 2, 1)
    adj = keyed & chan

    chi1, chi2 = ~adj[:, 0, :].any(axis=1), ~adj[:, 1, :].any(axis=1)
    k01, k02 = keyed[:, 0, 1], keyed[:, 0, 2]
    e = picked[:, R:, :R].sum(axis=(1, 2))
    counts = [np.count_nonzero(c) for c in (adj[:, 0, 1], picked[:, 2, 0], chi1,
                                            chi1 & chi2, k01, k02, k01 & k02)]
    xy = np.bincount(picked[:, 2, :2].sum(axis=1), minlength=3)
    return np.array([*counts, *xy, e.sum(), (e * e).sum(),
                     np.count_nonzero(e <= tail_cut)], dtype=np.int64)


def validate_bounds(n: int, K: int, p: float, samples: int,
                    seed: int = 0) -> ValidationReport:
    """Estimate every checkable moment and compare it against its closed
    form or bound at the 3-sigma level.

    Checks: the pair edge probability, the pairing probability K/(n-1), the
    single-node isolation probability, the negative-association bound
    b <= u^2, the isolation cross-moment ratio bound, the mean and
    Chernoff tail of the outside-pick count, and the sign of the pairwise
    edge covariance. The three probabilities are judged by the exact
    binomial tails of their counts (see _rate_check). Intended for small n
    where moments are estimable.
    """
    check_int("n", n, 3)
    check_nk(n, K)
    check_p(p)
    check_int("samples", samples, 1000)
    check_int("seed", seed, 0)

    rng = rng_from_entropy((seed, 102, n, K))
    e_mean = theory.estar_mean(n, R, K)
    tail_cut = (1.0 - TAIL_T) * e_mean
    # the chunk size sets the stream: a chunk's pairings (candidate ids), then
    # its links; a block of link uniforms sets how many dense matrices exist at once
    chunk = max(1000, min(samples, int(2e6 / (n * n))))
    tally = np.zeros(13, dtype=np.int64)
    for done in range(0, samples, chunk):
        t = min(chunk, samples - done)
        cand = _pick_candidates(t, n, K, rng)
        for s, ub in uniform_rows(rng, t, n * (n - 1) // 2):
            tally += _dense_tile(_pick_matrices(cand[s:s + len(ub)]), ub, p, tail_cut)
    (s_edge, s_pair, s_chi1, s_chi12, s_x, s_y, s_xy,
     c0, c1, c2, s_e, s_e2, s_tail) = tally.tolist()

    T = samples
    checks: list[BoundCheck] = []

    for name, count, q in (("edge_prob", s_edge, theory.edge_prob(n, K, p)),
                           ("pairing_prob", s_pair, K / (n - 1)),
                           ("isolation_prob", s_chi1, theory.isolation_prob(n, K, p))):
        checks.append(_rate_check(name, count, T, q))

    # b = (1-p)^(X+Y) from the counts c0, c1, c2 of X+Y; at K = n-1,
    # X = Y = 1 and b is constant
    q1 = 1.0 - p
    q2 = q1 * q1
    b_hat = (c0 + c1 * q1 + c2 * q2) / T
    b_var = 0.0 if T in (c0, c1, c2) else \
        max((c0 + c1 * q2 + c2 * q2 * q2) / T - b_hat * b_hat, 0.0)
    u_sq = theory.u_n(n, K, p) ** 2
    checks.append(_check("b_leq_u_squared", b_hat, u_sq, math.sqrt(b_var / T), "upper"))

    bound = theory.cross_moment_ratio_bound(n, K, p) if p < 1.0 else None
    skip = ("undefined at p=1" if p == 1.0
            else "no isolation events observed" if s_chi1 == 0 else None)
    if skip:
        checks.append(BoundCheck(
            name="cross_moment_ratio", empirical=None, reference=bound,
            sigma=None, kind="upper", passed=True, status=f"skipped: {skip}"))
    else:
        a_hat, c_hat = s_chi12 / T, s_chi1 / T
        ratio = a_hat / (c_hat * c_hat)
        sig_a, sig_c = _binomial_stderr(a_hat, T), _binomial_stderr(c_hat, T)
        rel = math.sqrt((sig_a / a_hat) ** 2 + (2 * sig_c / c_hat) ** 2) \
            if a_hat > 0 else 0.0
        checks.append(_check("cross_moment_ratio", ratio, bound, ratio * rel, "upper"))

    e_hat = s_e / T
    e_var = max(s_e2 / T - e_hat * e_hat, 0.0)
    checks.append(_check("estar_mean", e_hat, e_mean,
                         math.sqrt(e_var / T) if e_var > 0 else 1.0 / T, "two_sided"))

    tail_hat = s_tail / T
    tail_bound = theory.estar_chernoff(n, R, K, TAIL_T)
    checks.append(_check("estar_tail", tail_hat, tail_bound,
                         math.sqrt(max(tail_hat * (1 - tail_hat), 1.0 / T) / T), "upper"))

    mx, my = s_x / T, s_y / T
    cov = s_xy / T - mx * my
    # stderr of the covariance of two Bernoulli indicators, delta method
    var_cov = (s_xy / T) * (1 - s_xy / T) / T \
        + (my ** 2) * mx * (1 - mx) / T + (mx ** 2) * my * (1 - my) / T
    checks.append(_check("edge_covariance", cov, 0.0, math.sqrt(var_cov), "upper"))

    return ValidationReport(n=n, K=K, p=p, samples=samples, seed=seed,
                            checks=tuple(checks))
