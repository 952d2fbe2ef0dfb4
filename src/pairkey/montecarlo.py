"""Monte Carlo engine: the trial kernel, parameter sweeps with standard
errors, crossover extraction, and the bound-validation suite.

A trial's graph is held as sorted edge arrays (a, b), a < b: the keyed pairs
of the pairing, filtered by the channel. A trial builds no n x n array and
draws O(nK) random numbers: the pairing (scheme.sample_gamma_matrix), then
one on/off uniform per keyed pair, or n positions for disk, whose distances
are computed at the keyed pairs only. So a trial takes O(nK) time and memory.
(validate_bounds, for small n only, runs dense matrices over tiles of
samples instead, and ranks uniforms for its pairings, as estimate_edge_prob
does; both draw them through scheme.uniform_rows.)

Every trial is seeded by a counter-based derivation from
(master seed, channel tag, n, K-index, p-index, trial index), so results are
bit-identical regardless of execution order or worker count; a pooled sweep
hands its workers a few contiguous ranges of the grid's trials each, which
may span cells, and adds up their counts by cell.

Importing this module loads numpy but not scipy. scipy.sparse, which only
`components` uses, loads in the first `sweep` or `components` call; `sweep`
loads it before its first trial and its pool, so forked workers inherit it.
scipy.special loads in the bound suite's first rate check.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from itertools import chain, combinations, product
from typing import Optional

import numpy as np

from . import theory
from .channels import toroidal_distance_matrix
from .scheme import draw_partners, sample_gamma_matrix, uniform_rows
from .theory import check_channel, check_int, check_nk, check_p, match_rho

_CHANNEL_TAGS = {"on_off": 1, "disk": 2, "disk_forced": 3}
TAIL_T = 0.5  # validate_bounds' estar_tail: P(count <= (1 - TAIL_T) * mean)
R = 2  # validate_bounds' inside nodes 0, 1; _dense_tile reads them and node 2 by index


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
        object.__setattr__(self, "K_grid", tuple(map(int, K_grid)))
        object.__setattr__(self, "p_grid", tuple(map(float, p_grid)))


def keyed_pairs(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Key-sharing graph of a pairing as edge arrays (a, b) with a < b,
    sorted by (a, b): {i, j} is an edge iff i picked j or j picked i."""
    n, K = gamma.shape
    i = np.repeat(np.arange(n), K)
    j = gamma.ravel()
    # np.unique is an order of magnitude slower than sort plus compare here
    code = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    code = code[np.concatenate(([True], code[1:] != code[:-1]))]
    return np.divmod(code, n)


def pair_index(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Position of pair (a, b), a < b, in row-major upper-triangle order, the
    order in which sample_instance draws its C(n,2) on/off uniforms."""
    return a * (2 * n - a - 1) // 2 + b - a - 1


def _intersection_edges(n: int, K: int, p: float, channel: str,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample one intersection graph as sorted edge arrays (a, b), a < b.

    The pairing is drawn first, then the channel: one on/off uniform per
    keyed pair, in (a, b) order, or n positions for disk. Only keyed pairs
    are tested against the channel.
    """
    a, b = keyed_pairs(sample_gamma_matrix(n, K, rng))
    if channel == "on_off":
        up = rng.random(a.size) < p
    else:
        rho = match_rho(p, channel)
        up = toroidal_distance_matrix(rng.random((n, 2)), a, b) < rho
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
    """Edges (a, b) of a graph on nodes 0..n-1: two 1-D arrays of equal
    length, with ids in [0, n)."""
    if a.ndim != 1 or a.shape != b.shape or a.size and (
            min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= n):
        raise ValueError(f"edges must be two 1-D arrays of equal length with node "
                         f"ids in [0, {n}), got shapes {a.shape} and {b.shape}")


def components(n: int, a: np.ndarray, b: np.ndarray, return_labels: bool = False):
    """Connected components of the graph with edges (a, b) on nodes 0..n-1;
    labels, if asked for, number components in order of smallest member.

    The edges go straight into the CSR arrays the search reads, in its dtypes
    (float64 data, int32 indices), so scipy neither converts nor copies them;
    that constructor does not check the edges, so they are checked here."""
    _check_edges(n, a, b)
    return _components(n, a, b, return_labels)


def _components(n: int, a: np.ndarray, b: np.ndarray, return_labels: bool = False):
    """`components` without the edge check, for edges already checked."""
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

    trial_seed is an int or a tuple of ints (see trial_entropy); identical
    seeds give identical outcomes.
    """
    check_nk(n, K)
    check_p(p)
    check_channel(channel, p)
    rng = rng_from_entropy(trial_seed)
    a, b = _intersection_edges(n, K, p, channel, rng)
    iso = int(np.count_nonzero(degrees(n, a, b) == 0))
    # an isolated node settles connectivity without the component search;
    # degrees has checked the edges
    connected = iso == 0 and _components(n, a, b) == 1
    return TrialOutcome(connected=connected, isolated_count=iso, edge_count=int(a.size))


def sample_instance(n: int, K: int, p: float, seed: int):
    """The on/off instance `pairkey dump-instance` writes, seeded by
    (seed, 201, n, K): the partners (n, K), each row ascending, then the
    key-sharing, channel and intersection graphs as sorted edge arrays
    (a, b), a < b. It draws the pairing, then one on/off uniform per pair,
    in pair_index order, keyed or not."""
    check_nk(n, K)
    check_p(p)
    check_int("seed", seed, 0)
    rng = rng_from_entropy((seed, 201, n, K))
    gamma = sample_gamma_matrix(n, K, rng)
    a, b = keyed_pairs(gamma)
    up = rng.random(n * (n - 1) // 2) < p
    both = up[pair_index(n, a, b)]
    iu, ju = np.triu_indices(n, k=1)
    return np.sort(gamma, axis=1), (a, b), (iu[up], ju[up]), (a[both], b[both])


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


def _run_cell(args) -> tuple[int, int]:
    """Trials [start, stop) of one grid cell. Returns
    (count_connected, count_no_isolated) over those trials."""
    n, K, p, seed, channel, k_index, p_index, start, stop = args
    conn = noiso = 0
    for t in range(start, stop):
        out = run_trial(n, K, p, channel,
                        trial_entropy(seed, channel, n, k_index, p_index, t))
        conn += out.connected
        noiso += out.isolated_count == 0
    return conn, noiso


def _run_range(config: ExperimentConfig, start: int,
               stop: int) -> list[tuple[int, int, int]]:
    """Worker: units [start, stop) of a sweep, unit cell * trials + t being
    trial t of cell pi * len(K_grid) + ki. Returns (cell, count_connected,
    count_no_isolated) for each cell the range touches, one _run_cell each."""
    trials = config.trials
    out = []
    for cell in range(start // trials, (stop - 1) // trials + 1):
        pi, ki = divmod(cell, len(config.K_grid))
        first = cell * trials
        out.append((cell, *_run_cell((
            config.n, config.K_grid[ki], config.p_grid[pi], config.seed,
            config.channel, ki, pi, max(start, first) - first,
            min(stop, first + trials) - first))))
    return out


def pool_size(workers: int, units: int) -> int:
    """Worker processes to start for `units` work items: `workers`, but never
    more than there are items."""
    check_int("workers", workers, 1)
    return min(workers, units)


def sweep(config: ExperimentConfig, workers: int = 1) -> EstimateTable:
    """Run every (K, p) cell of the grid. Output is bit-identical for any
    worker count; trials are seeded independently of scheduling.

    The work is the flat list of (p, K, trial) units in grid order. One
    worker runs it whole, in this process, one _run_cell call per cell. A
    pool gets it cut into min(units, 4 * workers) contiguous ranges, one job
    each, which may span cells or cut one; the counts come back per cell and
    are added up by cell. Four ranges per worker keep a worker that drew the
    costlier (higher-K) ranges from idling the other for long, at a few pool
    round trips per worker."""
    _scipy_graph()  # here, not in a trial: forked workers inherit it
    cells = len(config.K_grid) * len(config.p_grid)
    units = cells * config.trials
    workers = pool_size(workers, units)
    ranges = 1 if workers == 1 else min(units, 4 * workers)
    cuts = [units * j // ranges for j in range(ranges + 1)]
    jobs = ([config] * ranges, cuts[:-1], cuts[1:])
    if workers == 1:
        results = list(map(_run_range, *jobs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_range, *jobs))
    counts = [[0, 0] for _ in range(cells)]
    for cell, conn, noiso in chain.from_iterable(results):
        counts[cell][0] += conn
        counts[cell][1] += noiso
    return EstimateTable(rows=tuple(
        CellEstimate(channel=config.channel, n=config.n, K=K, p=p,
                     trials=config.trials, count_connected=conn,
                     count_no_isolated=noiso, seed=config.seed)
        for (p, K), (conn, noiso) in zip(product(config.p_grid, config.K_grid),
                                         counts)))


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


def _dense_tile(gamma0: np.ndarray, ub: np.ndarray, p: float,
                tail_cut: float) -> np.ndarray:
    """Tallies of validate_bounds over a tile of t samples, from their
    partners (t, n, K) and channel uniforms (t, C(n,2)), through dense
    (t, n, n) matrices, as one int64 vector: the counts of edge {0,1}, of
    pick 2->0, of node 0 isolated, of nodes 0 and 1 both isolated, of keyed
    {0,1}, of keyed {0,2} and of both; the histogram of X+Y in {0, 1, 2},
    X and Y the picks 2->0 and 2->1; and the sum, the sum of squares and the
    count at or below tail_cut of the outside-pick count."""
    t, n, _ = gamma0.shape
    picked = np.zeros((t, n, n), dtype=bool)
    picked[np.arange(t)[:, None, None], np.arange(n)[None, :, None], gamma0] = True
    keyed = picked | picked.transpose(0, 2, 1)

    chan = np.zeros((t, n, n), dtype=bool)
    iu, ju = np.triu_indices(n, k=1)
    chan[:, iu, ju] = ub < p
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
    # the chunk size sets the stream: a chunk's pairings, then its links;
    # a block of link uniforms sets only how many dense matrices exist at once
    chunk = max(1000, min(samples, int(2e6 / (n * n))))
    tally = np.zeros(13, dtype=np.int64)
    for done in range(0, samples, chunk):
        t = min(chunk, samples - done)
        gamma0 = draw_partners((t, n), K, rng)
        for s, ub in uniform_rows(rng, t, n * (n - 1) // 2):
            tally += _dense_tile(gamma0[s:s + len(ub)], ub, p, tail_cut)
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
