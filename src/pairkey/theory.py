"""Closed-form quantities for the pairwise scheme under unreliable links:
link and isolation probabilities, the matched disk radius, connectivity
thresholds, and the moment/tail bounds the Monte Carlo suite validates against.

All functions are pure and deterministic; bounds are returned raw (they may
exceed 1 and are never clamped). The checks of the (n, K, p, channel) domain
and the one integer rule live here too, once each; every entry point of the
package calls them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict


CHANNELS = ("on_off", "disk", "disk_forced")


def check_int(name: str, value, low: int | None = None) -> None:
    """An integer, at least `low` if given; a bool, a float (even 2.0) or a
    string is rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def check_nk(n: int, K: int) -> None:
    check_int("n", n)
    check_int("K", K)
    if not 1 <= K < n:
        raise ValueError(f"require 1 <= K < n, got K={K}, n={n}")


def check_real(name: str, value) -> None:
    """A real number; a bool or a string is rejected. Callers check the range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def check_p(p: float, name: str = "p") -> None:
    """A real number in (0, 1]; NaN is rejected."""
    check_real(name, p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {p}")


def check_p_open(p: float) -> None:
    """p in (0, 1), for the closed forms with log(1-p) or 1/(1-p)."""
    check_p(p)
    if p == 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")


def check_channel(channel: str, p: float) -> None:
    """The channel name, and on "disk" the range where the matched radius
    rho = sqrt(p/pi) is below 1/2, so P(edge) = pi*rho^2 holds exactly
    (p < pi/4). "disk_forced" runs the disk model at any p."""
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}, got {channel!r}")
    if channel == "disk" and (rho := math.sqrt(p / math.pi)) >= 0.5:
        raise ValueError(f"p={p} gives rho={rho:.5f} >= 0.5 where P(edge) != "
                         "pi*rho^2; use channel disk_forced to run it anyway")


def match_rho(p: float, channel: str = "disk") -> float:
    """Transmission range with the same edge probability as the on/off model:
    pi * rho^2 = p, i.e. rho = sqrt(p / pi), on the channel's domain (see
    check_channel): "disk" needs p < pi/4, "disk_forced" takes any p."""
    check_p(p)
    check_channel(channel, p)
    return math.sqrt(p / math.pi)


def lambda_n(n: int, K: int) -> float:
    """Link probability in the key-sharing graph: 2K/(n-1) - (K/(n-1))^2."""
    check_nk(n, K)
    q = K / (n - 1)
    return 2.0 * q - q * q


def edge_prob(n: int, K: int, p: float) -> float:
    """Edge probability in the intersection graph: p * lambda_n."""
    check_p(p)
    return p * lambda_n(n, K)


def tau(p: float) -> float:
    """Connectivity threshold constant for the scaling
    p*(2K - K^2/(n-1)) ~ c log n; continuous on [0, 1], 1 at p=0, 0 at p=1."""
    check_real("p", p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    # log(1-p)/p via log1p to keep continuity at p -> 0 free of cancellation
    return 2.0 / (1.0 - math.log1p(-p) / p)


def tau_hat(p: float) -> float:
    """Threshold constant for K ~ t log n: tau(p)/(2p) = 1/(p - log(1-p))."""
    check_p_open(p)
    return 1.0 / (p - math.log1p(-p))


def scaling_c_n(n: int, K: int, p: float) -> float:
    """The finite-n scaling constant: c_n = p*(2K - K^2/(n-1)) / log n."""
    check_int("n", n, 3)
    check_nk(n, K)
    check_p(p)
    return p * (2.0 * K - K * K / (n - 1)) / math.log(n)


def alpha_n(n: int, K: int, p: float) -> float:
    """Exponent approximating log(n * isolation_prob):
    (1 - c_n) log n + K (p + log(1-p))."""
    check_p_open(p)
    c = scaling_c_n(n, K, p)
    return (1.0 - c) * math.log(n) + K * (p + math.log1p(-p))


def isolation_prob(n: int, K: int, p: float) -> float:
    """Probability that a given node is isolated in the intersection graph:
    (1-p)^K * (1 - pK/(n-1))^(n-K-1)."""
    check_nk(n, K)
    check_p(p)
    return (1.0 - p) ** K * (1.0 - p * K / (n - 1)) ** (n - K - 1)


def u_n(n: int, K: int, p: float) -> float:
    """E[(1-p)^X] for X the indicator that a fixed node picked another fixed
    node: 1 - pK/(n-1)."""
    check_nk(n, K)
    check_p(p)
    return 1.0 - p * K / (n - 1)


def cross_moment_ratio_bound(n: int, K: int, p: float) -> float:
    """Upper bound on E[chi_1 chi_2] / E[chi_1]^2 for the two-node isolation
    indicators: (1/(1-p)) (K/(n-1))^2 + (1 - pK/(n-1))^(-2)."""
    check_nk(n, K)
    check_p_open(p)
    q = K / (n - 1)
    return q * q / (1.0 - p) + (1.0 - p * q) ** -2


def estar_mean(n: int, r: int, K: int) -> float:
    """Mean of the count of picks from outside nodes into {1..r}:
    r (n-r) K / (n-1)."""
    check_nk(n, K)
    check_int("r", r)
    if not 2 <= r <= n - 1:
        raise ValueError(f"require 2 <= r <= n-1, got r={r}, n={n}")
    return r * (n - r) * K / (n - 1)


def estar_chernoff(n: int, r: int, K: int, t: float) -> float:
    """Chernoff-Hoeffding tail bound on the same count falling below
    (1-t) of its mean: exp(-(t^2/2) * r K (n-r)/(n-1))."""
    check_real("t", t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must be in (0, 1), got {t}")
    return math.exp(-0.5 * t * t * estar_mean(n, r, K))


def connected_subset_bound(n: int, r: int, K: int, p: float) -> float:
    """Union-over-spanning-trees bound on the probability that r given nodes
    induce a connected subgraph: r^(r-2) * (p lambda_n)^(r-1). May exceed 1."""
    q = edge_prob(n, K, p)
    check_int("r", r)
    if not 2 <= r <= n:
        raise ValueError(f"require 2 <= r <= n, got r={r}, n={n}")
    return r ** (r - 2) * q ** (r - 1)


def predicted_threshold_K(n: int, p: float) -> float:
    """Critical number of partners for connectivity: tau_hat(p) * log n."""
    check_int("n", n, 3)
    return tau_hat(p) * math.log(n)


@dataclass(frozen=True)
class TheoryReport:
    """Every closed form evaluated at one parameter point (n, K, p); the
    four that need p < 1 are None at p = 1."""

    n: int
    K: int
    p: float
    lambda_n: float
    edge_prob: float
    c_n: float
    alpha_n: float | None
    tau: float
    tau_hat: float | None
    isolation_prob: float
    predicted_threshold_K: float | None
    cross_moment_bound: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def theory_report(n: int, K: int, p: float) -> TheoryReport:
    check_nk(n, K)
    check_p(p)
    interior = 0.0 < p < 1.0
    return TheoryReport(
        n=n,
        K=K,
        p=p,
        lambda_n=lambda_n(n, K),
        edge_prob=edge_prob(n, K, p),
        c_n=scaling_c_n(n, K, p),
        alpha_n=alpha_n(n, K, p) if interior else None,
        tau=tau(p),
        tau_hat=tau_hat(p) if interior else None,
        isolation_prob=isolation_prob(n, K, p),
        predicted_threshold_K=predicted_threshold_K(n, p) if interior else None,
        cross_moment_bound=cross_moment_ratio_bound(n, K, p) if interior else None,
    )
