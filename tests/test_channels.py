import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairkey import montecarlo as mc
from pairkey.channels import toroidal_distance_matrix
from pairkey.theory import match_rho

from oracles import (RecordingRng, ScriptedRng, stacked_toroidal_distance_matrix,
                     toroidal_distance)

coord = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                  allow_nan=False)
point = st.tuples(coord, coord)


def rng(seed=0):
    return np.random.default_rng(seed)


def dist(*points):
    """The distance matrix of the points, from the pair form at every
    ordered pair."""
    pts = np.array(points, dtype=float)
    n = len(pts)
    a, b = np.divmod(np.arange(n * n), n)
    return toroidal_distance_matrix(pts, a, b).reshape(n, n)


def assert_edge_rate(q, channel, seed):
    """One trial with every pair keyed reads C(448, 2) = 100,128 pair links.
    On/off links are independent and disk links on the torus pairwise
    independent, so the up fraction has variance q(1-q)/C(n,2)."""
    n = 448
    pairs = n * (n - 1) // 2
    rate = mc.run_trial(n, n - 1, q, channel, seed).edge_count / pairs
    assert abs(rate - q) <= 3 * math.sqrt(q * (1 - q) / pairs)


class TestParams:
    def test_channel_params_range(self):
        mc.run_trial(5, 2, 1.0, "on_off", 0)
        for p in (0.0, 1.5):
            with pytest.raises(ValueError):
                mc.run_trial(5, 2, p, "on_off", 0)

    def test_disk_params_range(self):
        # rho = sqrt(p/pi) must stay below 0.5 on "disk"; "disk_forced" runs
        # any p, and so does every channel's trial below the bound
        mc.run_trial(5, 2, 0.3, "disk", 0)
        with pytest.raises(ValueError, match="disk_forced"):
            mc.run_trial(5, 2, math.pi / 4, "disk", 0)  # rho = 0.5 exactly
        mc.run_trial(5, 2, math.pi / 4, "disk_forced", 0)
        for p in (0.0, 1.5):
            with pytest.raises(ValueError):
                mc.run_trial(5, 2, p, "disk_forced", 0)


class TestSampleEr:
    def test_p1_complete(self):
        assert mc.run_trial(10, 9, 1.0, "on_off", 0).edge_count == 45

    def test_edge_rate(self):
        assert_edge_rate(0.5, "on_off", 5)

    def test_typically_connected_at_n50_p02(self):
        # with every pair keyed the intersection is the channel graph itself
        connected = sum(mc.run_trial(50, 49, 0.2, "on_off", (7, t)).connected
                        for t in range(50))
        assert connected >= 48

    def test_reproducible(self):
        a1, b1 = mc._intersection_edges(30, 29, 0.3, "on_off", rng(9))
        a2, b2 = mc._intersection_edges(30, 29, 0.3, "on_off", rng(9))
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def positions(n, seed):
    """The node positions of one disk trial: its draw after the pairing."""
    r = RecordingRng(rng(seed))
    mc._intersection_edges(n, 1, 0.2, "disk", r)
    return r.draws[-1]


class TestSamplePositions:
    def test_single_point_in_range(self):
        # one point per node in [0, 1)^2
        pts = positions(2, 0)
        assert pts.shape == (2, 2)
        assert np.all((0.0 <= pts) & (pts < 1.0))

    def test_coordinate_means(self):
        pts = np.concatenate([positions(50, seed) for seed in range(2000)])
        sigma = math.sqrt(1 / 12 / pts.shape[0])
        for axis in (0, 1):
            assert abs(pts[:, axis].mean() - 0.5) <= 3 * sigma

    def test_reproducible(self):
        assert np.array_equal(positions(20, 4), positions(20, 4))


class TestToroidalDistance:
    def test_identity(self):
        assert dist((0.3, 0.7), (0.3, 0.7))[0, 1] == 0.0

    def test_wraparound(self):
        d = dist((0.1, 0.1), (0.9, 0.9))[0, 1]
        assert d == pytest.approx(math.sqrt(0.08), abs=1e-12)

    def test_antipodal_maximum(self):
        d = dist((0.0, 0.0), (0.5, 0.5))[0, 1]
        assert d == pytest.approx(math.sqrt(0.5), abs=1e-12)

    @given(point, point)
    @settings(max_examples=200)
    def test_symmetry_and_bound(self, a, b):
        d = dist(a, b)
        assert d[0, 1] == d[1, 0]
        assert 0.0 <= d[0, 1] <= math.sqrt(0.5) + 1e-12

    @given(point, point, point)
    @settings(max_examples=300)
    def test_triangle_inequality(self, a, b, c):
        d = dist(a, b, c)
        assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-12

    def test_matrix_agrees_with_scalar(self):
        pts = rng(11).random((8, 2))
        d = dist(*pts)
        for i in range(8):
            for j in range(8):
                assert d[i, j] == pytest.approx(
                    toroidal_distance(pts[i], pts[j]), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 200])
    def test_bitwise_equal_to_stacked_form(self, n):
        # coordinates at 0, 0.5 and the largest float below 1 among random ones
        edge = [0.0, 0.5, 1.0 - 2.0 ** -53]
        pts = rng(n).random((n, 2))
        pts.ravel()[:6] = (edge * 2)[:pts.size]
        got = dist(*pts)
        want = stacked_toroidal_distance_matrix(pts)
        assert got.shape == want.shape == (n, n)
        assert got.tobytes() == want.tobytes()


class TestMatchRho:
    def test_exact_algebra(self):
        assert match_rho(math.pi / 16) == pytest.approx(0.25, abs=1e-15)

    def test_p02(self):
        assert match_rho(0.2) == pytest.approx(0.2523132522, abs=1e-9)

    def test_large_p_rejected(self):
        with pytest.raises(ValueError):
            match_rho(0.8)

    def test_large_p_forced(self):
        assert match_rho(0.8, "disk_forced") == pytest.approx(0.5046265044, abs=1e-9)

    def test_boundary(self):
        assert match_rho(0.7) == pytest.approx(0.4720348719, abs=1e-9)  # < 0.5
        with pytest.raises(ValueError, match="disk_forced"):
            match_rho(math.pi / 4)  # rho = 0.5
        assert match_rho(math.pi / 4, "disk_forced") == 0.5


def disk_edges(n, p, seed):
    """Edge pairs of a disk trial with every pair keyed (K = n-1)."""
    a, b = mc._intersection_edges(n, n - 1, p, "disk", rng(seed))
    return set(zip(a.tolist(), b.tolist()))


class TestDiskGraph:
    def test_tiny_rho_empty(self):
        assert disk_edges(20, 1e-18, 2) == set()

    def test_known_pair(self):
        # the two points are sqrt(0.08) ~ 0.283 apart across the corner
        def linked(rho):
            draws = ScriptedRng(np.zeros((2, 1)), [[0.1, 0.1], [0.9, 0.9]])
            a, _ = mc._intersection_edges(2, 1, math.pi * rho * rho, "disk", draws)
            return a.size == 1

        assert linked(0.3)
        assert not linked(0.28)

    def test_edge_rate_pi_rho_squared(self):
        assert_edge_rate(math.pi * 0.3 * 0.3, "disk", 6)

    def test_monotone_in_rho(self):
        # same seed, same positions: a longer range keeps every link
        graphs = [disk_edges(60, math.pi * r_ * r_, 8) for r_ in (0.05, 0.1, 0.2, 0.4)]
        for smaller, larger in zip(graphs, graphs[1:]):
            assert smaller <= larger
        assert len(graphs[0]) < len(graphs[-1])

    def test_reproducible(self):
        assert disk_edges(30, 0.2, 10) == disk_edges(30, 0.2, 10)
