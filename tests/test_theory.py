import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pairkey import theory as th

from oracles import (exact_isolation_probability, exact_link_probability,
                     exact_pair_isolation_probability)

interior_p = st.floats(min_value=1e-6, max_value=1 - 1e-6, allow_nan=False)


class TestLambda:
    def test_k_max_gives_one(self):
        assert th.lambda_n(6, 5) == pytest.approx(1.0, rel=1e-12)

    def test_n5_k2(self):
        assert th.lambda_n(5, 2) == pytest.approx(0.75, rel=1e-12)
        assert float(exact_link_probability(5, 2)) == pytest.approx(0.75, rel=1e-12)

    def test_n3_k1_brute_force(self):
        assert th.lambda_n(3, 1) == pytest.approx(
            float(exact_link_probability(3, 1)), rel=1e-12)

    @pytest.mark.parametrize("n,K", [(4, 1), (4, 2), (5, 1), (5, 3), (6, 2)])
    def test_matches_enumeration(self, n, K):
        assert th.lambda_n(n, K) == pytest.approx(
            float(exact_link_probability(n, K)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            th.lambda_n(5, 5)
        with pytest.raises(ValueError):
            th.lambda_n(5, 0)


class TestEdgeProb:
    def test_p1_is_lambda(self):
        assert th.edge_prob(5, 2, 1.0) == th.lambda_n(5, 2)

    def test_value(self):
        assert th.edge_prob(5, 2, 0.5) == pytest.approx(0.375, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            th.edge_prob(5, 2, 0.0)


class TestTau:
    def test_endpoints(self):
        assert th.tau(0.0) == 1.0
        assert th.tau(1.0) == 0.0

    def test_half(self):
        assert th.tau(0.5) == pytest.approx(2 / (1 + math.log(2) / 0.5), rel=1e-12)
        assert th.tau(0.5) == pytest.approx(0.83812, abs=1e-5)

    def test_continuous_at_zero(self):
        assert abs(th.tau(1e-8) - 1.0) < 1e-6

    def test_small_at_one(self):
        # tau -> 0 as p -> 1 (slowly, like 2/|log(1-p)|)
        assert th.tau(0.999) < 0.3
        assert th.tau(1 - 1e-12) < 0.08

    @given(st.floats(min_value=1e-4, max_value=0.99))
    @settings(max_examples=200)
    def test_locally_continuous(self, p):
        # steepens like 1/((1-p) log^2(1-p)) toward p=1; the interior is
        # uniformly tame up to 0.99
        assert abs(th.tau(p) - th.tau(p + 1e-8)) < 1e-6

    def test_strictly_decreasing(self):
        ps = [i / 100 for i in range(1, 100)]
        vals = [th.tau(p) for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)

    def test_domain(self):
        with pytest.raises(ValueError):
            th.tau(-0.1)
        with pytest.raises(ValueError):
            th.tau(1.1)


class TestTauHat:
    def test_values(self):
        assert th.tau_hat(0.5) == pytest.approx(1 / (0.5 + math.log(2)), rel=1e-12)
        assert th.tau_hat(0.2) == pytest.approx(2.36326, abs=1e-5)
        assert th.tau_hat(0.999) < 0.13

    @given(interior_p)
    @settings(max_examples=300)
    def test_identity_with_tau(self, p):
        assert th.tau_hat(p) * 2 * p == pytest.approx(th.tau(p), rel=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                th.tau_hat(bad)


OPEN_P = {
    "tau_hat": th.tau_hat,
    "alpha_n": lambda p: th.alpha_n(100, 5, p),
    "cross_moment_ratio_bound": lambda p: th.cross_moment_ratio_bound(100, 5, p),
}


@pytest.mark.parametrize("p", [0, 1, 1.5, True, "0.3"])
@pytest.mark.parametrize("name", OPEN_P)
def test_open_interval_p_rejected(name, p):
    # the forms with log(1-p) or 1/(1-p) take p in (0, 1) only, as a real number
    with pytest.raises(ValueError, match="p must be"):
        OPEN_P[name](p)


# each call passes every check but one real-number or integer rule
NOT_REAL = {
    "theory_report p='0.3'": lambda: th.theory_report(100, 5, "0.3"),
    "tau p=True": lambda: th.tau(True),
    "tau p='0.3'": lambda: th.tau("0.3"),
    "estar_chernoff t='0.5'": lambda: th.estar_chernoff(5, 2, 2, "0.5"),
    "estar_mean r=2.5": lambda: th.estar_mean(5, 2.5, 2),
    "connected_subset_bound r=2.5": lambda: th.connected_subset_bound(5, 2.5, 2, 0.5),
}


@pytest.mark.parametrize("case", NOT_REAL)
def test_number_type_rejected(case):
    with pytest.raises(ValueError, match="must be a real number|must be an integer"):
        NOT_REAL[case]()


class TestScalingCn:
    def test_algebraic_inverse(self):
        n, K = 100, 5
        p = math.log(n) / (2 * K - K * K / (n - 1))
        assert th.scaling_c_n(n, K, p) == pytest.approx(1.0, rel=1e-12)

    def test_value(self):
        assert th.scaling_c_n(200, 12, 0.2) == pytest.approx(0.87864, abs=1e-5)

    @given(st.integers(min_value=3, max_value=500),
           st.integers(min_value=1, max_value=499), interior_p)
    @settings(max_examples=200)
    def test_round_trip_identity(self, n, K, p):
        if K >= n:
            return
        c = th.scaling_c_n(n, K, p)
        assert c * math.log(n) / p + K * K / (n - 1) == pytest.approx(
            2 * K, rel=1e-12)

    @given(st.integers(min_value=3, max_value=500),
           st.integers(min_value=1, max_value=499), interior_p)
    @settings(max_examples=200)
    def test_pk_sandwich(self, n, K, p):
        if K >= n:
            return
        c_logn = th.scaling_c_n(n, K, p) * math.log(n)
        assert c_logn / 2 <= p * K * (1 + 1e-12)
        assert p * K <= c_logn * (1 + 1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            th.scaling_c_n(2, 1, 0.5)


class TestAlpha:
    def test_value(self):
        assert th.alpha_n(200, 12, 0.2) == pytest.approx(0.36532, abs=1e-4)

    @given(st.integers(min_value=3, max_value=300),
           st.integers(min_value=1, max_value=299), interior_p)
    @settings(max_examples=200)
    def test_key_term_nonpositive(self, n, K, p):
        if K >= n:
            return
        assert K * (p + math.log1p(-p)) <= 0.0

    def test_approximates_log_expected_isolated(self):
        # at large n, alpha ~ log(n * isolation_prob)
        n, p = 100_000, 0.2
        K = round(th.predicted_threshold_K(n, p))
        exact = math.log(n * th.isolation_prob(n, K, p))
        assert abs(exact - th.alpha_n(n, K, p)) < 0.05


class TestIsolationProb:
    def test_n3_k1_exact(self):
        assert th.isolation_prob(3, 1, 0.5) == pytest.approx(0.375, rel=1e-12)
        oracle = exact_isolation_probability(3, 1, 0.5)
        assert float(oracle) == pytest.approx(0.375, rel=1e-12)

    @pytest.mark.parametrize("n,K,p", [(3, 1, 0.3), (4, 1, 0.5), (4, 2, 0.25),
                                       (5, 2, 0.5), (5, 1, 0.75)])
    def test_matches_enumeration(self, n, K, p):
        assert th.isolation_prob(n, K, p) == pytest.approx(
            float(exact_isolation_probability(n, K, p)), rel=1e-12)

    def test_k_max(self):
        assert th.isolation_prob(6, 5, 0.3) == pytest.approx(0.7 ** 5, rel=1e-12)

    def test_p1_zero(self):
        assert th.isolation_prob(3, 1, 1.0) == 0.0

    def test_strictly_decreasing_in_k_and_p(self):
        n = 30
        vals_k = [th.isolation_prob(n, K, 0.4) for K in range(1, n)]
        assert all(a > b for a, b in zip(vals_k, vals_k[1:]))
        vals_p = [th.isolation_prob(n, 3, p / 20) for p in range(1, 20)]
        assert all(a > b for a, b in zip(vals_p, vals_p[1:]))

    def test_limit_of_finite_n(self):
        # at fixed (K, p) the large-n limit is (1-p)^K e^(-pK)
        assert th.isolation_prob(1_000_000, 2, 0.5) == pytest.approx(
            0.25 * math.exp(-1), abs=1e-4)


class TestCrossMomentBound:
    def test_value(self):
        assert th.cross_moment_ratio_bound(5, 2, 0.5) == pytest.approx(
            2 * 0.25 + 0.75 ** -2, rel=1e-12)
        assert th.cross_moment_ratio_bound(5, 2, 0.5) == pytest.approx(
            2.27778, abs=1e-5)

    def test_limit_one(self):
        assert th.cross_moment_ratio_bound(10_000_000, 2, 0.3) == pytest.approx(
            1.0, abs=1e-5)

    def test_always_above_one(self):
        assert th.cross_moment_ratio_bound(50, 3, 0.4) > 1.0

    def test_p1_rejected(self):
        with pytest.raises(ValueError):
            th.cross_moment_ratio_bound(5, 2, 1.0)

    @staticmethod
    def exact_ratio(n, K, p):
        """E[chi_1 chi_2] / E[chi_1]^2 by enumerating every pairing."""
        return float(exact_pair_isolation_probability(n, K, p)
                     / exact_isolation_probability(n, K, p) ** 2)

    def test_pair_oracle_on_complete_graph(self):
        # K = n-1 keys every pair: 2n-3 pairs touch nodes 1 or 2, n-1 touch 1
        assert exact_pair_isolation_probability(5, 4, 0.3) == \
            exact_isolation_probability(5, 4, 0.3) ** 2 / (1 - Fraction(0.3))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_above_exact_ratio(self, n):
        for K in range(1, n):
            for p in (0.05, 0.1, 0.3, 0.5, 0.6, 0.9, 0.99):
                assert th.cross_moment_ratio_bound(n, K, p) > self.exact_ratio(n, K, p)

    def test_exact_ratio_values(self):
        # the bound is loose: 1.7412 and 4.7120 at these points
        assert self.exact_ratio(5, 2, 0.3) == pytest.approx(1.2812, abs=1e-4)
        assert self.exact_ratio(5, 3, 0.6) == pytest.approx(2.2598, abs=1e-4)


class TestEstar:
    def test_mean(self):
        assert th.estar_mean(5, 2, 2) == pytest.approx(3.0, rel=1e-12)

    def test_chernoff_at_small_t(self):
        assert th.estar_chernoff(5, 2, 2, 1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_chernoff_value(self):
        assert th.estar_chernoff(5, 2, 2, 0.5) == pytest.approx(
            math.exp(-0.375), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            th.estar_mean(5, 1, 2)
        with pytest.raises(ValueError):
            th.estar_chernoff(5, 2, 2, 1.0)


class TestConnectedSubsetBound:
    def test_r2_is_edge_prob(self):
        assert th.connected_subset_bound(5, 2, 2, 0.5) == pytest.approx(
            th.edge_prob(5, 2, 0.5), rel=1e-12)

    def test_value(self):
        assert th.connected_subset_bound(5, 3, 2, 0.5) == pytest.approx(
            3 * 0.375 ** 2, rel=1e-12)

    def test_may_exceed_one(self):
        assert th.connected_subset_bound(20, 10, 19, 1.0) > 1.0


class TestPredictedThresholdK:
    def test_values(self):
        assert th.predicted_threshold_K(200, 0.2) == pytest.approx(12.52, abs=0.01)
        assert th.predicted_threshold_K(200, 0.8) == pytest.approx(2.20, abs=0.01)

    def test_monotone_decreasing_in_p(self):
        vals = [th.predicted_threshold_K(200, p / 10) for p in range(1, 10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestTheoryReport:
    def test_fields_and_ranges(self):
        r = th.theory_report(200, 12, 0.2)
        for prob in (r.lambda_n, r.edge_prob, r.isolation_prob, r.tau):
            assert 0.0 <= prob <= 1.0
        assert r.tau_hat > 0.0
        assert r.cross_moment_bound > 1.0

    def test_json_serializable(self):
        r = th.theory_report(50, 5, 0.5)
        parsed = json.loads(json.dumps(r.to_dict()))
        assert parsed["n"] == 50 and parsed["K"] == 5
