"""wegner: constant chain, partial-expectation MC, bound validity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alloymsa import (Configuration, eigensolve, estimate_partial_expectation,
                      find_leading_index, make_box, mc, restrict_hamiltonian,
                      uniform_density, wegner_bound, wegner_constant_chain)
from alloymsa.errors import ParameterError
from alloymsa.genfun import companion_radius
from alloymsa.wegner import _abs_monomial_box_sum, _power_sum, chain_formula
from helpers import exact_potential

DELTA0 = exact_potential({(0,): 1.0}, 1.0, 1.0)
PAIR = exact_potential({(0,): 1.0, (1,): -1.0}, 2.8, 1.0)
UNIFORM = uniform_density(0.0, 1.0)
# finite-support potentials with their leading index I0 and c_u
P2 = exact_potential({(0, 0): 1.0, (1, 0): -0.6, (0, 1): -0.3,
                      (1, 1): 0.05}, 2.0, 1.0)
DIPOLE_2D = exact_potential({(0, 0): 1.0, (1, 0): -1.0}, 2.8, 1.0)
MECHANISM = {"P2": (P2, (0, 0), 0.15), "dipole": (DIPOLE_2D, (1, 0), 1.0)}


class TestConstantChain:
    def test_delta0_formula(self):
        lead = find_leading_index(DELTA0)
        R = companion_radius(DELTA0, lead, 2.0)
        chain = wegner_constant_chain(DELTA0, lead, 2.0)
        assert chain == pytest.approx(2 * 5 * (2 * math.floor(R) + 1))

    def test_order_zero_is_point_count_product(self):
        u = exact_potential({(0,): 0.9, (1,): 0.05}, 2.8, 1.0)
        lead = find_leading_index(u)
        assert lead.leading == (0,)
        l = 3.0
        R = companion_radius(u, lead, l)
        chain = wegner_constant_chain(u, lead, l)
        expect = 2.0 * 7 * (2 * math.floor(R) + 1) / abs(lead.c_u)
        assert chain == pytest.approx(expect)

    def test_first_order_enumeration(self):
        # I0 = (1): sum over Lambda_3 of |k| = 12, box Lambda_1 has 3 points
        lead = find_leading_index(PAIR)
        # companion radius for PAIR exceeds 3; recompute with the formula
        from alloymsa.wegner import _abs_monomial_box_sum
        assert _abs_monomial_box_sum(3.0, 1, (1,)) == 12.0
        chain = wegner_constant_chain(PAIR, lead, 1.0)
        R = companion_radius(PAIR, lead, 1.0)
        assert chain == pytest.approx(
            2.0 * 3 * _abs_monomial_box_sum(R, 1, (1,)) / abs(lead.c_u))

    @pytest.mark.parametrize("u,l", [(DELTA0, 2.0), (PAIR, 1.0), (PAIR, 2.5)])
    def test_certified_chain_is_the_formula(self, u, l):
        lead = find_leading_index(u)
        assert wegner_constant_chain(u, lead, l) == chain_formula(u, lead, l)

    def test_formula_at_unenumerable_scale(self):
        # (2 L + 1)^2 ~ 4e14 sites: the formula stays arithmetic
        u = exact_potential({(0, 0): 1.0, (1, 0): -0.6, (0, 1): -0.3,
                             (1, 1): 0.05}, 2.0, 1.0)
        lead = find_leading_index(u)
        L = 1e7
        R = companion_radius(u, lead, L)
        expect = (2.0 / abs(lead.c_u)) * (2 * 10**7 + 1) ** 2 \
            * (2 * math.floor(R) + 1) ** 2
        assert chain_formula(u, lead, L) == pytest.approx(expect, rel=1e-12)



class TestShiftAlongLeadingMonomial:
    # the proof's mechanism in operator form: for finite-support u and
    # Gamma = Lambda_R with R >= l + r, sum_{k in Gamma} k^{I0} u(x - k) =
    # c_u at every x in Lambda_l, so adding s k^{I0} to every coupling k
    # in Gamma moves every eigenvalue of h^l by s c_u
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(MECHANISM)), l=st.integers(1, 4),
           extra=st.integers(0, 2), s=st.floats(-1.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_every_eigenvalue_moves_by_s_c_u(self, name, l, extra, s, seed):
        u, I0, c_u = MECHANISM[name]
        lead = find_leading_index(u)
        assert lead.leading == I0 and lead.c_u == pytest.approx(c_u)
        gamma = make_box((0, 0), l + u.truncation_radius + extra)
        # couplings outside Gamma are drawn too, and stay frozen
        domain = make_box((0, 0), gamma.half_side + 2.0)
        couplings = np.random.default_rng(seed).uniform(0.0, 1.0, domain.count)
        shift = s * np.prod(domain.points ** np.asarray(I0), axis=1) \
            * gamma.contains_points(domain.points)
        box = make_box((0, 0), l)
        before, after = (eigensolve(restrict_hamiltonian(
            u, Configuration(domain, w), box)).eigenvalues
            for w in (couplings, couplings + shift))
        assert np.max(np.abs(after - before - s * lead.c_u)) <= 1e-10


class TestAbsMonomialBoxSum:
    @pytest.mark.parametrize("i", range(5))
    def test_matches_array_sum(self, i):
        for R in range(2001):
            got = _abs_monomial_box_sum(R + 0.5, 1, (i,))
            if i == 0:
                assert got == 2 * R + 1
            else:
                ref = 2.0 * np.sum(np.arange(1, R + 1, dtype=float) ** i)
                assert got == pytest.approx(ref, rel=1e-15, abs=0.0)
            if R <= 50:
                assert _power_sum(R, i) == sum(k**i for k in range(1, R + 1))

    def test_huge_radius_in_constant_memory(self):
        n = 10**12
        tracemalloc.start()
        try:
            got = _abs_monomial_box_sum(1e12, 2, (1, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        s1 = n * (n + 1) // 2
        s4 = n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1) // 30
        assert got == pytest.approx(4.0 * s1 * s4, rel=1e-15)

    def test_overflow_is_infinite(self):
        # 2 sum k^30 over 1..1e12 is ~1e348, past the float range
        assert _abs_monomial_box_sum(1e12, 1, (30,)) == math.inf

class TestPartialExpectation:
    def test_interval_below_spectrum(self):
        lead = find_leading_index(DELTA0)
        [(mean, err)] = estimate_partial_expectation(
            DELTA0, lead, UNIFORM, 2.0, (-50.0, -10.0), 0, 50, seed=1)
        assert mean == 0.0 and err == 0.0

    def test_full_range_completeness(self):
        lead = find_leading_index(DELTA0)
        [(mean, err)] = estimate_partial_expectation(
            DELTA0, lead, UNIFORM, 2.0, (-100.0, 100.0), 0, 50, seed=2)
        assert mean == 5.0 and err == 0.0

    def test_deterministic_in_seed(self):
        lead = find_leading_index(DELTA0)
        a = estimate_partial_expectation(DELTA0, lead, UNIFORM, 3.0,
                                         (1.9, 2.1), 0, 60, seed=9)
        b = estimate_partial_expectation(DELTA0, lead, UNIFORM, 3.0,
                                         (1.9, 2.1), 0, 60, seed=9)
        assert a == b

    def test_thread_invariance(self):
        lead = find_leading_index(DELTA0)
        a = estimate_partial_expectation(DELTA0, lead, UNIFORM, 3.0,
                                         (1.9, 2.1), 0, 60, seed=9,
                                         threads=1)
        b = estimate_partial_expectation(DELTA0, lead, UNIFORM, 3.0,
                                         (1.9, 2.1), 0, 60, seed=9,
                                         threads=4)
        assert a == b


class TestIntervalChecked:
    @pytest.mark.parametrize("interval", [
        (1.0, 2.0, 3.0), (1.0,), 2.0, ("1", 2.0), (math.nan, 2.0),
        (1.0, math.nan), (1.0, math.inf), (-math.inf, 1.0), (2.1, 1.9)])
    def test_rejected_before_any_trial(self, interval, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(mc, "run_trials", no_trials)
        lead = find_leading_index(DELTA0)
        with pytest.raises(ParameterError):
            estimate_partial_expectation(DELTA0, lead, UNIFORM, 2.0, interval,
                                         0, 10, seed=1)
        with pytest.raises(ParameterError):
            wegner_bound(DELTA0, lead, UNIFORM, 2.0, interval)

    @pytest.mark.parametrize("exteriors", [-1, 1.5, 2.0, True, "2", None])
    def test_exteriors_rejected_before_any_trial(self, exteriors,
                                                 monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(mc, "run_trials", no_trials)
        lead = find_leading_index(DELTA0)
        with pytest.raises(ParameterError, match="exteriors"):
            estimate_partial_expectation(DELTA0, lead, UNIFORM, 2.0,
                                         (1.9, 2.1), exteriors, 10, seed=1)

    def test_integer_endpoints_accepted(self):
        lead = find_leading_index(DELTA0)
        ints = estimate_partial_expectation(DELTA0, lead, UNIFORM, 2.0, [1, 3],
                                            0, 20, seed=1)
        floats = estimate_partial_expectation(DELTA0, lead, UNIFORM, 2.0,
                                              (1.0, 3.0), 0, 20, seed=1)
        assert ints == floats


class TestBound:
    def test_empty_interval(self):
        lead = find_leading_index(DELTA0)
        rep = wegner_bound(DELTA0, lead, UNIFORM, 2.0, (2.0, 2.0))
        assert rep.bound == 0.0

    def test_linearity_in_interval(self):
        lead = find_leading_index(DELTA0)
        r1 = wegner_bound(DELTA0, lead, UNIFORM, 2.0, (2.0, 2.1))
        r2 = wegner_bound(DELTA0, lead, UNIFORM, 2.0, (2.0, 2.2))
        assert r2.bound == pytest.approx(2 * r1.bound)

    def test_plugin_value(self):
        lead = find_leading_index(DELTA0)
        rep = wegner_bound(DELTA0, lead, UNIFORM, 4.0, (1.9, 2.1))
        assert rep.bound == pytest.approx(0.5 * 2.0 * 0.2 * rep.c_w_chain,
                                          rel=1e-12)

    @pytest.mark.parametrize("u", [DELTA0, PAIR], ids=["delta0", "mean-zero"])
    def test_mc_bound_validity_quick(self, u):
        lead = find_leading_index(u)
        [(mean, stderr)] = estimate_partial_expectation(
            u, lead, UNIFORM, 3.0, (1.9, 2.1), 0, 300, seed=13)
        rep = wegner_bound(u, lead, UNIFORM, 3.0, (1.9, 2.1))
        assert mean - 3 * stderr <= rep.bound

    def test_frozen_exterior_uniformity_quick(self):
        lead = find_leading_index(PAIR)
        l = 3.0
        estimates = estimate_partial_expectation(
            PAIR, lead, UNIFORM, l, (1.9, 2.1), 3, 200, seed=14)
        rep = wegner_bound(PAIR, lead, UNIFORM, l, (1.9, 2.1))
        assert len(estimates) == 3
        for mean, stderr in estimates:
            assert mean - 3 * stderr <= rep.bound
