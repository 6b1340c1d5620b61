"""genfun: leading index, companion radius, positivity, tail constants.

Derivative values are cross-checked against symbolic differentiation of
F(z) = sum_k u(-k) z^k (sympy), an oracle independent of the
falling-factorial evaluation under test.
"""

import math

import numpy as np
import pytest
import sympy

from alloymsa import (companion_radius, find_leading_index, genfun_derivative,
                      make_box, positivity_certificate, tail_bound)
from alloymsa.errors import AnalysisFailure, ParameterError
from alloymsa.genfun import leaked_mass_bound, shell_indices
from helpers import exact_potential, truncated_exponential_potential

DELTA0 = exact_potential({(0,): 1.0}, 1.0, 1.0)
PAIR = exact_potential({(0,): 1.0, (1,): -1.0}, 2.8, 1.0)


def monomial(k, I) -> float:
    """k^I = prod_r k_r^{i_r}, with 0^0 = 1."""
    out = 1.0
    for c, i in zip(k, I):
        out *= float(c) ** i if i else 1.0
    return out


def sympy_derivative(u, I):
    """Symbolic (D^I F)(1) for a finitely supported potential."""
    d = u.dimension
    zs = sympy.symbols(f"z0:{d}", positive=True)
    F = sympy.Integer(0)
    for k, v in u.values.items():
        term = sympy.Rational(1)
        for r in range(d):
            term *= zs[r] ** (-k[r])
        F += sympy.nsimplify(v, rational=True) * term
    for r, i in enumerate(I):
        F = sympy.diff(F, zs[r], i)
    return float(F.subs({z: 1 for z in zs}))


class TestGenfunDerivative:
    def test_delta0_order0(self):
        value, err = genfun_derivative(DELTA0, (0,))
        assert value == 1.0 and err == 0.0

    def test_pair_mean_zero(self):
        value, err = genfun_derivative(PAIR, (0,))
        assert value == 0.0 and err == 0.0

    def test_pair_first_derivative(self):
        value, _ = genfun_derivative(PAIR, (1,))
        assert value == pytest.approx(1.0)

    @pytest.mark.parametrize("I", [(0,), (1,), (2,), (3,)])
    def test_1d_against_sympy(self, I):
        u = exact_potential({(-2,): 0.05, (0,): 1.0, (1,): -0.3, (3,): 0.02},
                            2.0, 0.7)
        value, _ = genfun_derivative(u, I)
        assert value == pytest.approx(sympy_derivative(u, I), abs=1e-10)

    @pytest.mark.parametrize("I", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)])
    def test_2d_against_sympy(self, I):
        u = exact_potential(
            {(0, 0): 1.0, (1, 0): -1.0, (0, 1): 0.25, (-1, 1): -0.25},
            2.8, 1.0)
        value, _ = genfun_derivative(u, I)
        assert value == pytest.approx(sympy_derivative(u, I), abs=1e-10)

    def test_truncated_error_bound_dominates(self):
        # the certified bound must cover the entries a coarser truncation drops
        fine = truncated_exponential_potential(
            1, 1.0, 1.0, 60, lambda k: np.exp(-abs(k[0])) * np.cos(1.7 * k[0]))
        coarse = truncated_exponential_potential(
            1, 1.0, 1.0, 12, lambda k: np.exp(-abs(k[0])) * np.cos(1.7 * k[0]))
        for I in [(0,), (1,), (2,)]:
            v_fine, _ = genfun_derivative(fine, I)
            v_coarse, err = genfun_derivative(coarse, I)
            assert abs(v_fine - v_coarse) <= err

    @pytest.mark.parametrize("I", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])
    @pytest.mark.parametrize("sides", [(1.0, 1.0), (0.5, -0.5)],
                             ids=["even", "one-sided"])
    def test_2d_truncated_error_bound_dominates(self, sides, I):
        # the entries between radius 2 and 25 that the coarse table drops
        # (past 25 they are below 1e-10 of the sum); on the even profile
        # the odd derivatives vanish, and at I = (0, 0) the difference is
        # 0.96 of the bound; on the one-sided one none vanishes
        def profile(k):
            scale = (1.0 if k[0] >= 0 else sides[0]) * \
                (1.0 if k[1] >= 0 else sides[1])
            return scale * math.exp(-abs(k[0]) - abs(k[1]))

        fine = truncated_exponential_potential(2, 1.0, 1.0, 25, profile)
        coarse = truncated_exponential_potential(2, 1.0, 1.0, 2, profile)
        v_fine, _ = genfun_derivative(fine, I)
        v_coarse, err = genfun_derivative(coarse, I)
        assert abs(v_fine - v_coarse) <= err


class TestFindLeadingIndex:
    def test_positive_mean_gives_zero_index(self):
        u = exact_potential({(0,): 0.8, (2,): 0.1, (-1,): 0.05}, 2.8, 1.0)
        lead = find_leading_index(u)
        assert lead.leading == (0,)
        assert lead.c_u == pytest.approx(u.mean_value)

    def test_delta0(self):
        lead = find_leading_index(DELTA0)
        assert lead.leading == (0,) and lead.c_u == 1.0

    def test_mean_zero_pair(self):
        lead = find_leading_index(PAIR)
        assert lead.leading == (1,) and lead.c_u == pytest.approx(1.0)

    def test_2d_lexicographic_tie_break(self):
        # F = 1 - (z1 z2)^{-1}: both shell-1 derivatives nonzero, (0,1) first
        u = exact_potential({(0, 0): 1.0, (1, 1): -1.0}, 7.4, 1.0)
        lead = find_leading_index(u)
        assert lead.leading == (0, 1)
        assert lead.c_u == pytest.approx(1.0)

    def test_shell_scan_minimality(self):
        # everything strictly below I0 is recorded as zero within tolerance
        u = exact_potential({(0,): 1.0, (1,): -2.0, (2,): 1.0}, 7.4, 1.0)
        lead = find_leading_index(u)
        assert lead.leading == (2,)
        for idx, (value, err) in lead.derivative_table.items():
            if sum(idx) < lead.order:
                assert abs(value) <= err + lead.zero_tolerance

    def test_shell_cap_failure(self):
        # the 13th difference: every derivative below order 13 vanishes
        # exactly, so the leading index lies past shell SHELL_CAP = 12
        u = exact_potential({(k,): (-1) ** k * math.comb(13, k)
                             for k in range(14)}, 5000.0, 0.1)
        assert genfun_derivative(u, (13,))[0] != 0.0
        with pytest.raises(AnalysisFailure):
            find_leading_index(u)

    @pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf])
    def test_tolerance_finite_and_nonnegative(self, tolerance):
        # a negative tolerance would certify a derivative as nonzero inside
        # its own error bound
        with pytest.raises(ParameterError, match="zero_tolerance"):
            find_leading_index(PAIR, tolerance)
        assert find_leading_index(PAIR, 0.0).leading == (1,)

    def test_shell_enumeration(self):
        assert list(shell_indices(2, 2)) == [(0, 2), (1, 1), (2, 0)]


class TestCompanionRadius:
    def test_reference_value(self):
        lead = find_leading_index(DELTA0)
        assert companion_radius(DELTA0, lead, 5.0) == pytest.approx(15.449, abs=1e-3)

    def test_linear_in_l(self):
        lead = find_leading_index(DELTA0)
        r5 = companion_radius(DELTA0, lead, 5.0)
        r6 = companion_radius(DELTA0, lead, 6.0)
        assert r6 - r5 == pytest.approx(2.0)

    def test_square_branch(self):
        u = exact_potential({(0,): 1.0}, 1.0, 4.0)
        lead = find_leading_index(u)
        r = companion_radius(u, lead, 0.1)
        log_branch = 0.2 + 0.5 * math.log(6.0 / (1.0 - math.exp(-2.0)))
        assert r == pytest.approx(max(log_branch, 0.5))


class TestPositivityCertificate:
    def test_delta0(self):
        lead = find_leading_index(DELTA0)
        rep = positivity_certificate(DELTA0, lead, 4.0)
        assert rep.holds and rep.min_value == pytest.approx(2.0)

    def test_pair_telescoping(self):
        lead = find_leading_index(PAIR)
        rep = positivity_certificate(PAIR, lead, 3.0)
        assert rep.holds and rep.min_value == pytest.approx(2.0)

    def test_truncated_exponential(self):
        u = truncated_exponential_potential(1, 1.0, 1.0, 40,
                                            lambda k: np.exp(-abs(k[0])))
        lead = find_leading_index(u)
        rep = positivity_certificate(u, lead, 4.0)
        assert rep.holds and rep.min_value >= 1.0

    def test_proposition1_exactness(self):
        # finitely supported u, K >= ||x||_inf + support radius: partial sums hit
        # c_u at I = I0 and 0 for I < I0, exactly
        u = exact_potential({(0,): 1.0, (1,): -2.0, (2,): 1.0}, 7.4, 1.0)
        lead = find_leading_index(u)
        K = 5 + u.truncation_radius
        box = make_box((0,), float(K))
        for x in range(-5, 6):
            for I in [idx for n in range(lead.order + 1)
                      for idx in shell_indices(1, n)]:
                total = math.fsum(
                    monomial(k, I) * u.values.get((int(x - k[0]),), 0.0)
                    for k in box.points
                )
                if I == lead.leading:
                    assert total == pytest.approx(lead.c_u, abs=1e-10)
                else:
                    assert abs(total) < 1e-10


class TestTailBound:
    def test_constant(self):
        assert tail_bound(DELTA0, 1.0, 0.0) == pytest.approx(4.0830, abs=1e-4)

    def test_no_decay_at_zero(self):
        assert tail_bound(DELTA0, 5.0, 0.0) == tail_bound(DELTA0, 0.0, 0.0)

    def test_reference_decay(self):
        assert tail_bound(DELTA0, 1.0, 6.0) == pytest.approx(0.2033, abs=1e-4)

    def test_dominates_exact_tail(self):
        rng = np.random.default_rng(momentum := 41)
        u = truncated_exponential_potential(
            1, 1.0, 0.9, 80, lambda k: np.exp(-0.9 * abs(k[0])) *
            (1 if k[0] % 2 == 0 else -1))
        for _ in range(200):
            l = float(rng.integers(1, 6))
            lp = float(rng.integers(0, 15))
            x = int(rng.integers(-l, l + 1))
            exact = sum(abs(v) for k, v in u.values.items()
                        if abs(x - k[0]) > l + lp)
            assert exact <= tail_bound(u, l, lp) + 1e-12

    def test_leaked_mass_compact_support(self):
        box = make_box((0,), 2.0)
        assert leaked_mass_bound(PAIR, box, 8.0) == 0.0

