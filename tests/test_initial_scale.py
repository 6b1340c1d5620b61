"""initial_scale: beta_0, Assumption-3 bookkeeping, Lifshitz and
large-disorder probes; the closed-form Neumann gap against the dense
eigensolve."""

import math
import sys

import mpmath
import numpy as np
import pytest

from alloymsa import (Box, Configuration, eigensolve, find_leading_index,
                      make_box, uniform_density)
from alloymsa.errors import ParameterError
from alloymsa.initial_scale import (admissible_lengths, beta_floor,
                                    large_disorder_probe, lifshitz_probe,
                                    odd_tiling)
from alloymsa.lattice import BoxOperator, SingleSitePotential
from helpers import exact_potential, neighbor_counts

UNIFORM = uniform_density(0.0, 1.0)


def neg_tail_potential(delta_mass: float, alpha: float = 4.0, radius: int = 6):
    """delta_0 plus an exponentially small negative tail of mass delta_mass."""
    vals = {(0,): 1.0}
    Z = sum(math.exp(-alpha * abs(k)) for k in range(-radius, radius + 1)
            if k != 0)
    for k in range(-radius, radius + 1):
        if k != 0:
            vals[(k,)] = -delta_mass * math.exp(-alpha * abs(k)) / Z
    return exact_potential(vals, 1.0, alpha)


def free_neumann_operator(box):
    """The free Neumann operator: the graph Laplacian of the box, whose
    diagonal counts each site's neighbours inside the box."""
    return BoxOperator(box, neighbor_counts(box))


def free_neumann_lambda2(box: Box) -> float:
    """Second eigenvalue of the free Neumann operator on a box, in closed form.

    The operator is the tensor sum of one-dimensional Neumann paths, and
    the path on n sites has lambda_2 = 2 - 2cos(pi/n); the value is the
    smallest of these over the axes with at least two sites (a one-site
    axis adds only the eigenvalue 0).  A one-point box has no lambda_2.
    """
    gaps = [2.0 - 2.0 * math.cos(math.pi / n) for n in box.shape if n > 1]
    if not gaps:
        raise ParameterError("a one-point box has no second Neumann eigenvalue")
    return min(gaps)


def neumann_gap(l: float, d: int) -> tuple[float, float]:
    """(formula, exact): the paper's 2 - 2cos(pi/l) against the closed-form
    lambda_2 of the free Neumann operator on Lambda_l (2 floor(l) + 1 sites
    per side).

    The two differ by a site-count convention; the formula dominates
    4 l^{-2} (with equality at l = 1), the exact value does not.
    """
    if l < 1:
        raise ParameterError("l must be >= 1")
    formula = 2.0 - 2.0 * math.cos(math.pi / l)
    exact = free_neumann_lambda2(make_box((0,) * d, l))
    return formula, exact


class TestNeumannGap:
    def test_formula_dominates_4_l2(self):
        for l in range(1, 201):
            formula, _ = neumann_gap(float(l), 1)
            assert formula >= 4.0 / l**2 - 1e-12

    def test_strict_only_fails_at_one(self):
        formula, _ = neumann_gap(1.0, 1)
        assert formula == pytest.approx(4.0)
        formula2, _ = neumann_gap(2.0, 1)
        assert formula2 > 1.0

    def test_exact_closed_form(self):
        _, exact = neumann_gap(3.0, 1)
        assert exact == pytest.approx(2 - 2 * math.cos(math.pi / 7), abs=1e-10)

    def test_kernel_with_constant_vector(self):
        op = free_neumann_operator(make_box((0,), 3.0))
        res = eigensolve(op, vectors=1)
        assert abs(res.eigenvalues[0]) < 1e-12
        v = res.eigenvectors[:, 0]
        assert np.max(np.abs(v - v[0])) < 1e-9

    def test_2d_matches_1d(self):
        assert free_neumann_lambda2(make_box((0, 0), 2.0)) == pytest.approx(
            free_neumann_lambda2(make_box((0,), 2.0)))

    # (1, 2) and (1, 1, 2) have one-site axes; no cube has shape (1, 1, 3),
    # since a side 2l holding 3 integers holds at least 2 on every axis
    @pytest.mark.parametrize("box", [
        *(Box(((n - 1) / 2.0,), (n - 1) / 2.0 + 0.25) for n in range(2, 61)),
        Box((0.5, 0), 1.0),
        Box((0, 0.5), 0.5),
        Box((0, 0, 0.5), 0.5),
    ], ids=lambda b: "x".join(map(str, b.shape)))
    def test_closed_form_matches_dense_eigensolve(self, box):
        dense = eigensolve(free_neumann_operator(box)).eigenvalues[1]
        assert free_neumann_lambda2(box) == pytest.approx(dense, abs=1e-12)

    @pytest.mark.parametrize("center", [(0,), (0, 0), (0, 0, 0)])
    def test_one_point_box_has_no_lambda2(self, center):
        box = Box(center, 0.5)
        assert box.count == 1
        with pytest.raises(ParameterError):
            free_neumann_lambda2(box)


class TestTempleLowerBound:
    """Checks kept from the Temple route: the Assumption-3 negative mass,
    which `lifshitz_probe` still checks, and the coupling-monotonicity of
    `assemble_potential` that its truncation used."""

    def test_negative_mass_includes_residual(self):
        u = neg_tail_potential(1e-6)
        cut = SingleSitePotential(dict(u.values), u.decay_C, u.decay_alpha,
                                  u.truncation_radius, 1e-5)
        assert cut.negative_mass == pytest.approx(1e-6 + 1e-5, rel=1e-12)

    def test_truncation_shift_bound(self):
        # replacing w by min(w, cutoff) moves v by at most l^-2/(8 beta)
        rng = np.random.default_rng(52)
        l, beta = 8.0, 18.0
        u = neg_tail_potential(0.5 * l**-2 / (8 * beta))
        cutoff = 8.0 * l**-2 / (beta * u.l1_norm)
        box = make_box((0,), l)
        dom = make_box((0,), l + u.truncation_radius + 0.25)
        from alloymsa import assemble_potential
        for _ in range(20):
            vals = UNIFORM.sample(rng, dom.count)
            v_full = assemble_potential(u, Configuration(dom, vals), box)
            v_trunc = assemble_potential(
                u, Configuration(dom, np.minimum(vals, cutoff)), box)
            assert np.max(v_trunc - v_full) <= l**-2 / (8 * beta) + 1e-15


class TestBetaFloor:
    def test_formula(self):
        u = neg_tail_potential(1e-8)
        assert beta_floor(u) == pytest.approx(
            65 / 32 + 8 * u.l1_norm / (u.mean_value - u.truncation_residual))


class TestAdmissibleLengths:
    def test_quotient_three(self):
        u = neg_tail_potential(1e-9)
        beta0 = beta_floor(u)
        ls = admissible_lengths(1.0, beta0, 15, 45)
        assert ls, "expected admissible lengths in [15, 45]"
        for l in ls:
            a = 2 * l + 1
            b = math.floor(2 * l ** 0.5 / math.sqrt(beta0) + 1)
            assert a % b == 0 and (a // b) % 2 == 1

    def test_even_quotient_rejected(self):
        # beta0 = 4, zeta = 1: l_tilde = sqrt(l)/2; l = 12 gives
        # floor(2*sqrt(12)/2+1) = 4 and 25 % 4 != 0 -> not admissible
        assert 12 not in admissible_lengths(1.0, 4.0, 10, 14)

    def test_scan_nonempty(self):
        assert len(admissible_lengths(1.0, 4.0, 10, 500)) > 0

    def test_bad_range(self):
        with pytest.raises(ParameterError):
            admissible_lengths(1.0, 4.0, 10, 10)

    @pytest.mark.parametrize("zeta", [0.0, 2.0, math.nan, -math.inf])
    def test_zeta_outside_rejected(self, zeta):
        # l^{1 - zeta/2} is the sub-cube side only for zeta in (0, 2); a NaN
        # or infinite exponent would reach math.floor
        with pytest.raises(ParameterError, match="zeta"):
            admissible_lengths(zeta, 4.0, 10, 14)


class TestLifshitzProbe:
    def _setup(self, l=None):
        probe = neg_tail_potential(1e-9)
        beta0 = beta_floor(probe)
        ls = admissible_lengths(1.0, beta0, 15, 45)
        l = float(ls[0]) if l is None else l
        delta = l ** (1.0 - 2.0) / (8.0 * UNIFORM.omega_plus)
        return neg_tail_potential(0.5 * delta), l

    def test_probe_within_chain_bound(self):
        u, l = self._setup()
        rep = lifshitz_probe(u, UNIFORM, l, 1.0, 2.0, 1 / 12, trials=60, seed=4)
        assert rep.p_emp <= rep.chain_bound + 3 * rep.std_error + 1e-12
        # the derived values it reports
        assert rep.beta0 == beta_floor(u)
        assert rep.delta == l ** -1.0 / 8.0
        assert u.negative_mass <= rep.delta

    def test_point_mass_high_coupling(self):
        # all couplings pinned near 1: lambda_1 stays above the threshold
        spike = uniform_density(1.0 - 2.0**-20, 1.0)
        u, l = self._setup()
        rep = lifshitz_probe(u, spike, l, 1.0, 2.0, 0.5, trials=20, seed=5)
        assert rep.p_emp == 0.0

    def test_inadmissible_l_rejected(self):
        u, l = self._setup()
        bad = l + 1
        if odd_tiling(bad, 1.0, beta_floor(u)) is not None:
            bad += 1
        with pytest.raises(ParameterError, match="odd-tiling"):
            lifshitz_probe(u, UNIFORM, float(bad), 1.0, 2.0, 1 / 12,
                           trials=5, seed=6)

    def test_epsilon0_check(self):
        u, l = self._setup()
        with pytest.raises(ParameterError, match="exceeds 1/12"):
            lifshitz_probe(u, UNIFORM, l, 1.0, 2.0, epsilon0=0.5, trials=5,
                           seed=7)

    @pytest.mark.parametrize("zeta, xi, epsilon0, message", [
        (0.0, 2.0, 1 / 12, "zeta"), (2.0, 2.0, 1 / 12, "zeta"),
        (math.nan, 2.0, 1 / 12, "zeta"), (1.0, 0.0, 1 / 12, "xi"),
        (1.0, 2.0, 0.0, "epsilon0"), (1.0, math.nan, 1 / 12, "xi"),
        (1.0, 2.0, math.nan, "epsilon0")])
    def test_parameter_checks(self, zeta, xi, epsilon0, message):
        u, l = self._setup()
        with pytest.raises(ParameterError, match=message):
            lifshitz_probe(u, UNIFORM, l, zeta, xi, epsilon0, trials=5, seed=8)

    def test_non_integer_l_tiles_its_box(self):
        # Lambda_1.5 has 3 sites per axis, and b = floor(2 sqrt(1.5 / beta0)
        # + 1) = 1 with beta0 = 65/32 + 8: three unit sub-cubes
        u = exact_potential({(0,): 1.0}, 1.0, 1.0)
        assert make_box((0,), 1.5).count == 3
        rep = lifshitz_probe(u, UNIFORM, 1.5, 1.0, 2.0, 1 / 12, trials=2,
                             seed=10)
        assert rep.n_subcubes == 3

    def test_probe_accepts_what_the_predicate_accepts(self):
        # l in [1, 60] by 0.1: the probe runs exactly where `odd_tiling`
        # holds, and its n odd sub-cubes of side b fill 2 floor(l) + 1 sites
        u = exact_potential({(0,): 1.0}, 1.0, 1.0)
        beta0 = beta_floor(u)
        verdicts = []
        for l in (k / 10 for k in range(10, 601)):
            n = odd_tiling(l, 1.0, beta0)
            verdicts.append(n is not None)
            if n is None:
                with pytest.raises(ParameterError, match="odd-tiling"):
                    lifshitz_probe(u, UNIFORM, l, 1.0, 2.0, 1 / 12, trials=1,
                                   seed=11)
                continue
            rep = lifshitz_probe(u, UNIFORM, l, 1.0, 2.0, 1 / 12, trials=1,
                                 seed=11)
            b = math.floor(2 * math.sqrt(l) / math.sqrt(beta0) + 1)
            assert rep.n_subcubes == n and n % 2 == 1
            assert n * b == 2 * math.floor(l) + 1
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("l", [0.0, -2.0, math.inf, math.nan])
    def test_box_rejects_bad_l(self, l):
        # delta = l^{zeta-2} / (8 w+) is only formed for a box's l
        u, _ = self._setup()
        with pytest.raises(ParameterError, match="half_side"):
            lifshitz_probe(u, UNIFORM, l, 1.0, 2.0, 1 / 12, trials=5, seed=9)


class TestLargeDisorderProbe:
    def test_linearity_and_inversion(self):
        u = neg_tail_potential(1e-9)
        lead = find_leading_index(u)
        rep = large_disorder_probe(u, UNIFORM, lead, l0=8.0, m0=0.3, xi=4.0)
        # printed +exponent variant cannot close; the corrected one defines
        # the admissible BV norm by linear inversion
        assert rep.rhs_printed > rep.target
        assert rep.max_bv_negative_exponent > 0
        w = 2.0 / (rep.max_bv_negative_exponent * 0.999)
        small_bv = uniform_density(0.0, w)
        rep2 = large_disorder_probe(u, small_bv, lead, l0=8.0, m0=0.3, xi=4.0)
        assert rep2.satisfies_negative_exponent
        w_bad = 2.0 / (rep.max_bv_negative_exponent * 1.001)
        rep3 = large_disorder_probe(u, uniform_density(0.0, w_bad), lead,
                                    l0=8.0, m0=0.3, xi=4.0)
        assert not rep3.satisfies_negative_exponent

    def test_monotone_in_bv(self):
        u = neg_tail_potential(1e-9)
        lead = find_leading_index(u)
        reps = [large_disorder_probe(u, uniform_density(0.0, w), lead,
                                     l0=8.0, m0=0.3, xi=4.0)
                for w in (10.0, 100.0, 1000.0)]
        rhs = [r.rhs_negative_exponent for r in reps]
        assert rhs[0] > rhs[1] > rhs[2]

    @pytest.mark.parametrize("m0, xi", [(math.nan, 4.0), (0.3, math.nan),
                                        (0.0, 4.0), (0.3, -1.0)])
    def test_parameter_checks(self, m0, xi):
        u = neg_tail_potential(1e-9)
        with pytest.raises(ParameterError, match="m0 and xi"):
            large_disorder_probe(u, UNIFORM, find_leading_index(u), l0=8.0,
                                 m0=m0, xi=xi)

    def test_unbounded_when_rhs_vanishes(self):
        # delta_0 has no tail, so delta0 = 0, and e^{-m0 l0} = e^{-1000}
        # is 0 in floating point: every BV norm closes the bound
        u = exact_potential({(0,): 1.0}, 1.0, 1.0)
        rep = large_disorder_probe(u, UNIFORM, find_leading_index(u),
                                   l0=10.0, m0=100.0, xi=1.0)
        assert rep.delta0 == 0.0 and rep.rhs_negative_exponent == 0.0
        assert rep.satisfies_negative_exponent
        assert rep.max_bv_negative_exponent == math.inf
        assert 0.0 <= rep.max_bv_printed < math.inf

    # m0 l0 = 705 puts the printed rhs past the doubles and its maximal BV
    # norm below the normal range; at 697.95 both are normal; the target
    # 7.05^{-400} underflows; so does e^{-1000}, and with it the
    # sign-corrected rhs per unit BV norm
    @pytest.mark.parametrize("l0, m0, xi", [
        (7.05, 100.0, 1.0), (7.05, 99.0, 1.0), (7.05, 100.0, 200.0),
        (10.0, 100.0, 1.0), (6.0, 5.0, 3.0)])
    def test_both_variants_against_mpmath(self, l0, m0, xi):
        u = exact_potential({(0,): 1.0}, 1.0, 1.0)
        model = uniform_density(0.0, 50.0)
        rep = large_disorder_probe(u, model, find_leading_index(u), l0, m0, xi)
        count = make_box((0,), l0).count
        with mpmath.workdps(60):
            target = mpmath.mpf(l0) ** (-2 * mpmath.mpf(xi))
            for sign, rhs, max_bv in [
                    (1, rep.rhs_printed, rep.max_bv_printed),
                    (-1, rep.rhs_negative_exponent,
                     rep.max_bv_negative_exponent)]:
                eps = 2 * mpmath.exp(sign * mpmath.mpf(m0) * mpmath.mpf(l0))
                per_unit = count * (eps + 2 * mpmath.mpf(rep.delta0)) \
                    * mpmath.mpf(rep.chain)
                assert_double_of(rhs, per_unit * mpmath.mpf(model.bv_norm))
                assert_double_of(max_bv, target / per_unit)


def assert_double_of(value: float, exact) -> None:
    """`value` is the double nearest `exact` up to rounding: inf past the
    largest double, subnormal or 0 below the normal range."""
    if exact > sys.float_info.max:
        assert value == math.inf
    else:
        assert math.isclose(value, float(exact), rel_tol=1e-9,
                            abs_tol=sys.float_info.min * 1e-9)
