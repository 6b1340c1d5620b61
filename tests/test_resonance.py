"""resonance: perturbation radii, spectrum brackets, event classification."""

import numpy as np
import pytest

from alloymsa import (Configuration, eigensolve,
                      estimate_resonance_probabilities, find_leading_index,
                      make_box, perturbation_radius, restrict_hamiltonian,
                      uniform_density)
from alloymsa.errors import GeometryError, ParameterError
from alloymsa.lattice import DisorderModel, PolynomialPiece
from alloymsa import msa, resonance
from alloymsa.resonance import (CERTIFIED_IN_A, CERTIFIED_OUT_A, INDETERMINATE,
                                _classify_distance)
from alloymsa.wegner import wegner_constant_chain
from helpers import (exact_potential, free_operator,
                     truncated_exponential_potential, values_at)

DELTA0 = exact_potential({(0,): 1.0}, 1.0, 1.0)
UNIFORM = uniform_density(0.0, 1.0)


def leaky_potential(radius=40, alpha=1.0):
    return truncated_exponential_potential(
        1, 1.0, alpha, radius, lambda k: np.exp(-alpha * abs(k[0])))


class TestPerturbationRadius:
    def test_zero_support(self):
        tiny = DisorderModel((PolynomialPiece(0.0, 0.0 + 1e-9, (1e9,)),))
        assert perturbation_radius(DELTA0, tiny, 2.0) == pytest.approx(0.0)

    def test_analytic_cap(self):
        u = leaky_potential()
        r = perturbation_radius(u, UNIFORM, 2.0)
        # capped by omega_+ * C_hat e^{-3 l alpha / 2} ~ 0.2033
        assert 0.0 < r <= 0.2033 + 1e-4

    def test_compact_support_no_leak(self):
        # truncation radius 1 <= 3l for l = 2: nothing escapes the 4l-box
        assert perturbation_radius(
            exact_potential({(0,): 1.0, (1,): -1.0}, 2.8, 1.0), UNIFORM, 2.0
        ) == 0.0

    def test_exact_leak_below_analytic(self):
        u = leaky_potential(radius=40)
        l = 2.0
        from alloymsa.genfun import leaked_mass_bound, tail_bound
        exact = leaked_mass_bound(u, make_box((0,), l), 4.0 * l)
        analytic = tail_bound(u, l, 3.0 * l)
        assert perturbation_radius(u, UNIFORM, l) == \
            pytest.approx(min(exact, analytic))


def base_spectrum(u, cfg, box):
    """Spectrum of `box` at the zeroed exterior of `cfg`, whose domain must
    be the 4l-enlarged box: what the resonance worker solves per box."""
    resonance.check_enlarged_domain(cfg.domain, box)
    return eigensolve(restrict_hamiltonian(u, cfg, box)).eigenvalues


class TestSpectrumBracket:
    def test_delta0_degenerate(self):
        box = make_box((0,), 2.0)
        enlarged = make_box((0,), 8.0)
        cfg = Configuration(enlarged, UNIFORM.sample(np.random.default_rng(0),
                                                     enlarged.count))
        assert perturbation_radius(DELTA0, UNIFORM, 2.0) == 0.0
        assert len(base_spectrum(DELTA0, cfg, box)) == box.count

    def test_zero_potential_free_spectrum(self):
        box = make_box((0,), 2.0)
        enlarged = make_box((0,), 8.0)
        cfg = Configuration(enlarged, np.zeros(enlarged.count))
        free = eigensolve(free_operator(box)).eigenvalues
        assert np.allclose(base_spectrum(DELTA0, cfg, box), free, atol=1e-12)

    def test_bracket_soundness_100_completions(self):
        u = leaky_potential(radius=40)
        l = 3.0
        box = make_box((0,), l)
        enlarged = make_box((0,), 4 * l)
        rng = np.random.default_rng(21)
        cfg = Configuration(enlarged, UNIFORM.sample(rng, enlarged.count))
        base = base_spectrum(u, cfg, box)
        radius = perturbation_radius(u, UNIFORM, l)
        full = make_box((0,), l + u.truncation_radius + 0.25)
        inner_mask = enlarged.contains_points(full.points)
        base_vals = np.zeros(full.count)
        base_vals[inner_mask] = values_at(cfg, full.points[inner_mask])
        violations = 0
        for _ in range(100):
            vals = base_vals.copy()
            vals[~inner_mask] = UNIFORM.sample(rng, int((~inner_mask).sum()))
            completed = restrict_hamiltonian(u, Configuration(full, vals), box)
            evs = eigensolve(completed).eigenvalues
            if np.max(np.abs(evs - base)) > radius + 1e-12:
                violations += 1
        assert violations == 0

    def test_domain_mismatch(self):
        box = make_box((0,), 2.0)
        cfg = Configuration(make_box((0,), 5.0), np.zeros(11))
        with pytest.raises(ParameterError, match="4l-enlarged"):
            base_spectrum(DELTA0, cfg, box)


def _bracket(spectrum, radius):
    return np.asarray(spectrum, dtype=float), radius


def classify(b1, b2, eps, attained):
    """`_classify_distance` at the distance d0 of the two base spectra."""
    (s1, radius1), (s2, radius2) = b1, b2
    d0 = float(np.min(np.abs(s1[:, None] - s2[None, :])))
    return _classify_distance(d0, radius1, radius2, eps, attained)


class TestClassify:
    def test_identical_spectra(self):
        # radius 0: every completion has the base spectra
        b1 = _bracket([1.0, 2.0], 0.0)
        b2 = _bracket([1.0, 3.0], 0.0)
        assert classify(b1, b2, 0.5, attained=True) == CERTIFIED_IN_A

    def test_separated(self):
        b1 = _bracket([0.0], 0.01)
        b2 = _bracket([1.0], 0.01)
        assert classify(b1, b2, 0.1, attained=False) == CERTIFIED_OUT_A

    def test_indeterminate_band(self):
        b1 = _bracket([0.0], 0.05)
        b2 = _bracket([0.12], 0.05)
        assert classify(b1, b2, 0.1, attained=False) == INDETERMINATE


class TestEstimateProbability:
    def test_huge_eps_vacuous(self):
        lead = find_leading_index(DELTA0)
        rep, = estimate_resonance_probabilities(
            DELTA0, lead, UNIFORM, (0,), (100,), 3.0, 3.0, [50.0], 40, seed=1)
        assert rep.p_lo == 1.0
        assert rep.theory_bound >= 1.0

    def test_eps_zero(self):
        lead = find_leading_index(DELTA0)
        rep, = estimate_resonance_probabilities(
            DELTA0, lead, UNIFORM, (0,), (100,), 3.0, 3.0, [0.0], 40, seed=2)
        assert rep.p_lo == 0.0

    def test_monotone_in_eps(self):
        lead = find_leading_index(DELTA0)
        reps = [estimate_resonance_probabilities(
            DELTA0, lead, UNIFORM, (0,), (100,), 3.0, 3.0, [eps], 120, seed=3)[0]
            for eps in (1e-3, 1e-2, 1e-1)]
        for a, b in zip(reps, reps[1:]):
            assert a.p_lo <= b.p_lo and a.p_hi <= b.p_hi
            assert a.theory_bound < b.theory_bound

    def test_bound_holds_quick(self):
        lead = find_leading_index(DELTA0)
        rep, = estimate_resonance_probabilities(
            DELTA0, lead, UNIFORM, (0,), (100,), 3.0, 3.0, [1e-2], 300, seed=4)
        assert rep.p_hi <= rep.theory_bound + 3 * rep.std_error

    def test_scale_too_small(self):
        lead = find_leading_index(DELTA0)
        with pytest.raises(ParameterError):
            estimate_resonance_probabilities(
                DELTA0, lead, UNIFORM, (0,), (100,), 2.0, 1.0, [0.1], 10, seed=5)

    def test_overlapping_geometry(self):
        lead = find_leading_index(DELTA0)
        with pytest.raises(GeometryError):
            estimate_resonance_probabilities(
                DELTA0, lead, UNIFORM, (0,), (10,), 3.0, 3.0, [0.1], 10, seed=6)


class TestOnePassOverEps:
    EPS = (0.0, 1e-3, 1e-2, 1e-1, 50.0)

    def test_matches_one_estimate_per_eps(self):
        lead = find_leading_index(DELTA0)
        args = (DELTA0, lead, UNIFORM, (0,), (100,), 3.0, 3.0)
        together = estimate_resonance_probabilities(*args, self.EPS, 60, 3)
        assert together == [estimate_resonance_probabilities(*args, [eps], 60, 3)[0]
                            for eps in self.EPS]

    def test_two_solves_per_trial_for_all_eps(self, monkeypatch):
        calls = []

        def counting(op, *a, **kw):
            calls.append(op)
            return eigensolve(op, *a, **kw)

        monkeypatch.setattr(resonance, "eigensolve", counting)
        lead = find_leading_index(DELTA0)
        estimate_resonance_probabilities(DELTA0, lead, UNIFORM, (0,), (100,),
                                         3.0, 3.0, self.EPS, 10, 3)
        assert len(calls) == 2 * 10

    def test_one_chain_per_call(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return wegner_constant_chain(*args)

        monkeypatch.setattr(resonance, "wegner_constant_chain", counting)
        lead = find_leading_index(DELTA0)
        reports = estimate_resonance_probabilities(
            DELTA0, lead, UNIFORM, (0,), (100,), 3.0, 3.0, [1e-3, 1e-2, 1e-1],
            4, 3)
        assert len(reports) == 3
        assert len(calls) == 1

    def test_negative_eps_rejected_before_sampling(self, monkeypatch):
        monkeypatch.setattr(resonance, "eigensolve", None)
        lead = find_leading_index(DELTA0)
        with pytest.raises(ParameterError):
            estimate_resonance_probabilities(
                DELTA0, lead, UNIFORM, (0,), (100,), 3.0, 3.0, [0.1, -1e-3],
                10, 3)


class TestZeroOutsideSupport:
    """Under rho = uniform[1, 2] the zeroed exterior is no completion, so
    d0 < eps certifies nothing unless no exterior coupling reaches a box."""

    OUTSIDE = uniform_density(1.0, 2.0)

    def test_estimate_withholds_certified_in_a(self):
        u = leaky_potential()
        lead = find_leading_index(u)
        args = ((0,), (100,), 3.0, 3.0, [50.0], 4)
        inside, = estimate_resonance_probabilities(u, lead, UNIFORM, *args,
                                                   seed=1)
        outside, = estimate_resonance_probabilities(u, lead, self.OUTSIDE,
                                                     *args, seed=1)
        assert inside.delta1 > 0.0 and outside.delta1 > 0.0
        assert inside.p_lo == 1.0
        assert outside.p_lo == 0.0 and outside.p_hi == 1.0

    def test_exact_verdict_when_nothing_reaches_the_boxes(self):
        lead = find_leading_index(DELTA0)
        rep, = estimate_resonance_probabilities(
            DELTA0, lead, self.OUTSIDE, (0,), (100,), 3.0, 3.0, [50.0], 4,
            seed=1)
        assert rep.delta1 == rep.delta2 == 0.0
        assert rep.p_lo == 1.0

    def test_classify(self):
        b1 = _bracket([1.0], 0.01)
        b2 = _bracket([1.0], 0.01)
        assert classify(b1, b2, 0.5, attained=False) == INDETERMINATE
        assert classify(b1, b2, 0.5, attained=True) == CERTIFIED_IN_A
        exact = _bracket([1.0], 0.0)
        assert classify(b1, exact, 0.5, attained=True) == CERTIFIED_IN_A
        assert classify(b1, exact, 0.5, attained=False) == INDETERMINATE


class TestZeroedExteriorWitness:
    """The one witness rule: what holds at the zeroed exterior holds for
    some completion when 0 is in supp rho or every perturbation radius is
    0.  Both of its users take it from `zeroed_exterior_witness`: a box
    irregular at the zeroed exterior is certified irregular, and d0 < eps
    certifies the resonance event, exactly where it holds."""

    OUTSIDE = uniform_density(1.0, 2.0)
    # (potential, density): delta = 0 or delta > 0, 0 in supp rho or not
    CASES = {"delta0-zero-in-supp": (DELTA0, UNIFORM, True),
             "delta0-zero-outside": (DELTA0, OUTSIDE, True),
             "leaky-zero-in-supp": (leaky_potential(), UNIFORM, True),
             "leaky-zero-outside": (leaky_potential(), OUTSIDE, False)}

    @staticmethod
    def verdict_and_p_lo(u, model):
        """The verdict of a box at an eigenvalue of its zeroed-exterior
        operator, where it is irregular, and p_lo at an eps above every
        distance d0."""
        l = 3.0
        box = make_box((0,), l)
        enlarged = resonance.enlarged_box(box)
        cfg = Configuration(enlarged, model.sample(np.random.default_rng(7),
                                                   enlarged.count))
        E = base_spectrum(u, cfg, box)[0]
        [verdict] = msa.uniform_regularity_verdicts(u, model, cfg, box, 0.4,
                                                    [E])
        [rep] = estimate_resonance_probabilities(
            u, find_leading_index(u), model, (0,), (100,), l, l, [50.0], 4,
            seed=1)
        return verdict, rep.p_lo

    @pytest.mark.parametrize("case", list(CASES))
    def test_both_users_follow_the_predicate(self, monkeypatch, case):
        u, model, holds = self.CASES[case]
        delta = perturbation_radius(u, model, 3.0)
        assert (delta == 0.0) == (u is DELTA0)
        assert model.in_support(0.0) == (model is UNIFORM)
        assert resonance.zeroed_exterior_witness(model, delta, delta) == holds
        expect = {True: (msa.CERTIFIED_IRREGULAR, 1.0),
                  False: (INDETERMINATE, 0.0)}
        assert self.verdict_and_p_lo(u, model) == expect[holds]
        for module in (msa, resonance):
            monkeypatch.setattr(module, "zeroed_exterior_witness",
                                lambda *args: not holds)
        assert self.verdict_and_p_lo(u, model) == expect[not holds]
