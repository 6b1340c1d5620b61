"""msa: the regularity predicate, uniform certification, parameter recursion."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from alloymsa import (Configuration, SingleSitePotential, eigensolve,
                      find_leading_index, lattice, make_box, mc, msa,
                      perturbation_radius, restrict_hamiltonian,
                      scale_schedule, spectral, uniform_density,
                      validate_parameters)
from alloymsa.errors import ParameterError, ScheduleError
from alloymsa.msa import (CERTIFIED_IRREGULAR, CERTIFIED_REGULAR,
                          INDETERMINATE, MSAParameters, _smallest_scale,
                          estimate_singularity_probability,
                          induction_thresholds, l_bar, l_bar_sharp,
                          mass_loss_series, uniform_regularity_test,
                          uniform_regularity_verdicts)
from alloymsa.spectral import RESONANCE_GUARD, boundary_greens
from helpers import (exact_potential, flat_indices, free_operator,
                     truncated_exponential_potential, values_at)

DELTA0 = exact_potential({(0,): 1.0}, 1.0, 1.0)
UNIFORM = uniform_density(0.0, 1.0)
WIDE = uniform_density(0.0, 50.0)


def regularity_test(op, center, m: float, E: float) -> bool:
    """(m,E)-regular: E off the spectrum and |G(E; center, w)| <= e^{-m l}
    for every interior-boundary site w.  Resonant E returns False."""
    green = boundary_greens(op, center, [E])
    bound = math.exp(-m * op.box.half_side)
    return not green.resonant[0] and bool(np.all(green.magnitude[:, 0] <= bound))


class TestRegularity:
    def test_energy_below_spectrum_regular(self):
        op = free_operator(make_box((0,), 5.0))
        # gap 4 to the spectrum: Green decay beats e^{-0.3 l} comfortably
        assert regularity_test(op, (0,), 0.3, -4.0)

    def test_eigenvalue_not_regular(self):
        op = free_operator(make_box((0,), 1.0))
        E = float(eigensolve(op).eigenvalues[0])
        assert not regularity_test(op, (0,), 0.5, E)

    def test_tiny_mass_threshold(self):
        op = free_operator(make_box((0,), 2.0))
        # e^{-ml} -> 1 as m -> 0+: any sub-unit Green bound passes
        assert regularity_test(op, (0,), 1e-12, -1.0)


def _enlarged_config(rng, l, model=UNIFORM, d=1):
    box = make_box((0,) * d, 4.0 * l)
    return Configuration(box, model.sample(rng, box.count))


class TestUniformRegularity:
    def test_compact_support_reduces_to_plain(self):
        rng = np.random.default_rng(31)
        l = 3.0
        box = make_box((0,), l)
        for _ in range(10):
            cfg = _enlarged_config(rng, l)
            E = rng.uniform(-1.0, 0.0)
            verdict = uniform_regularity_test(DELTA0, UNIFORM, cfg, box, 0.4, E)
            op = restrict_hamiltonian(DELTA0, cfg, box)
            plain = regularity_test(op, (0,), 0.4, E)
            assert verdict == (CERTIFIED_REGULAR if plain else CERTIFIED_IRREGULAR)

    def test_domain_checked(self):
        box = make_box((0,), 2.0)
        cfg = Configuration(make_box((0,), 5.0), np.zeros(11))
        with pytest.raises(ParameterError, match="4l-enlarged"):
            uniform_regularity_test(DELTA0, UNIFORM, cfg, box, 0.4, -1.0)

    def test_indeterminate_when_bracket_collapses(self):
        u = truncated_exponential_potential(1, 1.0, 0.4, 60,
                                            lambda k: np.exp(-0.4 * abs(k[0])))
        l = 2.0
        box = make_box((0,), l)
        rng = np.random.default_rng(32)
        cfg = _enlarged_config(rng, l)
        # E extremely close to the base spectrum, delta exceeds the distance
        op = restrict_hamiltonian(u, cfg, box)
        evs = eigensolve(op).eigenvalues
        E = float(evs[0]) + 1e-9
        assert uniform_regularity_test(u, UNIFORM, cfg, box, 1e-6, E) in (
            INDETERMINATE, CERTIFIED_IRREGULAR)

    def test_conservativity_certified_regular(self):
        u = truncated_exponential_potential(1, 1.0, 2.0, 12,
                                            lambda k: np.exp(-2 * abs(k[0])))
        l = 3.0
        box = make_box((0,), l)
        rng = np.random.default_rng(33)
        full = make_box((0,), l + u.truncation_radius + 0.25)
        found = 0
        for _ in range(40):
            cfg = _enlarged_config(rng, l, WIDE)
            E = -0.5
            verdict = uniform_regularity_test(u, WIDE, cfg, box, 0.5, E)
            if verdict != CERTIFIED_REGULAR:
                continue
            found += 1
            inner = cfg.domain.contains_points(full.points)
            base = np.zeros(full.count)
            base[inner] = values_at(cfg, full.points[inner])
            for _ in range(20):
                vals = base.copy()
                vals[~inner] = WIDE.sample(rng, int((~inner).sum()))
                op = restrict_hamiltonian(u, Configuration(full, vals), box)
                assert regularity_test(op, (0,), 0.5, E)
        assert found > 0

    def test_conservativity_certified_irregular(self):
        rng = np.random.default_rng(34)
        l = 3.0
        box = make_box((0,), l)
        found = 0
        for _ in range(40):
            cfg = _enlarged_config(rng, l)
            E = rng.uniform(0.5, 3.0)
            verdict = uniform_regularity_test(DELTA0, UNIFORM, cfg, box, 0.4, E)
            if verdict == CERTIFIED_IRREGULAR:
                found += 1
                op = restrict_hamiltonian(DELTA0, cfg, box)
                assert not regularity_test(op, (0,), 0.4, E)
        assert found > 0


    def test_irregular_witness_needs_zero_in_support(self):
        # under uniform[1, 2] the zeroed exterior is no admissible completion:
        # with exterior influence (delta > 0) its irregularity certifies nothing
        shifted = uniform_density(1.0, 2.0)
        l = 3.0
        box = make_box((0,), l)
        assert perturbation_radius(EXP_TAIL, shifted, l) > 0.0
        rng = np.random.default_rng(36)
        found = 0
        for _ in range(40):
            cfg = _enlarged_config(rng, l, shifted)
            E = rng.uniform(0.5, 3.0)
            base = uniform_regularity_test(EXP_TAIL, UNIFORM, cfg, box, 0.4, E)
            verdict = uniform_regularity_test(EXP_TAIL, shifted, cfg, box, 0.4, E)
            if base == CERTIFIED_IRREGULAR:
                found += 1
                assert verdict == INDETERMINATE
            else:
                assert verdict != CERTIFIED_IRREGULAR
        assert found > 0

    def test_irregular_without_exterior_influence(self):
        # u = delta_0 (delta = 0): every completion gives the same box operator
        shifted = uniform_density(1.0, 2.0)
        l = 3.0
        box = make_box((0,), l)
        rng = np.random.default_rng(37)
        found = 0
        for _ in range(40):
            cfg = _enlarged_config(rng, l, shifted)
            E = rng.uniform(0.5, 3.0)
            verdict = uniform_regularity_test(DELTA0, shifted, cfg, box, 0.4, E)
            plain = regularity_test(restrict_hamiltonian(DELTA0, cfg, box),
                                    (0,), 0.4, E)
            found += not plain
            assert verdict == (CERTIFIED_REGULAR if plain else CERTIFIED_IRREGULAR)
        assert found > 0


class TestSingularityProbability:
    def test_empty_grid(self):
        # no energy probed would certify every box: rejected
        with pytest.raises(ParameterError, match="at least one energy"):
            estimate_singularity_probability(
                DELTA0, UNIFORM, 2.0, 0.3, (-0.1, 0.1), [], 20, seed=1)

    @pytest.mark.parametrize("interval, grid", [
        ((-0.1, 0.1), [0.05, 0.0, 0.05]), ((0.0, 0.0), 2)])
    def test_repeated_energy(self, interval, grid):
        # the report counts per energy: a repeat would lose a row
        with pytest.raises(ParameterError, match="repeats an energy"):
            estimate_singularity_probability(
                DELTA0, UNIFORM, 2.0, 0.3, interval, grid, 20, seed=1)

    def test_deterministic_density(self):
        # near-point-mass coupling: outcome is the same every trial
        from alloymsa.lattice import DisorderModel, PolynomialPiece
        spike = DisorderModel((PolynomialPiece(1.0, 1.0 + 2.0**-30, (2.0**30,)),))
        rep = estimate_singularity_probability(
            DELTA0, spike, 2.0, 0.3, (-0.1, 0.1), 11, 30, seed=2)
        assert rep.p_hi in (0.0, 1.0)

    def test_large_disorder_baseline(self):
        rep = estimate_singularity_probability(
            DELTA0, WIDE, 10.0, 0.3, (-0.1, 0.1), 21, 120, seed=3)
        assert rep.p_hi <= 0.1

    def test_squaring_rule(self):
        # disjoint enlarged boxes: empirical pair frequency <= single^2 + 3 sigma
        rng = np.random.default_rng(35)
        l, m, grid = 2.0, 0.25, [0.0, 0.05]
        box1 = make_box((0,), l)
        box2 = make_box((100,), l)
        trials = 400
        singles = []
        pairs = []
        for _ in range(trials):
            def singular(box):
                dom = make_box(box.center, 4.0 * l)
                cfg = Configuration(dom, UNIFORM.sample(rng, dom.count))
                return any(
                    uniform_regularity_test(DELTA0, UNIFORM, cfg, box, m, E)
                    != CERTIFIED_REGULAR for E in grid)
            s1, s2 = singular(box1), singular(box2)
            singles.extend([s1, s2])
            pairs.append(s1 and s2)
        p_single = np.mean(singles)
        p_pair = np.mean(pairs)
        sigma = math.sqrt(max(p_pair * (1 - p_pair), 1e-12) / trials)
        assert p_pair <= p_single**2 + 3 * sigma + 1e-12


# sign-changing, exponentially decaying, truncated: perturbation radius > 0
EXP_TAIL = truncated_exponential_potential(
    1, 1.0, 1.0, 8, lambda k: (-0.5) ** abs(k[0]) * np.exp(-abs(k[0])))


def _one_shot_verdicts(u, model, l, m, grid, trials, seed):
    """Verdicts of the estimator's trials, one fresh operator per energy."""
    box = make_box((0,), l)
    enlarged = make_box((0,), 4 * l)
    out = []
    for i in range(trials):
        rng = mc.trial_rng(seed, i)
        cfg = Configuration(enlarged, model.sample(rng, enlarged.count))
        out.append([uniform_regularity_test(u, model, cfg, box, m, E)
                    for E in grid])
    return out


def _reference_verdicts(u, model, cfg, box, m, energies, delta):
    """The scalar rules of the uniform regularity test written out energy
    by energy, with G(E; center, .) from a dense solve of (H - E) g =
    e_center and d(E) from the eigenvalues alone.

    Returns the verdicts and, per energy, whether a compared quantity lies
    within the solve's error bound of its threshold, where rounding, not
    the rules, decides the verdict."""
    H = restrict_hamiltonian(u, cfg, box).matrix
    n = box.count
    evals = scipy.linalg.eigvalsh(H)
    e_src = np.zeros(n)
    e_src[flat_indices(box, np.array([box.center]))] = 1.0
    threshold = math.exp(-m * box.half_side)
    verdicts, tight = [], []
    for E in energies:
        dist = float(np.min(np.abs(evals - E)))
        close = abs(dist - RESONANCE_GUARD) <= 1e-13
        if dist < RESONANCE_GUARD:
            irregular = True
        else:
            col = scipy.linalg.solve(H - E * np.eye(n), e_src, assume_a="sym")
            g = np.abs(col[box.interior_boundary_indices])
            cond = float(np.max(np.abs(evals - E))) / dist
            tol = 1e3 * n * np.finfo(float).eps * cond * float(np.max(np.abs(col)))
            irregular = bool(np.any(g > threshold))
            close |= bool(np.any(np.abs(g - threshold) <= tol))
        if irregular and model.in_support(0.0):
            verdict = CERTIFIED_IRREGULAR
        elif delta == 0.0:
            verdict = CERTIFIED_IRREGULAR if irregular else CERTIFIED_REGULAR
        elif irregular:
            verdict = INDETERMINATE
        else:
            close |= abs(delta - dist) <= 1e-9 * dist
            if delta >= dist:
                verdict = INDETERMINATE
            else:
                slack = delta / dist**2 / (1.0 - delta / dist)
                verdict = INDETERMINATE if np.any(g + slack > threshold) \
                    else CERTIFIED_REGULAR
                close |= bool(np.any(
                    np.abs(g + slack - threshold) <= tol + 1e-9 * slack))
        verdicts.append(verdict)
        tight.append(close)
    return verdicts, tight


class TestSingularityEstimatorReusesSpectrum:
    @pytest.mark.parametrize("u, model, interval", [
        (EXP_TAIL, UNIFORM, (0.5, 2.5)),   # delta > 0: bracket path
        (DELTA0, UNIFORM, (0.0, 3.0)),     # delta = 0
    ])
    def test_per_energy_matches_one_shot(self, u, model, interval):
        l, m, trials, seed = 3.0, 0.2, 12, 41
        box = make_box((0,), l)
        delta = perturbation_radius(u, model, l)
        assert (delta > 0.0) == (u is EXP_TAIL)
        grid = list(np.linspace(*interval, 31))
        rep = estimate_singularity_probability(u, model, l, m, interval, 31,
                                               trials, seed)
        verdicts = _one_shot_verdicts(u, model, l, m, grid, trials, seed)
        expect = {E: sum(v[j] != CERTIFIED_REGULAR for v in verdicts)
                  for j, E in enumerate(grid)}
        assert rep.per_energy == expect
        seen = {x for v in verdicts for x in v}
        assert {CERTIFIED_REGULAR, CERTIFIED_IRREGULAR} <= seen
        assert (INDETERMINATE in seen) == (delta > 0.0)
        # the same trials against the rules written out with dense solves
        enlarged = make_box((0,), 4 * l)
        reference = []
        for i in range(trials):
            rng = mc.trial_rng(seed, i)
            cfg = Configuration(enlarged, model.sample(rng, enlarged.count))
            ref, tight = _reference_verdicts(u, model, cfg, box, m, grid, delta)
            assert not any(tight)
            reference.append(ref)
        assert verdicts == reference

    def test_one_eigh_per_trial_and_no_lu(self, monkeypatch):
        calls = {"eigh": [], "lu_factor": 0}
        eigh, lu_factor = scipy.linalg.eigh, scipy.linalg.lu_factor

        def counting_eigh(*args, **kwargs):
            calls["eigh"].append(kwargs.get("eigvals_only", False))
            return eigh(*args, **kwargs)

        def counting_lu_factor(*args, **kwargs):
            calls["lu_factor"] += 1
            return lu_factor(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(scipy.linalg, "lu_factor", counting_lu_factor)
        trials = 7
        estimate_singularity_probability(EXP_TAIL, UNIFORM, 3.0, 0.2,
                                         (0.5, 2.5), 21, trials, seed=42)
        assert calls["eigh"] == [False] * trials  # vectors, once per trial
        assert calls["lu_factor"] == 0

    def test_one_green_product_per_trial(self, monkeypatch):
        grids = []
        boundary_greens = msa.boundary_greens

        def counting_boundary_greens(op, source, energies):
            grids.append(len(energies))
            return boundary_greens(op, source, energies)

        monkeypatch.setattr(msa, "boundary_greens", counting_boundary_greens)
        monkeypatch.setattr(spectral, "greens_column", pytest.fail)
        trials = 5
        estimate_singularity_probability(EXP_TAIL, UNIFORM, 3.0, 0.2,
                                         (0.5, 2.5), 21, trials, seed=43)
        assert grids == [21] * trials

    def test_one_free_matrix_per_trial(self, monkeypatch):
        # each trial builds the dense matrix of its own operator, once
        boxes = []
        free_box_matrix = lattice.free_box_matrix

        def counting_free_box_matrix(box):
            boxes.append(box)
            return free_box_matrix(box)

        monkeypatch.setattr(lattice, "free_box_matrix",
                            counting_free_box_matrix)
        trials = 6
        estimate_singularity_probability(P2_TAIL, UNIFORM, 2.0, 0.2,
                                         (0.5, 2.5), 21, trials, seed=44)
        assert boxes == [make_box((0, 0), 2.0)] * trials


# potentials with and without exterior influence on the box, d = 1 and 2
P2_TAIL = SingleSitePotential({(0, 0): 1.0, (1, 0): -0.6, (0, 1): -0.3,
                               (1, 1): 0.05}, 2.0, 1.0, 1, 1e-6)
DELTA0_2D = exact_potential({(0, 0): 1.0}, 1.0, 1.0)
# a large truncation residual: delta = 1 is comparable to level spacings
WIDE_TAIL = SingleSitePotential({(0,): 1.0}, 1.0, 0.05, 0, 1.0)
SHIFTED = uniform_density(1.0, 2.0)


# The `msa-probe` benchmark config: P2_TAIL (P2 with truncation residual 1e-6),
# rho = uniform[0, 1], l = 4 (81 sites), m = 0.1, 101 energies on
# [0.4, 0.6], 20 trials.  Per seed, the not-certified-regular count at
# each energy, one base-36 digit per energy, as recorded before the Green's
# functions moved to the divide-and-conquer driver.
PROBE_COUNTS = {
    11: "000000000000000000000001100000000000222111223233343"
        "21233342333574433432122335430001100000111101000000",
    12: "000000000000000000000000000000000000000121210112223"
        "66544434555422231344544201221100011111100000000000",
    13: "000000000000000000000000000000000000000012255536764"
        "44543453213454213414443111121121000011100000000000",
    14: "000000000000000000000000000000111100100002310001123"
        "33424545433553542467668644322011111000000000000000",
    15: "000000000000000000000000000000000012211111012323335"
        "66542474323332334344342222112222101100000000000000",
    16: "000000000000000000000000000000000000002322333121123"
        "44566542355764566875100000000000000000000000000000",
    17: "000000000000000000000000000000000000001100023220001"
        "13577544425753644322354311000000000000000000000000",
    18: "000000000000000000000000000000000001102223100102223"
        "334556a889a756555553332232100000110000000000000000",
}


class TestProbeCountsFrozen:
    @pytest.mark.parametrize("seed", sorted(PROBE_COUNTS))
    def test_benchmark_config_counts(self, seed):
        rep = estimate_singularity_probability(P2_TAIL, UNIFORM, 4.0, 0.1,
                                               (0.4, 0.6), 101, 20, seed)
        counts = [rep.per_energy[E] for E in sorted(rep.per_energy)]
        assert counts == [int(c, 36) for c in PROBE_COUNTS[seed]]
        assert rep.p_hi == 1.0


class TestBatchedVerdictsAgainstReference:
    @pytest.mark.parametrize("u, model", [
        (EXP_TAIL, UNIFORM), (EXP_TAIL, SHIFTED),      # d = 1, delta > 0
        (WIDE_TAIL, UNIFORM), (WIDE_TAIL, SHIFTED),    # d = 1, delta = 1
        (DELTA0, UNIFORM), (DELTA0, SHIFTED),          # d = 1, delta = 0
        (P2_TAIL, UNIFORM), (P2_TAIL, SHIFTED),        # d = 2, delta > 0
        (DELTA0_2D, UNIFORM), (DELTA0_2D, SHIFTED),    # d = 2, delta = 0
    ])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), half=st.integers(1, 4),
           m=st.floats(0.01, 0.6),
           grid=st.lists(st.floats(-1.0, 10.0), min_size=1, max_size=12),
           picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
    def test_matches_reference(self, u, model, seed, half, m, grid, picks):
        d = u.dimension
        l = float(half if d == 1 else min(half, 2))
        box = make_box((0,) * d, l)
        delta = perturbation_radius(u, model, l)
        assert (delta > 0.0) == (u in (EXP_TAIL, P2_TAIL, WIDE_TAIL))
        enlarged = make_box((0,) * d, 4 * l)
        rng = np.random.default_rng(seed)
        cfg = Configuration(enlarged, model.sample(rng, enlarged.count))
        # energies on an eigenvalue and within RESONANCE_GUARD of one, from
        # the same eigensolve as the code under test, and energies whose
        # distance to the spectrum is near delta
        op = restrict_hamiltonian(u, cfg, box)
        evals = eigensolve(op, vectors=op.box.count).eigenvalues
        onto = [evals[p % len(evals)] for p in picks]
        resonant = onto + [E + 0.5 * RESONANCE_GUARD for E in onto] \
            + [E - 0.3 * RESONANCE_GUARD for E in onto]
        bracket = [E + f * delta for E in onto
                   for f in (-1.25, -0.75, 0.75, 1.25)]
        energies = resonant + grid + bracket
        got = uniform_regularity_verdicts(u, model, cfg, box, m, energies,
                                          delta=delta)
        assert list(got) == [uniform_regularity_test(u, model, cfg, box, m, E)
                             for E in energies]
        ref, tight = _reference_verdicts(u, model, cfg, box, m, energies, delta)
        for g, r, t in zip(got, ref, tight):
            assert g == r or t
        witness = CERTIFIED_IRREGULAR if model.in_support(0.0) or delta == 0.0 \
            else INDETERMINATE
        assert list(got[:len(resonant)]) == [witness] * len(resonant)


U_LEAD = find_leading_index(DELTA0)


class TestValidateParameters:
    def test_interval_checks(self):
        p = MSAParameters(xi=4.0, kappa=1.2, beta=0.9, q=0.5, m0=0.5, l0=50.0)
        rep = validate_parameters(p, U_LEAD, DELTA0, UNIFORM)
        # intervals hold (2 xi/(xi+2) = 4/3 > 1.2; beta in (0.8, 1)) but l0 small
        assert any("l0" in v for v in rep.violated)

    def test_kappa_rejected(self):
        p = MSAParameters(xi=2.5, kappa=1.5, beta=0.6, q=0.5, m0=0.5, l0=50.0)
        rep = validate_parameters(p, U_LEAD, DELTA0, UNIFORM)
        assert not rep.ok and any("kappa" in v for v in rep.violated)

    def test_l_bar_formula(self):
        p = MSAParameters(xi=8.0, kappa=1.5, beta=0.6, q=0.5, m0=0.5, l0=25000.0)
        assert l_bar(p) == pytest.approx((0.25 / 1.75) ** (-1.5 / 0.4), rel=1e-12)
        assert l_bar(p) == pytest.approx(1476.106, abs=0.01)

    def test_anchor_scales_past_the_doubles_are_inf(self):
        # (1/4)^{-15000} and the sharp scale both pass the largest double
        p = MSAParameters(xi=8.0, kappa=1.5, beta=0.9999, q=0.5, m0=2.0,
                          l0=25000.0)
        assert l_bar(p) == math.inf
        assert l_bar_sharp(p) == math.inf

    def test_mass_boundary_strict(self):
        beta = 0.6
        l0 = 25000.0
        p = MSAParameters(xi=8.0, kappa=1.5, beta=beta, q=0.5,
                          m0=l0 ** (beta - 1.0), l0=l0)
        rep = validate_parameters(p, U_LEAD, DELTA0, UNIFORM)
        assert any("beta-1" in v for v in rep.violated)


THRESHOLD_MODELS = {
    "delta0-1d": DELTA0,
    "p2": exact_potential({(0, 0): 1.0, (1, 0): -0.6, (0, 1): -0.3,
                           (1, 1): 0.05}, 2.0, 1.0),
    "negative-tail-1d": exact_potential(
        {(0,): 1.0, **{(k,): -0.01 * math.exp(-4.0 * abs(k))
                       for k in range(-6, 7) if k}}, 1.0, 4.0),
    "delta0-3d": exact_potential({(0, 0, 0): 1.0}, 1.0, 1.0),
}


def exact_threshold_predicates(p: MSAParameters, d: int, order: int) -> dict:
    """The inequalities of l1*, l2* and l4*..l7* at the working precision
    of mpmath, each in its displayed form (no logarithms taken)."""
    xi, kappa, beta = (mpmath.mpf(v) for v in (p.xi, p.kappa, p.beta))
    zeta = kappa * (5 * d + order + 2 * xi) + 1
    gamma = ((1 - beta) / kappa + (1 - 1 / kappa)) / 2
    third = mpmath.mpf(1) / 3

    def m_L(m, L):
        t = 2 ** (1 / kappa) * L ** (-1 / kappa)
        return m * (1 - t - 63 * L ** (1 / kappa - 1)) \
            - t * mpmath.log(4**d * d * L ** (d / kappa)) \
            - mpmath.log(2 * L**zeta) / L

    def pred7(L):
        return L ** (-(1 - beta) / kappa) - L ** (-gamma - (1 - beta) / kappa) \
            - L**-gamma > L ** (beta - 1)

    return {
        "l1": lambda l: 2 ** (4 * d) * (l**kappa) ** (4 * (d - xi / kappa)
                                                     + 2 * xi) <= third,
        "l2": lambda l: 24 * l + 2 <= l**kappa,
        "l4": lambda l: 2**d * d * (l + 1) ** (d - 1)
        * mpmath.exp(-l**beta) < 1,
        "l5": lambda l: 2 ** (2 * d + 1) * d * d
        * ((24 * l + 3) * (l + 1)) ** (d - 1) * (24 * l + 2) ** zeta
        * mpmath.exp(-l**beta) < 1,
        "l6": lambda l: m_L(l ** (beta - 1), l**kappa)
        >= l ** (beta - 1) * (1 - l ** (-kappa * gamma)) - l ** (-kappa * gamma),
        "l7": lambda l: pred7(l**kappa),
    }


class TestInductionThresholds:
    def test_smallest_scale_is_the_step_or_inf(self):
        for t in range(2, 65):
            got = _smallest_scale(lambda l: l >= t)
            assert got == t and isinstance(got, float), t
        assert _smallest_scale(lambda l: False) == math.inf

    @pytest.mark.parametrize("name", list(THRESHOLD_MODELS))
    def test_thresholds_are_smallest_in_exact_arithmetic(self, name):
        # each finite threshold holds at its value and fails one below it
        # (or is 2); an inf one fails at 2^39, the last power of two tried
        u = THRESHOLD_MODELS[name]
        d, lead = u.dimension, find_leading_index(u)
        rng = np.random.default_rng([2027, list(THRESHOLD_MODELS).index(name)])
        for _ in range(10):
            xi = 2 * d + rng.uniform(0.1, 10.0)
            kappa = 1.0 + (2 * xi / (xi + 2 * d) - 1.0) * rng.uniform(0.05, 0.95)
            beta = 2.0 - kappa + (kappa - 1.0) * rng.uniform(0.05, 0.95)
            p = MSAParameters(xi=xi, kappa=kappa, beta=beta, q=0.5, m0=1.0,
                              l0=1e12)
            assert p.interval_violations(d) == []
            thresholds = induction_thresholds(p, lead, u, UNIFORM)
            with mpmath.workdps(60):
                for key, pred in exact_threshold_predicates(
                        p, d, lead.order).items():
                    l = mpmath.mpf(thresholds[key])
                    if mpmath.isinf(l):
                        assert not pred(mpmath.mpf(2) ** 39), (key, p)
                    else:
                        assert pred(l) and (l == 2 or not pred(l - 1)), \
                            (key, thresholds[key], p)


class TestScaleSchedule:
    def test_valid_run(self):
        p = MSAParameters(xi=8.0, kappa=1.5, beta=0.6, q=0.5, m0=0.5, l0=25000.0)
        s = scale_schedule(p, 25)
        assert len(s.masses) == 26
        assert np.all(np.diff(s.masses) <= 0)
        assert np.all(s.masses >= s.m_inf)
        # strict m_L window: m_k > m_{k+1} > l_{k+1}^{beta-1}
        logs = s.log_lengths
        for k in range(1, 26):
            floor = math.exp((p.beta - 1) * logs[k]) if (p.beta - 1) * logs[k] > -745 else 0.0
            assert s.masses[k] > floor
        loss = float(np.sum(s.masses[:-1] - s.masses[1:]))
        assert loss <= (1 - p.q) * p.m0 + 1e-9

    def test_q_near_one_fails(self):
        p = MSAParameters(xi=8.0, kappa=1.5, beta=0.6, q=1.0 - 1e-9, m0=0.5,
                          l0=1e9)
        # the per-step floor m_k >= q m0 breaks at the first step
        with pytest.raises(ScheduleError, match="mass floor broken at k=1:"):
            scale_schedule(p, 25)

    def test_l0_at_l_bar_geometric_equality(self):
        p0 = MSAParameters(xi=8.0, kappa=1.5, beta=0.6, q=0.5, m0=0.5, l0=2.0)
        lb = l_bar(p0)
        p = MSAParameters(xi=8.0, kappa=1.5, beta=0.6, q=0.5, m0=0.5, l0=lb)
        x = lb ** (-(1 - p.beta) / p.kappa)
        geo = (p.m0 + 1) * x / (1 - x)
        assert geo == pytest.approx((1 - p.q) * p.m0, abs=1e-12)
        s = scale_schedule(p, 25)  # kappa = 1.5 >= 3^(1/3): series <= geometric
        assert np.all(s.masses >= s.m_inf)

    def test_small_kappa_mass_defect(self):
        # kappa < 3^(1/3): the geometric-series comparison in the mass
        # bookkeeping genuinely fails at l0 = l_bar, and the recursion
        # drops below q m0; the sharp threshold repairs it
        p0 = MSAParameters(xi=8.0, kappa=1.05, beta=0.96, q=0.5, m0=0.5, l0=2.0)
        lb = l_bar(p0)
        p = MSAParameters(xi=8.0, kappa=1.05, beta=0.96, q=0.5, m0=0.5, l0=lb)
        with pytest.raises(ScheduleError):
            scale_schedule(p, 25)
        sharp = l_bar_sharp(p)
        assert sharp > lb
        p_fixed = MSAParameters(xi=8.0, kappa=1.05, beta=0.96, q=0.5, m0=0.5,
                                l0=sharp * 1.0000001)
        s = scale_schedule(p_fixed, 25)
        assert np.all(s.masses >= s.m_inf)

    def test_mass_loss_series_matches_direct_sum(self):
        x, kappa = 0.3, 1.4
        direct = sum(x ** (kappa ** (k + 1)) for k in range(200))
        assert mass_loss_series(x, kappa) == pytest.approx(direct, rel=1e-12)

    def test_mL_reference_value(self):
        # m(1 - L^{-(1-beta)/kappa}) - L^{-(1-beta)/kappa} at the reference point
        m, L, kappa, beta = 0.5, 1000.0, 1.5, 0.6
        t = L ** (-(1 - beta) / kappa)
        assert m * (1 - t) - t == pytest.approx(0.26227, abs=1e-4)
