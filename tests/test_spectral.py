"""spectral: eigensolves, counting, Green's functions, decay fits."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alloymsa import (Configuration, count_eigenvalues_in, decay_fit,
                      eigensolve, make_box, restrict_hamiltonian,
                      uniform_density)
from alloymsa import spectral
from alloymsa.errors import FitError, ParameterError, ResonantEnergyError
from alloymsa.lattice import BoxOperator, neighbor_counts
from alloymsa.spectral import (RESONANCE_GUARD, _green_eigenpairs,
                               boundary_greens, greens_column)
from helpers import blas_threads, exact_potential, free_operator

DELTA0 = exact_potential({(0,): 1.0}, 1.0, 1.0)


def neumann_path_spectrum(n):
    return np.array([2 - 2 * math.cos(j * math.pi / n) for j in range(n)])


def random_operator(rng, l=4.0, d=1, w=1.0):
    box = make_box((0,) * d, l)
    dom = make_box((0,) * d, l + 1.0)
    cfg = Configuration(dom, rng.uniform(0, w, dom.count))
    return restrict_hamiltonian(DELTA0_D[d], cfg, box)


DELTA0_D = {1: DELTA0, 2: exact_potential({(0, 0): 1.0}, 1.0, 1.0)}


class TestEigensolve:
    def test_single_site(self):
        op = free_operator(make_box((0,), 0.5))
        assert np.allclose(eigensolve(op).eigenvalues, [2.0])

    def test_dirichlet_path(self):
        op = free_operator(make_box((0,), 1.0))
        expect = sorted([2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)])
        assert np.allclose(eigensolve(op).eigenvalues, expect, atol=1e-12)

    @pytest.mark.parametrize("l", [2, 5, 11])
    def test_neumann_path_closed_form(self, l):
        # the free Neumann path: diagonal = in-box neighbour count
        box = make_box((0,), float(l))
        op = BoxOperator(box, neighbor_counts(box))
        n = 2 * l + 1
        assert np.allclose(eigensolve(op).eigenvalues,
                           np.sort(neumann_path_spectrum(n)), atol=1e-10)

    def test_residual_contract(self):
        rng = np.random.default_rng(0)
        op = random_operator(rng, l=8.0, w=5.0)
        res = eigensolve(op, vectors=op.box.count)
        assert res.residual <= 1e-10
        assert np.all(np.diff(res.eigenvalues) >= -1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        box = make_box((0,), 6.0)
        dom = make_box((0,), 7.0)
        vals = rng.uniform(0, 3, dom.count)
        a = restrict_hamiltonian(DELTA0, Configuration(dom, vals), box)
        b = restrict_hamiltonian(DELTA0, Configuration(dom, vals), box)
        assert np.array_equal(eigensolve(a).eigenvalues,
                              eigensolve(b).eigenvalues)


def lowest_counts(n):
    return sorted({1, min(n, 3), min(n, 5), n})


class TestLowestEigenvectorsBitwise:
    """eigensolve(op, vectors=k) runs dsyevr's steps and back-transforms a
    block of eigenvectors; at one BLAS thread its eigenvalues and k
    eigenvectors are those of scipy.linalg.eigh, bit for bit."""

    # n = 1, 41, 81, 169, 441, 777
    @pytest.mark.parametrize("d, l", [(1, 0.5), (1, 20.0), (2, 4.0), (2, 6.0),
                                      (2, 10.0), (1, 388.0)])
    def test_box_operator(self, d, l):
        op = random_operator(np.random.default_rng(int(l) + d), l=l, d=d, w=50.0)
        n = op.box.count
        with blas_threads(1):
            evals, evecs = scipy.linalg.eigh(op.matrix)
            for k in lowest_counts(n):
                res = eigensolve(op, vectors=k)
                assert np.array_equal(res.eigenvalues, evals)
                assert res.eigenvectors.shape == (n, k)
                assert np.array_equal(res.eigenvectors, evecs[:, :k])

    # sizes no box has (a box has (2 floor(l) + 1)^d sites), on dense
    # random symmetric matrices; at scale 1e-160, max|A| lies below
    # dsyevr's RMIN = 2^-485, so it scales A up first
    @pytest.mark.parametrize("n", [2, 200, 300, 500])
    @pytest.mark.parametrize("scale", [1.0, 1e-160])
    def test_symmetric_matrix(self, n, scale):
        A = np.random.default_rng(n).standard_normal((n, n))
        A = scale * (A + A.T)
        with blas_threads(1):
            evals, evecs = scipy.linalg.eigh(A)
            for k in lowest_counts(n):
                got = spectral._lowest_eigenpairs(np.array(A, order="F"), k)
                assert np.array_equal(got[0], evals)
                assert np.array_equal(got[1], evecs[:, :k])

    # max|H| above dsyevr's RMAX ~ 8e76: it scales H down first; on the
    # last operator dstemr then fails and dsyevr falls back to bisection
    @pytest.mark.parametrize("d, l, seed", [(1, 20.0, 3), (2, 7.0, 0),
                                            (2, 10.0, 0)])
    def test_scaled_box_operator(self, d, l, seed):
        op = random_operator(np.random.default_rng(seed), l=l, d=d, w=1e80)
        assert np.max(op.diagonal) > spectral._RMAX
        with blas_threads(1):
            evals, evecs = scipy.linalg.eigh(op.matrix)
            res = eigensolve(op, vectors=3)
        assert np.array_equal(res.eigenvalues, evals)
        assert np.array_equal(res.eigenvectors, evecs[:, :3])

    def test_dstemr_failure_takes_dsyevr_fallback(self, monkeypatch):
        real_stemr = spectral._stemr

        def failing(*args, **kwargs):
            m, w, z, _ = real_stemr(*args, **kwargs)
            return m, w, z, 22

        op = random_operator(np.random.default_rng(5), l=4.0, d=2, w=50.0)
        monkeypatch.setattr(spectral, "_stemr", failing)
        with blas_threads(1):
            evals, evecs = scipy.linalg.eigh(op.matrix)
            res = eigensolve(op, vectors=5)
        assert np.array_equal(res.eigenvalues, evals)
        assert np.array_equal(res.eigenvectors, evecs[:, :5])

    @pytest.mark.parametrize("vectors", [-1, 10, 2.0, True])
    def test_vector_count_checked(self, vectors):
        with pytest.raises(ParameterError, match="vectors"):
            eigensolve(free_operator(make_box((0,), 4.0)), vectors=vectors)


class TestCounting:
    def test_below_spectrum(self):
        op = free_operator(make_box((0,), 1.0))
        assert count_eigenvalues_in(op, (-10.0, -1.0)) == 0

    def test_half_range(self):
        # closed-form spectrum {2-sqrt2, 2, 2+sqrt2}: [0, 2] holds two;
        # the cushion absorbs eigensolver noise on the analytic value 2
        op = free_operator(make_box((0,), 1.0))
        assert count_eigenvalues_in(op, (0.0, 2.0 + 1e-9)) == 2

    def test_completeness(self):
        rng = np.random.default_rng(3)
        op = random_operator(rng, l=6.0, w=2.0)
        assert count_eigenvalues_in(op, (-100.0, 100.0)) == op.box.count

    def test_disjoint_additivity(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            op = random_operator(rng, l=5.0, w=3.0)
            a, b, c = sorted(rng.uniform(-1, 7, 3))
            whole = count_eigenvalues_in(op, (a, c))
            left = count_eigenvalues_in(op, (a, b))
            right = count_eigenvalues_in(op, (np.nextafter(b, c), c))
            assert whole == left + right


class TestGreensFunction:
    def test_scalar_inverse(self):
        op = free_operator(make_box((0,), 0.5))
        g = greens_column(op, 0.0, (0,))
        assert g[op.box.index_of((0,))] == pytest.approx(0.5)

    def test_tridiagonal_corner(self):
        # inverse of tridiag(-1, 2, -1), entry (1, 3) = 1/4
        op = free_operator(make_box((0,), 1.0))
        g = greens_column(op, 0.0, (-1,))
        assert g[op.box.index_of((1,))] == pytest.approx(0.25, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            op = random_operator(rng, l=5.0, w=4.0)
            E = rng.uniform(-1, 0)
            a = greens_column(op, E, (-3,))[op.box.index_of((4,))]
            b = greens_column(op, E, (4,))[op.box.index_of((-3,))]
            assert a == pytest.approx(b, abs=1e-9)

    def test_rank_one_consistency(self):
        rng = np.random.default_rng(6)
        op = random_operator(rng, l=4.0, w=2.0)
        E = -0.5
        n = op.box.count
        G = np.column_stack([greens_column(op, E, tuple(p))
                             for p in op.box.points])
        assert np.max(np.abs((op.matrix - E * np.eye(n)) @ G - np.eye(n))) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([1, 2]), l=st.integers(1, 4),
           w=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1),
           gap_index=st.integers(0, 1000), source_index=st.integers(0, 1000))
    def test_matches_dense_solve(self, d, l, w, seed, gap_index, source_index):
        # E sits midway between neighbouring eigenvalues (or one unit past
        # an end of the spectrum), so it stays off the spectrum
        l = float(2 * l if d == 1 else l)
        op = random_operator(np.random.default_rng(seed), l=l, d=d, w=w)
        n = op.box.count
        evals = np.linalg.eigvalsh(op.matrix)
        edges = np.concatenate([[evals[0] - 2.0], evals, [evals[-1] + 2.0]])
        k = gap_index % (n + 1)
        E = 0.5 * (edges[k] + edges[k + 1])
        assume(np.min(np.abs(evals - E)) > 1e-3)
        src = source_index % n
        rhs = np.zeros(n)
        rhs[src] = 1.0
        expect = np.linalg.solve(op.matrix - E * np.eye(n), rhs)
        col = greens_column(op, E, tuple(op.box.points[src]))
        assert np.linalg.norm(col - expect) <= 1e-9 * np.linalg.norm(expect)

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([1, 2]), l=st.integers(1, 3),
           w=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1),
           source_index=st.integers(0, 1000))
    def test_boundary_grid_matches_columns(self, d, l, w, seed, source_index):
        # one product over the grid equals a Green's column per energy on
        # the interior boundary; energies on or within RESONANCE_GUARD of an
        # eigenvalue are flagged and their columns zeroed
        op = random_operator(np.random.default_rng(seed), l=float(l), d=d, w=w)
        # exact distances need the eigenvalues of the decomposition under test
        evals = _green_eigenpairs(op, op.matrix.T)[0]
        source = tuple(op.box.points[source_index % op.box.count])
        mid = 0.5 * (evals[:-1] + evals[1:]) if len(evals) > 1 else evals + 1.0
        near = [evals[0], evals[-1] + 0.5 * RESONANCE_GUARD,
                evals[-1] - 0.5 * RESONANCE_GUARD]
        energies = np.concatenate([[evals[0] - 1.0], mid, near])
        green = boundary_greens(op, source, energies)
        nb = len(op.box.interior_boundary_indices)
        assert green.magnitude.shape == (nb, len(energies))
        expect_distance = np.min(np.abs(evals[:, None] - energies), axis=0)
        assert np.array_equal(green.distance, expect_distance)
        assert np.array_equal(green.resonant,
                              expect_distance < RESONANCE_GUARD)
        assert green.resonant[-3:].all()
        assert np.all(green.magnitude[:, green.resonant] == 0.0)
        for k in np.flatnonzero(~green.resonant):
            col = greens_column(op, energies[k], source)
            expect = np.abs(col[op.box.interior_boundary_indices])
            assert green.magnitude[:, k] == pytest.approx(expect, rel=1e-12,
                                                          abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([1, 2]), l=st.integers(1, 4),
           w=st.sampled_from([0.0, 0.5, 5.0]), seed=st.integers(0, 2**32 - 1),
           source_index=st.integers(0, 1000),
           gaps=st.lists(st.integers(0, 1000), min_size=1, max_size=6))
    def test_greens_match_dense_solves(self, d, l, w, seed, source_index, gaps):
        # boundary_greens and greens_column against columns of dense solves;
        # w = 0 is the free box, whose spectrum is degenerate at d = 2 (the
        # driver's basis inside an eigenspace must not matter)
        l = float(2 * l if d == 1 else l)
        op = random_operator(np.random.default_rng(seed), l=l, d=d, w=w)
        n = op.box.count
        H = op.matrix
        evals = np.linalg.eigvalsh(H)
        # midpoints between distinct levels, or one unit past the ends
        levels = evals[np.concatenate([[True], np.diff(evals) > 1e-6])]
        edges = np.concatenate([[levels[0] - 2.0], levels, [levels[-1] + 2.0]])
        energies = [0.5 * (edges[k] + edges[k + 1])
                    for k in (g % (len(levels) + 1) for g in gaps)]
        assume(min(np.min(np.abs(evals - E)) for E in energies) > 1e-3)
        src = source_index % n
        source = tuple(op.box.points[src])
        rhs = np.zeros(n)
        rhs[src] = 1.0
        green = boundary_greens(op, source, energies)
        assert not green.resonant.any()
        boundary = op.box.interior_boundary_indices
        for k, E in enumerate(energies):
            expect = np.linalg.solve(H - E * np.eye(n), rhs)
            scale = np.linalg.norm(expect)
            col = greens_column(op, E, source)
            assert np.linalg.norm(col - expect) <= 1e-9 * scale
            assert np.linalg.norm(green.magnitude[:, k]
                                  - np.abs(expect[boundary])) <= 1e-9 * scale

    def test_boundary_grid_empty(self):
        op = free_operator(make_box((0, 0), 2.0))
        green = boundary_greens(op, (0, 0), [])
        assert green.magnitude.shape == (16, 0)
        assert green.distance.shape == green.resonant.shape == (0,)

    def test_resonant_energy(self):
        op = free_operator(make_box((0,), 1.0))
        with pytest.raises(ResonantEnergyError):
            greens_column(op, 2.0, (0,))

    def test_weyl_diagonal_shift(self):
        rng = np.random.default_rng(7)
        op = random_operator(rng, l=5.0, w=2.0)
        s = 0.3
        bump = rng.uniform(-s, s, op.box.count)
        shifted = BoxOperator(op.box, op.diagonal + bump)
        a = eigensolve(op).eigenvalues
        b = eigensolve(shifted).eigenvalues
        assert np.max(np.abs(a - b)) <= s + 1e-12


class TestDecayFit:
    def test_synthetic_exponential(self):
        box = make_box((0,), 20.0)
        psi = np.exp(-0.5 * np.abs(box.points[:, 0]))
        psi /= np.linalg.norm(psi)
        rate, r2 = decay_fit(psi, box)
        assert rate == pytest.approx(-0.5, abs=1e-6)
        assert r2 > 0.999

    def test_constant_vector(self):
        box = make_box((0,), 10.0)
        psi = np.full(box.count, 1.0 / math.sqrt(box.count))
        rate, _ = decay_fit(psi, box, center=(0,))
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_too_few_shells(self):
        box = make_box((0,), 0.5)
        with pytest.raises(FitError):
            decay_fit(np.array([1.0]), box)

    def test_localized_ground_state(self):
        # large disorder: wide uniform support means tiny BV norm
        rng = np.random.default_rng(12)
        box = make_box((0,), 20.0)
        dom = make_box((0,), 21.0)
        model = uniform_density(0.0, 50.0)
        cfg = Configuration(dom, model.sample(rng, dom.count))
        op = restrict_hamiltonian(DELTA0, cfg, box)
        res = eigensolve(op, vectors=1)
        rate, _ = decay_fit(res.eigenvectors[:, 0], box)
        assert rate < -0.2


class TestCombesThomas:
    def test_qualitative_decay(self):
        # E below the spectrum at gap g: Green's entries decay exponentially
        box = make_box((0,), 15.0)
        op = free_operator(box)
        measured = {}
        for g in (0.25, 1.0, 4.0):
            E = -g
            col = greens_column(op, E, (0,))
            dist = np.abs(box.points[:, 0])
            mask = np.abs(col) > 1e-14
            slope = np.polyfit(dist[mask], np.log(np.abs(col[mask])), 1)[0]
            measured[g] = slope
            assert slope <= -0.05 * min(math.sqrt(g), 0.25)
        # rates should strengthen with the gap
        assert measured[4.0] < measured[0.25]
