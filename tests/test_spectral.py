"""spectral: eigensolves, counting, Green's functions, decay fits."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alloymsa import (Configuration, count_eigenvalues_in, decay_fit,
                      eigensolve, make_box, restrict_hamiltonian,
                      uniform_density)
from alloymsa import lattice, spectral
from alloymsa.errors import FitError, ParameterError, ResonantEnergyError
from alloymsa.lattice import BoxOperator
from alloymsa.spectral import (RESONANCE_GUARD, _green_eigenpairs,
                               boundary_greens, greens_column)
from helpers import (blas_threads, exact_potential, free_operator,
                     neighbor_counts)

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


def decay_box_operator(l=12.0):
    """A d = 2 box operator with the `decay` benchmark's disorder,
    uniform on [0, 50]: no relative-accuracy refinement and no split;
    the default l = 12 (n = 625) is past the sizes left to dsyevr."""
    return random_operator(np.random.default_rng(2), l=l, d=2, w=50.0)


def lowest_counts(n):
    return sorted({1, min(n, 3), min(n, 5), n})


def dense_spy():
    """`lattice._dense`, recording in `.sizes` the size of each matrix it
    builds."""
    real_dense = lattice._dense

    def dense(band, strides):
        dense.sizes.append(band.shape[1])
        return real_dense(band, strides)

    dense.sizes = []
    return dense


class TestLowestEigenvectorsBitwise:
    """eigensolve(op, vectors=k) leaves n <= 512 to dsyevr itself; past it
    it runs dsyevr's steps and back-transforms a block of eigenvectors.  At
    one BLAS thread its eigenvalues and k eigenvectors are those of
    scipy.linalg.eigh, bit for bit."""

    # n = 1, 41, 81, 169, 441 (dsyevr itself), 777
    @pytest.mark.parametrize("d, l", [(1, 0.5), (1, 20.0), (2, 4.0), (2, 6.0),
                                      (2, 10.0), (1, 388.0)])
    def test_box_operator(self, d, l):
        op = random_operator(np.random.default_rng(int(l) + d), l=l, d=d, w=50.0)
        n = op.box.count
        with blas_threads(1):
            evals, evecs = scipy.linalg.eigh(op.matrix)
            for k in lowest_counts(n):
                res = eigensolve(op, vectors=k)
                assert np.array_equal(res.eigenvalues, evals[:k])
                assert res.eigenvectors.shape == (n, k)
                assert np.array_equal(res.eigenvectors, evecs[:, :k])

    # sizes no box has (a box has (2 floor(l) + 1)^d sites), n = 512 +
    # `past`, on dense random symmetric matrices at the one scale (a
    # matrix dsyevr would scale first never reaches `_lowest_eigenpairs`)
    @pytest.mark.parametrize("past", [2, 200, 300, 500])
    @pytest.mark.parametrize("scale", [1.0])
    def test_symmetric_matrix(self, past, scale):
        n = spectral._FULL_WIDTH_MAX + past
        A = np.random.default_rng(n).standard_normal((n, n))
        A = scale * (A + A.T)
        with blas_threads(1):
            evals, evecs = scipy.linalg.eigh(A)
            for k in lowest_counts(n):
                got = spectral._lowest_eigenpairs(np.array(A, order="F"), k)
                assert np.array_equal(got[0], evals[:k])
                assert np.array_equal(got[1], evecs[:, :k])

    # box sizes at which a 256-wide back-transform block missed dsyevr's
    # bits (k = 1 at 11 of the n in 267..279, k = 3 at 21 in 267..293,
    # k = 112 and 240 at 101 in 267..415): up to n = 512 dsyevr itself
    # solves, with no reduction by hand
    @pytest.mark.parametrize("n", [267, 279, 293, 415])
    def test_full_width_sizes(self, monkeypatch, n):
        op = random_operator(np.random.default_rng(n), l=(n - 1) / 2, w=50.0)
        assert op.box.count == n
        monkeypatch.setattr(spectral, "_sytrd", pytest.fail)
        with blas_threads(1):
            evals, evecs = scipy.linalg.eigh(op.matrix)
            for k in (1, 3, 112, 240):
                res = eigensolve(op, vectors=k)
                assert np.array_equal(res.eigenvalues, evals[:k])
                assert np.array_equal(res.eigenvectors, evecs[:, :k])

    # max|H| above dsyevr's RMAX ~ 8e76: it scales H down first, so
    # dsyevr itself solves, with no reduction by hand, also at n = 601,
    # past 512; on the third operator dstemr then fails and dsyevr falls
    # back to bisection
    @pytest.mark.parametrize("d, l, seed", [(1, 20.0, 3), (2, 7.0, 0),
                                            (2, 10.0, 0), (1, 300.0, 3)])
    def test_scaled_box_operator(self, monkeypatch, d, l, seed):
        op = random_operator(np.random.default_rng(seed), l=l, d=d, w=1e80)
        assert np.max(op.diagonal) > spectral._RMAX
        monkeypatch.setattr(spectral, "_sytrd", pytest.fail)
        with blas_threads(1):
            evals, evecs = scipy.linalg.eigh(op.matrix)
            res = eigensolve(op, vectors=3)
        assert np.array_equal(res.eigenvalues, evals[:3])
        assert np.array_equal(res.eigenvectors, evecs[:, :3])

    # a failing dlarre or dlarrv hands the solve to dstemr itself; where
    # that fails too, dsyevr solves a fresh matrix (its bisection fallback)
    @pytest.mark.parametrize("routine", ["_larre", "_larrv"])
    @pytest.mark.parametrize("stemr_fails", [False, True])
    def test_failure_falls_back(self, monkeypatch, routine, stemr_fails):
        real_routine, real_stemr = getattr(spectral, routine), spectral._stemr
        stemr_calls = []

        def failing_routine(*args):
            real_routine(*args)
            args[-1]._obj.value = 2  # info, passed by reference

        def stemr(*args, **kwargs):
            m, w, z, info = real_stemr(*args, **kwargs)
            stemr_calls.append(info)
            return m, w, z, 22 if stemr_fails else info

        op = decay_box_operator()
        monkeypatch.setattr(spectral, routine, failing_routine)
        monkeypatch.setattr(spectral, "_stemr", stemr)
        with blas_threads(1):
            evals, evecs = scipy.linalg.eigh(op.matrix)
            monkeypatch.setattr(lattice, "_dense", dense_spy())
            res = eigensolve(op, vectors=5)
        assert stemr_calls == [0]
        # dsytrd overwrote the first matrix: dsyevr gets a second one
        assert len(lattice._dense.sizes) == 1 + stemr_fails
        assert np.array_equal(res.eigenvalues, evals[:5])
        assert np.array_equal(res.eigenvectors, evecs[:, :5])

    # dstemr's other routes past n = 512: a tridiagonal matrix that splits
    # (a block-diagonal matrix reduces to one, and dstemr sorts across the
    # blocks) and one that warrants relatively accurate eigenvalues (a
    # graded diagonal, refined by dlarrj; its max(|d|, |e|) of 2e9 stays
    # under _MRRR_MAX_NORM, so dlarrr decides) are each left to dstemr
    @pytest.mark.parametrize("case", ["split", "relative"])
    def test_dstemr_routes(self, monkeypatch, case):
        rng = np.random.default_rng(4)
        if case == "split":
            A = scipy.linalg.block_diag(rng.standard_normal((300, 300)),
                                        rng.standard_normal((280, 280)))
        else:
            A = np.diag(10.0 ** np.linspace(0.0, 9.0, 580)) + \
                np.diag(rng.uniform(0.1, 0.5, 579), 1)
        A = A + A.T
        real_stemr, stemr_calls = spectral._stemr, []

        def stemr(*args, **kwargs):
            stemr_calls.append(args[0].size)
            return real_stemr(*args, **kwargs)

        monkeypatch.setattr(spectral, "_stemr", stemr)
        n = A.shape[0]
        with blas_threads(1):
            evals, evecs = scipy.linalg.eigh(A)
            for k in lowest_counts(n):
                got = spectral._lowest_eigenpairs(np.array(A, order="F"), k)
                assert np.array_equal(got[0], evals[:k])
                assert np.array_equal(got[1], evecs[:, :k])
        assert stemr_calls == [n] * len(lowest_counts(n))

    def test_main_route_skips_dstemr(self, monkeypatch):
        monkeypatch.setattr(spectral, "_stemr", None)
        op = decay_box_operator()
        with blas_threads(1):
            evals, evecs = scipy.linalg.eigh(op.matrix)
            for k in lowest_counts(op.box.count):
                res = eigensolve(op, vectors=k)
                assert np.array_equal(res.eigenvalues, evals[:k])
                assert np.array_equal(res.eigenvectors, evecs[:, :k])
                assert res.residual <= 1e-10

    # n = 1, 3, 441 and 511: dsyevr itself, no reduction by hand
    @pytest.mark.parametrize("d, l", [(1, 0.5), (1, 1.0), (2, 10.0),
                                      (1, 255.0)])
    def test_small_solves_skip_sytrd(self, monkeypatch, d, l):
        op = random_operator(np.random.default_rng(int(l) + d), l=l, d=d,
                             w=50.0)
        monkeypatch.setattr(spectral, "_sytrd", pytest.fail)
        with blas_threads(1):
            evals, evecs = scipy.linalg.eigh(op.matrix)
            for k in lowest_counts(op.box.count):
                res = eigensolve(op, vectors=k)
                assert np.array_equal(res.eigenvalues, evals[:k])
                assert np.array_equal(res.eigenvectors, evecs[:, :k])

    def test_benchmark_operator_skips_dsyevr(self, monkeypatch):
        # the `decay` benchmark's operator (n = 1681) takes the fast route;
        # one that always returned None would pass every bitwise test above
        op = decay_box_operator(l=20.0)
        with blas_threads(1):
            evals, evecs = scipy.linalg.eigh(op.matrix)
            monkeypatch.setattr(scipy.linalg, "eigh", pytest.fail)
            res = eigensolve(op, vectors=3)
        assert np.array_equal(res.eigenvalues, evals[:3])
        assert np.array_equal(res.eigenvectors, evecs[:, :3])

    def test_vector_solve_memory(self):
        # n = 961 > W = 256: the solve holds the n x n matrix, and of the
        # tridiagonal eigenvectors only a leading block (dstemr's n x n
        # array took the peak past 2 n^2 doubles)
        op = decay_box_operator(l=15.0)
        n = op.box.count
        eigensolve(op, vectors=3)
        tracemalloc.start()
        try:
            eigensolve(op, vectors=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n

    # a values-only solve, and k = 3 at n = 441 (dsyevr itself) and at
    # n = 625 (dsyevr's steps), each build one dense matrix
    @pytest.mark.parametrize("l, vectors", [(10.0, 0), (10.0, 3),
                                            (12.0, 3)])
    def test_one_dense_build_per_solve(self, monkeypatch, l, vectors):
        op = decay_box_operator(l=l)
        monkeypatch.setattr(lattice, "_dense", dense_spy())
        eigensolve(op, vectors=vectors)
        assert lattice._dense.sizes == [op.box.count]

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


def shell_maxima_loop(psi, box, center):
    """The oracle: one site at a time, the running max per radius."""
    radii = np.max(np.abs(box.points - np.asarray(center)), axis=1)
    shells = {}
    for r, a in zip(radii, np.abs(psi)):
        shells[int(r)] = max(shells.get(int(r), 0.0), float(a))
    return shells


class TestShellMaxima:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), half=st.floats(0.5, 4.5),
           seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 1.0),
           levels=st.integers(1, 4))
    def test_matches_site_loop(self, d, half, seed, zeros, levels):
        # few distinct magnitudes of both signs give ties within a shell,
        # and a share of exact zeros gives shells whose max is 0
        box = make_box((0,) * d, half)
        rng = np.random.default_rng(seed)
        psi = rng.choice(np.linspace(-1.0, 1.0, 2 * levels + 1), box.count)
        psi[rng.random(box.count) < zeros] = 0.0
        center = tuple(int(c) for c in box.points[rng.integers(box.count)])
        got = spectral.shell_maxima(psi, box, center)
        assert got == shell_maxima_loop(psi, box, center)
        assert all(type(r) is int and type(v) is float
                   for r, v in got.items())

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), half=st.floats(0.5, 4.5),
           seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 4))
    def test_decay_shells(self, d, half, seed, levels):
        # centred on the first site of max |psi|, shells at or below the
        # floor left out; magnitudes 10^-20..1 put some shells below it
        box = make_box((0,) * d, half)
        rng = np.random.default_rng(seed)
        psi = rng.choice([-1.0, 1.0], box.count) * \
            10.0 ** -rng.choice(np.linspace(0.0, 20.0, levels + 1), box.count)
        center = box.points[np.flatnonzero(np.abs(psi)
                                           == np.abs(psi).max())[0]]
        expect = {r: v for r, v in shell_maxima_loop(psi, box, center).items()
                  if v > spectral.SHELL_FLOOR}
        got = spectral.decay_shells(psi, box)
        assert got == expect
        assert list(got) == sorted(expect)


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
        rate, _ = decay_fit(psi, box)
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
