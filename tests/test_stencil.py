"""Stencil-stored box operators against their dense reference matrix."""

import dataclasses
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alloymsa import (Configuration, count_eigenvalues_in, eigensolve,
                      lattice, make_box, restrict_hamiltonian, spectral)
from alloymsa.errors import ParameterError, SolverError
from alloymsa.lattice import Box, BoxOperator
from alloymsa.spectral import RESIDUAL_BLOCK
from helpers import (exact_potential, free_operator, neighbor_counts,
                     slice_recursion_count, slice_recursion_negative)

# twice the largest half side per dimension: boxes have at most 512 sites
MAX_HALF = {1: 200, 2: 20, 3: 6}

BANDED = scipy.linalg.eigvals_banded


def banded_count(op, e1, e2):
    """The banded reference: eigenvalues in (the double below E1, E2]."""
    return len(BANDED(op.upper_band(), select="v",
                      select_range=(np.nextafter(e1, -np.inf), e2)))


def no_banded():
    """Patch the banded path off: a count must come from the recursion."""
    return mock.patch.object(scipy.linalg, "eigvals_banded",
                             side_effect=AssertionError("banded path taken"))


KINDS = ["dirichlet_truncation", "neumann"]


def boundary_shift(box, kind):
    """Added to the free diagonal 2d: 0 for the Dirichlet truncation, and
    n(x) - 2d for the Neumann Laplacian, whose diagonal n(x) counts the
    neighbours of x inside the box."""
    if kind == "neumann":
        return neighbor_counts(box) - 2.0 * box.dimension
    return np.zeros(box.count)


@st.composite
def operators(draw):
    """Random operator on a d = 1..3 box.  Half-integer centre coordinates
    give axes of even length, so the shapes are not all cubes; half side
    1/2 at an integer centre gives a one-point axis."""
    d = draw(st.integers(1, 3))
    center = tuple(draw(st.sampled_from([0, 0.5])) for _ in range(d))
    half = draw(st.integers(1, MAX_HALF[d])) / 2.0
    kind = draw(st.sampled_from(KINDS))
    seed = draw(st.integers(0, 2**32 - 1))
    box = Box(center, half)
    domain = Box(center, half + 1.0)
    rng = np.random.default_rng(seed)
    cfg = Configuration(domain, rng.uniform(-2.0, 3.0, domain.count))
    u = exact_potential({(0,) * d: 1.0}, 1.0, 1.0)
    op = restrict_hamiltonian(u, cfg, box)
    return BoxOperator(box, op.diagonal + boundary_shift(box, kind)), rng


def _adjacency(box):
    pts = box.points
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    return (dist == 1).astype(float)


class TestStencilAgainstDense:
    @settings(max_examples=80, deadline=None)
    @given(operators())
    def test_matrix_is_diagonal_minus_adjacency(self, op_rng):
        op, _ = op_rng
        expect = np.diag(op.diagonal) - _adjacency(op.box)
        assert np.array_equal(op.matrix, expect)

    @settings(max_examples=80, deadline=None)
    @given(operators(), st.integers(1, 5))
    def test_product(self, op_rng, k):
        op, rng = op_rng
        n = op.box.count
        X = rng.standard_normal((n, k))
        assert np.allclose(op @ X, op.matrix @ X, rtol=1e-13, atol=1e-13)
        x = X[:, 0]
        assert (op @ x).shape == (n,)
        assert np.allclose(op @ x, op.matrix @ x, rtol=1e-13, atol=1e-13)

    @settings(max_examples=80, deadline=None)
    @given(operators())
    def test_band_storage(self, op_rng):
        op, _ = op_rng
        band = op.upper_band()
        w = op.box.strides[0]
        M = op.matrix
        assert band.shape == (w + 1, op.box.count)
        for s in range(w + 1):
            assert np.array_equal(band[w - s, s:], np.diagonal(M, s))
            assert not band[w - s, :s].any()

    @settings(max_examples=80, deadline=None)
    @given(operators(), st.floats(-3.0, 10.0), st.floats(0.0, 8.0))
    def test_banded_count(self, op_rng, e1, width):
        op, _ = op_rng
        e2 = e1 + width
        evals = scipy.linalg.eigh(op.matrix, eigvals_only=True)
        # bisection and QR round differently: keep the ends off the spectrum
        assume(np.min(np.abs(evals - e1)) > 1e-9)
        assume(np.min(np.abs(evals - e2)) > 1e-9)
        dense = np.searchsorted(evals, e2, side="right") - \
            np.searchsorted(evals, e1, side="left")
        assert count_eigenvalues_in(op, (e1, e2)) == dense
        assert banded_count(op, e1, e2) == dense

    @settings(max_examples=40, deadline=None)
    @given(operators())
    def test_in_place_eigenpairs_bitwise(self, op_rng):
        op, _ = op_rng
        evals, evecs = scipy.linalg.eigh(op.matrix)
        values_only = scipy.linalg.eigh(op.matrix, eigvals_only=True)
        res = eigensolve(op, vectors=op.box.count)
        assert np.array_equal(res.eigenvalues, evals)
        assert np.array_equal(res.eigenvectors, evecs)
        assert np.array_equal(eigensolve(op).eigenvalues, values_only)


def test_diagonal_length_checked():
    box = make_box((0, 0), 1.0)
    with pytest.raises(ParameterError, match="9 entries"):
        BoxOperator(box, np.zeros(8))


class TestValueSemantics:
    def test_fields_cannot_be_assigned(self):
        op = free_operator(make_box((0, 0), 1.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.diagonal = np.zeros(9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.box = make_box((0, 0), 2.0)

    def test_diagonal_read_only(self):
        op = free_operator(make_box((0, 0), 1.0))
        with pytest.raises(ValueError, match="read-only"):
            op.diagonal[0] = 1.0
        assert np.all(op.diagonal == 4.0)


class TestClosedInterval:
    def test_single_site_endpoints(self):
        op = free_operator(make_box((0,), 0.5))  # spectrum {2}
        assert count_eigenvalues_in(op, (2.0, 2.0)) == 1
        assert count_eigenvalues_in(op, (1.0, 2.0)) == 1
        assert count_eigenvalues_in(op, (2.0, 3.0)) == 1
        assert count_eigenvalues_in(op, (np.nextafter(2.0, 3.0), 3.0)) == 0
        assert count_eigenvalues_in(op, (1.0, np.nextafter(2.0, 1.0))) == 0

    def test_empty_interval(self):
        op = free_operator(make_box((0, 0), 3.0))
        assert count_eigenvalues_in(op, (-5.0, -1.0)) == 0


class TestResidualContract:
    def test_corrupt_last_eigenvector_raises(self, monkeypatch):
        # n = 601: past the sizes left to dsyevr itself, so the solve runs
        # dsyevr's steps; the last column is in a later block of the
        # residual check
        op = free_operator(make_box((0,), 300.0))
        assert op.box.count > max(RESIDUAL_BLOCK, spectral._FULL_WIDTH_MAX)
        real_lowest = spectral._lowest_eigenpairs

        def corrupt(H, k):
            evals, evecs = real_lowest(H, k)
            evecs[:, -1] = np.roll(evecs[:, -1], 1)
            return evals, evecs

        monkeypatch.setattr(spectral, "_lowest_eigenpairs", corrupt)
        with pytest.raises(SolverError):
            eigensolve(op, vectors=op.box.count)

    # an eigenvalue moved by delta leaves the residual |delta| on its unit
    # eigenvector; the gate divides it by max(1, max|diagonal|), not by
    # ||H||: with diagonal 0 (v = -2d at d = 3, ||H|| = 6 cos(pi/6) = 5.2)
    # a residual of 3e-10 fails, and at diagonal 1000 a residual of 5e-8
    # passes as 5e-11
    @pytest.mark.parametrize("diagonal, delta, fails", [
        (0.0, 3e-10, True), (0.0, 5e-11, False),
        (1000.0, 2e-7, True), (1000.0, 5e-8, False)])
    def test_normaliser_is_the_largest_diagonal_entry(self, diagonal, delta,
                                                      fails):
        box = make_box((0, 0, 0), 2.0)
        op = BoxOperator(box, np.full(box.count, diagonal))
        evals, evecs = scipy.linalg.eigh(op.matrix)
        evals[-1] += delta
        scale = max(1.0, diagonal)
        if fails:
            with pytest.raises(SolverError):
                spectral._checked_residual(op, evals, evecs)
        else:
            assert spectral._checked_residual(op, evals, evecs) == \
                pytest.approx(delta / scale, rel=1e-4)

    # Python's max(worst, nan) is worst: a NaN in column 7, or in its
    # eigenvalue, of a dsyevd solve at d = 2, l = 10 must not pass
    @pytest.mark.parametrize("where", ["column", "eigenvalue"])
    def test_nan_fails(self, where):
        op = random_diagonal_operator(make_box((0, 0), 10.0), "dirichlet", 0)
        evals, evecs = spectral._green_eigenpairs(op, op.matrix.T)
        if where == "column":
            evecs[:, 7] = np.nan
        else:
            evals[7] = np.nan
        with pytest.raises(SolverError):
            spectral._checked_residual(op, evals, evecs)

    def test_clean_eigenpairs_pass(self):
        box = make_box((0, 0), 8.0)
        op = BoxOperator(box, free_operator(box).diagonal
                         + boundary_shift(box, "neumann"))
        assert eigensolve(op, vectors=op.box.count).residual <= 1e-10


class TestBuildMemory:
    def test_restrict_hamiltonian_allocates_no_dense_matrix(self):
        # n = 1681: a dense matrix alone would take 22.6 MB
        u = exact_potential({(0, 0): 1.0, (1, 0): -0.5}, 2.0, 1.0)
        domain = make_box((0, 0), 22.0)
        cfg = Configuration(domain, np.random.default_rng(0).uniform(
            0, 1, domain.count))
        tracemalloc.start()
        try:
            op = restrict_hamiltonian(u, cfg, make_box((0, 0), 20.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.box.count == 1681
        assert peak < 1_000_000


def random_diagonal_operator(box, kind, seed, integer=False):
    """The diagonal of `kind` plus noise from default_rng(seed), uniform
    on [-2, 3) or, with `integer`, integers in -2..2, whose degenerate
    spectra make Schur complements singular at ends on the spectrum."""
    rng = np.random.default_rng(seed)
    noise = rng.integers(-2, 3, box.count) if integer else \
        rng.uniform(-2.0, 3.0, box.count)
    return BoxOperator(box, free_operator(box).diagonal
                       + boundary_shift(box, kind) + noise)


def off_spectrum_intervals(evals, rng, k):
    """k intervals whose ends keep 1e-9 off the spectrum (bisection, QR
    and the recursion round differently), with the dense count of each."""
    out = []
    while len(out) < k:
        e1, e2 = np.sort(rng.uniform(evals[0] - 1.0, evals[-1] + 1.0, 2))
        if min(np.min(np.abs(evals - e1)), np.min(np.abs(evals - e2))) > 1e-9:
            out.append((e1, e2, np.searchsorted(evals, e2, side="right")
                        - np.searchsorted(evals, e1, side="left")))
    return out


class TestSliceRecursion:
    @settings(max_examples=80, deadline=None)
    @given(operators())
    def test_slice_block(self, op_rng):
        op, _ = op_rng
        w = op.box.strides[0]
        M = op.matrix
        block = op.box.slice_block
        assert np.array_equal(np.triu(M[:w, :w] - np.diag(op.diagonal[:w])),
                              block)
        for k in range(op.box.shape[0]):
            here = slice(k * w, (k + 1) * w)
            assert np.array_equal(M[here, here] - np.diag(op.diagonal[here]),
                                  block + block.T)
            if k:
                assert np.array_equal(M[here, (k - 1) * w:k * w], -np.eye(w))
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1.0

    def test_slice_block_built_once_per_box(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return real_band(*args)

        real_band = lattice._band
        monkeypatch.setattr(lattice, "_band", counted)
        box = Box((0, 0, 0), 2.0)
        ops = [random_diagonal_operator(box, "dirichlet_truncation", seed)
               for seed in range(2)]
        with no_banded():
            counts = [count_eigenvalues_in(op, (1.9, 2.1)) for op in ops]
        assert calls == [(1, 5, 5)]
        assert counts == [slice_recursion_count(op, 1.9, 2.1) for op in ops]

    @pytest.mark.parametrize("center,half", [
        ((0.5, 0), 0.5), ((0, 0.5), 0.5), ((0, 0, 0.5), 0.5),
        ((0.5, 0.5, 0), 0.5), ((0, 0.5, 0.5), 0.5), ((0.5, 0), 1.0)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_one_site_axes(self, center, half, kind):
        # shapes (2, 1), (1, 2), (1, 1, 2), (2, 2, 1), (1, 2, 2), (2, 3)
        box = Box(center, half)
        rng = np.random.default_rng(7)
        for seed in range(10):
            op = random_diagonal_operator(box, kind, seed)
            evals = np.linalg.eigvalsh(op.matrix)
            for e1, e2, dense in off_spectrum_intervals(evals, rng, 10):
                assert count_eigenvalues_in(op, (e1, e2)) == dense
                assert banded_count(op, e1, e2) == dense

    def test_random_counts_run_the_recursion(self):
        rng = np.random.default_rng(11)
        for (center, half), seed in itertools.product(
                [((0, 0), 6.0), ((0.5, 0), 4.0), ((0, 0, 0), 2.0),
                 ((0, 0.5, 0), 2.0)], range(5)):
            op = random_diagonal_operator(Box(center, half),
                                          "dirichlet_truncation", seed)
            evals = np.linalg.eigvalsh(op.matrix)
            cases = off_spectrum_intervals(evals, rng, 10)
            with no_banded():
                assert [count_eigenvalues_in(op, (e1, e2))
                        for e1, e2, _ in cases] == [c for _, _, c in cases]


@st.composite
def slice_operators(draw):
    """`random_diagonal_operator` on a d = 2 or 3 box of at most 216 sites."""
    d = draw(st.integers(2, 3))
    center = tuple(draw(st.sampled_from([0, 0.5])) for _ in range(d))
    half = draw(st.integers(1, {2: 12, 3: 5}[d])) / 2.0
    return random_diagonal_operator(
        Box(center, half), draw(st.sampled_from(KINDS)),
        draw(st.integers(0, 2**32 - 1)), integer=draw(st.booleans()))


def spectrum_ends(op, rng):
    """Interval ends: the computed eigenvalues, the integers -2..10 and
    four uniform draws around the spectrum."""
    evals = np.linalg.eigvalsh(op.matrix)
    return [float(e) for e in np.concatenate([
        evals, np.arange(-2.0, 11.0),
        rng.uniform(evals[0] - 1.0, evals[-1] + 1.0, 4)])]


class TestAgainstPerSliceLoop:
    """The slice recursion, which factors in place and reads the inertia
    after its loop, against `slice_recursion_negative`, the same LAPACK
    calls one slice at a time: every count and every hand-over to the
    banded path agree."""

    @staticmethod
    def assert_same_counts(op, e1, e2):
        for E in (e1, e2):
            for sign in (1.0, -1.0):
                assert spectral._count_negative(
                    op, op.box.slice_block, E, sign) == \
                    slice_recursion_negative(op, E, sign)
        assert count_eigenvalues_in(op, (e1, e2)) == \
            slice_recursion_count(op, e1, e2)

    @settings(max_examples=150, deadline=None)
    @given(slice_operators(), st.data())
    def test_random_operators(self, op, data):
        ends = spectrum_ends(op, np.random.default_rng(0))
        e1, e2 = sorted(data.draw(st.sampled_from(ends)) for _ in range(2))
        self.assert_same_counts(op, e1, e2)

    def test_singular_and_banded_paths(self, monkeypatch):
        steps = []
        real_step = spectral._singular_step

        def recorded(*args):
            step = real_step(*args)
            steps.append(step is not None)
            return step

        monkeypatch.setattr(spectral, "_singular_step", recorded)
        rng = np.random.default_rng(5)
        for seed, (center, half) in enumerate([
                ((0, 0), 2.0), ((0.5, 0), 2.5), ((0, 0), 3.0),
                ((0, 0, 0), 1.0), ((0.5, 0, 0), 1.5), ((0, 0.5, 0), 1.0)]):
            op = random_diagonal_operator(Box(center, half), KINDS[seed % 2],
                                          seed, integer=True)
            ends = spectrum_ends(op, rng)
            for e1, e2 in zip(ends[::3], ends[1::3]):
                self.assert_same_counts(op, *sorted((e1, e2)))
        # slices redone by eigendecomposition, and counts handed over
        assert True in steps and False in steps


class TestSingularSchurComplement:
    def test_singular_first_slice(self):
        # H - 3 is nonsingular (spectrum {2, 4, 4, 6}), but S_0 = A_0 - 3
        # is singular; 2 and 6 make later complements singular
        op = BoxOperator(Box((0.5, 0.5), 1.0), [4.0] * 4)
        with no_banded():
            assert count_eigenvalues_in(op, (3.0, 3.0)) == 0
            assert count_eigenvalues_in(op, (2.0, 3.0)) == 1
            assert count_eigenvalues_in(op, (3.0, 6.0)) == 3

    @pytest.mark.parametrize("kind", KINDS)
    def test_endpoints_on_the_spectrum(self, kind):
        # free boxes have degenerate, partly integer spectra; ends on the
        # computed eigenvalues, their 12-digit roundings and the integers
        shapes = [((0, 0), 1.0), ((0.5, 0), 1.0), ((0, 0), 2.0),
                  ((0.5, 0), 2.5), ((0, 0, 0), 1.0), ((0, 0.5, 0), 1.0)]
        for center, half in shapes:
            box = Box(center, half)
            op = BoxOperator(box, free_operator(box).diagonal
                             + boundary_shift(box, kind))
            evals = np.linalg.eigvalsh(op.matrix)
            ends = sorted(set(evals) | set(np.round(evals, 12))
                          | set(range(13)))
            for lo, hi in itertools.chain(zip(ends, ends), zip(ends, ends[1:])):
                count = count_eigenvalues_in(op, (lo, hi))
                inner = np.count_nonzero((evals > lo + 1e-9)
                                         & (evals < hi - 1e-9))
                outer = np.count_nonzero((evals >= lo - 1e-9)
                                         & (evals <= hi + 1e-9))
                assert 0 <= inner <= count <= outer


class TestCountMemory:
    def test_count_far_below_the_band(self):
        u = exact_potential({(0, 0): 1.0, (1, 0): -0.5}, 2.0, 1.0)
        domain = make_box((0, 0), 22.0)
        cfg = Configuration(domain, np.random.default_rng(0).uniform(
            0, 1, domain.count))
        op = restrict_hamiltonian(u, cfg, make_box((0, 0), 20.0))
        band_bytes = (op.box.strides[0] + 1) * op.box.count * 8  # 565 kB
        tracemalloc.start()
        try:
            count_eigenvalues_in(op, (1.9, 2.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < band_bytes / 4
