"""model_core: boxes, potentials, densities, configurations, operators."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alloymsa import (Configuration, DisorderModel, PolynomialPiece,
                      SingleSitePotential, assemble_potential, make_box,
                      restrict_hamiltonian, uniform_density)
from alloymsa.errors import CapacityError, ParameterError
from alloymsa.lattice import Box, BoxOperator, _bisect_cdf
from alloymsa.msa import _energy_grid
from alloymsa.tails import truncation_tail
from helpers import (exact_potential, flat_indices, free_operator,
                     neighbor_counts, truncated_exponential_potential,
                     values_at)

DELTA0 = exact_potential({(0,): 1.0}, 1.0, 1.0)
PAIR = exact_potential({(0,): 1.0, (1,): -1.0}, 2.8, 1.0)  # mean-zero


def constant_configuration(box: Box, value: float) -> Configuration:
    return Configuration(box, np.full(box.count, float(value)))


class TestMakeBox:
    def test_1d_unit(self):
        box = make_box((0,), 1.0)
        assert box.count == 3
        assert [tuple(p) for p in box.points] == [(-1,), (0,), (1,)]

    def test_2d_count(self):
        assert make_box((0, 0), 1.0).count == 9

    def test_real_half_side(self):
        # integers in [3 - 2.5, 3 + 2.5] = [0.5, 5.5]
        box = make_box((3,), 2.5)
        assert [tuple(p) for p in box.points] == [(1,), (2,), (3,), (4,), (5,)]

    def test_nonpositive_half_side(self):
        with pytest.raises(ParameterError):
            make_box((0,), 0.0)

    def test_non_finite_half_side(self):
        for half in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="finite"):
                make_box((0,), half)

    def test_lexicographic_order(self):
        box = make_box((0, 0), 1.0)
        pts = [tuple(p) for p in box.points]
        assert pts == sorted(pts)

    def test_interior_boundary_2d(self):
        box = make_box((0, 0), 2.0)
        ring = {tuple(p) for p in box.points[box.interior_boundary_indices]}
        assert (0, 0) not in ring
        assert (2, 2) in ring and (-2, 0) in ring
        assert len(ring) == 25 - 9

    def test_interior_boundary_indices(self):
        box = make_box((1, -2), 2.0)
        # positions in the lexicographic enumeration of the box
        expect = [i for i, p in enumerate(box.points)
                  if any(c in (lo, hi) for c, lo, hi in zip(p, box.lo, box.hi))]
        assert box.interior_boundary_indices.tolist() == expect

    @pytest.mark.parametrize("center, half", [
        ((0,), 0.5), ((0.5,), 0.5), ((3,), 2.5), ((0.5,), 4.0),
        ((0, 0), 0.5), ((0.5, 0), 0.5), ((0, 0.5), 0.5), ((0.5, 0), 1.0),
        ((1, -2), 2.0), ((0.5, 0.5), 3.0),
        ((0, 0, 0.5), 0.5), ((0.5, 0.5, 0), 0.5), ((0, 0.5, 0.5), 0.5),
        ((0, 2, -1), 1.5), ((0.5, 0, 0.5), 2.0)])
    def test_interior_boundary_matches_neighbor_counts(self, center, half):
        # one-site axes (half 1/2 at an integer centre) and even axes
        # (half-integer centres), as in the stencil tests' shapes
        box = Box(center, half)
        got = box.interior_boundary_indices
        expect = np.flatnonzero(neighbor_counts(box) < 2 * box.dimension)
        assert got.dtype == np.int64
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("center, half", [((3,), 2.5), ((1, -2), 2.0),
                                              ((0, 2, -1), 1.5)])
    def test_index_of_matches_flat_indices(self, center, half):
        box = make_box(center, half)
        flat = flat_indices(box, box.points)
        assert [box.index_of(tuple(p)) for p in box.points] == flat.tolist()
        assert [box.index_of(tuple(int(c) for c in p))
                for p in box.points] == list(range(box.count))

    @pytest.mark.parametrize("point", [(2, 0), (-2, -1), (0, 3), (0,),
                                       (0, 0, 0)])
    def test_index_of_rejects(self, point):
        with pytest.raises(ParameterError, match="not in box"):
            make_box((0, 0), 1.0).index_of(point)


class TestSampleConfiguration:
    def test_support_containment(self):
        model = uniform_density(0.0, 1.0)
        values = model.sample(np.random.default_rng(7),
                              make_box((0,), 10.0).count)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_determinism(self):
        model = uniform_density(0.0, 1.0)
        n = make_box((0, 0), 3.0).count
        a = model.sample(np.random.default_rng(123), n)
        b = model.sample(np.random.default_rng(123), n)
        assert np.array_equal(a, b)

    def test_mean_clt(self):
        model = uniform_density(0.0, 1.0)
        values = model.sample(np.random.default_rng(11),
                              make_box((0,), 50_000.0).count)
        assert abs(values.mean() - 0.5) < 0.01

    def test_triangular_sampling_moments(self):
        # peak 1 at x=1 on [0,2]: mean 1, var 1/6
        tri = DisorderModel((
            PolynomialPiece(0.0, 1.0, (0.0, 1.0)),
            PolynomialPiece(1.0, 2.0, (2.0, -1.0)),
        ))
        values = tri.sample(np.random.default_rng(3),
                            make_box((0,), 30_000.0).count)
        assert abs(values.mean() - 1.0) < 0.01
        assert abs(values.var() - 1.0 / 6.0) < 0.01


def piecewise_draws(model: DisorderModel, rng, n: int) -> np.ndarray:
    """The general inverse-CDF path of `DisorderModel.sample` for any
    number of pieces: locate each uniform's piece, then invert its CDF."""
    t = rng.random(n)
    cum = np.concatenate([[0.0], np.cumsum([p.mass for p in model.pieces])])
    piece_idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0,
                        len(model.pieces) - 1)
    out = np.empty(n)
    for i, p in enumerate(model.pieces):
        mask = piece_idx == i
        if not mask.any():
            continue
        target = t[mask] - cum[i]
        if len(p.coeffs) == 1:
            out[mask] = p.lo + target / p.coeffs[0]
        else:
            out[mask] = _bisect_cdf(p, target)
    return out


class TestOnePieceSampling:
    @settings(max_examples=60, deadline=None)
    @given(lo=st.floats(-5.0, 5.0), width=st.floats(0.1, 10.0),
           slope=st.floats(-1.0, 1.0), linear=st.booleans(),
           seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300))
    def test_bitwise_equal_to_general_path(self, lo, width, slope, linear,
                                           seed, n):
        # uniform on [lo, lo + width], or the linear density
        # (1 + slope (2 (x - lo) / width - 1)) / width, nonnegative for
        # |slope| <= 1 and of mass 1
        hi = lo + width
        if linear:
            coeffs = ((1.0 - slope - 2.0 * slope * lo / width) / width,
                      2.0 * slope / width**2)
        else:
            coeffs = (1.0 / width,)
        try:
            model = DisorderModel((PolynomialPiece(lo, hi, coeffs),))
        except ParameterError:  # rounding pushed the mass off 1 by > 1e-12
            assume(False)
        got = model.sample(np.random.default_rng(seed), n)
        expect = piecewise_draws(model, np.random.default_rng(seed), n)
        assert got.tobytes() == expect.tobytes()


class TestAssemblePotential:
    def test_delta_convolution(self):
        box = make_box((0,), 3.0)
        cfg = constant_configuration(make_box((0,), 10.0), 0.7)
        v = assemble_potential(DELTA0, cfg, box)
        assert np.allclose(v, 0.7)

    def test_mean_zero_constant_coupling(self):
        box = make_box((0,), 3.0)
        cfg = constant_configuration(make_box((0,), 10.0), 1.0)
        v = assemble_potential(PAIR, cfg, box)
        assert np.allclose(v, 0.0)

    def test_linear_coupling(self):
        # w_k = k: v(x) = x*1 + (x-1)*(-1) = 1
        dom = make_box((0,), 10.0)
        cfg = Configuration(dom, dom.points[:, 0].astype(float))
        v = assemble_potential(PAIR, cfg, make_box((0,), 3.0))
        assert np.allclose(v, 1.0)


def per_site_potential(u, config, box):
    """The oracle: sum over j of u_j w_{x-j} at every site x of the box,
    each term read site by site, 0 outside the configuration domain."""
    pts = box.points
    v = np.zeros(len(pts))
    for j, uj in zip(u.support, u.support_values):
        v += uj * values_at(config, pts - j)
    return v


@st.composite
def potential_cases(draw):
    """A potential, a box and a configuration whose domain covers, partly
    overlaps or misses box - supp u, at d = 1..3 with off-origin centres
    (half-integer box centres give axes of even length).  Some couplings
    and some u_j are +-0."""
    d = draw(st.integers(1, 3))
    radius = draw(st.integers(0, 2))
    points = draw(st.lists(st.tuples(*[st.integers(-radius, radius)] * d),
                           min_size=1, max_size=6, unique=True))
    values = draw(st.lists(st.sampled_from([1.0, -0.6, 0.25, -0.0, 0.0]),
                           min_size=len(points), max_size=len(points)))
    values[0] = draw(st.sampled_from([1.0, -0.3]))  # u is not all zero
    u = exact_potential(dict(zip(points, values)), 10.0, 0.1)
    center = tuple(draw(st.integers(-6, 6)) + draw(st.sampled_from([0, 0.5]))
                   for _ in range(d))
    box = Box(center, draw(st.integers(1, 6)) / 2.0)
    dom_half = draw(st.integers(1, 6)) / 2.0
    reach = box.half_side + radius + dom_half + 1
    mode = draw(st.sampled_from(["cover", "overlap", "miss"]))
    if mode == "cover":
        dom = Box(tuple(map(round, center)), box.half_side + radius + dom_half)
    else:
        shift = [draw(st.integers(-int(reach), int(reach))) for _ in range(d)]
        if mode == "miss":
            shift[draw(st.integers(0, d - 1))] = draw(st.sampled_from(
                [-1, 1])) * (int(reach) + 1)
        dom = Box(tuple(int(c) + s for c, s in zip(center, shift)), dom_half)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(-2.0, 3.0, dom.count)
    w[rng.random(dom.count) < 0.2] = -0.0
    w[rng.random(dom.count) < 0.1] = 0.0
    return u, Configuration(dom, w), box


class TestAssemblePotentialSlices:
    @settings(max_examples=300, deadline=None)
    @given(potential_cases())
    def test_bitwise_equal_to_per_site_sum(self, case):
        u, config, box = case
        v = assemble_potential(u, config, box)
        expect = per_site_potential(u, config, box)
        assert v.shape == expect.shape
        # the bytes also compare the sign of every zero
        assert v.tobytes() == expect.tobytes()


class TestRestrictHamiltonian:
    def test_single_site(self):
        cfg = constant_configuration(make_box((0,), 1.0), 0.0)
        op = restrict_hamiltonian(DELTA0, cfg, make_box((0,), 0.5))
        assert op.matrix.shape == (1, 1)
        assert op.matrix[0, 0] == 2.0

    def test_neumann_kernel(self):
        # delta_0 couplings n(x) - 2d turn the box into its Neumann Laplacian
        box = make_box((0,), 1.0)
        cfg = Configuration(box, neighbor_counts(box) - 2.0 * box.dimension)
        op = restrict_hamiltonian(DELTA0, cfg, box)
        assert np.allclose(op.matrix.sum(axis=1), 0.0)

    def test_2d_trace(self):
        box = make_box((0, 0), 1.0)
        cfg = constant_configuration(box, 0.0)
        op = restrict_hamiltonian(exact_potential({(0, 0): 1.0}, 1.0, 1.0),
                                  cfg, box)
        assert op.matrix.trace() == 9 * 4

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        box = make_box((0, 0), 2.0)
        dom = make_box((0, 0), 3.0)
        cfg = Configuration(dom, rng.uniform(0, 1, dom.count))
        op = restrict_hamiltonian(PAIR_2D, cfg, box)
        assert np.max(np.abs(op.matrix - op.matrix.T)) <= 1e-14

    def test_capacity(self):
        # the operator itself is 100,001 entries; its dense matrix is refused
        with pytest.raises(CapacityError):
            free_operator(make_box((0,), 50_000.0)).matrix


PAIR_2D = exact_potential({(0, 0): 1.0, (1, 1): -0.5}, 3.8, 1.0)


def _points(n):
    return make_box((0,), (n - 1) / 2).points


def _couplings(n):
    return uniform_density(0.0, 1.0).sample(np.random.default_rng(0), n)


def _potential(n):
    return assemble_potential(DELTA0, constant_configuration(
        make_box((0,), 1.0), 1.0), make_box((0,), (n - 1) / 2))


def _band(n):
    return free_operator(make_box((0,), (n - 1) / 2)).upper_band()


def _dense(n):
    return free_operator(make_box((0,), (n - 1) / 2)).matrix


def _grid(n):
    return _energy_grid((0.0, 1.0), n, 1)


class TestCapacityRule:
    """No array built from a box holds more than cap^2 entries: each
    builder refuses the smallest array over cap^2 before allocating it,
    and builds the largest one that fits."""

    # name -> (builder of an array from n, entries of that array, cap, the
    # smallest refused n).  A 1-d box has an odd number of sites, so the
    # points (n entries) take an even cap and the band (2n entries) an odd
    # one; no square is cap^2 + 1, so the dense matrix is refused at cap + 1
    CASES = {
        "points": (_points, lambda n: n, 1000, 1000 ** 2 + 1),
        "couplings": (_couplings, lambda n: n, 1000, 1000 ** 2 + 1),
        "potential": (_potential, lambda n: n, 1000, 1000 ** 2 + 1),
        "band": (_band, lambda n: 2 * n, 999, (999 ** 2 + 1) // 2),
        "dense": (_dense, lambda n: n * n, 1000, 1001),
        "grid": (_grid, lambda n: n, 1000, 1000 ** 2 + 1),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_refused_before_allocating(self, monkeypatch, name):
        build, entries, cap, n = self.CASES[name]
        monkeypatch.setenv("ALLOYMSA_CAPACITY", str(cap))
        assert entries(n - 2) <= cap * cap < entries(n)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"over the cap\\^2 = {cap}\\^2"):
                build(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * entries(n)

    @pytest.mark.parametrize("name", list(CASES))
    def test_largest_fitting_array_built(self, monkeypatch, name):
        build, entries, _, _ = self.CASES[name]
        monkeypatch.setenv("ALLOYMSA_CAPACITY", "10")
        n = max(n for n in range(1, 101, 2) if entries(n) <= 100)
        build(n)
        with pytest.raises(CapacityError):
            build(n + 2)


class TestDensityBVNorm:
    def test_uniform_unit(self):
        assert uniform_density(0.0, 1.0).bv_norm == pytest.approx(2.0)

    def test_uniform_scaled(self):
        lam = 50.0
        assert uniform_density(0.0, lam).bv_norm == pytest.approx(2.0 / lam)

    def test_triangular(self):
        tri = DisorderModel((
            PolynomialPiece(0.0, 1.0, (0.0, 1.0)),
            PolynomialPiece(1.0, 2.0, (2.0, -1.0)),
        ))
        assert tri.bv_norm == pytest.approx(2.0)

    def test_normalization_enforced(self):
        with pytest.raises(ParameterError):
            DisorderModel((PolynomialPiece(0.0, 1.0, (0.5,)),))

    @pytest.mark.parametrize("lo, hi", [(0.5, 0.5), (0.0, math.nan),
                                        (math.nan, 1.0), (0.0, math.inf)])
    def test_uniform_needs_finite_nonempty_interval(self, lo, hi):
        with pytest.raises(ParameterError, match="finite endpoints"):
            uniform_density(lo, hi)

    @pytest.mark.parametrize("piece, match", [
        (PolynomialPiece(0.0, math.nan, (1.0,)), "finite, non-empty interval"),
        (PolynomialPiece(0.0, 1.0, (math.nan,)), "coefficients must be finite"),
    ], ids=["interval-nan", "coefficient-nan"])
    def test_non_finite_piece_rejected(self, piece, match):
        with pytest.raises(ParameterError, match=match):
            DisorderModel((piece,))

    def test_negative_dip_between_grid_nodes(self):
        # a(x - x0)^2 + c with unit mass: its minimum c = -5e-6 sits midway
        # between two nodes of a 513-point grid, where the density is positive
        x0, c = 100.5 / 512, -5e-6
        a = 3.0 * (1.0 - c) / ((1.0 - x0) ** 3 + x0 ** 3)
        piece = PolynomialPiece(0.0, 1.0, (a * x0 * x0 + c, -2.0 * a * x0, a))
        grid = np.linspace(0.0, 1.0, 513)
        assert np.min(piece(grid)) > 0.0
        with pytest.raises(ParameterError, match="nonnegative"):
            DisorderModel((piece,))


class TestSpectralSanity:
    def test_monotone_coupling(self):
        # nonnegative u: raising one coupling never lowers an eigenvalue
        u = exact_potential({(0,): 1.0, (1,): 0.4}, 1.1, 1.0)
        rng = np.random.default_rng(17)
        box = make_box((0,), 4.0)  # 9 sites
        dom = make_box((0,), 6.0)
        for _ in range(20):
            vals = rng.uniform(0, 1, dom.count)
            cfg = Configuration(dom, vals)
            before = np.linalg.eigvalsh(restrict_hamiltonian(u, cfg, box).matrix)
            bumped = vals.copy()
            bumped[rng.integers(0, dom.count)] += rng.uniform(0, 2)
            after = np.linalg.eigvalsh(
                restrict_hamiltonian(u, Configuration(dom, bumped), box).matrix)
            assert np.all(after >= before - 1e-10)

    def test_weyl_perturbation(self):
        u = truncated_exp_1d()
        rng = np.random.default_rng(23)
        box = make_box((0,), 3.0)
        dom = make_box((0,), 50.0)
        inner = make_box((0,), 12.0)
        inner_mask = dom.contains_points(dom.points)
        inner_mask &= inner.contains_points(dom.points)
        for _ in range(10):
            a = rng.uniform(0, 1, dom.count)
            b = a.copy()
            b[~inner_mask] = rng.uniform(0, 1, (~inner_mask).sum())
            ca, cb = Configuration(dom, a), Configuration(dom, b)
            va = assemble_potential(u, ca, box)
            vb = assemble_potential(u, cb, box)
            ea = np.linalg.eigvalsh(restrict_hamiltonian(u, ca, box).matrix)
            eb = np.linalg.eigvalsh(restrict_hamiltonian(u, cb, box).matrix)
            assert np.max(np.abs(ea - eb)) <= np.max(np.abs(va - vb)) + 1e-12

    def test_neumann_free_kernel(self):
        box = make_box((0, 0), 2.0)
        op = BoxOperator(box, neighbor_counts(box))
        evals, evecs = np.linalg.eigh(op.matrix)
        assert abs(evals[0]) < 1e-12
        v = evecs[:, 0]
        assert np.max(np.abs(v - v[0])) < 1e-9


def truncated_exp_1d(radius: int = 40, alpha: float = 1.0):
    return truncated_exponential_potential(
        1, 1.0, alpha, radius, lambda k: np.exp(-alpha * abs(k[0])))


# PAIR as a config writes it
PAIR_CONFIG = {"d": 1, "values": [[[0], 1.0], [[1], -1.0]], "C": 2.8,
               "alpha": 1.0, "truncation_radius": 1, "truncation_residual": 0.0}


class TestSerialization:
    def test_potential_roundtrip(self):
        back = SingleSitePotential.from_json_dict(PAIR_CONFIG)
        assert back.values == PAIR.values
        assert back.truncation_residual == 0.0

    def test_density_roundtrip(self):
        tri = DisorderModel((
            PolynomialPiece(0.0, 1.0, (0.0, 1.0)),
            PolynomialPiece(1.0, 2.0, (2.0, -1.0)),
        ))
        # tri in the `pieces` format of a config
        back = DisorderModel.from_json_dict({"pieces": [
            {"interval": [0.0, 1.0], "coeffs": [0.0, 1.0]},
            {"interval": [1.0, 2.0], "coeffs": [2.0, -1.0]},
        ]})
        assert back.bv_norm == pytest.approx(tri.bv_norm)

    def test_decay_certificate_enforced(self):
        with pytest.raises(ParameterError):
            SingleSitePotential({(0,): 1.0, (5,): 0.9}, 1.0, 1.0, 5, 0.0)

    @pytest.mark.parametrize("d, radius", [(1, 1), (2, 1), (2, 3)])
    def test_residual_from_certificate(self, d, radius):
        # with no truncation_residual, the tail of the certificate past
        # the truncation radius
        config = {"d": d, "values": [[[0] * d, 1.0], [[1] + [0] * (d - 1),
                                                      -0.6]],
                  "C": 2.0, "alpha": 1.0, "truncation_radius": radius}
        u = SingleSitePotential.from_json_dict(config)
        assert u.truncation_residual == truncation_tail(2.0, 1.0, d, radius)
        assert u.truncation_residual > 0.0

    @pytest.mark.parametrize("entries, match", [
        ({"values": [[[0], 1.0], [[1], math.nan]]}, r"entry u\(1,\)=nan"),
        ({"C": math.nan}, "decay certificate"),
        ({"alpha": math.nan}, "decay certificate"),
        ({"truncation_residual": math.nan}, "truncation_residual"),
    ], ids=["entry-nan", "C-nan", "alpha-nan", "residual-nan"])
    def test_non_finite_potential_rejected(self, entries, match):
        with pytest.raises(ParameterError, match=match):
            SingleSitePotential.from_json_dict({**PAIR_CONFIG, **entries})
