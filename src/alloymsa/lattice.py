"""Lattice geometry, single-site potentials, disorder densities and
finite-box Hamiltonians of the discrete alloy-type model.

The random operator acts on l2(Z^d) as the negative discrete Laplacian
plus the multiplication operator v(x) = sum_k w_k u(x - k), where the
coupling constants w_k are i.i.d. with a bounded-variation density and
u is a (possibly sign-changing) single-site potential with certificate
|u(k)| <= C exp(-alpha ||k||_1).  Finite boxes are [-l, l]^d + center
intersected with Z^d; the restriction to a box is its Dirichlet
truncation (free diagonal 2d, bonds leaving the box dropped).
A box operator is stored as its stencil: the diagonal, with -1 implied
on every bond inside the box.

One capacity rule bounds every array built here from a box, checked by
`check_capacity` before the array is allocated: at most cap^2 entries.
One geometry rule says which couplings reach a box: `coupling_domain`,
the only place that reads the truncation radius of u to size a box.
A trial that draws all of them takes `sample_configuration`.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import CapacityError, ParameterError
from .tails import truncation_tail

Point = tuple[int, ...]

DEFAULT_CAPACITY = 20_000


def capacity_cap() -> int:
    """Points of the largest box whose dense matrix (cap^2 entries) may be
    built; ALLOYMSA_CAPACITY overrides the default.  ParameterError when
    it is set to anything but a positive integer."""
    env = os.environ.get("ALLOYMSA_CAPACITY")
    if not env:
        return DEFAULT_CAPACITY
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ParameterError(
            f"ALLOYMSA_CAPACITY must be a positive integer, got {env!r}")
    return cap


def check_capacity(entries: int, what: str) -> None:
    """CapacityError, before an array of `entries` entries (`what`) is
    allocated, when entries > cap^2, cap = `capacity_cap()`."""
    cap = capacity_cap()
    if entries > cap * cap:
        raise CapacityError(f"{what} would hold {entries} entries, over "
                            f"the cap^2 = {cap}^2")


def norm1(k: Iterable[int]) -> int:
    return sum(abs(c) for c in k)


def norm_inf(k: Iterable[int]) -> int:
    return max(abs(c) for c in k)


@dataclass(frozen=True)
class Box:
    """Lattice cube ([-l, l]^d + center) intersected with Z^d.

    half_side is real; the enumeration keeps, per axis, the integers in
    [center_r - l, center_r + l], i.e. 2*floor(l) + 1 of them for integer
    centers and non-integer boundary cases.
    """

    center: Point
    half_side: float

    def __post_init__(self):
        if not (math.isfinite(self.half_side) and self.half_side > 0):
            raise ParameterError(
                f"box half_side must be finite and positive, got {self.half_side}")
        if len(self.center) < 1:
            raise ParameterError("box center must have dimension >= 1")

    @property
    def dimension(self) -> int:
        return len(self.center)

    @cached_property
    def lo(self) -> tuple[int, ...]:
        return tuple(math.ceil(c - self.half_side) for c in self.center)

    @cached_property
    def hi(self) -> tuple[int, ...]:
        return tuple(math.floor(c + self.half_side) for c in self.center)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def count(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @cached_property
    def strides(self) -> tuple[int, ...]:
        # lexicographic enumeration: first axis slowest
        st = [1] * self.dimension
        for r in range(self.dimension - 2, -1, -1):
            st[r] = st[r + 1] * self.shape[r + 1]
        return tuple(st)

    @cached_property
    def points(self) -> np.ndarray:
        """All lattice points, shape (count, d), lexicographic order."""
        check_capacity(self.count * self.dimension, "the points of a box")
        axes = [np.arange(l, h + 1) for l, h in zip(self.lo, self.hi)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def index_of(self, point: Point) -> int:
        """Flat index of a lattice point of the box."""
        if len(point) != self.dimension:
            raise ParameterError(f"point {point} not in box")
        index = 0
        for c, lo, hi, stride in zip(point, self.lo, self.hi, self.strides):
            if not lo <= c <= hi:
                raise ParameterError(f"point {point} not in box")
            index += (c - lo) * stride
        return int(index)

    @cached_property
    def interior_boundary_indices(self) -> np.ndarray:
        """Flat indices, ascending, of the sites with fewer than 2d
        neighbours inside the box: those with a coordinate at `lo` or `hi`."""
        pts = self.points
        return np.flatnonzero(np.any((pts == self.lo) | (pts == self.hi), axis=1))

    @cached_property
    def slice_block(self) -> np.ndarray:
        """The upper triangle of the off-diagonal part of the diagonal
        blocks of a box operator along axis 0, shape (w, w) with
        w = strides[0]: -1 on every bond inside one slice (the axes after
        the first), 0 on and below the diagonal.  It is read from the band
        of the first slice alone, O(w^2) memory, once per box, and is
        read-only.  It is the same for every slice and every operator on
        the box: block k of H is diag(diagonal[k w:(k + 1) w]) + B + B^T,
        B = slice_block, and neighbouring slices are coupled by -I."""
        band = _band((1,) + self.shape[1:], self.strides,
                     np.zeros(self.strides[0]))
        block = np.triu(_dense(band, self.strides[1:]))
        block.flags.writeable = False
        return block

    def disjoint_from(self, other: "Box") -> bool:
        return any(
            self.hi[r] < other.lo[r] or other.hi[r] < self.lo[r]
            for r in range(self.dimension)
        )


def make_box(center: Point, half_side: float) -> Box:
    """Box [-l, l]^d + center intersected with Z^d, enumerated lexicographically."""
    return Box(tuple(int(c) for c in center), float(half_side))


@dataclass(frozen=True)
class SingleSitePotential:
    """Finitely tabulated single-site potential with a decay certificate.

    `values` holds every nonzero entry; entries must obey
    |u(k)| <= decay_C exp(-decay_alpha ||k||_1) and vanish outside
    ||k||_inf <= truncation_radius.  `truncation_residual` is a certified
    upper bound on the total absolute mass of omitted entries; 0 asserts
    the table is the whole function.
    """

    values: Mapping[Point, float]
    decay_C: float
    decay_alpha: float
    truncation_radius: int
    truncation_residual: float

    def __post_init__(self):
        if not self.values:
            raise ParameterError("single-site potential must not be identically zero")
        _check_certificate(self.decay_C, self.decay_alpha)
        if not (math.isfinite(self.truncation_residual)
                and self.truncation_residual >= 0):
            raise ParameterError("truncation_residual must be finite and "
                                 f"nonnegative, got {self.truncation_residual!r}")
        d = len(next(iter(self.values)))
        for k, v in self.values.items():
            if len(k) != d:
                raise ParameterError("inconsistent dimension in potential table")
            if not math.isfinite(v):
                raise ParameterError(f"entry u{k}={v!r} must be finite")
            if norm_inf(k) > self.truncation_radius:
                raise ParameterError(
                    f"table entry {k} outside truncation radius {self.truncation_radius}"
                )
            bound = self.decay_C * math.exp(-self.decay_alpha * norm1(k))
            if abs(v) > bound * (1 + 1e-12) + 1e-300:
                raise ParameterError(
                    f"entry u{k}={v} violates decay certificate {bound:.3e}"
                )
        if all(v == 0 for v in self.values.values()):
            raise ParameterError("single-site potential must not be identically zero")

    @property
    def dimension(self) -> int:
        return len(next(iter(self.values)))

    @cached_property
    def support(self) -> np.ndarray:
        return np.array(sorted(self.values.keys()), dtype=np.int64)

    @cached_property
    def support_values(self) -> np.ndarray:
        return np.array([self.values[tuple(k)] for k in self.support], dtype=float)

    @cached_property
    def l1_norm(self) -> float:
        return float(np.abs(self.support_values).sum()) + self.truncation_residual

    @cached_property
    def mean_value(self) -> float:
        """u-bar = sum_k u(k) over the table (exact for residual 0)."""
        return float(self.support_values.sum())

    @cached_property
    def negative_mass(self) -> float:
        """Tabulated negative mass plus the truncation residual.  Assumption 3
        at delta (u = u_+ - delta u_- with u_+ >= 0, ||u_-||_1 <= 1) holds
        when negative_mass <= delta; callers reject negative_mass > delta."""
        negative = self.support_values[self.support_values < 0]
        return float(np.abs(negative).sum()) + self.truncation_residual

    @staticmethod
    def from_json_dict(data: dict) -> "SingleSitePotential":
        """The potential of a config's `u` entry, whose shape the CLI's
        schema has checked: integer keys, an integer truncation_radius >= 0
        (default: the table's largest ||k||_inf) and, when no
        truncation_residual is given, the tail bound beyond that radius,
        computed once the certificate (C, alpha) has been checked.  A point
        listed twice is refused: a dict would keep its last value alone."""
        values = {}
        for k, v in data["values"]:
            point = tuple(int(c) for c in k)
            if point in values:
                raise ParameterError(f"potential table repeats the point {point}")
            values[point] = float(v)
        C, alpha = float(data["C"]), float(data["alpha"])
        radius = data.get("truncation_radius")
        radius = max(norm_inf(k) for k in values) if radius is None else int(radius)
        residual = data.get("truncation_residual")
        if residual is None:
            _check_certificate(C, alpha)
            residual = truncation_tail(C, alpha, data["d"], radius)
        return SingleSitePotential(
            values=values,
            decay_C=C,
            decay_alpha=alpha,
            truncation_radius=radius,
            truncation_residual=float(residual),
        )


def _check_certificate(C: float, alpha: float) -> None:
    if not (math.isfinite(C) and C > 0 and math.isfinite(alpha) and alpha > 0):
        raise ParameterError("decay certificate (C, alpha) must be finite "
                             f"and positive, got ({C!r}, {alpha!r})")


@dataclass(frozen=True)
class PolynomialPiece:
    """Polynomial density piece on [lo, hi]; coeffs ascending in x."""

    lo: float
    hi: float
    coeffs: tuple[float, ...]

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))

    @cached_property
    def antiderivative(self) -> tuple[float, ...]:
        return tuple(np.polynomial.polynomial.polyint(np.asarray(self.coeffs)))

    @property
    def mass(self) -> float:
        anti = np.asarray(self.antiderivative)
        pv = np.polynomial.polynomial.polyval
        return float(pv(self.hi, anti) - pv(self.lo, anti))

    def cdf_from_lo(self, x):
        anti = np.asarray(self.antiderivative)
        pv = np.polynomial.polynomial.polyval
        return pv(x, anti) - pv(self.lo, anti)


@dataclass(frozen=True)
class DisorderModel:
    """Coupling-constant distribution: piecewise-polynomial BV density."""

    pieces: tuple[PolynomialPiece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ParameterError("disorder density needs at least one piece")
        pieces = tuple(sorted(self.pieces, key=lambda p: p.lo))
        object.__setattr__(self, "pieces", pieces)
        for p in pieces:
            if not (math.isfinite(p.lo) and math.isfinite(p.hi) and p.lo < p.hi):
                raise ParameterError("density piece needs a finite, non-empty "
                                     f"interval, got [{p.lo!r}, {p.hi!r}]")
            if not all(math.isfinite(c) for c in p.coeffs):
                raise ParameterError(
                    f"density coefficients must be finite, got {p.coeffs!r}")
            # a grid alone misses a dip between its nodes: add the critical points
            grid = np.concatenate([np.linspace(p.lo, p.hi, 513),
                                   _critical_points(p)])
            if np.min(p(grid)) < -1e-10:
                raise ParameterError("density must be nonnegative")
        for a, b in zip(pieces, pieces[1:]):
            if b.lo < a.hi - 1e-12:
                raise ParameterError("density pieces must not overlap")
        total = sum(p.mass for p in pieces)
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"density must integrate to 1, got {total!r}")

    @property
    def support(self) -> tuple[float, float]:
        return (self.pieces[0].lo, self.pieces[-1].hi)

    def in_support(self, x: float) -> bool:
        """Whether x lies in one of the density's closed pieces."""
        return any(p.lo <= x <= p.hi for p in self.pieces)

    @property
    def omega_plus(self) -> float:
        """Largest coupling value in the support."""
        return max(abs(self.support[0]), abs(self.support[1]))

    @cached_property
    def bv_norm(self) -> float:
        return _bv_norm(self.pieces)

    @cached_property
    def _cumulative(self) -> np.ndarray:
        masses = np.array([p.mass for p in self.pieces])
        return np.concatenate([[0.0], np.cumsum(masses)])

    def cdf(self, x: float) -> float:
        total = 0.0
        for p, cum in zip(self.pieces, self._cumulative[:-1]):
            if x < p.lo:
                break
            if x >= p.hi:
                total = cum + p.mass
            else:
                return float(cum + p.cdf_from_lo(x))
        return float(total)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Inverse-CDF draws; vectorized, exact for each polynomial piece.
        A one-piece density maps the uniforms directly: its only offset is
        cum[0] = 0, and t - 0.0 == t, so the draws are those of the
        piece-by-piece path bit for bit."""
        check_capacity(n, "the couplings")
        t = rng.random(n)
        if len(self.pieces) == 1:
            return _inverse_cdf(self.pieces[0], t)
        cum = self._cumulative
        piece_idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0,
                            len(self.pieces) - 1)
        out = np.empty(n)
        for i, p in enumerate(self.pieces):
            mask = piece_idx == i
            if mask.any():
                out[mask] = _inverse_cdf(p, t[mask] - cum[i])
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "DisorderModel":
        return DisorderModel(tuple(
            PolynomialPiece(float(p["interval"][0]), float(p["interval"][1]),
                            tuple(float(c) for c in p["coeffs"]))
            for p in data["pieces"]
        ))


def uniform_density(lo: float, hi: float) -> DisorderModel:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParameterError("uniform density needs finite endpoints lo < hi, "
                             f"got [{lo!r}, {hi!r}]")
    return DisorderModel((PolynomialPiece(lo, hi, (1.0 / (hi - lo),)),))


def _inverse_cdf(piece: PolynomialPiece, target: np.ndarray) -> np.ndarray:
    """The x in the piece whose mass below x is `target`: closed form for a
    constant density, bisection otherwise."""
    if len(piece.coeffs) == 1:
        return piece.lo + target / piece.coeffs[0]
    return _bisect_cdf(piece, target)


def _bisect_cdf(piece: PolynomialPiece, target: np.ndarray) -> np.ndarray:
    lo = np.full(target.shape, piece.lo)
    hi = np.full(target.shape, piece.hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = piece.cdf_from_lo(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _critical_points(piece: PolynomialPiece) -> list[float]:
    """Endpoints and real derivative roots inside the piece, ascending."""
    deriv = np.polynomial.polynomial.polyder(np.asarray(piece.coeffs))
    crit = [piece.lo, piece.hi]
    if len(deriv) > 1:
        roots = np.polynomial.polynomial.polyroots(deriv)
        crit += [float(r.real) for r in roots
                 if abs(r.imag) < 1e-12 and piece.lo < r.real < piece.hi]
    return sorted(set(crit))


def _bv_norm(pieces) -> float:
    """Total variation: boundary jumps (against 0 or the adjacent piece)
    plus the variation of each polynomial piece."""
    total = 0.0
    for i, p in enumerate(pieces):
        left_outside = 0.0
        if i > 0 and abs(pieces[i - 1].hi - p.lo) <= 1e-12:
            left_outside = float(pieces[i - 1](pieces[i - 1].hi))
        total += abs(float(p(p.lo)) - left_outside)
        if i == len(pieces) - 1 or abs(pieces[i + 1].lo - p.hi) > 1e-12:
            total += abs(float(p(p.hi)))
        crit = _critical_points(p)
        for a, b in zip(crit, crit[1:]):
            total += abs(float(p(b)) - float(p(a)))
    return total


@dataclass(frozen=True)
class Configuration:
    """Coupling constants on a stated box, zero outside it."""

    domain: Box
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.domain.count,):
            raise ParameterError(
                f"configuration needs {self.domain.count} values, got {vals.shape}"
            )
        vals.flags.writeable = False


def coupling_domain(u: SingleSitePotential, box: Box,
                    radius: float = 0.0) -> Box:
    """Lambda_{max(radius, l + r) + 1/4} about the centre of `box`
    (half side l), with r the truncation radius of u: every coupling w_k
    whose u(x - k) can be nonzero at a site x of the box, and the whole
    of Lambda_radius besides.  The Wegner estimator passes radius = R_l,
    so that the domain also holds Gamma = Lambda_{R_l}; at radius 0 it is
    Lambda_{l + r + 1/4}, as l + r > 0."""
    return make_box(box.center,
                    max(radius, box.half_side + u.truncation_radius) + 0.25)


def sample_configuration(u: SingleSitePotential, model: DisorderModel,
                         box: Box, rng: np.random.Generator) -> Configuration:
    """Couplings drawn i.i.d. from `model` on `coupling_domain(u, box)`,
    in its lexicographic order: every coupling that reaches the box, so
    its operator on the box is the restriction of a whole-lattice
    realization."""
    domain = coupling_domain(u, box)
    return Configuration(domain, model.sample(rng, domain.count))


def assemble_potential(u: SingleSitePotential, config: Configuration,
                       box: Box) -> np.ndarray:
    """v(x) = sum_k w_k u(x-k) for every x in `box` (lexicographic order).

    The sum runs over the tabulated support of u, one term u_j w_{x-j} per
    support point j; couplings outside the configuration domain are zero.
    Each term is added only on the sub-box of `box` whose translate by -j
    lies in the domain, a slice of both grids.  The terms left out are
    u_j * 0 = +-0 for finite u_j, which leave v unchanged (v starts at +0,
    and a sum is -0 only when both terms are), so v is bitwise the
    per-site sum.
    """
    domain = config.domain
    w = config.values.reshape(domain.shape)
    check_capacity(box.count, "the potential on a box")
    v = np.zeros(box.shape)
    for j, uj in zip(u.support.tolist(), u.support_values):
        target, source = [], []
        for lo, hi, d_lo, d_hi, jr in zip(box.lo, box.hi, domain.lo,
                                          domain.hi, j):
            first, last = max(lo, d_lo + jr), min(hi, d_hi + jr)
            if first > last:
                break
            target.append(slice(first - lo, last - lo + 1))
            source.append(slice(first - jr - d_lo, last - jr - d_lo + 1))
        else:
            v[tuple(target)] += uj * w[tuple(source)]
    return v.reshape(-1)


@dataclass(frozen=True)
class BoxOperator:
    """Finite-box Hamiltonian h0 + v stored as its stencil.

    `diagonal` holds, per site in lexicographic order, the free diagonal
    2d plus v.  The off-diagonal entries are implied: -1 on every
    nearest-neighbour bond inside the box, so H is banded with bandwidth
    w = `box.strides[0]`, and block tridiagonal along axis 0: L slices of
    w sites, coupled by -I.  `op @ X` applies H with one pass per axis.
    `upper_band()` gives LAPACK band storage (counts at w = 1, (w + 1) n
    doubles), and `matrix` the dense n x n reference built on demand
    (eigensolves and Green's functions), both read from the band
    (`_band`, where the bonds are listed).  The in-slice part of the
    diagonal blocks, which the eigenvalue counts at d >= 2 read, depends
    on the box alone and lives on it (`Box.slice_block`, O(w^2) memory,
    built once per box).  Each form must fit the capacity rule: past
    n = cap a count runs while its w x w block fits, and only the dense
    matrix is refused.  The diagonal is finite and read-only.
    """

    box: Box
    diagonal: np.ndarray

    def __post_init__(self):
        diagonal = np.asarray(self.diagonal, dtype=float)
        object.__setattr__(self, "diagonal", diagonal)
        if diagonal.shape != (self.box.count,):
            raise ParameterError(
                f"operator diagonal needs {self.box.count} entries, "
                f"got shape {diagonal.shape}")
        if not np.isfinite(diagonal).all():
            raise ParameterError(
                "operator diagonal must be finite (a potential past the "
                f"doubles), got {float(diagonal[~np.isfinite(diagonal)][0])}")
        diagonal.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.box.dimension

    @property
    def matrix(self) -> np.ndarray:
        """Dense symmetric matrix of the operator, a fresh n x n array."""
        M = free_box_matrix(self.box)
        np.fill_diagonal(M, self.diagonal)
        return M

    def __matmul__(self, x) -> np.ndarray:
        """H x for a vector of length n or an (n, k) block of columns, with
        one pass per axis over the box-shaped view of x.  The sites lead
        and x is made C-contiguous, so every pass runs over contiguous
        runs of whole rows, not over the short last axis of the box."""
        x = np.ascontiguousarray(x, dtype=float)
        xs = x.reshape(self.box.shape + x.shape[1:])
        ys = self.diagonal.reshape(self.box.shape + (1,) * (x.ndim - 1)) * xs
        for r in range(self.dimension):
            lower = (slice(None),) * r + (slice(None, -1),)
            upper = (slice(None),) * r + (slice(1, None),)
            ys[lower] -= xs[upper]
            ys[upper] -= xs[lower]
        return ys.reshape(x.shape)

    def upper_band(self) -> np.ndarray:
        """Upper band storage of H, shape (w + 1, n) with w = box.strides[0]:
        row w holds the diagonal and row w - s the s-th superdiagonal, so
        entry H[i, j] (i <= j) sits at [w + i - j, j]."""
        return _band(self.box.shape, self.box.strides, self.diagonal)


def _band(shape: tuple[int, ...], strides: tuple[int, ...],
          diagonal: np.ndarray) -> np.ndarray:
    """Upper band storage, shape (w + 1, m) with w = strides[0], of the
    operator with `diagonal` on the m sites of a box of `shape`, whose
    axes have the flat `strides`: the box of a `BoxOperator`, or the
    first slice of one along axis 0 (the same strides).  It is the one
    place that lists the bonds inside a box; every other form of H
    (`upper_band`, `Box.slice_block`, `matrix`) is read from it."""
    w = strides[0]
    check_capacity((w + 1) * len(diagonal), "a band matrix")
    band = np.zeros((w + 1, len(diagonal)))
    band[w] = diagonal
    for r, s in enumerate(strides):
        # H[j - s, j] = -1 where site j has an axis-r neighbour below it
        row = band[w - s].reshape(shape)
        row[(slice(None),) * r + (slice(1, None),)] = -1.0
    return band


def _dense(band: np.ndarray, strides: Iterable[int]) -> np.ndarray:
    """The symmetric m x m matrix held in the upper band storage `band`,
    shape (w + 1, m): row w on the diagonal and, for each s in `strides`,
    row w - s on the s-th super- and subdiagonal, written through strided
    views of the flat buffer."""
    w, m = band.shape[0] - 1, band.shape[1]
    check_capacity(m * m, "a dense matrix")
    M = np.zeros((m, m))
    flat = M.reshape(-1)
    flat[::m + 1] = band[w]
    for s in strides:
        entries = band[w - s, s:]
        flat[s:(m - s) * m:m + 1] = entries  # M[i, i + s]
        flat[s * m::m + 1] = entries  # M[i + s, i]
    return M


def free_box_matrix(box: Box) -> np.ndarray:
    """Dense n x n matrix of the free box operator, from its band."""
    return _dense(_band(box.shape, box.strides,
                        np.full(box.count, 2.0 * box.dimension)), box.strides)


def restrict_hamiltonian(
    u: SingleSitePotential,
    config: Configuration,
    box: Box,
) -> BoxOperator:
    """Dirichlet truncation of h0 + v to `box`; ParameterError where v
    passes the doubles."""
    # a sum past the doubles is refused by the operator, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = assemble_potential(u, config, box)
        diagonal += 2.0 * box.dimension
    return BoxOperator(box=box, diagonal=diagonal)
