"""Fixtures shared by the test modules: tabulated potentials, the free
box operator, built from the package's public constructors, the
neighbour count of each box site, the flat index of a point and the
coupling at a point, a BLAS pinned to a thread count, and the slice
recursion one slice at a time, the oracle of the counts."""

from contextlib import contextmanager

import numpy as np

import scipy.linalg

from alloymsa import BoxOperator, SingleSitePotential, make_box, mc, spectral
from alloymsa.lattice import norm_inf
from alloymsa.tails import truncation_tail


def exact_potential(values, decay_C: float,
                    decay_alpha: float) -> SingleSitePotential:
    """Potential whose table is the entire function (zero omitted mass)."""
    radius = max(norm_inf(k) for k in values)
    return SingleSitePotential(
        values=dict(values),
        decay_C=decay_C,
        decay_alpha=decay_alpha,
        truncation_radius=radius,
        truncation_residual=0.0,
    )


def truncated_exponential_potential(d: int, decay_C: float, decay_alpha: float,
                                    radius: int, profile) -> SingleSitePotential:
    """Tabulate profile(k) on ||k||_inf <= radius with the certified residual."""
    box = make_box((0,) * d, float(radius) + 0.25)
    values = {}
    for p in box.points:
        k = tuple(int(c) for c in p)
        v = float(profile(k))
        if v != 0.0:
            values[k] = v
    residual = truncation_tail(decay_C, decay_alpha, d, radius)
    return SingleSitePotential(values, decay_C, decay_alpha, radius, residual)


def free_operator(box) -> BoxOperator:
    """The free box operator: diagonal 2d."""
    return BoxOperator(box=box, diagonal=np.full(box.count, 2.0 * box.dimension))


def neighbor_counts(box) -> np.ndarray:
    """Neighbours of each site inside the box, in lexicographic order: per
    axis, one below unless the site sits at `lo` and one above unless it
    sits at `hi` (none on an axis of one site).  As a diagonal it gives the
    box's Neumann Laplacian, and a site with fewer than 2d neighbours lies
    on the interior boundary."""
    pts = box.points
    below = pts > np.asarray(box.lo)
    above = pts < np.asarray(box.hi)
    return (below.sum(axis=1) + above.sum(axis=1)).astype(float)


def flat_indices(box, pts: np.ndarray) -> np.ndarray:
    """Flat indices, in the box's lexicographic order, of points assumed
    inside the box."""
    return (pts - np.asarray(box.lo)) @ np.asarray(box.strides)


def values_at(config, pts: np.ndarray) -> np.ndarray:
    """The coupling of `config` at each point, zero outside its domain."""
    inside = config.domain.contains_points(pts)
    out = np.zeros(len(pts))
    out[inside] = config.values[flat_indices(config.domain, pts[inside])]
    return out


@contextmanager
def blas_threads(n: int):
    """Every OpenBLAS in this process at n threads, restored on exit: the
    eigenvectors of dsyevr, and so the decay outputs, are bit-reproducible
    only at a fixed BLAS thread count."""
    controls = mc._openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(n)
    try:
        yield
    finally:
        for (_, put), n in zip(controls, saved):
            put(n)


def slice_recursion_negative(op, E: float, sign: float):
    """#{negative eigenvalues of sign (H - E)} by the slice recursion, or
    None where it hands the count to the banded path, one slice at a
    time: the in-slice block is read from the dense matrix, each S_k is a
    fresh array that LAPACK copies before factoring, and its inertia is
    read from the factors as soon as they are trusted.  The LAPACK calls,
    the trust test and `spectral._singular_step` are those of
    `spectral._count_negative`, so the two agree bit for bit."""
    w = op.box.strides[0]
    block = np.triu(op.matrix[:w, :w] - np.diag(op.diagonal[:w]))
    shifted = sign * (op.diagonal.reshape(-1, w) - E)
    g = float(np.max(np.abs(shifted))) + 2.0 * op.dimension
    signed_block = sign * block
    inverse = np.zeros((w, w), order="F")
    null = np.zeros((w, 0))
    negative = 0
    for d_k in shifted:
        S = np.subtract(signed_block, inverse, order="F")
        S.ravel(order="F")[::w + 1] += d_k
        if not null.shape[1]:
            factor, pivots, info = spectral._sytrf(S)
            if not info:
                single = pivots > 0
                n_negative = (w - np.count_nonzero(single)) // 2 + \
                    np.count_nonzero(factor.diagonal()[single] < 0)
                X, info = spectral._sytri(factor, pivots, overwrite_a=1)
                if not info and \
                        g * np.abs(X).max() <= spectral.SCHUR_GROWTH_LIMIT:
                    negative += n_negative
                    inverse = X
                    continue
        step = spectral._singular_step(S, null, g)
        if step is None:
            return None
        n_negative, inverse, null = step
        negative += n_negative
    return negative


def slice_recursion_count(op, e1: float, e2: float) -> int:
    """Eigenvalues in [e1, e2] from `slice_recursion_negative` at both
    ends (d >= 2, w > 1), or from banded bisection on (the double below
    e1, e2] at w = 1 and where either end is handed to it."""
    if op.box.strides[0] > 1:
        below = slice_recursion_negative(op, e1, 1.0)
        above = None if below is None else \
            slice_recursion_negative(op, e2, -1.0)
        if above is not None:
            return op.box.count - above - below
    return len(scipy.linalg.eigvals_banded(
        op.upper_band(), select="v",
        select_range=(np.nextafter(e1, -np.inf), e2)))
