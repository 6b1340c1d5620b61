"""Fixtures shared by the test modules: tabulated potentials, the free
box operator, built from the package's public constructors, the
neighbour count of each box site, and a BLAS pinned to a thread count."""

from contextlib import contextmanager

import numpy as np

from alloymsa import BoxOperator, SingleSitePotential, make_box, mc
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
