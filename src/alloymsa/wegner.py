"""Monte-Carlo verification of the discrete Wegner estimate.

The bound under test: averaging only over the couplings in
Gamma = Lambda_{R_l}, uniformly in the frozen couplings outside,

    E_Gamma Tr P_I(h^l)  <=  1/2 ||rho||_Var |I| * sum_j ||t_{j,l}||_1,

with t_{j,l}(k) = 2 k^{I0} / c_u on Lambda_{R_l}.  The constant chain is
computed exactly rather than hidden in an opaque C_W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mc
from .errors import ParameterError
from .genfun import LeadingIndexData, companion_radius, positivity_certificate
from .lattice import (Configuration, DisorderModel, SingleSitePotential,
                      coupling_domain, make_box, restrict_hamiltonian)
from .spectral import checked_interval, count_eigenvalues_in


@dataclass(frozen=True)
class WegnerBoundReport:
    radius: float
    c_w_chain: float
    bv_norm: float
    bound: float


def _power_sum(n: int, i: int) -> int:
    """sum_{k=1}^n k^i in exact integers, in O(i^2) operations.

    Summing (k+1)^{i+1} - k^{i+1} over k = 1..n telescopes to Pascal's
    identity (n+1)^{i+1} - 1 = sum_{j<=i} C(i+1, j) S_j(n), solved for S_i.
    """
    sums = [n]
    for p in range(1, i + 1):
        rest = sum(math.comb(p + 1, j) * sums[j] for j in range(p))
        sums.append(((n + 1) ** (p + 1) - 1 - rest) // (p + 1))
    return sums[i]


def _abs_monomial_box_sum(radius: float, d: int, index) -> float:
    """sum_{k in Lambda_radius} prod_r |k_r|^{i_r}, exact by factorization."""
    R = math.floor(radius)
    total = 1.0
    for r in range(d):
        i = index[r]
        if i == 0:
            axis = float(2 * R + 1)
        else:
            try:
                axis = 2.0 * float(_power_sum(R, i))
            except OverflowError:
                axis = math.inf
        total *= axis
    return total


def chain_formula(u: SingleSitePotential, lead: LeadingIndexData,
                  l: float) -> float:
    """The chain of `wegner_constant_chain` without its positivity
    certificate: arithmetic only, so defined at any scale."""
    d = u.dimension
    count = (2 * math.floor(l) + 1) ** d
    R = companion_radius(u, lead, l)
    return (2.0 / abs(lead.c_u)) * count * _abs_monomial_box_sum(R, d, lead.leading)


def wegner_constant_chain(u: SingleSitePotential, lead: LeadingIndexData,
                          l: float) -> float:
    """sum_{j in Lambda_l} ||t_{j,l}||_1 = (2/|c_u|) |Lambda_l| sum_{Lambda_{R_l}} |k^{I0}|."""
    cert = positivity_certificate(u, lead, l)
    if not cert.holds:
        raise ParameterError(
            f"positivity certificate fails at l={l}: min={cert.min_value:.6f} "
            f"(slack {cert.slack:.2e}) at x={cert.worst_x}"
        )
    return chain_formula(u, lead, l)


def estimate_partial_expectation(
    u: SingleSitePotential,
    lead: LeadingIndexData,
    model: DisorderModel,
    l: float,
    interval: tuple[float, float],
    exteriors: int,
    trials: int,
    seed: int,
    threads: int | None = 1,
) -> list[tuple[float, float]]:
    """Monte-Carlo means of Tr P_I(h^l) resampling only the couplings in
    Gamma = Lambda_{R_l}, with every other coupling of
    `lattice.coupling_domain(u, Lambda_l, R_l)` frozen to an exterior:
    one (mean, stderr) pair per exterior e = 0 .. exteriors - 1, or one
    pair for the zero exterior when `exteriors` is 0.

    Exterior e is drawn from `model` on the domain by the stream
    `mc.trial_rng(seed ^ 0xE0, e)`, and its trials run on the master seed
    `mc.splitmix64(seed, e)`; the zero exterior's trials run on
    `mc.splitmix64(seed, 0)`.  R_l, the domain and the Gamma mask are
    computed once.  `exteriors` must be an integer >= 0, `trials` >= 1
    and `interval` two finite numbers E1 <= E2, all checked before any
    trial (ParameterError)."""
    if isinstance(exteriors, bool) or \
            not isinstance(exteriors, (int, np.integer)) or exteriors < 0:
        raise ParameterError(
            f"exteriors must be an integer >= 0, got {exteriors!r}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    interval = checked_interval(interval)
    origin = (0,) * u.dimension
    box_l = make_box(origin, l)
    R = companion_radius(u, lead, l)
    dom = coupling_domain(u, box_l, R)
    gamma_mask = make_box(origin, R).contains_points(dom.points)
    n_gamma = int(gamma_mask.sum())

    def estimate(base: np.ndarray, trial_seed: int) -> tuple[float, float]:
        def worker(_i: int, rng: np.random.Generator) -> float:
            vals = base.copy()
            vals[gamma_mask] = model.sample(rng, n_gamma)
            op = restrict_hamiltonian(u, Configuration(dom, vals), box_l)
            return float(count_eigenvalues_in(op, interval))

        counts = mc.run_trials(trials, worker, trial_seed, threads)
        return mc.mean_and_stderr(counts)

    if exteriors == 0:
        return [estimate(np.zeros(dom.count), mc.splitmix64(seed, 0))]
    return [estimate(model.sample(mc.trial_rng(seed ^ 0xE0, e), dom.count),
                     mc.splitmix64(seed, e))
            for e in range(exteriors)]


def wegner_bound(
    u: SingleSitePotential,
    lead: LeadingIndexData,
    model: DisorderModel,
    l: float,
    interval: tuple[float, float],
) -> WegnerBoundReport:
    """Assemble the bound 1/2 ||rho||_Var |I| sum_j ||t_{j,l}||_1."""
    e1, e2 = checked_interval(interval)
    chain = wegner_constant_chain(u, lead, l)
    bv = model.bv_norm
    return WegnerBoundReport(
        radius=companion_radius(u, lead, l),
        c_w_chain=chain,
        bv_norm=bv,
        bound=0.5 * bv * (e2 - e1) * chain,
    )
