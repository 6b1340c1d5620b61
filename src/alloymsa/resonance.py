"""Uniform control of resonances between two boxes.

Exterior couplings beyond a 4x-enlarged box move every eigenvalue by at
most a certified radius delta_i, so the spectrum of the box at the zeroed
exterior (couplings sampled on the enlarged box, zero outside it) plus a
delta-tube brackets the spectrum of every completion.  The distance d0
between the two base spectra then gives a sound two-sided classification
of the resonance event A(box1, box2, eps) = { uniform spectral distance
< eps }, whose probability the Wegner chain bounds explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mc
from .errors import GeometryError, ParameterError
from .genfun import LeadingIndexData, companion_radius, leaked_mass_bound, tail_bound
from .lattice import (Box, Configuration, DisorderModel, SingleSitePotential,
                      make_box, restrict_hamiltonian)
from .spectral import eigensolve
from .wegner import wegner_constant_chain

CERTIFIED_IN_A = "certified_in_A"
CERTIFIED_OUT_A = "certified_out_A"
INDETERMINATE = "indeterminate"


def perturbation_radius(u: SingleSitePotential, model: DisorderModel,
                        l_i: float) -> float:
    """Certified bound on sup_{x in Lambda_l} |v_w(x) - v_w'(x)| over
    configurations agreeing on the 4l-enlarged box, for a box Lambda_l of
    any integer center (the bound is translation invariant).

    Minimum of the analytic bound omega_+ * C_hat e^{-3 l alpha / 2} and the
    exact leaked-mass bound of the table (0 when the tabulated support
    cannot reach past the enlargement and nothing was truncated).
    """
    if l_i <= 0:
        raise ParameterError("l_i must be positive")
    omega_plus = model.omega_plus
    if omega_plus == 0.0:
        return 0.0
    analytic = tail_bound(u, l_i, 3.0 * l_i)
    exact = leaked_mass_bound(u, make_box((0,) * u.dimension, l_i), 4.0 * l_i)
    return omega_plus * min(analytic, exact)


def check_enlarged_domain(domain: Box, box: Box) -> None:
    """Raise ParameterError unless `domain` is the 4l-enlarged box
    Lambda_{4l}(center) of `box`; a configuration on it is then completed
    by zero couplings outside it, the zeroed exterior."""
    enlarged = make_box(box.center, 4.0 * box.half_side)
    if tuple(domain.lo) != tuple(enlarged.lo) or \
            tuple(domain.hi) != tuple(enlarged.hi):
        raise ParameterError("configuration domain must equal the 4l-enlarged box")


def _classify_distance(d0: float, radius1: float, radius2: float,
                       eps: float, attained: bool) -> str:
    """Certified membership in A(box1, box2, eps) from the distance d0 of
    the base spectra and their radii: d0 < eps certifies A when `attained`
    (some completion has both base spectra); d0 - radius1 - radius2 >= eps
    excludes every completion; anything between stays indeterminate."""
    if d0 < eps and attained:
        return CERTIFIED_IN_A
    if d0 - radius1 - radius2 >= eps:
        return CERTIFIED_OUT_A
    return INDETERMINATE


@dataclass(frozen=True)
class ResonanceReport:
    p_lo: float
    p_hi: float
    theory_bound: float
    delta1: float
    delta2: float
    std_error: float


def estimate_resonance_probabilities(
    u: SingleSitePotential,
    lead: LeadingIndexData,
    model: DisorderModel,
    x: tuple,
    y: tuple,
    l1: float,
    l2: float,
    eps_list: Sequence[float],
    trials: int,
    seed: int,
    threads: int | None = 1,
) -> list[ResonanceReport]:
    """Monte-Carlo (p_lo, p_hi) for the events A(Lambda_{l1}(x), Lambda_{l2}(y), eps),
    one report per eps of `eps_list`, against the proposition's explicit
    chain (2 l1 + 1)^d ||rho||_Var (eps + delta1 + delta2) sum_j ||t_{j,l2}||_1.

    One pass samples the realizations and keeps each trial's d0, from which
    every eps is classified.  p_lo counts certified_in_A; p_hi adds
    indeterminate outcomes, so every comparison against the bound stays
    conservative.
    """
    if not eps_list:
        raise ParameterError("eps_list must hold at least one eps")
    if not all(math.isfinite(eps) for eps in eps_list):
        raise ParameterError("eps must be finite")
    if any(eps < 0 for eps in eps_list):
        raise ParameterError("eps must be nonnegative")
    if not len(x) == len(y) == u.dimension:
        raise ParameterError(f"x and y must have d={u.dimension} coordinates")
    box1 = make_box(tuple(x), l1)
    box2 = make_box(tuple(y), l2)
    big1 = make_box(tuple(x), 4.0 * l1)
    big2 = make_box(tuple(y), 4.0 * l2)
    if not big1.disjoint_from(big2):
        raise GeometryError("4l-enlarged boxes overlap")
    if 4.0 * l2 < companion_radius(u, lead, l2):
        raise ParameterError(
            f"l2={l2} too small: 4 l2 < R_l2 = {companion_radius(u, lead, l2):.6g}"
        )
    delta1 = perturbation_radius(u, model, l1)
    delta2 = perturbation_radius(u, model, l2)
    scale = box1.count * model.bv_norm
    chain = wegner_constant_chain(u, lead, l2)
    # the zeroed exterior is a completion, or nothing outside reaches either box
    attained = model.in_support(0.0) or delta1 == delta2 == 0.0

    def worker(_i: int, rng: np.random.Generator) -> float:
        cfg1 = Configuration(big1, model.sample(rng, big1.count))
        cfg2 = Configuration(big2, model.sample(rng, big2.count))
        s1 = eigensolve(restrict_hamiltonian(u, cfg1, box1)).eigenvalues
        s2 = eigensolve(restrict_hamiltonian(u, cfg2, box2)).eigenvalues
        return float(np.min(np.abs(s1[:, None] - s2[None, :])))

    distances = mc.run_trials(trials, worker, seed, threads)
    reports = []
    for eps in eps_list:
        outcomes = [_classify_distance(d0, delta1, delta2, eps, attained)
                    for d0 in distances]
        in_a = [1.0 if o == CERTIFIED_IN_A else 0.0 for o in outcomes]
        hi = [1.0 if o != CERTIFIED_OUT_A else 0.0 for o in outcomes]
        p_lo, _ = mc.mean_and_stderr(in_a)
        p_hi, stderr = mc.mean_and_stderr(hi)
        reports.append(ResonanceReport(
            p_lo=p_lo, p_hi=p_hi,
            theory_bound=scale * (eps + delta1 + delta2) * chain,
            delta1=delta1, delta2=delta2, std_error=stderr,
        ))
    return reports

