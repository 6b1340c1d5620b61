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


def enlarged_box(box: Box) -> Box:
    """Lambda_{4l}(center), the 4l-enlarged box of `box` = Lambda_l(center).
    A trial draws the couplings on it and sets every coupling outside it
    to zero, the zeroed exterior; the perturbation radius bounds what the
    couplings outside it can move on the box, and the resonance and
    initial-scale hypotheses compare its half side 4l with R_l."""
    return make_box(box.center, 4.0 * box.half_side)


def zeroed_exterior_witness(model: DisorderModel, *radii: float) -> bool:
    """Whether what holds at the zeroed exterior holds for some exterior
    completion: the zeroed exterior is itself admissible when 0 lies in
    supp rho, and when every perturbation radius in `radii` is 0 no
    coupling outside the enlarged boxes reaches them, so that every
    completion has the same operators on them.  Where it holds, an
    irregular box is certified irregular
    (`msa.uniform_regularity_verdicts`) and a distance d0 < eps of the
    two spectra certifies the resonance event
    (`estimate_resonance_probabilities`)."""
    return model.in_support(0.0) or all(radius == 0.0 for radius in radii)


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
    box = make_box((0,) * u.dimension, l_i)
    outer = enlarged_box(box).half_side
    analytic = tail_bound(u, l_i, outer - l_i)
    exact = leaked_mass_bound(u, box, outer)
    return model.omega_plus * min(analytic, exact)


def check_enlarged_domain(domain: Box, box: Box) -> None:
    """Raise ParameterError unless `domain` holds the lattice points of
    `enlarged_box(box)`, compared by `lo` and `hi`; a configuration on it
    is then completed by zero couplings outside it, the zeroed exterior."""
    enlarged = enlarged_box(box)
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

    A trial draws the couplings on both `enlarged_box`es and keeps d0,
    the distance of the two spectra at the zeroed exterior; one pass
    samples the realizations, and every eps is classified from their d0.
    d0 < eps certifies A only where `zeroed_exterior_witness(model,
    delta1, delta2)` holds.  p_lo counts certified_in_A; p_hi adds
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
    big1 = enlarged_box(box1)
    big2 = enlarged_box(box2)
    if not big1.disjoint_from(big2):
        raise GeometryError("4l-enlarged boxes overlap")
    R = companion_radius(u, lead, l2)
    if big2.half_side < R:
        raise ParameterError(f"l2={l2} too small: 4 l2 < R_l2 = {R:.6g}")
    delta1 = perturbation_radius(u, model, l1)
    delta2 = perturbation_radius(u, model, l2)
    scale = box1.count * model.bv_norm
    chain = wegner_constant_chain(u, lead, l2)
    attained = zeroed_exterior_witness(model, delta1, delta2)

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

