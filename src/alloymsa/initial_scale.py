"""Initial-scale estimates anchoring the multiscale induction.

Two routes are probed at desk scale:
  * large disorder: the resonance-control bound closes once the density's
    BV norm is small enough (explicit right-hand side, both printed and
    sign-corrected exponent variants are reported);
  * small negative part: the Bernstein/counting Lifshitz-tail probability
    probe on the Dirichlet-truncated box.  `lifshitz_probe` takes its
    inputs (l, zeta, xi, epsilon0) once, checks them, and derives beta_0
    from the certified mean of u and delta = l^{zeta-2} / (8 w+), at
    which it checks Assumption 3; its report carries both.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import mc
from .errors import ParameterError
from .genfun import LeadingIndexData, companion_radius
from .lattice import (DisorderModel, SingleSitePotential, make_box,
                      restrict_hamiltonian, sample_configuration)
from .resonance import enlarged_box, perturbation_radius
from .spectral import eigensolve
from .wegner import wegner_constant_chain


# ---------------------------------------------------------------------------
# Lifshitz probe


def certified_mean(u: SingleSitePotential) -> float:
    """u-bar = sum_k u(k) less the truncation residual: a certified lower
    bound on the mean of u, which the small-negative-part route needs > 0."""
    ubar = u.mean_value - u.truncation_residual
    if ubar <= 0:
        raise ParameterError("small-negative-part route needs certified u-bar > 0")
    return ubar


def beta_floor(u: SingleSitePotential) -> float:
    """beta_0 = 65/32 + 8 ||u||_1 / u-bar."""
    return 65.0 / 32.0 + 8.0 * u.l1_norm / certified_mean(u)


def odd_tiling(l: float, zeta: float, beta0: float) -> int | None:
    """The sub-cube tiling condition: the number n of sub-cubes per axis
    when the 2 floor(l) + 1 sites per axis of Lambda_l split into an odd
    number n of cubes of side b = floor(2 l^{1-zeta/2} beta0^{-1/2} + 1),
    or None when b does not divide them or the quotient is even."""
    b = math.floor(2.0 * l ** (1.0 - zeta / 2.0) / math.sqrt(beta0) + 1.0)
    n, rest = divmod(2 * math.floor(l) + 1, b)
    return n if rest == 0 and n % 2 == 1 else None


def admissible_lengths(zeta_lif: float, beta0: float, l_min: float,
                       l_max: float) -> list[int]:
    """Unit-step scan for the integers l in [l_min, l_max] that pass
    `odd_tiling`, for zeta in (0, 2)."""
    if not 0.0 < zeta_lif < 2.0:
        raise ParameterError("zeta must lie in (0, 2)")
    if not (math.isfinite(l_min) and math.isfinite(l_max) and l_min < l_max):
        raise ParameterError(f"need finite l_min < l_max, got {l_min!r}, {l_max!r}")
    return [l for l in range(max(1, math.ceil(l_min)), math.floor(l_max) + 1)
            if odd_tiling(l, zeta_lif, beta0) is not None]


@dataclass(frozen=True)
class LifshitzReport:
    """The probe's frequency and bounds, with the beta_0 and delta it
    derived from its inputs."""

    beta0: float
    delta: float
    p_emp: float
    std_error: float
    chain_bound: float
    paper_bound: float
    lambda1_mean: float
    l_tilde: float
    n_subcubes: int


def lifshitz_probe(
    u: SingleSitePotential,
    model: DisorderModel,
    l: float,
    zeta: float,
    xi: float,
    epsilon0: float,
    trials: int,
    seed: int,
    threads: int | None = 1,
) -> LifshitzReport:
    """Monte-Carlo frequency of lambda_1(h^l) < l^{-2+zeta} against the
    Bernstein/counting chain bound n^d exp(-|Lambda_ltilde| (11/12)^2) and
    the asserted decay l^{-xi}.

    Checks zeta in (0, 2), xi > 0, epsilon0 > 0 and P(w0 < epsilon0) <=
    1/12, then derives beta_0 = `beta_floor(u)` and delta =
    l^{zeta-2} / (8 w+), at which u must have an Assumption-3
    decomposition (negative mass <= delta), and l must pass
    `odd_tiling`, whose n the report carries."""
    beta0 = beta_floor(u)
    # each check is written so that NaN fails it
    if not 0.0 < zeta < 2.0:
        raise ParameterError("zeta must lie in (0, 2)")
    if not (xi > 0 and epsilon0 > 0):
        # delta > 0 holds for every l that make_box accepts
        raise ParameterError("xi, delta, epsilon0 must be positive")
    if not model.cdf(epsilon0) <= 1.0 / 12.0 + 1e-12:
        raise ParameterError(
            f"P(w0 < {epsilon0}) = {model.cdf(epsilon0):.6g} exceeds 1/12"
        )
    d = u.dimension
    box = make_box((0,) * d, l)  # before floor(l): rejects l <= 0, NaN or inf
    delta = l ** (zeta - 2.0) / (8.0 * model.omega_plus)
    n = odd_tiling(l, zeta, beta0)
    if n is None:
        raise ParameterError(f"l={l} violates the odd-tiling condition")
    if u.negative_mass > delta:
        raise ParameterError("Assumption-3 decomposition unavailable at the "
                             f"probe's delta={delta:.3e}")
    l_tilde = l ** (1.0 - zeta / 2.0) / math.sqrt(beta0)
    subcube_sites = (2 * math.floor(l_tilde) + 1) ** d
    chain_bound = n**d * math.exp(-subcube_sites * (11.0 / 12.0) ** 2)
    paper_bound = l ** (-xi)
    threshold = l ** (-2.0 + zeta)

    def worker(_i: int, rng: np.random.Generator):
        op = restrict_hamiltonian(u, sample_configuration(u, model, box, rng),
                                  box)
        lam1 = float(eigensolve(op).eigenvalues[0])
        return (1.0 if lam1 < threshold else 0.0, lam1)

    results = mc.run_trials(trials, worker, seed, threads)
    hits = [h for h, _ in results]
    p_emp, stderr = mc.mean_and_stderr(hits)
    lambda1_mean = float(np.mean([lam for _, lam in results]))
    return LifshitzReport(
        beta0=beta0, delta=delta, p_emp=p_emp, std_error=stderr,
        chain_bound=chain_bound, paper_bound=paper_bound,
        lambda1_mean=lambda1_mean, l_tilde=l_tilde, n_subcubes=n,
    )


# ---------------------------------------------------------------------------
# large-disorder probe


@dataclass(frozen=True)
class LargeDisorderReport:
    target: float
    delta0: float
    chain: float
    rhs_printed: float
    rhs_negative_exponent: float
    satisfies_negative_exponent: bool
    max_bv_printed: float
    max_bv_negative_exponent: float
    notes: list[str]


def large_disorder_probe(
    u: SingleSitePotential,
    model: DisorderModel,
    lead: LeadingIndexData,
    l0: float,
    m0: float,
    xi: float,
) -> LargeDisorderReport:
    """Evaluate the initial-scale right-hand side with the explicit chain:

    rhs = (2 l0 + 1)^d ||rho||_Var (2 e^{+- m0 l0} + 2 delta0) sum_j ||t_{j,l0}||_1

    against the target l0^{-2 xi}.  The printed display has a positive
    exponent, which cannot close for large l0; the sign-corrected variant
    is computed alongside, and both maximal admissible BV norms (the bound
    is linear in ||rho||_Var) are reported.  An rhs past the largest
    double is inf.  A maximal BV norm is the quotient target / (rhs per
    unit BV norm) where both are normal doubles, and otherwise exp of its
    logarithm, the true value: subnormal or 0 below the normal range, inf
    above the doubles (as where the sign-corrected rhs is 0, delta0 = 0
    and e^{-m0 l0} below the smallest double).  m0 and xi must be
    positive (NaN fails the check).
    """
    if not (m0 > 0 and xi > 0):
        raise ParameterError(f"m0 and xi must be positive, got {m0!r}, {xi!r}")
    notes = []
    R = companion_radius(u, lead, l0)
    box = make_box((0,) * u.dimension, l0)
    if enlarged_box(box).half_side < R:
        notes.append(f"4 l0 < R_l0 = {R:.6g}: resonance proposition "
                     "hypothesis fails at this scale")
    delta0 = perturbation_radius(u, model, l0)
    chain = wegner_constant_chain(u, lead, l0)
    count = box.count
    bv = model.bv_norm
    target = l0 ** (-2.0 * xi)

    def rhs_and_max_bv(exponent: float) -> tuple[float, float]:
        """rhs and the maximal BV norm at eps = 2 e^exponent."""
        eps = 2.0 * _exp(exponent)
        per_unit_bv = count * (eps + 2.0 * delta0) * chain
        if _TINY <= min(per_unit_bv, target) and per_unit_bv < math.inf:
            max_bv = target / per_unit_bv
        else:  # a factor over- or underflowed
            max_bv = _exp(-2.0 * xi * math.log(l0) - math.log(count)
                          - _log(chain) - float(np.logaddexp(
                              math.log(2.0) + exponent, _log(2.0 * delta0))))
        return count * bv * (eps + 2.0 * delta0) * chain, max_bv

    rhs_printed, max_bv_printed = rhs_and_max_bv(m0 * l0)
    rhs_neg, max_bv_neg = rhs_and_max_bv(-m0 * l0)
    return LargeDisorderReport(
        target=target, delta0=delta0, chain=chain,
        rhs_printed=rhs_printed,
        rhs_negative_exponent=rhs_neg,
        satisfies_negative_exponent=rhs_neg <= target,
        max_bv_printed=max_bv_printed,
        max_bv_negative_exponent=max_bv_neg,
        notes=notes,
    )


# the smallest normal double
_TINY = sys.float_info.min


def _exp(x: float) -> float:
    """e^x, inf past the largest double."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log(x: float) -> float:
    """log x for x >= 0, -inf at 0."""
    return math.log(x) if x > 0 else -math.inf
