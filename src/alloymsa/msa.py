"""Multiscale-analysis machinery: the regularity predicate, uniform
(all-exterior) certification, event probability estimators, and the
deterministic parameter/scale recursion.

`uniform_regularity_verdicts` is the one implementation of the
(m, E)-regularity rules, and the singularity estimator runs it per trial.

Parameter conventions: `MSAParameters` holds xi > 2d, kappa in
(1, 2xi/(xi+2d)), beta in (2-kappa, 1), q in (0, 1), m0 and l0; scales
l_{k+1} = l_k^kappa, masses
m_{k+1} = m_k (1 - l_{k+1}^{-(1-beta)/kappa}) - l_{k+1}^{-(1-beta)/kappa}.
The non-resonance exponent zeta = kappa (5d + ||I0||_1 + 2 xi) + 1 is
fixed by these and the leading index I0, so it is not a parameter:
`induction_thresholds` computes it where it is used.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import mc
from .errors import ParameterError, ScheduleError
from .genfun import LeadingIndexData, tail_bound
from .lattice import (Box, Configuration, DisorderModel, SingleSitePotential,
                      check_capacity, make_box, restrict_hamiltonian)
from .resonance import (INDETERMINATE, check_enlarged_domain, enlarged_box,
                        perturbation_radius, zeroed_exterior_witness)
from .spectral import boundary_greens, checked_interval
from .wegner import chain_formula

CERTIFIED_REGULAR = "certified_regular"
CERTIFIED_IRREGULAR = "certified_irregular"


# ---------------------------------------------------------------------------
# deterministic predicates


def uniform_regularity_verdicts(
    u: SingleSitePotential,
    model: DisorderModel,
    config: Configuration,
    box: Box,
    m: float,
    energies,
    delta: float | None = None,
) -> np.ndarray:
    """Certify (m,E)-regularity simultaneously for every exterior completion
    of the couplings outside Lambda_{4l}(center), at every energy of
    `energies`; returns one verdict string per energy.

    `config` holds the couplings on `resonance.enlarged_box(box)`
    (checked by `check_enlarged_domain`), zero outside: its operator on
    `box` is the zeroed-exterior one.  It is irregular at E when E is
    resonant or |G(E; center, w)| > e^{-m l} for some interior-boundary
    site w.  If it is irregular, the cube is certified not uniformly
    regular where `resonance.zeroed_exterior_witness(model, delta)` holds
    (0 in supp rho, or no exterior coupling reaches the box: delta = 0);
    otherwise the verdict is indeterminate.
    If it is regular, delta = 0 certifies it, as every completion then
    restricts to the same operator on the box.  Otherwise a first-order
    resolvent bracket of radius delta (the perturbation radius, computed
    here unless given) certifies every completion when delta < d and
    |G| + delta/d^2/(1 - delta/d) <= e^{-m l} at every w, with
    d = d(E, spectrum); where it fails the verdict is indeterminate.

    One eigendecomposition with one matrix product
    (`spectral.boundary_greens`) serves the whole grid.
    """
    l = box.half_side
    check_enlarged_domain(config.domain, box)
    op = restrict_hamiltonian(u, config, box)
    if delta is None:
        delta = perturbation_radius(u, model, l)
    threshold = math.exp(-m * l)
    green = boundary_greens(op, box.center, energies)
    irregular = green.resonant | np.any(green.magnitude > threshold, axis=0)
    regular = ~irregular
    if delta != 0.0:
        # a resonant E may have d = 0; it is irregular, so its slack is unused
        with np.errstate(divide="ignore", invalid="ignore"):
            g_norm = 1.0 / green.distance
            slack = delta * g_norm * g_norm / (1.0 - delta * g_norm)
        regular &= (delta < green.distance) & \
            ~np.any(green.magnitude + slack > threshold, axis=0)
    witness = CERTIFIED_IRREGULAR if zeroed_exterior_witness(model, delta) \
        else INDETERMINATE
    return np.where(regular, CERTIFIED_REGULAR,
                    np.where(irregular, witness, INDETERMINATE))


def uniform_regularity_test(
    u: SingleSitePotential,
    model: DisorderModel,
    config: Configuration,
    box: Box,
    m: float,
    E: float,
    delta: float | None = None,
) -> str:
    """The verdict of `uniform_regularity_verdicts` at the one energy E."""
    return str(uniform_regularity_verdicts(u, model, config, box, m, [E],
                                           delta)[0])


def _energy_grid(interval, energy_grid, n: int) -> list:
    """K >= 1 equally spaced energies on the closed `interval` for an
    integer K, or the given non-empty list of finite energies; no energy
    may repeat, since the report keys its counts by energy.  The n x K
    Green's functions obey `lattice`'s capacity rule, checked before an
    integer K's grid is built."""
    e1, e2 = checked_interval(interval)
    if isinstance(energy_grid, (list, tuple, np.ndarray)):
        grid = list(energy_grid)
        if not grid:
            raise ParameterError("energy_grid must hold at least one energy")
        if not np.all(np.isfinite(np.asarray(grid, dtype=float))):
            raise ParameterError("energy_grid energies must be finite")
        count = len(grid)
    elif isinstance(energy_grid, bool) or \
            not isinstance(energy_grid, (int, np.integer)) or energy_grid < 1:
        raise ParameterError("energy_grid must be an integer >= 1 or a list "
                             f"of energies, got {energy_grid!r}")
    else:
        grid, count = None, int(energy_grid)
    check_capacity(n * count, f"the Green's functions at {count} energies")
    if grid is None:
        grid = list(np.linspace(e1, e2, count))
    if len(set(grid)) < len(grid):
        raise ParameterError("energy_grid repeats an energy")
    return grid


@dataclass(frozen=True)
class SingularityReport:
    p_hi: float
    per_energy: dict[float, int]


def estimate_singularity_probability(
    u: SingleSitePotential,
    model: DisorderModel,
    l: float,
    m: float,
    interval: tuple[float, float],
    energy_grid: int | list[float],
    trials: int,
    seed: int,
    threads: int | None = 1,
) -> SingularityReport:
    """P(exists E in the grid: the box is not certified uniformly regular),
    counting indeterminate outcomes as singular (conservative side).

    `energy_grid` is a number K >= 1 of equally spaced energies on the
    closed `interval`, or an explicit non-empty list of finite energies.
    l, m and the grid, its size included (`_energy_grid`), are checked
    before any trial.  The perturbation radius and the energy array are
    computed once per call.  A trial samples the couplings on the enlarged
    domain and takes the verdicts of `uniform_regularity_verdicts` on the
    box for the whole grid: one dense build, one dsyevd solve and one
    matrix product.

    Translation invariance turns this single-box estimate into the pair
    bound by squaring (disjoint enlarged boxes are independent).
    """
    for name, value in (("l", l), ("m", m)):
        if not (math.isfinite(value) and value > 0):
            raise ParameterError(f"{name} must be finite and positive, got {value!r}")
    box = make_box((0,) * u.dimension, l)
    grid = _energy_grid(interval, energy_grid, box.count)
    enlarged = enlarged_box(box)
    delta = perturbation_radius(u, model, l)
    energies = np.asarray(grid, dtype=float)

    def worker(_i: int, rng: np.random.Generator):
        cfg = Configuration(enlarged, model.sample(rng, enlarged.count))
        return uniform_regularity_verdicts(u, model, cfg, box, m, energies,
                                           delta) != CERTIFIED_REGULAR

    results = mc.run_trials(trials, worker, seed, threads)
    counts = np.zeros(len(grid), dtype=int)
    for bad in results:
        counts += bad
    per_energy = {E: int(c) for E, c in zip(grid, counts)}
    p_hi, _ = mc.mean_and_stderr([1.0 if bad.any() else 0.0 for bad in results])
    return SingularityReport(p_hi=p_hi, per_energy=per_energy)


# ---------------------------------------------------------------------------
# the deterministic parameter recursion


@dataclass(frozen=True)
class MSAParameters:
    xi: float
    kappa: float
    beta: float
    q: float
    m0: float
    l0: float

    def interval_violations(self, d: int) -> list[str]:
        out = []
        if not self.xi > 2 * d:
            out.append(f"xi={self.xi} must exceed 2d={2 * d}")
        kappa_hi = 2 * self.xi / (self.xi + 2 * d)
        if not (1.0 < self.kappa < kappa_hi):
            out.append(f"kappa={self.kappa} outside (1, {kappa_hi:.6g})")
        if not (2.0 - self.kappa < self.beta < 1.0):
            out.append(f"beta={self.beta} outside ({2 - self.kappa:.6g}, 1)")
        if not (0.0 < self.q < 1.0):
            out.append(f"q={self.q} outside (0, 1)")
        if not self.m0 > 0:
            out.append(f"m0={self.m0} must be positive")
        if not self.l0 > 1:
            out.append(f"l0={self.l0} must exceed 1")
        if not self.m0 > self.l0 ** (self.beta - 1.0):
            out.append(
                f"m0={self.m0} must exceed l0^(beta-1)={self.l0 ** (self.beta - 1):.6g}"
            )
        return out


def l_bar(p: MSAParameters) -> float:
    """Anchor scale from the mass-retention bookkeeping:
    ((1-q) m0 / ((1-q) m0 + m0 + 1))^(-kappa/(1-beta)), inf past the
    largest double."""
    c = (1.0 - p.q) * p.m0 / ((1.0 - p.q) * p.m0 + p.m0 + 1.0)
    return _anchor_power(c, p)


def _anchor_power(x: float, p: MSAParameters) -> float:
    """x^(-kappa/(1-beta)) for x in [0, 1): the scale l0 at which
    l0^{-(1-beta)/kappa} = x, inf at x = 0 and past the largest double."""
    try:
        return x ** (-p.kappa / (1.0 - p.beta))
    except (OverflowError, ZeroDivisionError):
        return math.inf


def mass_loss_series(x: float, kappa: float) -> float:
    """sum_{k>=0} x^{kappa^(k+1)} for x in (0,1): the exact correction-term
    series of the mass recursion, truncated when the tail is negligible or
    after 4000 terms."""
    if not 0.0 < x < 1.0:
        raise ParameterError("series defined for x in (0,1)")
    log_x = math.log(x)
    total = 0.0
    exponent = kappa
    for _ in range(4000):
        t = exponent * log_x
        if t < -745.0:
            break
        total += math.exp(t)
        exponent *= kappa
    return total


def l_bar_sharp(p: MSAParameters) -> float:
    """Smallest l0 for which the exact mass-loss series closes:
    (m0+1) * sum_k x^{kappa^(k+1)} <= (1-q) m0 with x = l0^{-(1-beta)/kappa}.

    The closed-form l_bar compares the series against a geometric one,
    which is only term-wise valid for kappa >= 3^(1/3); this threshold
    is sound for every admissible kappa.
    """
    budget = (1.0 - p.q) * p.m0 / (p.m0 + 1.0)
    lo, hi = 0.0, 1.0 - 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass_loss_series(mid, p.kappa) <= budget:
            lo = mid
        else:
            hi = mid
    return _anchor_power(lo, p)


def _smallest_scale(pred) -> float:
    """Smallest integer scale l >= 2 with pred(l), as a float, for a
    predicate that is false and then true on the integers; inf when pred
    fails at every power of two up to 1e12."""
    hi = 4
    while not pred(hi):
        hi *= 2
        if hi > 1e12:
            return math.inf
    return float(bisect.bisect_left(range(hi + 1), True, lo=2, key=pred))


def induction_thresholds(
    p: MSAParameters,
    lead: LeadingIndexData,
    u: SingleSitePotential,
    model: DisorderModel,
) -> dict[str, float]:
    """The proof-internal scale thresholds l1*..l7*, computed numerically
    from the displayed inequalities (with the explicit Wegner chain in
    place of the opaque constants).

    Each threshold is `_smallest_scale` of its inequality: the smallest
    integer l >= 2 at which it holds, or inf.  pred5 and the m_L display
    take their powers +zeta in logarithms, so no scale up to 1e12
    overflows them."""
    d = u.dimension
    xi, kappa, beta = p.xi, p.kappa, p.beta
    zeta = kappa * (5 * d + lead.order + 2 * xi) + 1.0
    bv = model.bv_norm
    omega_plus = model.omega_plus
    gamma = 0.5 * ((1.0 - beta) / kappa + (1.0 - 1.0 / kappa))

    def pred1(l: float) -> bool:
        L = l**kappa
        return 2.0 ** (4 * d) * L ** (4 * (d - xi / kappa) + 2 * xi) <= 1.0 / 3.0

    def pred2(l: float) -> bool:
        return 24.0 * l + 2.0 <= l**kappa

    def pred3(l: float) -> bool:
        L = l**kappa
        prob = 16.0 * (2 * L + 1) ** (2 * d) * (2 * L + 1) ** d * bv \
            * (l ** (-zeta) + 2.0 * omega_plus * tail_bound(u, l, 24.0 * l)) \
            * chain_formula(u, lead, L)
        return prob <= (1.0 / 3.0) * L ** (-2 * xi)

    def pred4(l: float) -> bool:
        m = l ** (beta - 1.0)
        return 2.0**d * d * (l + 1) ** (d - 1) * math.exp(-m * l) < 1.0

    def pred5(l: float) -> bool:
        m = l ** (beta - 1.0)
        li = 24.0 * l + 2.0
        log_z = (2 * d + 1) * math.log(2.0) + 2.0 * math.log(d) \
            + (d - 1) * math.log((li + 1) * (l + 1)) + zeta * math.log(li) - m * l
        return log_z < 0.0

    def m_L_display(m: float, L: float) -> float:
        t = 2.0 ** (1.0 / kappa) * L ** (-1.0 / kappa)
        return m * (1.0 - t - 63.0 * L ** (1.0 / kappa - 1.0)) \
            - t * math.log(4.0**d * d * L ** (d / kappa)) \
            - (math.log(2.0) + zeta * math.log(L)) / L

    def pred6(l: float) -> bool:
        m = l ** (beta - 1.0)
        L = l**kappa
        return m_L_display(m, L) >= m * (1.0 - L**-gamma) - L**-gamma

    def pred7(l: float) -> bool:
        L = l**kappa
        lower = L ** (-(1 - beta) / kappa) - L ** (-gamma - (1 - beta) / kappa) \
            - L**-gamma
        return lower > L ** (beta - 1.0)

    return {
        "l1": _smallest_scale(pred1),
        "l2": _smallest_scale(pred2),
        "l3": _smallest_scale(pred3),
        "l4": _smallest_scale(pred4),
        "l5": _smallest_scale(pred5),
        "l6": _smallest_scale(pred6),
        "l7": _smallest_scale(pred7),
        "gamma": gamma,
        "zeta": zeta,
    }


@dataclass(frozen=True)
class ValidationReport:
    l_star: float
    l_bar: float
    l_bar_sharp: float
    thresholds: dict[str, float]
    ok: bool
    violated: list[str]


def validate_parameters(
    p: MSAParameters,
    lead: LeadingIndexData,
    u: SingleSitePotential,
    model: DisorderModel,
) -> ValidationReport:
    """Check every interval constraint, compute l_bar (closed form),
    the sharp mass-retention scale, and the proof thresholds l1*..l7*.

    ok requires l0 >= max(l_star, l_bar) and m0 > l0^(beta-1); l0 >= the
    sharp mass threshold l_bar_sharp is what actually guarantees
    m_k >= q m0 along the recursion.
    """
    violated = p.interval_violations(u.dimension)
    if violated:
        return ValidationReport(
            l_star=float("nan"), l_bar=float("nan"), l_bar_sharp=float("nan"),
            thresholds={}, ok=False, violated=violated,
        )
    thresholds = induction_thresholds(p, lead, u, model)
    lstar = max(thresholds[k] for k in ("l1", "l2", "l3", "l4", "l5", "l6", "l7"))
    lb = l_bar(p)
    lbs = l_bar_sharp(p)
    if p.l0 < max(lstar, lb):
        violated.append(
            f"l0={p.l0} below max(l*={lstar:.6g}, l_bar={lb:.6g})"
        )
    return ValidationReport(
        l_star=lstar, l_bar=lb, l_bar_sharp=lbs, thresholds=thresholds,
        ok=not violated, violated=violated,
    )


@dataclass(frozen=True)
class ScaleSchedule:
    log_lengths: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)
    m_inf: float

    @property
    def lengths(self) -> np.ndarray:
        """l_k, +inf where the double exponential overflows float range."""
        out = np.full(self.log_lengths.shape, np.inf)
        ok = self.log_lengths < 709.0
        out[ok] = np.exp(self.log_lengths[ok])
        return out


def scale_schedule(p: MSAParameters, k_max: int) -> ScaleSchedule:
    """Run l_{k+1} = l_k^kappa and the mass recursion
    m_{k+1} = m_k (1 - l_{k+1}^{-(1-beta)/kappa}) - l_{k+1}^{-(1-beta)/kappa},
    asserting m_k > l_k^{beta-1} and m_k >= q m0 for all k <= k_max.
    """
    m_inf = p.q * p.m0
    log_l = math.log(p.l0)
    log_lengths = [log_l]
    masses = [p.m0]
    m = p.m0
    for k in range(1, k_max + 1):
        log_l_next = log_l * p.kappa
        # l_{k+1}^{-(1-beta)/kappa} in logs to dodge double-exponential overflow
        t = math.exp(-(1.0 - p.beta) / p.kappa * log_l_next)
        m = m * (1.0 - t) - t
        log_l = log_l_next
        log_lengths.append(log_l)
        masses.append(m)
        floor = math.exp((p.beta - 1.0) * log_l)
        if not m > floor:
            raise ScheduleError(
                f"mass window broken at k={k}: m_k={m:.6g} <= l_k^(beta-1)={floor:.6g}"
            )
        if not m >= m_inf:
            raise ScheduleError(
                f"mass floor broken at k={k}: m_k={m:.6g} < q m0={m_inf:.6g}"
            )
    return ScaleSchedule(
        log_lengths=np.array(log_lengths),
        masses=np.array(masses),
        m_inf=m_inf,
    )


def schedule_to_json_dict(schedule: ScaleSchedule, report: ValidationReport) -> dict:
    lengths = [float(v) if math.isfinite(v) else None for v in schedule.lengths]
    return {
        "l": lengths,
        "log_l": [float(v) for v in schedule.log_lengths],
        "m": [float(v) for v in schedule.masses],
        "m_inf": schedule.m_inf,
        "l_bar": report.l_bar,
        "l_star": report.l_star,
    }
