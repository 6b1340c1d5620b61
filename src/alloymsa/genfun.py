"""Generating-function analysis of the single-site potential.

For u with |u(k)| <= C exp(-alpha ||k||_1) the function
F(z) = sum_k u(-k) z^k is holomorphic near 1 in C^d, so some derivative
D^I F(1) is nonzero.  The smallest such multi-index I0 (by l1 shell,
then lexicographic) and its value c_u = D^{I0} F(1) drive the positive
combination sum_k k^{I0} u(x-k) = c_u, which this module certifies on
finite boxes together with the companion radius R_l and all exponential
tail constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import AnalysisFailure, ParameterError
from .lattice import Box, SingleSitePotential, make_box
from .tails import decay_tail_constant, poly_exp_axis_sums

MultiIndex = tuple[int, ...]

# the largest shell ||I||_1 the leading-index search scans
SHELL_CAP = 12


def shell_indices(d: int, total: int) -> Iterator[MultiIndex]:
    """All multi-indices with ||I||_1 = total, lexicographic order."""
    if d == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in shell_indices(d - 1, total - first):
            yield (first,) + rest


def index_below(J: MultiIndex, I: MultiIndex) -> bool:
    """J < I: componentwise J <= I and ||J||_1 < ||I||_1."""
    return all(j <= i for j, i in zip(J, I)) and sum(J) < sum(I)


def falling_factorial(k: int, i: int) -> float:
    out = 1.0
    for step in range(i):
        out *= k - step
    return out


@dataclass(frozen=True)
class LeadingIndexData:
    """Leading multi-index I0 with c_u = D^{I0} F(1) and the scan table."""

    leading: MultiIndex
    c_u: float
    derivative_table: dict[MultiIndex, tuple[float, float]] = field(repr=False)
    zero_tolerance: float = 0.0

    def __post_init__(self):
        for idx, (value, err) in self.derivative_table.items():
            if index_below(idx, self.leading):
                if abs(value) > err + self.zero_tolerance:
                    raise ParameterError(
                        f"derivative at {idx} < I0 not zero within tolerance"
                    )
        lead = self.derivative_table.get(self.leading)
        if lead is not None and abs(self.c_u) <= lead[1] + self.zero_tolerance:
            raise ParameterError("c_u is not certified nonzero")

    @property
    def order(self) -> int:
        """N = ||I0||_1."""
        return sum(self.leading)

    def to_json_dict(self) -> dict:
        return {
            "I0": list(self.leading),
            "c_u": self.c_u,
            "table": [
                [list(idx), val, err]
                for idx, (val, err) in sorted(self.derivative_table.items())
            ],
        }


def genfun_derivative(u: SingleSitePotential, I: MultiIndex) -> tuple[float, float]:
    """(D^I F)(1) from the table, with a certified truncation error bound.

    D^I z^k at z = 1 is the product of falling factorials
    k_r (k_r - 1) ... (k_r - i_r + 1), so the tabulated part is an exact
    finite sum; omitted entries are dominated through the (C, alpha)
    certificate.
    """
    d = u.dimension
    if len(I) != d or any(i < 0 for i in I):
        raise ParameterError(f"bad multi-index {I} for dimension {d}")
    terms = []
    for j, uj in zip(u.support, u.support_values):
        k = -j
        coeff = 1.0
        for r in range(d):
            coeff *= falling_factorial(int(k[r]), I[r])
            if coeff == 0.0:
                break
        if coeff != 0.0:
            terms.append(uj * coeff)
    value = math.fsum(terms)
    if u.truncation_residual == 0.0:
        return value, 0.0
    A = []
    B = []
    for r in range(d):
        a_r, b_r = poly_exp_axis_sums(u.decay_alpha, I[r], u.truncation_radius)
        A.append(a_r)
        B.append(b_r)
    err = 0.0
    for r in range(d):
        prod = B[r]
        for s in range(d):
            if s != r:
                prod *= A[s]
        err += prod
    return value, u.decay_C * err


def find_leading_index(
    u: SingleSitePotential,
    zero_tolerance: float | None = None,
) -> LeadingIndexData:
    """Scan shells ||I||_1 = 0, 1, ..., SHELL_CAP for the first
    certified-nonzero derivative; AnalysisFailure when there is none.

    Smaller-shell derivatives must all be zero within tolerance; ties inside
    a shell break lexicographically.  Derivatives with
    |value| <= error_bound + zero_tolerance count as zero; the tolerance
    must be finite and nonnegative (ParameterError).
    """
    d = u.dimension
    if zero_tolerance is None:
        zero_tolerance = 1e-10 * u.l1_norm
    if not (math.isfinite(zero_tolerance) and zero_tolerance >= 0):
        # a negative tolerance would call a derivative nonzero inside its
        # own error bound
        raise ParameterError("zero_tolerance must be finite and nonnegative, "
                             f"got {zero_tolerance!r}")
    table: dict[MultiIndex, tuple[float, float]] = {}
    for total in range(SHELL_CAP + 1):
        hit = None
        for I in shell_indices(d, total):
            value, err = genfun_derivative(u, I)
            table[I] = (value, err)
            if hit is None and abs(value) > err + zero_tolerance:
                hit = (I, value)
        if hit is not None:
            return LeadingIndexData(
                leading=hit[0],
                c_u=hit[1],
                derivative_table=table,
                zero_tolerance=zero_tolerance,
            )
    raise AnalysisFailure(
        f"no certified-nonzero derivative up to shell {SHELL_CAP}; "
        f"largest |value|-to-bound ratio "
        f"{max((abs(v) / (e + zero_tolerance) for v, e in table.values()), default=0):.3e}"
    )


def companion_radius(u: SingleSitePotential, lead: LeadingIndexData,
                     l: float) -> float:
    """Radius R_l beyond which the k^{I0}-combination tail stays below |c_u|/2:

    R_l = max{ 2l + (2/a) ln(2*3^d*C / (|c_u|(1-e^{-a/2}))),
               8 (d + ||I0||_1)^2 / a^2 }.
    """
    if l <= 0:
        raise ParameterError("l must be positive")
    d = u.dimension
    alpha = u.decay_alpha
    log_branch = 2 * l + (2.0 / alpha) * math.log(
        2.0 * 3**d * u.decay_C / (abs(lead.c_u) * (1.0 - math.exp(-alpha / 2.0)))
    )
    square_branch = 8.0 * (d + lead.order) ** 2 / alpha**2
    return max(log_branch, square_branch)


@dataclass(frozen=True)
class PositivityReport:
    min_value: float
    holds: bool
    worst_x: tuple[int, ...]
    radius: float
    slack: float


def positivity_certificate(u: SingleSitePotential, lead: LeadingIndexData,
                           l: float) -> PositivityReport:
    """Check s(x) = (2/c_u) sum_{k in Lambda_{R_l}} k^{I0} u(x-k) >= 1 on Lambda_l.

    `holds` allows the certified truncation slack
    (2/|c_u|) * max_{Lambda_R} |k^{I0}| * residual, which is zero for
    exactly tabulated potentials.
    """
    d = u.dimension
    R = companion_radius(u, lead, l)
    box_l = make_box((0,) * d, l)
    box_R = make_box((0,) * d, R)
    X = box_l.points
    s = np.zeros(len(X))
    I0 = lead.leading
    for j, uj in zip(u.support, u.support_values):
        K = X - j
        inside = box_R.contains_points(K)
        if not inside.any():
            continue
        a = np.ones(inside.sum())
        sub = K[inside]
        for r in range(d):
            if I0[r]:
                a *= sub[:, r].astype(float) ** I0[r]
        s[inside] += (2.0 / lead.c_u) * uj * a
    max_a = 1.0
    for r in range(d):
        max_a *= float(max(abs(box_R.lo[r]), abs(box_R.hi[r]))) ** I0[r]
    slack = (2.0 / abs(lead.c_u)) * max_a * u.truncation_residual
    worst = int(np.argmin(s))
    return PositivityReport(
        min_value=float(s[worst]),
        holds=bool(s[worst] >= 1.0 - slack),
        worst_x=tuple(int(c) for c in X[worst]),
        radius=R,
        slack=slack,
    )


def tail_bound(u: SingleSitePotential, l: float, l_prime: float) -> float:
    """Certified bound C_hat e^{-alpha l'/2} on sum_{||k||_inf > l+l'} |u(x-k)|
    for every x in Lambda_l."""
    if l < 0 or l_prime < 0:
        raise ParameterError("l and l_prime must be nonnegative")
    c_hat = decay_tail_constant(u.decay_C, u.decay_alpha, u.dimension)
    return c_hat * math.exp(-u.decay_alpha * l_prime / 2.0)


def leaked_mass_bound(u: SingleSitePotential, box: Box, outer_radius: float) -> float:
    """Exact certified bound on sup_{x in box} sum_{k outside Lambda_outer(c)} |u(x-k)|.

    Tabulated entries u(j) contribute at x iff ||x - j - c||_inf > outer_radius
    (with c the box center); everything omitted from the table is covered by
    the truncation residual.
    """
    X = box.points - np.asarray(box.center)
    worst = 0.0
    for x in X:
        dist = np.max(np.abs((x - u.support)), axis=1)
        mask = dist > outer_radius
        if mask.any():
            leak = float(np.abs(u.support_values[mask]).sum())
            worst = max(worst, leak)
    return worst + u.truncation_residual
