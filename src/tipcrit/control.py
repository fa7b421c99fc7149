"""Optimal escape control: passage times, the fuel cost curve, critical
forcing speeds, and the associated bang-bang pulse constructions.

For a constant drive of magnitude M that dominates the field on one basin
side, the fuel spent reaching the boundary is J(M) = M * T(M).  J is strictly
decreasing, diverges as M approaches the side's depth constant from above,
and tends to the traversed path length as M grows.  The critical speed for an
arclength budget L > R is the unique root of J(M) = L.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .field import BasinGeometry, ScalarField, _bracketed_root
from .forcing import ControlSignal, PiecewiseLinear
from .integrate import _QUAD_REL_TOL, QuadratureFault, first_passage_time

__all__ = [
    "BangBangControl",
    "CostCurve",
    "CriticalRate",
    "LowerBoundReport",
    "InfeasibleSideError",
    "InfeasibleBudgetError",
    "escape_time",
    "cost",
    "sample_cost_curve",
    "critical_rate",
    "optimal_bang_bang",
    "prototype_critical_rate_smooth",
    "prototype_critical_slope",
    "verify_lower_bound",
]

ROOT_REL_TOL = 1e-8
LOWER_BOUND_SLACK = 1e-6


class InfeasibleSideError(ValueError):
    """Escape over the requested side is impossible at this drive level."""


class InfeasibleBudgetError(ValueError):
    """The arclength budget does not exceed the basin radius."""


@dataclass(frozen=True)
class BangBangControl:
    """Rectangular escape pulse: magnitude, duration, direction, and fuel."""

    height: float
    width: float
    sign: int
    cost: float


@dataclass(frozen=True)
class CriticalRate:
    """Root of ``J(M) = arclength``: its sign-change bracket, the cheaper
    side there (+1 on a tie) and the residual ``J(m_c) - arclength``."""

    m_c: float
    side: int
    arclength: float
    bracket: tuple[float, float]
    residual: float


@dataclass
class CostCurve:
    """Sampled rows ``(M, J_plus, J_minus, J)`` with inf for infeasible sides."""

    samples: list[tuple[float, float, float, float]]

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("M,J_plus,J_minus,J\n")
            for m, jp, jm, j in self.samples:
                fh.write(f"{_csv_num(m)},{_csv_num(jp)},{_csv_num(jm)},{_csv_num(j)}\n")


def _csv_num(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


# --------------------------------------------------------------------------
# passage times and cost
# --------------------------------------------------------------------------

def escape_time(geometry: BasinGeometry, field: ScalarField, side: int,
                drive: float) -> float:
    """Boundary passage time from the attractor under constant drive
    ``side * drive`` with ``drive > mu_side``."""
    if side not in (-1, 1):
        raise ValueError("side must be +1 or -1")
    if not geometry.has_side(side):
        raise InfeasibleSideError(
            f"side {side:+d} has no finite boundary point")
    mu_side = geometry.side_mu(side)
    if not drive > mu_side:
        raise InfeasibleSideError(
            f"drive {drive!r} does not exceed the side depth {mu_side!r}")
    # positivity of f + side*drive on the path follows from mu_side
    return first_passage_time(field, side * drive, geometry.attractor,
                              geometry.endpoint(side), skip_sign_check=True)


def cost(geometry: BasinGeometry, field: ScalarField,
         drive: float) -> tuple[float, float, float]:
    """Fuel ``J_side = M * T_side`` per side, and their minimum.

    Raises :class:`InfeasibleSideError` when neither side is escapable at
    this drive level (``drive <= mu``).
    """
    if not drive > 0.0:
        raise ValueError("drive must be positive")
    j_plus = j_minus = math.inf
    for side in (1, -1):
        try:
            t_side = escape_time(geometry, field, side, drive)
        except InfeasibleSideError:
            continue
        if side == 1:
            j_plus = drive * t_side
        else:
            j_minus = drive * t_side
    j = min(j_plus, j_minus)
    if math.isinf(j):
        raise InfeasibleSideError(
            f"drive {drive!r} does not exceed mu = {geometry.mu!r} on any side")
    return j_plus, j_minus, j


def sample_cost_curve(geometry: BasinGeometry, field: ScalarField,
                      drives) -> CostCurve:
    rows = []
    for m in drives:
        try:
            jp, jm, j = cost(geometry, field, float(m))
        except InfeasibleSideError:
            jp = jm = j = math.inf
        rows.append((float(m), jp, jm, j))
    return CostCurve(rows)


# --------------------------------------------------------------------------
# critical rate
# --------------------------------------------------------------------------

def critical_rate(geometry: BasinGeometry, field: ScalarField,
                  arclength: float) -> CriticalRate:
    """Unique drive level with ``J(m_c) = arclength``, by a bracketed Brent
    solve on the strictly decreasing cost curve over
    ``(mu, min_s L mu_s / (L - d_s)]``: a side of length ``d_s`` and depth
    ``mu_s`` has ``J_s(M) <= d_s M / (M - mu_s)``.

    Requires a finite ``arclength > radius``; at or below the radius no
    finite speed can spend enough fuel to cross, so the budget is
    infeasible.  A fuel bound that rounds onto the side's depth or overflows
    raises :class:`QuadratureFault`, as the quadrature does from ``1e4 R``.
    """
    L = float(arclength)
    if not math.isfinite(L):
        raise ValueError(f"arclength must be finite, not {L!r}")
    if not L > geometry.radius:
        raise InfeasibleBudgetError(
            f"arclength {L!r} does not exceed the basin radius "
            f"{geometry.radius!r}; tipping is impossible at any speed")

    sides: dict[float, tuple[float, float]] = {}

    def excess(m: float) -> float:
        j_plus, j_minus, j = cost(geometry, field, m)
        sides[m] = (j_plus, j_minus)
        return j - L

    # an unbounded side is infinitely long; L > radius keeps the other
    m_hi, s = min((L * geometry.side_mu(s) / (L - geometry.side_length(s)), s)
                  for s in (1, -1) if L > geometry.side_length(s))
    if not geometry.side_mu(s) < m_hi < math.inf:  # rounded or overflowed
        raise QuadratureFault(f"arclength {L!r} is too large: the fuel "
                              f"bound {m_hi!r} resolves no drive above mu")
    m_c, lo, hi = _bracketed_root(excess, geometry.mu, m_hi, math.inf,
                                  excess(m_hi), ROOT_REL_TOL,
                                  ROOT_REL_TOL * L)
    j_plus, j_minus = sides[m_c]
    # sides that agree within the quadrature tolerance tie; a tie is +1
    side = 1 if j_plus <= j_minus * (1.0 + _QUAD_REL_TOL) else -1
    return CriticalRate(m_c=m_c, side=side, arclength=L, bracket=(lo, hi),
                        residual=min(j_plus, j_minus) - L)


def optimal_bang_bang(geometry: BasinGeometry, field: ScalarField,
                      arclength: float) -> tuple[BangBangControl, PiecewiseLinear]:
    """The cheapest tipping pulse for the budget, plus the linear forcing ramp
    whose derivative it is."""
    rate = critical_rate(geometry, field, arclength)
    fuel = rate.arclength + rate.residual  # J(m_c), from the solve
    width = fuel / rate.m_c
    pulse = BangBangControl(height=rate.m_c, width=width, sign=rate.side,
                            cost=fuel)
    ramp = PiecewiseLinear(((0.0, 0.0), (width, rate.side * rate.m_c * width)))
    return pulse, ramp


# --------------------------------------------------------------------------
# quadratic-prototype closed forms
# --------------------------------------------------------------------------

def _quadratic_cost(m: float) -> float:
    s = math.sqrt(m - 1.0)
    return 2.0 * m / s * math.atan(1.0 / s)


def prototype_critical_rate_smooth(lambda_inf: float) -> float:
    """Critical steepness of the sigmoid ramp family on the quadratic
    prototype field: ``4 / (lambda_inf * (lambda_inf - 2))``."""
    if not lambda_inf > 2.0:
        raise ValueError("lambda_inf must exceed 2")
    return 4.0 / (lambda_inf * (lambda_inf - 2.0))


def prototype_critical_slope(lambda_inf: float) -> float:
    """Critical slope of the linear ramp family on the quadratic prototype:
    the root of ``2m/sqrt(m-1) * atan(1/sqrt(m-1)) = lambda_inf``, bracketed
    in ``(1, lambda_inf / (lambda_inf - 2)]`` by the fuel bound."""
    if not lambda_inf > 2.0:
        raise ValueError("lambda_inf must exceed 2")
    m_hi = lambda_inf / (lambda_inf - 2.0)
    return _bracketed_root(lambda m: _quadratic_cost(m) - lambda_inf, 1.0,
                           m_hi, math.inf, _quadratic_cost(m_hi) - lambda_inf,
                           1e-10)[0]


# --------------------------------------------------------------------------
# fuel lower bound
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LowerBoundReport:
    integral: float
    bound: float
    satisfied: bool


def verify_lower_bound(geometry: BasinGeometry, field: ScalarField,
                       control: ControlSignal) -> LowerBoundReport:
    """Check the fuel inequality: any control that drives the trajectory from
    the attractor to the basin boundary spends at least ``J(ess sup |u|)``.

    Raises :class:`ValueError` when the simulated trajectory never reaches
    the boundary, in which case the bound does not apply.
    """
    from .classify import boundary_arrival  # deferred: avoids import cycle

    ess = control.ess_sup()
    if ess <= 0.0:
        raise ValueError("control is identically zero")
    arrived = boundary_arrival(field, geometry, control)
    if not arrived:
        raise ValueError(
            "control does not achieve boundary arrival; lower bound not applicable")
    integral = control.abs_integral()
    bound = cost(geometry, field, ess)[2]
    return LowerBoundReport(integral=integral, bound=bound,
                            satisfied=integral >= bound - LOWER_BOUND_SLACK)
