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

import numpy as np

from .classify import boundary_arrival
from .field import BasinGeometry, ScalarField, _bracketed_root
from .forcing import ForcingProfile, PiecewiseLinear, make_bang_bang
from .integrate import (_QUAD_REL_TOL, QuadratureFault, _passage_batch,
                        _slope, first_passage_time)

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
_PASS_DRIVES = 256  # drives per mesh pass, which holds about 18 kB each
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
                fh.write(f"{m:.17g},{jp:.17g},{jm:.17g},{j:.17g}\n")


# --------------------------------------------------------------------------
# passage times and cost
# --------------------------------------------------------------------------

def escape_time(geometry: BasinGeometry, field: ScalarField, side: int,
                drive: float) -> float:
    """Boundary passage time from the attractor under constant drive
    ``side * drive`` with ``drive > mu_side``, which makes ``f + side *
    drive`` point outward on the path; :func:`first_passage_time` checks
    that on its grid as on every path."""
    if side not in (-1, 1):
        raise ValueError("side must be +1 or -1")
    if not geometry.has_side(side):
        raise InfeasibleSideError(
            f"side {side:+d} has no finite boundary point")
    mu_side = geometry.side_mu(side)
    if not drive > mu_side:
        raise InfeasibleSideError(
            f"drive {drive!r} does not exceed the side depth {mu_side!r}")
    return first_passage_time(field, side * drive, geometry.attractor,
                              geometry.endpoint(side))


def cost(geometry: BasinGeometry, field: ScalarField,
         drive: float) -> tuple[float, float, float]:
    """Fuel ``J_side = M * T_side`` per side, and their minimum: the row of
    :func:`sample_cost_curve` at ``drive``, with its :class:`ValueError` and
    passage faults.  Raises :class:`InfeasibleSideError` when neither side
    is escapable at this drive level (``drive <= mu``)."""
    _, j_plus, j_minus, j = sample_cost_curve(geometry, field,
                                              [drive]).samples[0]
    if math.isinf(j):
        raise InfeasibleSideError(
            f"drive {drive!r} does not exceed mu = {geometry.mu!r} on any side")
    return j_plus, j_minus, j


def sample_cost_curve(geometry: BasinGeometry, field: ScalarField,
                      drives) -> CostCurve:
    """One row ``(M, J_plus, J_minus, J)`` per drive, in their order, from
    one mesh pass per side per 256 drives; a side that the drive does not
    escape over (``M <= mu_s``) reads inf, and so does ``J`` where neither
    side does.  Raises :class:`ValueError` for a drive that is not positive
    and finite, and a side's passage fault, the ``+1`` side's first, at the
    first row that meets either."""
    ms = [float(m) for m in drives]
    rows = []
    for m, fuel in zip(ms, _fuel(geometry, field, ms)[0]):
        if not 0.0 < m < math.inf:
            raise ValueError(f"drive must be positive and finite, not {m!r}")
        for j in fuel:
            if isinstance(j, Exception):
                raise j
        rows.append((m, *fuel, min(fuel)))
    return CostCurve(rows)


def _fuel(geometry: BasinGeometry, field: ScalarField, drives,
          slopes: bool = False):
    """``[J_plus, J_minus]`` at each of the drives: a side's ``J_s = M T_s``,
    or the fault raised in its place, from passes of up to ``_PASS_DRIVES``
    finite drives above its depth ``mu_s``, and inf at the others; and with
    ``slopes``, each side's slope terms by drive index."""
    rows = [[math.inf, math.inf] for _ in drives]
    terms = {1: {}, -1: {}}
    for col, s in enumerate((1, -1)):
        mu_s = geometry.side_mu(s)  # inf on a side with no boundary
        above = [k for k, m in enumerate(drives) if mu_s < m < math.inf]
        for start in range(0, len(above), _PASS_DRIVES):
            part = above[start:start + _PASS_DRIVES]
            times, side_terms = _passage_batch(
                field, np.array([s * drives[k] for k in part]),
                geometry.attractor, geometry.endpoint(s), slopes)
            for k, t in zip(part, times):
                rows[k][col] = t if isinstance(t, Exception) else drives[k] * t
            if slopes:
                terms[s].update(zip(part, side_terms))
    return rows, terms


# --------------------------------------------------------------------------
# critical rate
# --------------------------------------------------------------------------

def critical_rate(geometry: BasinGeometry, field: ScalarField,
                  arclength: float) -> CriticalRate:
    """Unique drive level with ``J(m_c) = arclength`` on the strictly
    decreasing cost curve, by a safeguarded Newton solve over
    ``(mu, min_s L mu_s / (L - d_s)]``: a side of length ``d_s`` and depth
    ``mu_s`` has ``J_s(M) <= d_s M / (M - mu_s)``, so the solve starts at
    that fuel bound.

    Newton runs on ``log(J_s - R)`` against ``log(M - mu)``, which is
    nearly linear (slope -1/2 near ``mu``, -1 for large ``M``; every drive
    has ``J >= min_s d_s = R``), with the slope ``J_s' = T_s + M T_s'`` of
    each side with a finite cost, ``T' = -integral dy / (f + M)^2`` read
    off the path's cached quadrature mesh in the pass that gives ``T``;
    since ``m_c = min(r_+, r_-)`` over the sides' roots, the step is the
    smaller of the two sides' predictions, and a side that starts where
    ``J_s <= R`` or ``J_s' >= 0`` predicts nothing.  A step that leaves
    the sign-change bracket, is not finite or undefined on both sides, or
    is longer than half the move before last is replaced by the bracket's
    geometric mean about ``mu`` (its midpoint once the bracket is narrow).
    Once ``|J - L| <= 1e-8 L`` and the predicted step is under a quarter of
    the width tolerance, one closing evaluation at twice that step
    certifies a bracket no wider than ``1e-8 max(1, m_c)``.  The bracket
    end with the smaller ``|J - L|`` is returned.

    Requires a finite ``arclength > radius``; at or below the radius no
    finite speed can spend enough fuel to cross, so the budget is
    infeasible.  A fuel bound that rounds onto the side's depth or overflows
    raises :class:`QuadratureFault`, as the quadrature does from ``1e4 R``;
    any passage fault at an evaluated drive raises as :func:`cost` would.
    This is the batch solve of :func:`_critical_rates` at the one budget."""
    return _critical_rates(geometry, field, [arclength])[0]


def _critical_rates(geometry: BasinGeometry, field: ScalarField,
                    arclengths) -> list[CriticalRate]:
    """:func:`critical_rate` at each of the budgets, solved as one batch.
    Each Newton iteration evaluates every live budget's ``J_s`` and ``T_s'``
    by :func:`_fuel`, a numpy pass per side (per 256 budgets) over that
    side's cached mesh; a budget's row of the pass does not depend on the
    other budgets, so each result is that budget's solve alone to the bit.
    Raises what the first failing budget's solve alone would raise."""
    solves, fault = [], None
    for L in arclengths:
        try:
            solves.append(_Solve(geometry, L))
        except (ValueError, QuadratureFault) as exc:
            fault = exc  # the budgets after it are never solved
            break
    live = list(range(len(solves)))
    while live:
        ms = [solves[i].m for i in live]
        rows, terms = _fuel(geometry, field, ms, slopes=True)
        still = []
        for k, i in enumerate(live):
            try:
                for j in rows[k]:
                    if isinstance(j, Exception):
                        raise j
                done = solves[i].record(*rows[k],
                                        lambda side: _slope(terms[side][k]))
            except Exception as exc:  # noqa: BLE001 - raised below
                # the budgets after this one no longer matter; the ones
                # before it go on, since they may fail too
                fault = exc
                break
            if not done:
                still.append(i)
        live = still
    if fault is not None:
        raise fault
    return [solve.result() for solve in solves]


class _Solve:
    """One critical-rate solve: its start at the fuel bound, the
    sign-change bracket, the stop, the Newton step and its safeguards, as
    :func:`critical_rate` describes them.  A caller evaluates the cost at
    the solve's drive ``m`` and hands it to :meth:`record`."""

    def __init__(self, geometry: BasinGeometry, arclength: float):
        L = float(arclength)
        if not math.isfinite(L):
            raise ValueError(f"arclength must be finite, not {L!r}")
        R = geometry.radius
        if not L > R:
            raise InfeasibleBudgetError(
                f"arclength {L!r} does not exceed the basin radius "
                f"{R!r}; tipping is impossible at any speed")
        # an unbounded side is infinitely long; L > radius keeps the other
        m_hi, s = min((L * geometry.side_mu(s) / (L - geometry.side_length(s)),
                       s) for s in (1, -1) if L > geometry.side_length(s))
        if not geometry.side_mu(s) < m_hi < math.inf:  # rounded or overflowed
            raise QuadratureFault(f"arclength {L!r} is too large: the fuel "
                                  f"bound {m_hi!r} resolves no drive above mu")
        self.L, self.R, self.mu = L, R, geometry.mu
        self.log_gap = math.log(L - R)
        # the sign-change bracket (lo, hi), J > L at lo and J < L at hi,
        # with each end's (J - L, J_plus, J_minus); J is infinite at mu
        self.lo, self.hi = self.mu, m_hi
        self.ends = {self.mu: (math.inf, math.inf, math.inf)}
        self.m = m_hi
        self.last = self.older = math.inf  # the lengths of the last two moves
        self.evaluations = 0

    def record(self, j_plus: float, j_minus: float, slope) -> bool:
        """Take the sides' costs ``J_+`` and ``J_-`` at ``m``, and
        ``slope(side)``, that side's ``T'`` at ``m``, which is called only
        for the Newton step.  Returns True once the solve is done, and
        otherwise moves ``m`` to the next drive to evaluate."""
        m, L = self.m, self.L
        self.evaluations += 1
        excess = min(j_plus, j_minus) - L
        self.ends[m] = (excess, j_plus, j_minus)
        if excess == 0.0:
            self.lo = self.hi = m
            return True
        if excess > 0.0:
            self.lo = m
        else:
            self.hi = m
        lo, hi = self.lo, self.hi
        if (hi - lo <= ROOT_REL_TOL * max(1.0, lo)
                and min(abs(self.ends[lo][0]), abs(self.ends[hi][0]))
                <= ROOT_REL_TOL * L):
            return True
        width_tol = ROOT_REL_TOL * max(1.0, m)
        step = self._newton_step(m, j_plus, j_minus, slope)
        if abs(excess) <= ROOT_REL_TOL * L and abs(step) <= 0.25 * width_tol:
            # the closing evaluation, past the predicted root by at least
            # 4 ulps; J falls as M grows, so the root lies along J - L
            step = math.copysign(max(2.0 * abs(step), 4.0 * math.ulp(m)),
                                 excess)
        m_next = m + step
        if not (lo < m_next < hi and abs(step) <= 0.5 * self.older):
            if hi - lo > lo - self.mu > 0.0:
                m_next = self.mu + math.sqrt((lo - self.mu) * (hi - self.mu))
            else:
                m_next = 0.5 * (lo + hi)
            if not lo < m_next < hi:  # float resolution reached
                return True
        if self.evaluations == 200:
            raise RuntimeError("critical-rate Newton solve did not converge")
        self.last, self.older = abs(m_next - m), self.last
        self.m = m_next
        return False

    def _newton_step(self, m: float, j_plus: float, j_minus: float,
                     slope) -> float:
        """The smaller of the sides' Newton steps from ``m`` in ``u = log(M
        - mu)`` on ``phi_s = log(J_s - R) - log(L - R)``, as a step in
        ``M``.  A side is skipped where ``J_s`` is infinite or the step is
        not defined (``J_s <= R`` or ``J_s' >= 0``); nan when both are.
        Since ``m_c = min(r_+, r_-)``, the smaller step aims at the root."""
        R, mu = self.R, self.mu
        steps = []
        for side, j in ((1, j_plus), (-1, j_minus)):
            if not R < j < math.inf:
                continue
            dj = j / m + m * side * slope(side)
            if not dj < 0.0:
                continue
            u_step = ((math.log(j - R) - self.log_gap) * (j - R)
                      / (-dj * (m - mu)))
            steps.append((m - mu) * math.expm1(u_step) if u_step < 700.0
                         else math.inf)
        return min(steps, default=math.nan)

    def result(self) -> CriticalRate:
        m_c = min(self.lo, self.hi, key=lambda x: abs(self.ends[x][0]))
        excess, j_plus, j_minus = self.ends[m_c]
        # sides that agree within the quadrature tolerance tie; a tie is +1
        side = 1 if j_plus <= j_minus * (1.0 + _QUAD_REL_TOL) else -1
        return CriticalRate(m_c=m_c, side=side, arclength=self.L,
                            bracket=(self.lo, self.hi), residual=excess)


def optimal_bang_bang(geometry: BasinGeometry, field: ScalarField,
                      arclength: float) -> tuple[BangBangControl, PiecewiseLinear]:
    """The cheapest tipping pulse for the budget, plus the linear forcing ramp
    whose derivative it is."""
    rate = critical_rate(geometry, field, arclength)
    fuel = rate.arclength + rate.residual  # J(m_c), from the solve
    width = fuel / rate.m_c
    pulse = BangBangControl(height=rate.m_c, width=width, sign=rate.side,
                            cost=fuel)
    return pulse, make_bang_bang(rate.m_c, 0.0, width, rate.side)


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
                       profile: ForcingProfile) -> LowerBoundReport:
    """Check the fuel inequality: any control ``u``, the speed of the
    profile, that drives the trajectory from the attractor to the basin
    boundary spends at least ``J(ess sup |u|)``: the profile's arclength is
    at least the cost at its largest speed.

    Raises :class:`ValueError` when the simulated trajectory never reaches
    the boundary, in which case the bound does not apply.
    """
    ess = profile.sup_speed()
    if ess <= 0.0:
        raise ValueError("control is identically zero")
    arrived = boundary_arrival(field, geometry, profile)
    if not arrived:
        raise ValueError(
            "control does not achieve boundary arrival; lower bound not applicable")
    integral = profile.arclength()
    bound = cost(geometry, field, ess)[2]
    return LowerBoundReport(integral=integral, bound=bound,
                            satisfied=integral >= bound - LOWER_BOUND_SLACK)
