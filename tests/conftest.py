import math

import numpy as np
import pytest

from tipcrit import (PiecewiseLinear, ScalarField, analyze_basin,
                     integrate_pieces)
from tipcrit.field import _bind, _grid_values
from tipcrit.integrate import _drive_pieces


def evaluate(expr, x):
    """``expr`` at ``x`` by the rule of the field's grid scans: floating
    overflow reads as the IEEE signed ``inf``, and division by zero, ``0/0``
    included, raises :class:`FieldAnalysisError`."""
    return float(_grid_values(_bind(expr, np), _bind(expr, math),
                              np.array([float(x)]))[0])


def pulse_profile(*pulses):
    """The piecewise-linear forcing whose speed is ``drive`` on each
    ``(start, end, drive)`` pulse, in order, and 0 elsewhere: a gap between
    pulses is a flat segment, and no pulse is the constant 0 profile."""
    knots = [(pulses[0][0] if pulses else 0.0, 0.0)]
    for start, end, drive in pulses:
        if start > knots[-1][0]:
            knots.append((start, knots[-1][1]))
        knots.append((end, knots[-1][1] + drive * (end - start)))
    return PiecewiseLinear(tuple(knots))


def lanes(profiles):
    """The lane arrays of piecewise-linear profiles, as
    ``harness._random_forcings`` returns them and
    ``classify._lockstep_tracks`` takes them: the segment counts, and the
    knots ``[profiles, max count + 1, 2]``, zero past each last knot."""
    n_pieces = np.array([len(p.knots) - 1 for p in profiles])
    knots = np.zeros((len(profiles), n_pieces.max() + 1, 2))
    for row, profile, n in zip(knots, profiles, n_pieces):
        row[:n + 1] = profile.knots
    return n_pieces, knots


def integrate_profile(field, profile, y0, t0, t_end, box=(-math.inf, math.inf),
                      settings=None):
    """Solve ``y' = f(y) + u(t)`` on ``[t0, t_end]`` for the profile's
    piecewise-constant speed ``u``."""
    pieces = _drive_pieces(field, profile, t0, t_end)
    return integrate_pieces(pieces, y0, box, settings)


@pytest.fixture(scope="session")
def quad_field():
    return ScalarField.from_text("x^2-1")


@pytest.fixture(scope="session")
def quad_geometry(quad_field):
    return analyze_basin(quad_field, -1.0)


@pytest.fixture(scope="session")
def cubic_field():
    return ScalarField.from_text("x*(x-1)*(x+2)")


@pytest.fixture(scope="session")
def cubic_geometry(cubic_field):
    return analyze_basin(cubic_field, 0.0)
