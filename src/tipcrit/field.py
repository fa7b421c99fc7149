"""Scalar vector-field analysis: parsing, exact differentiation, equilibria,
and basin geometry.

The dynamics under study are one-dimensional autonomous flows ``x' = f(x)``.
Fields are supplied as infix expression strings over a single variable and
differentiated symbolically, so hyperbolicity checks and extremum refinement
never depend on finite-difference derivatives.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dataclass_field
from functools import cache, cached_property
from typing import Callable

import numpy as np

__all__ = [
    "FieldExpr",
    "ScalarField",
    "EquilibriumPoint",
    "BasinGeometry",
    "ParseError",
    "FieldAnalysisError",
    "NonHyperbolicError",
    "NoEquilibriaError",
    "EmptyBasinError",
    "parse_field",
    "differentiate",
    "compile_expr",
    "find_equilibria",
    "analyze_basin",
]

# |f'| below this at a root means the root cannot be trusted as hyperbolic.
HYPERBOLICITY_FLOOR = 1e-8
# residual bound accepted for a refined equilibrium, relative to the field scale
ROOT_RESIDUAL_TOL = 1e-10
# half-width of the default equilibrium search window around the attractor
DEFAULT_SEARCH_SPAN = 100.0
_SCAN_POINTS = 4001  # grid of the sign-change scan for equilibria
_EXTREMUM_POINTS = 10_001  # grid of the basin-depth search on each side
# relative bracket width for refined roots of f and df; at 0 the solve's
# smallest step is 0 too and it never closes in on a root at exactly x = 0
_REFINE_REL_WIDTH = 1e-15


class ParseError(ValueError):
    """Malformed field expression; ``position`` is the 0-based text offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class FieldAnalysisError(RuntimeError):
    """Equilibrium or basin analysis could not complete."""


class NonHyperbolicError(FieldAnalysisError):
    """An equilibrium with |f'| at or below the hyperbolicity floor."""

    def __init__(self, location: float):
        super().__init__(f"non-hyperbolic equilibrium near x = {location!r}")
        self.location = location


class NoEquilibriaError(FieldAnalysisError):
    """No equilibria were found in the search interval."""


class EmptyBasinError(FieldAnalysisError):
    """Neither basin side has a finite boundary point."""


# --------------------------------------------------------------------------
# expression tree
# --------------------------------------------------------------------------

class FieldExpr:
    """Immutable expression tree over one real variable."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(FieldExpr):
    value: float


@dataclass(frozen=True)
class Var(FieldExpr):
    name: str


@dataclass(frozen=True)
class Add(FieldExpr):
    left: FieldExpr
    right: FieldExpr


@dataclass(frozen=True)
class Sub(FieldExpr):
    left: FieldExpr
    right: FieldExpr


@dataclass(frozen=True)
class Mul(FieldExpr):
    left: FieldExpr
    right: FieldExpr


@dataclass(frozen=True)
class Div(FieldExpr):
    left: FieldExpr
    right: FieldExpr


@dataclass(frozen=True)
class Pow(FieldExpr):
    base: FieldExpr
    exponent: int


@dataclass(frozen=True)
class Neg(FieldExpr):
    operand: FieldExpr


@dataclass(frozen=True)
class Call(FieldExpr):
    func: str
    arg: FieldExpr


_FUNCTIONS = ("sin", "cos", "exp", "tanh")
_VARIABLE_NAMES = ("x", "y")


# --------------------------------------------------------------------------
# tokenizer / parser
# --------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(r"\d+")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(text, i)
            if m is None:
                raise ParseError("malformed number", i)
            tokens.append(("num", m.group(), i))
            i = m.end()
        elif ch.isalpha() or ch == "_":
            m = _IDENT_RE.match(text, i)
            tokens.append(("ident", m.group(), i))
            i = m.end()
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_name: str | None = None

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", tok[2])
        return self.advance()

    def parse(self) -> FieldExpr:
        node = self.expression()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def expression(self) -> FieldExpr:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> FieldExpr:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self) -> FieldExpr:
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return Neg(self.unary())
        if tok[0] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> FieldExpr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            base = Pow(base, self.integer_exponent())
        return base

    def integer_exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok[0] != "num":
            raise ParseError("expected integer exponent after '^'", tok[2])
        if _INT_RE.fullmatch(tok[1]) is None:
            raise ParseError("exponent must be an integer literal", tok[2])
        self.advance()
        return sign * int(tok[1])

    def atom(self) -> FieldExpr:
        tok = self.advance()
        kind, text, pos = tok
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if text in _FUNCTIONS:
                if self.peek()[0] != "(":
                    raise ParseError(f"function {text!r} needs an argument list",
                                     self.peek()[2])
                self.advance()
                arg = self.expression()
                self.expect(")")
                return Call(text, arg)
            if text in _VARIABLE_NAMES:
                if self.var_name is None:
                    self.var_name = text
                elif self.var_name != text:
                    raise ParseError(
                        f"mixed variable names {self.var_name!r} and {text!r}", pos)
                return Var(text)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "(":
            node = self.expression()
            self.expect(")")
            return node
        raise ParseError("expected a value", pos)


def parse_field(text: str) -> FieldExpr:
    """Parse an infix expression in one variable (named ``x`` or ``y``)."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# evaluation / compilation
# --------------------------------------------------------------------------

def to_source(expr: FieldExpr) -> str:
    """Render the tree as a fully parenthesized Python expression in ``x``."""
    if isinstance(expr, Const):
        return repr(expr.value) if expr.value >= 0 else f"({expr.value!r})"
    if isinstance(expr, Var):
        return "x"
    if isinstance(expr, Add):
        return f"({to_source(expr.left)} + {to_source(expr.right)})"
    if isinstance(expr, Sub):
        return f"({to_source(expr.left)} - {to_source(expr.right)})"
    if isinstance(expr, Mul):
        return f"({to_source(expr.left)} * {to_source(expr.right)})"
    if isinstance(expr, Div):
        return f"({to_source(expr.left)} / {to_source(expr.right)})"
    if isinstance(expr, Pow):
        return f"({to_source(expr.base)} ** ({expr.exponent}))"
    if isinstance(expr, Neg):
        return f"(-{to_source(expr.operand)})"
    if isinstance(expr, Call):
        return f"{expr.func}({to_source(expr.arg)})"
    raise TypeError(f"not a field expression: {expr!r}")


def _bind(expr: FieldExpr, module) -> Callable:
    """Compile :func:`to_source` with its calls bound to ``math`` or numpy."""
    namespace = {"__builtins__": {}}
    namespace.update((name, getattr(module, name)) for name in _FUNCTIONS)
    return eval("lambda x: " + to_source(expr), namespace)


def compile_expr(expr: FieldExpr) -> Callable[[float], float]:
    """Compile the tree into a fast scalar callable."""
    return _bind(expr, math)


# --------------------------------------------------------------------------
# differentiation
# --------------------------------------------------------------------------

def _const(v: float) -> Const:
    return Const(float(v))


def _is_const(e: FieldExpr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def _add(a: FieldExpr, b: FieldExpr) -> FieldExpr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value)
    return Add(a, b)


def _sub(a: FieldExpr, b: FieldExpr) -> FieldExpr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value)
    return Sub(a, b)


def _mul(a: FieldExpr, b: FieldExpr) -> FieldExpr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value)
    return Mul(a, b)


def _div(a: FieldExpr, b: FieldExpr) -> FieldExpr:
    if _is_const(a, 0.0):
        return _const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def _neg(a: FieldExpr) -> FieldExpr:
    if isinstance(a, Const):
        return _const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _pow(base: FieldExpr, n: int) -> FieldExpr:
    if n == 0:
        return _const(1.0)
    if n == 1:
        return base
    return Pow(base, n)


def differentiate(expr: FieldExpr) -> FieldExpr:
    """Exact symbolic derivative with respect to the single variable."""
    if isinstance(expr, Const):
        return _const(0.0)
    if isinstance(expr, Var):
        return _const(1.0)
    if isinstance(expr, Add):
        return _add(differentiate(expr.left), differentiate(expr.right))
    if isinstance(expr, Sub):
        return _sub(differentiate(expr.left), differentiate(expr.right))
    if isinstance(expr, Mul):
        return _add(_mul(differentiate(expr.left), expr.right),
                    _mul(expr.left, differentiate(expr.right)))
    if isinstance(expr, Div):
        num = _sub(_mul(differentiate(expr.left), expr.right),
                   _mul(expr.left, differentiate(expr.right)))
        return _div(num, _pow(expr.right, 2))
    if isinstance(expr, Pow):
        inner = differentiate(expr.base)
        return _mul(_mul(_const(expr.exponent), _pow(expr.base, expr.exponent - 1)),
                    inner)
    if isinstance(expr, Neg):
        return _neg(differentiate(expr.operand))
    if isinstance(expr, Call):
        u, du = expr.arg, differentiate(expr.arg)
        if expr.func == "sin":
            return _mul(Call("cos", u), du)
        if expr.func == "cos":
            return _neg(_mul(Call("sin", u), du))
        if expr.func == "exp":
            return _mul(Call("exp", u), du)
        if expr.func == "tanh":
            return _mul(_sub(_const(1.0), _pow(Call("tanh", u), 2)), du)
    raise TypeError(f"not a field expression: {expr!r}")


# --------------------------------------------------------------------------
# scalar field
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """A parsed field together with its exact symbolic derivative.

    ``f`` and ``df`` are compiled scalar callables, which cannot be
    pickled; a field pickles as its text and is rebuilt by :meth:`from_text`.
    The grid scans bind the same source to numpy instead, on first use, and
    the passage quadrature keeps the meshes of the field's latest paths.
    """

    expr: FieldExpr
    deriv: FieldExpr
    text: str
    f: Callable[[float], float] = dataclass_field(repr=False, compare=False)
    df: Callable[[float], float] = dataclass_field(repr=False, compare=False)

    @classmethod
    def from_text(cls, text: str) -> "ScalarField":
        expr = parse_field(text)
        deriv = differentiate(expr)
        return cls(expr=expr, deriv=deriv, text=text,
                   f=compile_expr(expr), df=compile_expr(deriv))

    def __reduce__(self):
        return (ScalarField.from_text, (self.text,))

    @cached_property
    def _grid(self) -> tuple[Callable, Callable]:
        """numpy bindings of ``expr`` and ``deriv``, for :func:`_grid_values`"""
        return _bind(self.expr, np), _bind(self.deriv, np)

    @cached_property
    def _paths(self) -> dict:
        """quadrature meshes of the latest passage paths, oldest first; see
        :func:`tipcrit.integrate.first_passage_time`"""
        return {}


@dataclass(frozen=True)
class EquilibriumPoint:
    location: float
    stability: str  # "attracting" | "repelling"
    derivative_value: float


@dataclass(frozen=True)
class BasinGeometry:
    """Basin of attraction of ``attractor``: endpoints, radius, and the
    maximal counter-field magnitudes on each escapable side."""

    attractor: float
    alpha: float      # left boundary, -inf when unbounded
    beta: float       # right boundary, +inf when unbounded
    radius: float
    mu_minus: float   # max f on [alpha, attractor], +inf when alpha = -inf
    mu_plus: float    # -min f on [attractor, beta], +inf when beta = +inf
    mu: float

    def has_side(self, side: int) -> bool:
        return math.isfinite(self.beta) if side > 0 else math.isfinite(self.alpha)

    def endpoint(self, side: int) -> float:
        return self.beta if side > 0 else self.alpha

    def side_mu(self, side: int) -> float:
        return self.mu_plus if side > 0 else self.mu_minus

    def side_length(self, side: int) -> float:
        return abs(self.endpoint(side) - self.attractor)


# --------------------------------------------------------------------------
# bracketed root
# --------------------------------------------------------------------------

def _bracketed_root(fn: Callable[[float], float], x_a: float, x_b: float,
                    f_a: float, f_b: float, rel_width: float, *,
                    predicted_stop: bool = False
                    ) -> tuple[float, float, float]:
    """Root of ``fn`` on the sign-change bracket ``[x_a, x_b]``, whose end
    values ``f_a``, ``f_b`` are already known, by Brent's method: inverse
    quadratic or secant steps, with a bisection fallback (Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 4).

    Returns ``(x, lo, hi)``: the best iterate ``x`` and the sign-change
    bracket around it.  Stops once the bracket is no wider than
    ``rel_width * max(1, |x|)`` and ``fn(x)`` is not ``nan``, on an exact zero
    (``lo == hi == x``), or at float resolution.  An end value may be +-inf;
    interpolation then waits until every point it uses is finite.

    With ``predicted_stop``, an accepted interpolated step no larger than
    the smallest step (half the width tolerance while the bracket is too
    wide) ends the solve: ``x`` is the predicted root, not evaluated, and
    ``(lo, hi)`` the bracket it was predicted in.  That saves the closing
    evaluation past the root, for a caller that checks ``x`` itself.
    """
    if f_a == 0.0:
        return x_a, x_a, x_a
    if f_b == 0.0:
        return x_b, x_b, x_b
    if (f_a > 0.0) == (f_b > 0.0):
        raise ValueError("root is not bracketed")
    # x_cur: best iterate; x_blk: the other end of the sign-change bracket;
    # x_pre: the previous iterate
    x_pre, f_pre, x_cur, f_cur = x_a, f_a, x_b, f_b
    x_blk, f_blk = x_pre, f_pre
    s_pre = s_cur = x_cur - x_pre
    for _ in range(200):
        if (f_pre > 0.0) != (f_cur > 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        width_tol = rel_width * max(1.0, abs(x_cur))
        width = abs(x_blk - x_cur)
        if width <= width_tol and not math.isnan(f_cur):
            break
        s_bis = 0.5 * (x_blk - x_cur)
        if x_cur + s_bis in (x_cur, x_blk):
            break  # float resolution reached
        # the smallest step: half the width tolerance while the bracket is
        # too wide, so a step past the root closes it; float resolution
        # once only the residual is left
        delta = (0.5 * width_tol if width > width_tol
                 else 4.0 * math.ulp(x_cur))
        s_try = 0.0
        if (abs(s_pre) > delta and abs(f_cur) < abs(f_pre)
                and math.isfinite(f_pre) and math.isfinite(f_blk)):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                         / (d_blk * d_pre * (f_blk - f_pre)))
        # accept an interpolated step only if it heads into the bracket and
        # shrinks fast enough; otherwise bisect
        if (s_try * s_bis > 0.0
                and 2.0 * abs(s_try) < min(abs(s_pre),
                                           3.0 * abs(s_bis) - delta)):
            if predicted_stop and abs(s_try) <= delta:
                return (x_cur + s_try, min(x_cur, x_blk),
                        max(x_cur, x_blk))
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        step = s_cur
        if abs(step) <= delta:
            step = math.copysign(min(delta, abs(s_bis)), s_bis)
        x_pre, f_pre = x_cur, f_cur
        x_cur += step
        f_cur = fn(x_cur)
        if f_cur == 0.0:
            return x_cur, x_cur, x_cur
    else:
        raise RuntimeError("bracketed root solve did not converge")
    return x_cur, min(x_cur, x_blk), max(x_cur, x_blk)


# --------------------------------------------------------------------------
# equilibria
# --------------------------------------------------------------------------

def _root_cells(vals) -> np.ndarray:
    """Indices ``i`` of the grid cells that hold a root: ``vals[i]`` is 0
    (the last point is not checked) or ``vals`` changes sign on ``[i, i +
    1]``.  A ``nan`` has no sign, so it neither is nor brackets a root."""
    signs = np.sign(vals)
    return np.flatnonzero((signs[:-1] == 0.0) | (signs[:-1] * signs[1:] < 0.0))


def _cell_root(fn: Callable[[float], float], xs, vals, i: int) -> float:
    """The root of ``fn`` in cell ``i`` of :func:`_root_cells`, refined by
    Brent unless ``vals[i]`` is 0; an overflow of ``fn`` while refining, as
    between two overflowed grid values, raises :class:`FieldAnalysisError`."""
    x_a, v_a = float(xs[i]), float(vals[i])
    if v_a == 0.0:
        return x_a
    x_b = float(xs[i + 1])
    try:
        return _bracketed_root(fn, x_a, x_b, v_a, float(vals[i + 1]),
                               _REFINE_REL_WIDTH)[0]
    except OverflowError:
        raise FieldAnalysisError("the field overflows while refining a "
                                 f"root in [{x_a!r}, {x_b!r}]") from None


def _at_root(fn: Callable[[float], float], x: float) -> float:
    """``fn(x)`` at a refined root, where an overflow is a fault."""
    try:
        return fn(x)
    except OverflowError:
        raise FieldAnalysisError(
            f"the field overflows at the refined root x = {x!r}") from None


def _grid_values(fv: Callable, f: Callable[[float], float], xs) -> np.ndarray:
    """``f`` on the grid ``xs``, evaluated at once by its numpy binding ``fv``.

    Overflow reads as the IEEE signed ``inf`` and ``inf - inf`` as ``nan``.
    A division by zero, ``0/0`` included, raises :class:`FieldAnalysisError`
    at the first grid point where the scalar ``f`` divides by zero.
    """
    try:
        with np.errstate(all="ignore", divide="raise", invalid="raise"):
            return np.broadcast_to(fv(xs), xs.shape)
    except FloatingPointError:  # x / 0, 0 / 0 or inf - inf
        pass
    for x in map(float, xs):
        try:
            f(x)
        except ZeroDivisionError:
            raise FieldAnalysisError(f"f is undefined at x = {x!r}") from None
        except OverflowError:
            pass
    with np.errstate(all="ignore"):  # inf - inf, or a pole behind an overflow
        return np.broadcast_to(fv(xs), xs.shape)


def _merged(roots) -> list[tuple[float, int]]:
    """``(root, cell)`` pairs in order, less each root within 1e-9 relative
    of the last one kept: refinements that collapsed onto one point."""
    kept = []
    for r, c in sorted(roots):
        if not kept or abs(r - kept[-1][0]) > 1e-9 * max(1.0, abs(r)):
            kept.append((r, c))
    return kept


def _equilibria(field: ScalarField, lo: float, hi: float,
                near: float | None = None
                ) -> tuple[list[EquilibriumPoint], int]:
    """:func:`find_equilibria` on ``[lo, hi]``, and 0; or, given ``near``,
    the same checks on the root nearest it and its neighbours alone, with
    tangential roots sought only between those, and the nearest's index."""
    xs = np.linspace(lo, hi, _SCAN_POINTS)
    fs = _grid_values(field._grid[0], field.f, xs)
    cells = _root_cells(fs).tolist() + [len(xs) - 1] * bool(fs[-1] == 0.0)
    refined = cache(lambda c: (_cell_root(field.f, xs, fs, c), c))
    if near is None:
        roots, i, span = _merged(map(refined, cells)), 0, slice(None)
    else:
        # the cells next to near, then outward until the root nearest it
        # has a distinct root on each side or the scan ends there
        j = int(np.searchsorted(xs[cells], near))
        start, stop = max(j - 1, 0), min(j + 1, len(cells))
        while True:
            roots = _merged(map(refined, cells[start:stop]))
            i = min(range(len(roots)), default=0,
                    key=lambda k: abs(roots[k][0] - near))
            if i == 0 < start:
                start -= 1
            elif i == len(roots) - 1 and stop < len(cells):
                stop += 1
            else:
                break
        span = slice(roots[i - 1][1] if i > 0 else 0,
                     roots[i + 1][1] + 2 if i + 1 < len(roots) else None)
        roots, i = roots[max(i - 1, 0):i + 2], min(i, 1)

    # tangential roots: critical points of f where f itself is ~0
    xs_d, fs_d = xs[span], fs[span]
    dfs = _grid_values(field._grid[1], field.df, xs_d)
    for k in _root_cells(dfs):
        crit = _cell_root(field.df, xs_d, dfs, k)
        # scaled by the grid values around the critical point: a scale taken
        # over the whole window grows with |f| far away and would flag
        # ordinary critical points as roots
        local = [abs(v) for v in (fs_d[k], fs_d[k + 1]) if math.isfinite(v)]
        if abs(_at_root(field.f, crit)) <= ROOT_RESIDUAL_TOL * max(1.0, *local):
            raise NonHyperbolicError(crit)

    residual_tol = ROOT_RESIDUAL_TOL * float(
        np.abs(fs[np.isfinite(fs)]).max(initial=1.0))
    points = []
    for r, _ in roots:
        if abs(_at_root(field.f, r)) > residual_tol:
            raise FieldAnalysisError(
                f"f changes sign through a pole near x = {r!r}, not a root")
        d = _at_root(field.df, r)
        if abs(d) <= HYPERBOLICITY_FLOOR:
            raise NonHyperbolicError(r)
        points.append(EquilibriumPoint(
            location=r,
            stability="attracting" if d < 0.0 else "repelling",
            derivative_value=d,
        ))
    if not points:
        raise NoEquilibriaError(f"no equilibria found in [{lo}, {hi}]")
    return points, i


def find_equilibria(field: ScalarField,
                    interval: tuple[float, float]) -> list[EquilibriumPoint]:
    """Locate hyperbolic rest points of ``f`` on ``interval``.

    Every sign change of ``f`` on a 4001-point grid, evaluated through numpy
    (overflow reads as ``+-inf``, a pole on it raises), is refined by the
    Brent solve; roots of ``df`` where ``f`` also vanishes flag tangential
    (non-hyperbolic) equilibria, which raise :class:`NonHyperbolicError`.  A
    sign change that refines to a point where ``|f|`` stays large is a pole,
    not a rest point, and raises :class:`FieldAnalysisError`, as does an
    overflow of the scalar ``f`` or ``df`` while a root is refined or
    checked.  :func:`analyze_basin` makes the same scan, but refines and
    checks only the attractor and its two neighbours.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval [{lo}, {hi}] is not finite")
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return _equilibria(field, lo, hi)[0]


# --------------------------------------------------------------------------
# basin geometry
# --------------------------------------------------------------------------

def _interval_extremum(field: ScalarField, xs: np.ndarray, vals: np.ndarray,
                       kind: str) -> tuple[float, float]:
    """Global min or max of f on ``[xs[0], xs[-1]]``, and a point where f
    takes it, given f's values ``vals`` on the grid ``xs``: the best grid
    point, the ends and the interior critical points refined as roots of
    ``df``, compared by the scalar f."""
    best = np.nanargmin(vals) if kind == "min" else np.nanargmax(vals)
    candidates = [float(xs[0]), float(xs[-1]), float(xs[best])]
    dfs = _grid_values(field._grid[1], field.df, xs)
    candidates += [_cell_root(field.df, xs, dfs, i)
                   for i in _root_cells(dfs)]
    values = [field.f(c) for c in candidates]
    pick = min if kind == "min" else max
    i = pick(range(len(values)), key=values.__getitem__)
    return values[i], candidates[i]


def analyze_basin(field: ScalarField, attractor: float,
                  search_interval: tuple[float, float] | None = None
                  ) -> BasinGeometry:
    """Compute the basin geometry around a designated attracting rest point.

    The attractor is the equilibrium of the 4001-point scan over
    ``search_interval`` (``attractor +/- 100`` by default) nearest the
    designated point, which must lie within ``1e-3 max(1, |attractor|)`` of
    it.  The basin endpoints are its neighbours in the scan, which must
    repel; a side with no equilibrium there is reported as unbounded.  A
    pole or ``0/0`` anywhere on the scan grid raises, but only these three
    roots are refined and checked, and tangential roots sought only between
    the neighbours (or the window's ends), as :func:`find_equilibria` does.
    """
    a = float(attractor)
    if search_interval is None:
        search_interval = (a - DEFAULT_SEARCH_SPAN, a + DEFAULT_SEARCH_SPAN)
    if not math.isfinite(a):
        raise ValueError(f"attractor {a} is not finite")
    lo, hi = map(float, search_interval)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"search interval [{lo}, {hi}] is not finite")
    if not lo < a < hi:
        raise ValueError("attractor must lie inside the search interval")

    equilibria, i = _equilibria(field, lo, hi, a)
    nearest = equilibria[i]
    if (abs(nearest.location - a) > 1e-3 * max(1.0, abs(a))
            or nearest.stability != "attracting"):
        raise FieldAnalysisError(
            f"designated point {a!r} is not an attracting equilibrium (the "
            f"nearest one, at {nearest.location!r}, is {nearest.stability})")
    a = nearest.location
    alpha = equilibria[i - 1].location if i > 0 else -math.inf
    beta = equilibria[i + 1].location if i + 1 < len(equilibria) else math.inf
    for neighbour in equilibria[max(0, i - 1):i] + equilibria[i + 1:i + 2]:
        if neighbour.stability != "repelling":
            raise FieldAnalysisError(
                f"equilibrium {neighbour.location!r} next to {a!r} is not "
                "repelling")

    if not math.isfinite(alpha) and not math.isfinite(beta):
        raise EmptyBasinError(
            "basin boundary is empty: no repelling equilibrium on either side")

    def extremum(lo: float, hi: float, kind: str) -> float:
        xs = np.linspace(lo, hi, _EXTREMUM_POINTS)
        vals = _grid_values(field._grid[0], field.f, xs)
        return _interval_extremum(field, xs, vals, kind)[0]

    mu_plus = -extremum(a, beta, "min") if math.isfinite(beta) else math.inf
    mu_minus = extremum(alpha, a, "max") if math.isfinite(alpha) else math.inf

    radius = min(a - alpha, beta - a)
    mu = min(mu_minus, mu_plus)
    if not mu > 0.0:
        raise FieldAnalysisError(
            f"basin depth is not positive (mu = {mu!r}); boundary degenerate")
    return BasinGeometry(attractor=a, alpha=alpha, beta=beta, radius=radius,
                         mu_minus=mu_minus, mu_plus=mu_plus, mu=mu)
