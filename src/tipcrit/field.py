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
from typing import Callable

import numpy as np

__all__ = [
    "FieldExpr",
    "ScalarField",
    "EquilibriumPoint",
    "BasinGeometry",
    "ParseError",
    "EvaluationFault",
    "FieldAnalysisError",
    "NonHyperbolicError",
    "NoEquilibriaError",
    "EmptyBasinError",
    "parse_field",
    "differentiate",
    "evaluate",
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
# relative bracket width for refined roots of f and df; at 0 the solve's
# smallest step is 0 too and it never closes in on a root at exactly x = 0
_REFINE_REL_WIDTH = 1e-15


class ParseError(ValueError):
    """Malformed field expression; ``position`` is the 0-based text offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class EvaluationFault(ArithmeticError):
    """Division by zero while evaluating a field expression."""


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

    def __call__(self, x: float) -> float:
        return evaluate(self, x)

    def __str__(self) -> str:
        return to_source(self)


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


_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "tanh": math.tanh,
}
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

def evaluate(expr: FieldExpr, x: float) -> float:
    """Evaluate ``expr`` at ``x``.

    Division by zero raises :class:`EvaluationFault`; floating overflow is
    reported as ``inf`` so that callers can apply their own blow-up handling.
    """
    try:
        return _eval(expr, x)
    except ZeroDivisionError as exc:
        raise EvaluationFault(f"division by zero at x = {x!r}") from exc
    except OverflowError:
        return math.inf


def _eval(expr: FieldExpr, x: float) -> float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return x
    if isinstance(expr, Add):
        return _eval(expr.left, x) + _eval(expr.right, x)
    if isinstance(expr, Sub):
        return _eval(expr.left, x) - _eval(expr.right, x)
    if isinstance(expr, Mul):
        return _eval(expr.left, x) * _eval(expr.right, x)
    if isinstance(expr, Div):
        return _eval(expr.left, x) / _eval(expr.right, x)
    if isinstance(expr, Pow):
        return _eval(expr.base, x) ** expr.exponent
    if isinstance(expr, Neg):
        return -_eval(expr.operand, x)
    if isinstance(expr, Call):
        return _FUNCTIONS[expr.func](_eval(expr.arg, x))
    raise TypeError(f"not a field expression: {expr!r}")


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


def compile_expr(expr: FieldExpr) -> Callable[[float], float]:
    """Compile the tree into a fast scalar callable."""
    namespace = {"__builtins__": {}}
    namespace.update(_FUNCTIONS)
    return eval("lambda x: " + to_source(expr), namespace)


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
                    f_a: float, f_b: float, rel_width: float,
                    f_tol: float = math.inf) -> tuple[float, float, float]:
    """Root of ``fn`` on the sign-change bracket ``[x_a, x_b]``, whose end
    values ``f_a``, ``f_b`` are already known, by Brent's method: inverse
    quadratic or secant steps, with a bisection fallback (Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 4).

    Returns ``(x, lo, hi)``: the best iterate ``x`` and the sign-change
    bracket around it.  Stops once ``|fn(x)| <= f_tol`` and the bracket is
    no wider than ``rel_width * max(1, |x|)``, on an exact zero
    (``lo == hi == x``), or at float resolution.  An end value may be +-inf;
    interpolation then waits until every point it uses is finite.
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
        if width <= width_tol and abs(f_cur) <= f_tol:
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

def _grid_roots(fn: Callable[[float], float], xs, vals):
    """Yield ``(i, x)`` for each root ``x`` of ``fn`` found on the grid:
    ``xs[i]`` itself where ``vals[i]`` is 0 (the last point is not checked),
    or a sign change of ``vals`` on ``[xs[i], xs[i + 1]]`` refined by Brent."""
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            yield i, float(xs[i])
        elif vals[i] * vals[i + 1] < 0.0:
            yield i, _bracketed_root(fn, float(xs[i]), float(xs[i + 1]),
                                     vals[i], vals[i + 1], _REFINE_REL_WIDTH)[0]


def _grid_values(fn: Callable[[float], float], xs) -> list[float]:
    """``fn`` at every grid point; a pole on the grid raises
    :class:`FieldAnalysisError`, as a pole anywhere in the window does."""
    try:
        return [fn(float(x)) for x in xs]
    except (ZeroDivisionError, EvaluationFault):
        for x in xs:
            try:
                fn(float(x))
            except (ZeroDivisionError, EvaluationFault):
                raise FieldAnalysisError(
                    f"f is undefined at x = {float(x)!r}") from None
        raise


def find_equilibria(field: ScalarField,
                    interval: tuple[float, float]) -> list[EquilibriumPoint]:
    """Locate hyperbolic rest points of ``f`` on ``interval``.

    Every sign change of ``f`` on a 4001-point grid is refined by the Brent
    solve; roots of ``df`` where ``f`` also vanishes flag tangential
    (non-hyperbolic) equilibria, which raise :class:`NonHyperbolicError`.  A
    sign change that refines to a point where ``|f|`` stays large is a pole,
    not a rest point, and raises :class:`FieldAnalysisError`.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")

    xs = np.linspace(lo, hi, _SCAN_POINTS)
    fs = _grid_values(field.f, xs)
    scale = max(1.0, max(abs(v) for v in fs if math.isfinite(v)))
    residual_tol = ROOT_RESIDUAL_TOL * scale

    roots = [r for _, r in _grid_roots(field.f, xs, fs)]
    if fs[-1] == 0.0:
        roots.append(float(xs[-1]))

    # tangential roots: critical points of f where f itself is ~0
    dfs = _grid_values(field.df, xs)
    for i, crit in _grid_roots(field.df, xs, dfs):
        # scaled by the grid values around the critical point: a scale taken
        # over the whole window grows with |f| far away and would flag
        # ordinary critical points as roots
        local = [abs(v) for v in (fs[i], fs[i + 1]) if math.isfinite(v)]
        if abs(field.f(crit)) <= ROOT_RESIDUAL_TOL * max(1.0, *local):
            raise NonHyperbolicError(crit)

    # deduplicate refined roots that collapsed onto the same point
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= 1e-9 * max(1.0, abs(r)):
            continue
        merged.append(r)

    points = []
    for r in merged:
        if abs(field.f(r)) > residual_tol:
            raise FieldAnalysisError(
                f"f changes sign through a pole near x = {r!r}, not a root")
        d = field.df(r)
        if abs(d) <= HYPERBOLICITY_FLOOR:
            raise NonHyperbolicError(r)
        points.append(EquilibriumPoint(
            location=r,
            stability="attracting" if d < 0.0 else "repelling",
            derivative_value=d,
        ))
    if not points:
        raise NoEquilibriaError(f"no equilibria found in [{lo}, {hi}]")
    return points


# --------------------------------------------------------------------------
# basin geometry
# --------------------------------------------------------------------------

def _interval_extremum(field: ScalarField, lo: float, hi: float, kind: str,
                       n: int) -> float:
    """Global min or max of f on [lo, hi]: dense grid plus interior critical
    points refined as roots of ``df``."""
    xs = np.linspace(lo, hi, n + 1)
    vals = _grid_values(field.f, xs)
    candidates = [lo, hi]
    best_idx = int(np.argmin(vals) if kind == "min" else np.argmax(vals))
    candidates.append(float(xs[best_idx]))

    dfs = _grid_values(field.df, xs)
    candidates += [c for _, c in _grid_roots(field.df, xs, dfs)]
    values = [field.f(c) for c in candidates]
    return min(values) if kind == "min" else max(values)


def analyze_basin(field: ScalarField, attractor: float,
                  search_interval: tuple[float, float] | None = None,
                  *, extremum_grid: int = 10_000) -> BasinGeometry:
    """Compute the basin geometry around a designated attracting rest point.

    The attractor is the equilibrium of the 4001-point scan over
    ``search_interval`` (``attractor +/- 100`` by default) nearest the
    designated point, which must lie within ``1e-3 max(1, |attractor|)`` of
    it.  The basin endpoints are its neighbours in the scan, which must
    repel; a side with no equilibrium there is reported as unbounded.
    """
    a = float(attractor)
    if search_interval is None:
        search_interval = (a - DEFAULT_SEARCH_SPAN, a + DEFAULT_SEARCH_SPAN)
    lo, hi = search_interval
    if not lo < a < hi:
        raise ValueError("attractor must lie inside the search interval")

    equilibria = find_equilibria(field, (lo, hi))
    i = min(range(len(equilibria)),
            key=lambda j: abs(equilibria[j].location - a))
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

    mu_plus = math.inf
    if math.isfinite(beta):
        mu_plus = -_interval_extremum(field, a, beta, "min", extremum_grid)
    mu_minus = math.inf
    if math.isfinite(alpha):
        mu_minus = _interval_extremum(field, alpha, a, "max", extremum_grid)

    radius = min(a - alpha, beta - a)
    mu = min(mu_minus, mu_plus)
    if not mu > 0.0:
        raise FieldAnalysisError(
            f"basin depth is not positive (mu = {mu!r}); boundary degenerate")
    return BasinGeometry(attractor=a, alpha=alpha, beta=beta, radius=radius,
                         mu_minus=mu_minus, mu_plus=mu_plus, mu=mu)
