"""Symbolic interval/affine expressions for the access-region analysis.

The region analysis (:mod:`repro.analysis.regions`) abstracts a kernel's
index arithmetic into small symbolic expression trees over the launch
geometry (``thread_idx.x`` … ``grid_dim.z``) and the kernel's scalar
parameters.  An expression stays *symbolic* until a concrete launch and
argument binding exist, at which point :meth:`SymExpr.interval` evaluates
it with standard interval arithmetic — the same two-phase structure DaCe
uses for its symbolic memlet ranges.

Design notes
------------
* Expressions are immutable trees built from :class:`Const`, :class:`Var`,
  the arithmetic nodes (:class:`Add` / :class:`Sub` / :class:`Mul` /
  :class:`FloorDiv` / :class:`Neg`), :class:`Clamp` (a guard-derived
  half-open bound restriction), :class:`Join` (the hull of two values —
  ``lane_where`` selects) and :class:`Stride` (a loop's induction
  variable).
* :class:`Interval` is a closed interval over the extended reals; the
  usual over-approximating arithmetic applies, so every derived region is
  a sound superset of the accessed index set.
* Equality is structural (:meth:`SymExpr.key`), which the fusion
  cover-set check and the memoisation keys rely on.

Evaluation environments map variable names (``"thread_idx.x"``, scalar
parameter names …) to :class:`Interval`; an unbound variable makes the
evaluation return ``None`` — the caller treats the access as unanalyzable
(whole-buffer ⊤) rather than guessing.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "Interval",
    "SymExpr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "FloorDiv",
    "Neg",
    "Clamp",
    "Join",
    "Stride",
    "LANE_VARS",
    "UNIFORM_VARS",
    "launch_env",
]

_INF = float("inf")

#: lane-varying launch variables, per axis (value differs across lanes)
LANE_VARS = tuple(f"{base}.{axis}"
                  for base in ("thread_idx", "block_idx")
                  for axis in ("x", "y", "z"))
#: uniform launch variables (identical across every lane)
UNIFORM_VARS = tuple(f"{base}.{axis}"
                     for base in ("block_dim", "grid_dim")
                     for axis in ("x", "y", "z"))


class Interval:
    """A closed interval ``[lo, hi]`` over the extended reals.

    ``lo > hi`` encodes the empty interval (e.g. a guard that excludes
    every lane).  All arithmetic is over-approximating.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi

    # ------------------------------------------------------------- queries
    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    @property
    def finite(self) -> bool:
        return not self.empty and self.lo > -_INF and self.hi < _INF

    @property
    def point(self) -> bool:
        return self.lo == self.hi

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and \
            (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interval({self.lo}, {self.hi})"

    # ---------------------------------------------------------- arithmetic
    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = []
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                # 0 * inf is undefined on the extended reals; the affine
                # expressions we build only hit it with a 0 coefficient,
                # where the product term truly contributes nothing.
                products.append(0.0 if (a == 0 or b == 0) else a * b)
        return Interval(min(products), max(products))

    def floordiv(self, other: "Interval") -> Optional["Interval"]:
        """``self // other`` for a strictly positive (or negative) divisor."""
        if other.empty or self.empty:
            return Interval(1.0, 0.0)
        if other.lo > 0:
            candidates = [a // b for a in (self.lo, self.hi)
                          for b in (other.lo, other.hi)
                          if abs(a) != _INF] or None
            if candidates is None:
                return Interval(self.lo, self.hi)
            return Interval(min(candidates), max(candidates))
        if other.hi < 0:
            neg = self.floordiv(-other)
            return None if neg is None else -neg
        return None                     # divisor interval spans zero

    # --------------------------------------------------------- set algebra
    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        if self.empty:
            return other
        if other.empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def contains(self, other: "Interval") -> bool:
        return other.empty or (self.lo <= other.lo and other.hi <= self.hi)


_Env = Mapping[str, Interval]


class SymExpr:
    """Base class of the symbolic expression nodes."""

    __slots__ = ()

    def interval(self, env: _Env) -> Optional[Interval]:
        """Over-approximating interval of the expression under *env*.

        ``None`` when the expression mentions an unbound variable or an
        operation interval arithmetic cannot bound (e.g. division by an
        interval spanning zero) — the caller must treat the access as ⊤.
        """
        raise NotImplementedError

    def key(self) -> Tuple:
        """Structural identity (used for equality and memoisation)."""
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, SymExpr) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}{self.key()[1:]}"


class Const(SymExpr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def interval(self, env: _Env) -> Optional[Interval]:
        return Interval(self.value, self.value)

    def key(self) -> Tuple:
        return ("const", self.value)


class Var(SymExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def interval(self, env: _Env) -> Optional[Interval]:
        return env.get(self.name)

    def key(self) -> Tuple:
        return ("var", self.name)


class _Binary(SymExpr):
    __slots__ = ("left", "right")
    _tag = ""

    def __init__(self, left: SymExpr, right: SymExpr):
        self.left = left
        self.right = right

    def _sides(self, env: _Env):
        a = self.left.interval(env)
        b = self.right.interval(env)
        return (None, None) if a is None or b is None else (a, b)

    def key(self) -> Tuple:
        return (self._tag, self.left.key(), self.right.key())


class Add(_Binary):
    __slots__ = ()
    _tag = "add"

    def interval(self, env: _Env) -> Optional[Interval]:
        a, b = self._sides(env)
        return None if a is None else a + b


class Sub(_Binary):
    __slots__ = ()
    _tag = "sub"

    def interval(self, env: _Env) -> Optional[Interval]:
        a, b = self._sides(env)
        return None if a is None else a - b


class Mul(_Binary):
    __slots__ = ()
    _tag = "mul"

    def interval(self, env: _Env) -> Optional[Interval]:
        a, b = self._sides(env)
        return None if a is None else a * b


class FloorDiv(_Binary):
    __slots__ = ()
    _tag = "floordiv"

    def interval(self, env: _Env) -> Optional[Interval]:
        a, b = self._sides(env)
        return None if a is None else a.floordiv(b)


class Neg(SymExpr):
    __slots__ = ("operand",)

    def __init__(self, operand: SymExpr):
        self.operand = operand

    def interval(self, env: _Env) -> Optional[Interval]:
        inner = self.operand.interval(env)
        return None if inner is None else -inner

    def key(self) -> Tuple:
        return ("neg", self.operand.key())


class Clamp(SymExpr):
    """A value restricted by guard bounds: ``lo <= expr < hi``.

    Either bound may be absent.  ``hi`` is *exclusive*, matching the
    comparison guards (``i < n``) the kernels write; the interval
    evaluation converts it to the closed form.
    """

    __slots__ = ("operand", "lo", "hi")

    def __init__(self, operand: SymExpr, lo: Optional[SymExpr],
                 hi: Optional[SymExpr]):
        self.operand = operand
        self.lo = lo
        self.hi = hi

    def interval(self, env: _Env) -> Optional[Interval]:
        inner = self.operand.interval(env)
        if inner is None:
            return None
        bound = Interval(-_INF, _INF)
        if self.lo is not None:
            lo_iv = self.lo.interval(env)
            if lo_iv is None:
                return None
            bound = Interval(lo_iv.lo, bound.hi)
        if self.hi is not None:
            hi_iv = self.hi.interval(env)
            if hi_iv is None:
                return None
            bound = Interval(bound.lo, hi_iv.hi - 1.0)
        return inner.intersect(bound)

    def key(self) -> Tuple:
        return ("clamp", self.operand.key(),
                None if self.lo is None else self.lo.key(),
                None if self.hi is None else self.hi.key())


class Join(SymExpr):
    """Hull of two values — a ``lane_where`` select or merged branches."""

    __slots__ = ("left", "right")

    def __init__(self, left: SymExpr, right: SymExpr):
        self.left = left
        self.right = right

    def interval(self, env: _Env) -> Optional[Interval]:
        a = self.left.interval(env)
        b = self.right.interval(env)
        if a is None or b is None:
            return None
        return a.hull(b)

    def key(self) -> Tuple:
        return ("join", self.left.key(), self.right.key())


class Stride(SymExpr):
    """``start + k * step`` for some ``k >= 0``: a loop's induction variable.

    Its interval is ``[start.lo, inf)`` while *step* is positive under the
    launch, and unbounded (None) otherwise: a zero step never ends a
    grid-stride loop and a negative one walks below the start.
    """

    __slots__ = ("start", "step")

    def __init__(self, start: SymExpr, step: SymExpr):
        self.start = start
        self.step = step

    def interval(self, env: _Env) -> Optional[Interval]:
        start, step = self.start.interval(env), self.step.interval(env)
        if start is None or step is None or step.empty or step.lo <= 0:
            return None
        return Interval(start.lo, _INF)

    def key(self) -> Tuple:
        return ("stride", self.start.key(), self.step.key())


def launch_env(launch) -> Dict[str, Interval]:
    """Variable bindings for one concrete :class:`LaunchConfig`.

    Lane variables bind to their whole per-axis range, uniform geometry to
    point intervals — exactly the lane population a launch creates.
    """
    bd, gd = launch.block_dim, launch.grid_dim
    env: Dict[str, Interval] = {}
    for axis in ("x", "y", "z"):
        b = getattr(bd, axis)
        g = getattr(gd, axis)
        env[f"thread_idx.{axis}"] = Interval(0.0, float(b - 1))
        env[f"block_idx.{axis}"] = Interval(0.0, float(g - 1))
        env[f"block_dim.{axis}"] = Interval(float(b), float(b))
        env[f"grid_dim.{axis}"] = Interval(float(g), float(g))
    return env
