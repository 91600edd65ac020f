"""Fourier–Motzkin elimination and loop-bound generation.

A loop nest's iteration space is the set of integer points in a polytope
``{I : A·I + B·p + c >= 0}`` where ``p`` are symbolic parameters (array
extents such as ``N``) that are never eliminated.  After a non-singular
loop transformation ``I' = T·I`` the polytope becomes
``{I' : A·T^-1·I' + ... >= 0}`` and the bounds of each transformed loop are
recovered by eliminating variables innermost-first — exactly the classic
code-generation scheme of Li / Ramanujam cited by the paper.

Everything is exact integer arithmetic: rational coefficients produced by
``T^-1`` are cleared by scaling with ``|det T|``; lower/upper bounds carry
an explicit positive divisor and are evaluated with ceiling/floor
division.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .exact import gcd_all
from .hnf import column_hnf
from .matrix import IMat


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _floor_div(a: int, b: int) -> int:
    return a // b


@dataclass(frozen=True)
class Constraint:
    """Linear inequality ``sum(coeffs[v] * v) + const >= 0`` over loop
    variables and parameters, with integer coefficients."""

    coeffs: tuple[tuple[str, int], ...]
    const: int

    @staticmethod
    def make(coeffs: Mapping[str, int], const: int) -> "Constraint":
        items = tuple(
            sorted((k, int(v)) for k, v in coeffs.items() if int(v) != 0)
        )
        const = int(const)
        g = gcd_all(v for _, v in items)
        if g > 1:
            # Integer tightening: sum(c_i v_i) + c >= 0
            #   <=>  sum(c_i/g v_i) >= ceil(-c/g)
            #   <=>  sum(c_i/g v_i) + floor(c/g) >= 0
            items = tuple((k, v // g) for k, v in items)
            const = _floor_div(const, g)
        return Constraint(items, const)

    def coeff(self, var: str) -> int:
        for k, v in self.coeffs:
            if k == var:
                return v
        return 0

    def drop(self, var: str) -> tuple[tuple[str, int], ...]:
        return tuple((k, v) for k, v in self.coeffs if k != var)

    def involves(self, var: str) -> bool:
        return any(k == var for k, _ in self.coeffs)

    def evaluate(self, binding: Mapping[str, int]) -> int:
        return sum(v * binding[k] for k, v in self.coeffs) + self.const

    def is_trivially_true(self) -> bool:
        return not self.coeffs and self.const >= 0

    def is_trivially_false(self) -> bool:
        return not self.coeffs and self.const < 0

    def __str__(self) -> str:
        terms = " + ".join(f"{v}*{k}" for k, v in self.coeffs) or "0"
        return f"{terms} + {self.const} >= 0"


@dataclass(frozen=True)
class BoundTerm:
    """One affine bound ``(sum coeffs·outer + const) / divisor`` — a lower
    bound is the ceiling of this, an upper bound the floor."""

    coeffs: tuple[tuple[str, int], ...]
    const: int
    divisor: int  # > 0

    def eval_lower(self, binding: Mapping[str, int]) -> int:
        num = sum(v * binding[k] for k, v in self.coeffs) + self.const
        return _ceil_div(num, self.divisor)

    def eval_upper(self, binding: Mapping[str, int]) -> int:
        num = sum(v * binding[k] for k, v in self.coeffs) + self.const
        return _floor_div(num, self.divisor)

    def __str__(self) -> str:
        terms = " + ".join(f"{v}*{k}" for k, v in self.coeffs)
        body = f"{terms} + {self.const}" if terms else str(self.const)
        return body if self.divisor == 1 else f"({body})/{self.divisor}"


@dataclass(frozen=True)
class LoopBound:
    """Bounds of one (transformed) loop: ``max(lowers) <= v <= min(uppers)``
    with an optional stride (> 1 only for non-unimodular transformations)."""

    var: str
    lowers: tuple[BoundTerm, ...]
    uppers: tuple[BoundTerm, ...]
    stride: int = 1

    def eval_range(self, binding: Mapping[str, int]) -> tuple[int, int]:
        lo = max(t.eval_lower(binding) for t in self.lowers)
        hi = min(t.eval_upper(binding) for t in self.uppers)
        return lo, hi


class ConstraintSystem:
    """A conjunction of linear inequalities over ordered loop variables
    (outermost first) and never-eliminated symbolic parameters."""

    def __init__(
        self,
        variables: Sequence[str],
        params: Sequence[str] = (),
        constraints: Iterable[Constraint] = (),
    ):
        self.variables = tuple(variables)
        self.params = tuple(params)
        overlap = set(self.variables) & set(self.params)
        if overlap:
            raise ValueError(f"names used as both variable and parameter: {overlap}")
        self.constraints: list[Constraint] = []
        self._known: set[Constraint] = set()
        for c in constraints:
            self.add(c)

    def add(self, constraint: Constraint) -> None:
        if constraint.is_trivially_true() or constraint in self._known:
            return
        self._known.add(constraint)
        self.constraints.append(constraint)

    def add_ineq(self, coeffs: Mapping[str, int], const: int) -> None:
        self.add(Constraint.make(coeffs, const))

    def add_lower(self, var: str, coeffs: Mapping[str, int], const: int) -> None:
        """Add ``var >= sum(coeffs) + const``."""
        merged = {var: 1}
        for k, v in coeffs.items():
            merged[k] = merged.get(k, 0) - int(v)
        self.add_ineq(merged, -int(const))

    def add_upper(self, var: str, coeffs: Mapping[str, int], const: int) -> None:
        """Add ``var <= sum(coeffs) + const``."""
        merged = {var: -1}
        for k, v in coeffs.items():
            merged[k] = merged.get(k, 0) + int(v)
        self.add_ineq(merged, int(const))

    def copy(self) -> "ConstraintSystem":
        return ConstraintSystem(self.variables, self.params, self.constraints)

    def satisfied(self, binding: Mapping[str, int]) -> bool:
        return all(c.evaluate(binding) >= 0 for c in self.constraints)

    # -- transformation -----------------------------------------------------

    def transformed(
        self, t: IMat, new_variables: Sequence[str]
    ) -> "ConstraintSystem":
        """Return the system over ``I' = T @ I`` (same parameters).

        Substitutes ``I = T^-1 I'`` and clears denominators, so the result
        is exact for rational points; integer exactness of scanning is
        handled by the stride/guard machinery in :func:`loop_bounds_for_transform`.
        """
        if len(new_variables) != len(self.variables):
            raise ValueError("variable count mismatch")
        adj, d = t.inverse_pair()
        sign = 1 if d > 0 else -1
        scale = abs(d)
        out = ConstraintSystem(new_variables, self.params)
        for c in self.constraints:
            # split coefficients into variable part and parameter part
            var_coeffs = [c.coeff(v) for v in self.variables]
            new_var_coeffs = adj.vecmat(var_coeffs)  # row-vector times adj
            coeffs: dict[str, int] = {
                nv: sign * cc for nv, cc in zip(new_variables, new_var_coeffs)
            }
            for k, v in c.coeffs:
                if k in self.params:
                    coeffs[k] = coeffs.get(k, 0) + scale * v
            out.add_ineq(coeffs, scale * c.const)
        return out


def fourier_motzkin(system: ConstraintSystem, var: str) -> ConstraintSystem:
    """Eliminate ``var`` from the system (rational projection)."""
    if var not in system.variables:
        raise ValueError(f"{var} is not an eliminable variable")
    lowers, uppers, rest = [], [], []
    for c in system.constraints:
        a = c.coeff(var)
        if a > 0:
            lowers.append(c)
        elif a < 0:
            uppers.append(c)
        else:
            rest.append(c)
    new_vars = tuple(v for v in system.variables if v != var)
    out = ConstraintSystem(new_vars, system.params, rest)
    for lo in lowers:
        a = lo.coeff(var)
        for up in uppers:
            b = -up.coeff(var)
            # a*var >= -(lo without var);  b*var <= (up without var)
            coeffs: dict[str, int] = {}
            for k, v in lo.drop(var):
                coeffs[k] = coeffs.get(k, 0) + b * v
            for k, v in up.drop(var):
                coeffs[k] = coeffs.get(k, 0) + a * v
            out.add_ineq(coeffs, b * lo.const + a * up.const)
    return out


def bounds_by_level(system: ConstraintSystem) -> list[LoopBound]:
    """Compute per-loop bounds by eliminating variables innermost-first.

    Level ``j``'s bounds may reference variables ``0..j-1`` and parameters.
    """
    levels: list[LoopBound] = []
    current = system
    for var in reversed(system.variables):
        lowers, uppers = [], []
        for c in current.constraints:
            a = c.coeff(var)
            if a == 0:
                continue
            other = c.drop(var)
            if a > 0:
                # a*var + rest + const >= 0  =>  var >= (-rest - const)/a
                lowers.append(
                    BoundTerm(
                        tuple((k, -v) for k, v in other), -c.const, a
                    )
                )
            else:
                # var <= (rest + const)/(-a)
                uppers.append(BoundTerm(other, c.const, -a))
        if not lowers or not uppers:
            raise ValueError(f"loop variable {var} is unbounded in the system")
        levels.append(LoopBound(var, tuple(lowers), tuple(uppers)))
        current = fourier_motzkin(current, var)
    levels.reverse()
    return levels


@dataclass(frozen=True)
class TransformedBounds:
    """Scannable description of a transformed iteration space.

    ``bounds[j]`` bound the j-th new loop; ``strides[j]`` is its step.
    When ``exact`` is False the scan visits a superset lattice and each
    candidate point must pass :meth:`point_is_image` before executing.
    """

    bounds: tuple[LoopBound, ...]
    strides: tuple[int, ...]
    exact: bool
    t: IMat

    def point_is_image(self, point: Sequence[int]) -> bool:
        """True iff ``point`` is ``T @ I`` for an *integer* ``I``."""
        if self.exact:
            return True
        adj, d = self.t.inverse_pair()
        return all(v % d == 0 for v in adj.matvec(point))


def loop_bounds_for_transform(
    system: ConstraintSystem, t: IMat, new_variables: Sequence[str]
) -> TransformedBounds:
    """Bounds + strides scanning ``{T·I : I integer, I in system}``.

    Unimodular ``T`` gives an exact scan with unit strides.  For general
    non-singular ``T`` the image lattice ``T·Z^k`` has column HNF ``H``;
    the j-th loop steps by ``H[j,j]`` and a residual integrality guard
    (``exact=False``) filters the (rare) stragglers from off-diagonal
    congruence coupling.
    """
    new_sys = system.transformed(t, new_variables)
    bounds = tuple(bounds_by_level(new_sys))
    det = t.det()
    if abs(det) == 1:
        return TransformedBounds(bounds, (1,) * len(bounds), True, t)
    h, _ = column_hnf(t)
    strides = tuple(abs(h[j, j]) for j in range(t.nrows))
    # Strides are sound only if lower bounds land on the lattice; keep
    # stride 1 + guard when off-diagonal coupling exists (always sound).
    coupled = any(
        h[i, j] != 0 for i in range(t.nrows) for j in range(t.ncols) if i != j
    )
    if coupled:
        strides = (1,) * len(bounds)
    return TransformedBounds(bounds, strides, False, t)


def iterate_bounds(
    bounds: Sequence[LoopBound],
    binding: Mapping[str, int],
    strides: Sequence[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Enumerate the integer points described by per-level bounds, in
    lexicographic order, given concrete parameter values."""
    strides = tuple(strides) if strides is not None else (1,) * len(bounds)
    env = dict(binding)
    point: list[int] = []

    def rec(level: int) -> Iterator[tuple[int, ...]]:
        if level == len(bounds):
            yield tuple(point)
            return
        b = bounds[level]
        lo, hi = b.eval_range(env)
        step = strides[level]
        v = lo
        while v <= hi:
            env[b.var] = v
            point.append(v)
            yield from rec(level + 1)
            point.pop()
            del env[b.var]
            v += step

    return rec(0)


def enumerate_lattice_points(
    system: ConstraintSystem, binding: Mapping[str, int]
) -> list[tuple[int, ...]]:
    """Brute-force reference enumeration (lex order) of the system's integer
    points — used by tests to validate Fourier–Motzkin bounds."""
    bounds = bounds_by_level(system)
    return [p for p in iterate_bounds(bounds, binding) if _valid(system, bounds, p, binding)]


def _valid(
    system: ConstraintSystem,
    bounds: Sequence[LoopBound],
    point: Sequence[int],
    binding: Mapping[str, int],
) -> bool:
    env = dict(binding)
    env.update({b.var: v for b, v in zip(bounds, point)})
    return system.satisfied(env)
