"""Asymptotic rate-distance bounds and their CSV emission.

Two families: the nonconstructive entropy bound for quaternary
stabilizer codes, and the piecewise-linear constructive family indexed
by the field half-degree m (codes over GF(2^(2m))), each line valid
only up to its own relative-distance restriction.  Rational formulas
are evaluated exactly in Fractions; only logarithms use floats.

The stated crossover points delta_m of consecutive lines are computed
exactly as well; ``breakpoint_diagnostic`` compares them against each
line's validity restriction and flags inverted intervals (present at
m = 3) instead of guessing an intent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

LOG2_3 = math.log2(3.0)

M_MIN = 3
# Lines beyond m = 20 gain less than 4e-6 of intercept, below any
# plotting resolution.
M_MAX = 20

DELTA_2 = Fraction(1, 18)
BREAKPOINT_M_MAX = 12  # the last line the breakpoint diagnostic checks


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0."""
    if x < 0.0 or x > 1.0:
        raise ValueError(f"entropy argument outside [0, 1]: {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def gv_bound(delta: float) -> float:
    """Entropy-type rate lower bound 1 - delta*log2(3) - H(delta).

    May be negative toward the right end; callers clip for plotting.
    """
    if delta < 0.0 or delta > 1.0:
        raise ValueError(f"relative distance outside [0, 1]: {delta}")
    return 1.0 - delta * LOG2_3 - binary_entropy(delta)


def gamma(m: int) -> Fraction:
    return Fraction(1, (1 << m) - 2)


def restriction_limit(m: int) -> Fraction:
    """Largest relative distance where the degree-m line is valid."""
    if m < M_MIN:
        raise ValueError(f"line index must be >= {M_MIN}")
    return Fraction(1, 2 * m) * (Fraction(1, 2) - gamma(m))


def ag_line(m: int, delta) -> Fraction | None:
    """Rate of the degree-m constructive line, or None when out of range.

    Exact: R = 1 - 2/(2^m - 2) - (10/3) m delta for
    0 <= delta <= restriction_limit(m).
    """
    if m < M_MIN:
        raise ValueError(f"line index must be >= {M_MIN}")
    d = Fraction(delta)
    if d < 0 or d > restriction_limit(m):
        return None
    return 1 - 2 * gamma(m) - Fraction(10, 3) * m * d


def line_crossover(m: int) -> Fraction:
    """Exact crossing point of consecutive lines; m = 2 is the domain edge 1/18."""
    if m == 2:
        return DELTA_2
    if m < 2:
        raise ValueError("crossover index must be >= 2")
    p = 1 << m
    return Fraction(3, 5) * Fraction(p, (p - 2) * (2 * p - 2))


@dataclass(frozen=True)
class CurveSample:
    delta: Fraction
    r: float
    source: str
    m: int | None = None

    @property
    def source_tag(self) -> str:
        return f"{self.source}(m={self.m})" if self.m is not None else self.source


@dataclass(frozen=True)
class BoundCurve:
    """Samples ordered by strictly increasing delta, rates clipped to [0, 1]."""

    samples: tuple[CurveSample, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.samples, self.samples[1:]):
            if not a.delta < b.delta:
                raise ValueError("delta values must be strictly increasing")
        for s in self.samples:
            if not 0.0 <= s.r <= 1.0:
                raise ValueError(f"rate {s.r} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.samples)


def delta_grid(step, stop) -> list[Fraction]:
    """step, 2*step, ... up to stop inclusive (exact rational grid)."""
    h = Fraction(step)
    if h <= 0:
        raise ValueError("step must be positive")
    hi = Fraction(stop)
    out = []
    d = h
    while d <= hi:
        out.append(d)
        d += h
    if not out:
        raise ValueError("empty grid")
    return out


def _clip01(x: float) -> float:
    return min(1.0, max(0.0, x))


def gv_curve(grid: Sequence[Fraction]) -> BoundCurve:
    samples = tuple(
        CurveSample(delta=d, r=_clip01(gv_bound(float(d))), source="gv4") for d in grid
    )
    return BoundCurve(samples)


def ag_curve(m: int, grid: Sequence[Fraction]) -> BoundCurve:
    """The degree-m line on the grid points where it applies."""
    samples = []
    for d in grid:
        r = ag_line(m, d)
        if r is not None:
            samples.append(
                CurveSample(delta=d, r=_clip01(float(r)), source="agq-line", m=m)
            )
    if not samples:
        raise ValueError(f"line m={m} is out of range on the whole grid")
    return BoundCurve(tuple(samples))


def envelope(grid: Sequence[Fraction]) -> BoundCurve:
    """Pointwise best constructive line over m, restrictions enforced.

    Records the achieving m per sample.  Grid must stay within
    (0, 1/18], the overall validity window.
    """
    samples = []
    for d in grid:
        if not 0 < d <= DELTA_2:
            raise ValueError(f"envelope grid point {d} outside (0, 1/18]")
        best: tuple[Fraction, int] | None = None
        for m in range(M_MIN, M_MAX + 1):
            r = ag_line(m, d)
            if r is not None and (best is None or r > best[0]):
                best = (r, m)
        if best is None:
            raise ValueError(f"no line is valid at delta = {d}")
        samples.append(
            CurveSample(delta=d, r=_clip01(float(best[0])), source="envelope", m=best[1])
        )
    return BoundCurve(tuple(samples))


@dataclass(frozen=True)
class BreakpointEntry:
    m: int
    stated: Fraction          # crossover of lines m and m+1 (1/18 at m=2)
    previous: Fraction        # crossover indexed m-1, the interval's right end
    restriction: Fraction     # validity limit of line m
    interval_inverted: bool   # stated > previous: the claimed interval is empty
    beyond_restriction: bool  # stated > restriction: crossover outside validity


@dataclass(frozen=True)
class BreakpointDiagnostic:
    entries: tuple[BreakpointEntry, ...]
    inversions: tuple[int, ...]
    notes: tuple[str, ...]


def breakpoint_diagnostic() -> BreakpointDiagnostic:
    """Compare stated crossover points with each line's validity window."""
    entries = []
    inversions = []
    notes = []
    for m in range(M_MIN, BREAKPOINT_M_MAX + 1):
        stated = line_crossover(m)
        previous = line_crossover(m - 1)
        restr = restriction_limit(m)
        inverted = stated > previous
        beyond = stated > restr
        if inverted:
            inversions.append(m)
            notes.append(
                f"m={m}: stated interval [{stated}, {previous}] is inverted "
                f"({float(stated):.5f} > {float(previous):.5f})"
            )
        if beyond:
            notes.append(
                f"m={m}: crossover {stated} exceeds the line's validity "
                f"limit {restr}"
            )
        entries.append(
            BreakpointEntry(
                m=m,
                stated=stated,
                previous=previous,
                restriction=restr,
                interval_inverted=inverted,
                beyond_restriction=beyond,
            )
        )
    return BreakpointDiagnostic(
        entries=tuple(entries), inversions=tuple(inversions), notes=tuple(notes)
    )


# ----------------------------------------------------------------------
# CSV emission
# ----------------------------------------------------------------------

def _format_delta(d: Fraction) -> str:
    """Exact decimal when the denominator is 10-smooth, else 'p/q'."""
    den = d.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1:
        scale = 1
        digits = 0
        den = d.denominator
        while scale % den:
            scale *= 10
            digits += 1
        num = d.numerator * (scale // den)
        if digits == 0:
            return str(num)
        text = f"{num:0{digits + 1}d}"
        return f"{text[:-digits]}.{text[-digits:]}"
    return f"{d.numerator}/{d.denominator}"


def emit_csv(curves: Iterable[BoundCurve], path: str | Path) -> Path:
    """Write 'delta,R,source' rows, curves in order, deltas ascending."""
    curves = list(curves)
    if not curves:
        raise ValueError("no curves to emit")
    lines = ["delta,R,source"]
    for curve in curves:
        for s in curve.samples:
            lines.append(f"{_format_delta(s.delta)},{s.r!r},{s.source_tag}")
    out = Path(path)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out

