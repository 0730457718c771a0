"""The toll box, and TollVector, the single-replication and command-line form of a toll row."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TollVector:
    """A time-varying toll pattern: one distance rate and one delay rate per interval.

    The flat layout used everywhere else is ``[v_1..v_m, w_1..w_m]`` with
    distance rates in currency/km first and delay rates in currency/h second.
    """

    distance_rates: np.ndarray
    delay_rates: np.ndarray

    def __post_init__(self):
        dr = np.atleast_1d(np.asarray(self.distance_rates, dtype=float))
        wr = np.atleast_1d(np.asarray(self.delay_rates, dtype=float))
        if dr.ndim != 1 or wr.ndim != 1:
            raise ValueError("toll rate vectors must be one-dimensional")
        if dr.shape != wr.shape:
            raise ValueError("distance and delay rate vectors must have the same length")
        object.__setattr__(self, "distance_rates", dr)
        object.__setattr__(self, "delay_rates", wr)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.distance_rates, self.delay_rates])

    @classmethod
    def from_array(cls, x) -> "TollVector":
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size == 0 or x.size % 2 != 0:
            raise ValueError("flat decision vector must have even positive length 2m")
        m = x.size // 2
        return cls(x[:m].copy(), x[m:].copy())

    @classmethod
    def zero(cls, m: int) -> "TollVector":
        return cls(np.zeros(m), np.zeros(m))

    @classmethod
    def constant(cls, m: int, distance_rate: float, delay_rate: float) -> "TollVector":
        return cls(np.full(m, float(distance_rate)), np.full(m, float(delay_rate)))


@dataclass(frozen=True)
class Bounds:
    """Box bounds on the flat decision vector (distance rates first, then delay rates)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper bounds must be 1-D vectors of equal length")
        if lo.size == 0 or lo.size % 2 != 0:
            raise ValueError("bounds must have even positive length 2m")
        for name, limits in (("lower", lo), ("upper", hi)):
            if not np.all(np.isfinite(limits)):
                raise ValueError(f"{name}: bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("lower: bound exceeds upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def d(self) -> int:
        return self.lower.size

    @property
    def m(self) -> int:
        return self.lower.size // 2

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    @classmethod
    def uniform(cls, m: int, v_max: float, w_max: float,
                v_min: float = 0.0, w_min: float = 0.0) -> "Bounds":
        """Same per-interval limits for every tolling interval."""
        lo = np.concatenate([np.full(m, float(v_min)), np.full(m, float(w_min))])
        hi = np.concatenate([np.full(m, float(v_max)), np.full(m, float(w_max))])
        return cls(lo, hi)

    def contains(self, x, atol: float = 0.0) -> np.ndarray:
        """Whether each row of ``x`` lies in the box, within ``atol``: one bool per row."""
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lower - atol) & (x <= self.upper + atol), axis=-1)

    def scale_from_unit(self, u) -> np.ndarray:
        """Affine map from the unit cube into the box."""
        u = np.asarray(u, dtype=float)
        return self.lower + u * self.span

    def to_unit(self, x) -> np.ndarray:
        """Affine map from the box into the unit cube; degenerate dimensions map to 0."""
        x = np.asarray(x, dtype=float)
        span = self.span
        safe = np.where(span > 0.0, span, 1.0)
        u = (x - self.lower) / safe
        return np.where(span > 0.0, u, 0.0)

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)
