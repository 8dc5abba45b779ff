"""Exact scalars of the form q * sqrt(r) with q rational and r squarefree.

These show up when an orthonormal frame is built from a rational metric:
quantities quadratic in the frame stay rational, while mixed terms pick up a
single square root. Keeping that root symbolic lets the self-dual Gram
matrices of the regression fixtures be compared with zero tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import frac, squarefree_decompose


@dataclass(frozen=True)
class Surd:
    """Value coef * sqrt(rad), with rad a squarefree positive integer.

    rad == 1 encodes a plain rational. The constructor normalizes, so two
    equal values always compare equal.
    """

    coef: Fraction
    rad: int = 1

    def __post_init__(self):
        coef = frac(self.coef)
        rad = self.rad
        if rad <= 0:
            raise ValueError("radicand must be positive")
        a, b = squarefree_decompose(rad)
        coef *= a
        rad = b
        if coef == 0:
            rad = 1
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "rad", rad)

    @staticmethod
    def sqrt(x: Fraction | int) -> "Surd":
        """Exact square root of a non-negative rational."""
        x = frac(x)
        if x < 0:
            raise ValueError("negative radicand")
        if x == 0:
            return Surd(Fraction(0))
        # sqrt(p/q) = sqrt(p*q)/q
        return Surd(Fraction(1, x.denominator), x.numerator * x.denominator)

    @property
    def is_rational(self) -> bool:
        return self.rad == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.coef

    def __mul__(self, other):
        if isinstance(other, Surd):
            return Surd(self.coef * other.coef, self.rad * other.rad)
        return Surd(self.coef * frac(other), self.rad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Surd):
            if other.coef == 0:
                raise ZeroDivisionError
            # 1/sqrt(r) = sqrt(r)/r
            return Surd(self.coef / (other.coef * other.rad), self.rad * other.rad)
        return Surd(self.coef / frac(other), self.rad)

    def __add__(self, other):
        if not isinstance(other, Surd):
            other = Surd(frac(other))
        if self.coef == 0:
            return other
        if other.coef == 0:
            return self
        if self.rad != other.rad:
            raise ValueError(f"cannot add sqrt({self.rad}) and sqrt({other.rad}) exactly")
        return Surd(self.coef + other.coef, self.rad)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.coef, self.rad)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Surd) else Surd(-frac(other)))

    def __eq__(self, other):
        if isinstance(other, Surd):
            return self.coef == other.coef and self.rad == other.rad
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.coef == other
        return NotImplemented

    def __hash__(self):
        return hash((self.coef, self.rad))

    def __float__(self):
        return float(self.coef) * self.rad ** 0.5

    def __repr__(self):
        if self.is_rational:
            return str(self.coef)
        if self.coef == 1:
            return f"sqrt({self.rad})"
        return f"{self.coef}*sqrt({self.rad})"
