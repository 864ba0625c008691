"""Dense polynomials with exact integer coefficients."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import json_int


def _normalize(coeffs: Sequence[int]) -> tuple[int, ...]:
    out = [json_int(c, "an entry of coefficients") for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out) if out else (0,)


@dataclass(frozen=True)
class IntPolynomial:
    """Coefficients in ascending powers; index = power of u."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", _normalize(self.coefficients))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, u):
        # Horner; works for int, Fraction, complex and numpy arrays alike.
        acc = self.coefficients[-1] + (u * 0)
        for c in reversed(self.coefficients[:-1]):
            acc = acc * u + c
        return acc

    def divide_exact(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact division over the integers; raises ValueError if not exact."""
        if divisor.coefficients == (0,):
            raise ValueError("division by the zero polynomial")
        num = [Fraction(c) for c in self.coefficients]
        den = [Fraction(c) for c in divisor.coefficients]
        if len(num) < len(den):
            raise ValueError("not divisible: degree too small")
        quot = [Fraction(0)] * (len(num) - len(den) + 1)
        for k in range(len(quot) - 1, -1, -1):
            q = num[k + len(den) - 1] / den[-1]
            quot[k] = q
            if q:
                for j, d in enumerate(den):
                    num[k + j] -= q * d
        if any(num):
            raise ValueError("not divisible: nonzero remainder")
        if any(q.denominator != 1 for q in quot):
            raise ValueError("quotient is not integral")
        return IntPolynomial(tuple(q.numerator for q in quot))

    def divides(self, other: "IntPolynomial") -> bool:
        try:
            other.divide_exact(self)
            return True
        except ValueError:
            return False

    def to_list(self) -> list[int]:
        return list(self.coefficients)
