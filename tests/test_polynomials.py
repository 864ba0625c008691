from fractions import Fraction

import numpy as np
import pytest

from graphzeta import IntPolynomial


def test_normalization_and_degree():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coefficients == (1, 2)
    assert p.degree == 1
    assert IntPolynomial((0,)).coefficients == (0,)
    assert IntPolynomial(()).coefficients == (0,)


def test_evaluation_types():
    p = IntPolynomial((1, 0, 2))
    assert p(3) == 19
    assert p(Fraction(1, 2)) == Fraction(3, 2)
    assert p(1j) == 1 + 0j - 2
    out = p(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [1.0, 3.0, 9.0])


def test_exact_division():
    # (1 - u^4) = (1 - u^2)(1 + u^2)
    num = IntPolynomial((1, 0, 0, 0, -1))
    den = IntPolynomial((1, 0, -1))
    assert den.divides(num)
    assert num.divide_exact(den).coefficients == (1, 0, 1)


def test_division_failure():
    num = IntPolynomial((1, 1, 1))
    den = IntPolynomial((1, 1))
    assert not den.divides(num)
    with pytest.raises(ValueError):
        num.divide_exact(den)
    # the zero divisor, a divisor of higher degree, a quotient that is not integral
    for num, den, why in (
        ((1, 1), (0,), "zero polynomial"),
        ((1, 1), (1, 0, 1), "degree too small"),
        ((1, 1), (2,), "not integral"),
    ):
        with pytest.raises(ValueError, match=why):
            IntPolynomial(num).divide_exact(IntPolynomial(den))
