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


def test_log_series():
    # log(1 - 2u) = -sum (2u)^m / m
    p = IntPolynomial((1, -2))
    coeffs = p.log_series(5)
    assert list(coeffs) == [Fraction(-(2**m), m) for m in range(1, 6)]
    # log of a product is the sum of logs: (1 + u)(1 + 3u^2) = 1 + u + 3u^2 + 3u^3
    a = IntPolynomial((1, 1))
    b = IntPolynomial((1, 0, 3))
    lhs = IntPolynomial((1, 1, 3, 3)).log_series(8)
    rhs = [x + y for x, y in zip(a.log_series(8), b.log_series(8))]
    assert list(lhs) == rhs


def test_log_series_needs_unit_constant_term():
    with pytest.raises(ValueError):
        IntPolynomial((2, 1)).log_series(3)
