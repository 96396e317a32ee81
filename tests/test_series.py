"""Formal distribution kernel: expansions, delta composites, products, shifts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexcalc.errors import ExponentOutsideWindow, NonSummableProduct
from vertexcalc.series import (
    Window,
    binom,
    binom_expand,
    delta_series,
    delta_three_term,
    derivative,
    from_terms,
    monomial,
    mul,
    power_expand,
    residue,
    sub,
    taylor_shift,
    window_equal,
    zero_distribution,
)

W1 = Window.symmetric(1, 12)
W2 = Window.symmetric(2, 12)
W3 = Window.symmetric(3, 8)


def brute_binomial(n: int, i: int) -> Fraction:
    """Independent product/factorial evaluation of n choose i."""
    num = Fraction(1)
    for j in range(i):
        num *= Fraction(n - j)
    for j in range(1, i + 1):
        num /= j
    return num


@given(st.integers(-30, 30), st.integers(0, 20))
def test_binom_matches_factorial_formula(n, i):
    assert binom(n, i) == brute_binomial(n, i)
    assert type(binom(n, i)) is int


def test_binom_negative_values():
    assert binom(-1, 3) == -1
    assert binom(-2, 2) == 3
    assert binom(3, 5) == 0
    assert binom(4, -1) == 0 and type(binom(4, -1)) is int


# -- coefficient access ------------------------------------------------------


def test_delta_has_unit_coefficients_everywhere():
    d = delta_series("x", W1)
    for n in (-12, -5, 0, 5, 12):
        assert d.coeff((n,)) == 1


def test_zero_distribution_coeff():
    z = zero_distribution(("x", "y"), W2)
    assert z.coeff((0, 0)) == 0
    assert z.is_zero()


def test_coeff_outside_window_raises():
    d = delta_series("x", W1)
    with pytest.raises(ExponentOutsideWindow):
        d.coeff((13,))


def test_inverse_expansion_coefficient():
    # (x1-x2)^(-1) = sum_i x1^(-1-i) x2^i; the i=2 term reads 1 at (-3, 2)
    d = binom_expand(-1, "x1", "x2", -1, W2)
    assert d.coeff((-3, 2)) == 1
    assert d.coeff((-1, 0)) == 1
    assert d.coeff((0, 0)) == 0
    assert d.coeff((2, -3)) == 0  # no negative powers of the second variable


# -- binomial expansions -----------------------------------------------------


def test_square_expansion():
    d = binom_expand(2, "x1", "x2", -1, W2)
    assert dict(d.sorted_items()) == {
        (2, 0): Fraction(1),
        (1, 1): Fraction(-2),
        (0, 2): Fraction(1),
    }
    assert d.complete


@pytest.mark.parametrize("n", range(0, 7))
def test_nonnegative_expansion_matches_repeated_multiplication(n):
    # brute-force oracle: multiply (x1 - x2) n times
    acc = monomial(("x1", "x2"), (0, 0), Fraction(1), W2)
    factor = sub(
        monomial(("x1", "x2"), (1, 0), Fraction(1), W2),
        monomial(("x1", "x2"), (0, 1), Fraction(1), W2),
    )
    for _ in range(n):
        acc = mul(acc, factor)
    d = binom_expand(n, "x1", "x2", -1, W2)
    assert len(d.coeffs) == n + 1
    assert window_equal(acc, d).matched


def test_negative_expansion_coefficient_value():
    d = binom_expand(-2, "x1", "x2", 1, W2)
    assert d.coeff((-4, 2)) == 3  # C(-2,2) = (-2)(-3)/2


def test_expansion_support_lower_bound_in_second_variable():
    d = binom_expand(-3, "x1", "x2", -1, W2)
    assert d.support[1][0] == 0
    assert all(e[1] >= 0 for e in d.coeffs)


def test_power_expand_negated_first_variable():
    # (-x2 + x1)^1 = -x2 + x1
    d = power_expand(1, "x2", "x1", W2, sign_a=-1, sign_b=1)
    assert dict(d.coeffs) == {(1, 0): Fraction(-1), (0, 1): Fraction(1)}


# -- the three-term delta identity -------------------------------------------


def test_delta_three_term_sides_match_on_window():
    left = delta_three_term("left", W3)
    right = delta_three_term("right", W3)
    verdict = window_equal(left, right)
    assert verdict.matched
    # both sides escape every finite window, so the verdict is window-sound
    assert not verdict.exact


def test_delta_right_unit_coefficient():
    right = delta_three_term("right", W3)
    # the n=0, i=0 term of sum_n x2^(-n-1) (x1-x0)^n, exponent order (x0,x1,x2)
    assert right.coeff((0, 0, -1)) == 1


def test_delta_right_residue_over_x1():
    # brute-force window sum: only the n=-1, i=0 term contributes to Res_x1
    right = delta_three_term("right", W3)
    acc = {}
    for e, c in right.items():
        if e[1] == -1:
            acc[(e[0], e[2])] = acc.get((e[0], e[2]), 0) + c
    acc = {e: c for e, c in acc.items() if c != 0}
    assert acc == {(0, 0): Fraction(1)}
    r = residue(right, "x1")
    assert dict(r.coeffs) == {(0, 0): Fraction(1)}


# -- products ----------------------------------------------------------------


def test_mul_power_times_inverse_is_identity():
    for k in (1, 2, 3):
        p = binom_expand(k, "x1", "x2", -1, W2)
        q = binom_expand(-k, "x1", "x2", -1, W2)
        prod = mul(p, q)
        assert dict(prod.coeffs) == {(0, 0): Fraction(1)}


def test_mul_inverse_then_power_recovers_bounded_distribution():
    # ((x1-x2)^k d) * (-x2+x1)^(-k) = d for d a Laurent polynomial
    d = monomial(("x1", "x2"), (-2, 1), Fraction(5), W2)
    k = 2
    p = mul(binom_expand(k, "x1", "x2", -1, W2), d)
    inv = power_expand(-k, "x2", "x1", W2, sign_a=-1, sign_b=1)
    back = mul(p, inv)
    assert window_equal(back, d).matched


def test_mul_delta_by_delta_rejected():
    d = delta_series("x", W1)
    with pytest.raises(NonSummableProduct):
        mul(d, d)


def test_mul_delta_composite_by_polynomial():
    # multiplying the left delta composite by (x1-x2)^2 keeps coefficients
    # consistent with an independent window convolution
    left = delta_three_term("left", W3)
    p = binom_expand(2, "x1", "x2", -1, Window.symmetric(2, 8))
    prod = mul(p, left)
    # independent brute-force convolution at a probe exponent inside the
    # shrunken window
    probe = (1, 0, 0)
    total = Fraction(0)
    for e, c in p.items():
        rest = (probe[0], probe[1] - e[0], probe[2] - e[1])
        if left.window.contains(rest):
            total += c * left.coeff(rest)
    assert prod.coeff(probe) == total


def test_mul_is_commutative_and_associative_when_certified():
    p = binom_expand(2, "x1", "x2", -1, W2)
    q = binom_expand(-2, "x1", "x2", -1, W2)
    r = monomial(("x1", "x2"), (1, 1), Fraction(3), W2)
    assert window_equal(mul(p, r), mul(r, p)).matched
    assert window_equal(mul(mul(p, r), q), mul(p, mul(r, q))).matched


# -- residue -----------------------------------------------------------------


def test_residue_of_delta_is_one():
    assert dict(residue(delta_series("x", W1), "x").coeffs) == {(): Fraction(1)}


def test_residue_of_polynomial_is_zero():
    m = monomial(("x",), (2,), Fraction(1), W1)
    assert residue(m, "x").is_zero()


def test_residue_of_inverse_expansion():
    d = binom_expand(-1, "x1", "x2", -1, W2)
    r = residue(d, "x1")
    assert dict(r.coeffs) == {(0,): Fraction(1)}


# -- taylor shifts -----------------------------------------------------------


def test_taylor_shift_of_power_is_binomial_row():
    m = monomial(("x",), (4,), Fraction(1), W1)
    s = taylor_shift(m, "x", "x0", "x2", W2)
    assert dict(s.coeffs) == {
        (4 - i, i): binom(4, i) for i in range(5)
    }


def test_taylor_shift_directions_agree_for_nonnegative_powers():
    for n in range(0, 5):
        m = monomial(("x",), (n,), Fraction(1), W1)
        a = taylor_shift(m, "x", "x0", "x2", W2)
        b = taylor_shift(m, "x", "x2", "x0", W2)
        # reorder b's variables by comparing through window_equal's alignment
        assert window_equal(a, b).matched


def test_taylor_shift_directions_differ_for_negative_powers():
    m = monomial(("x",), (-1,), Fraction(1), W1)
    a = taylor_shift(m, "x", "x0", "x2", W2)
    b = taylor_shift(m, "x", "x2", "x0", W2)
    v = window_equal(a, b)
    assert not v.matched
    # (x0+x2)^(-1) has x0-exponent -1-i against x2^i; the reverse expansion
    # puts its negative powers on x2 instead (b's variables read (x2, x0))
    assert a.coeff((-1, 0)) == 1
    assert b.coeff((0, -1)) == 0


def test_taylor_shift_unbounded_below_rejected():
    d = delta_series("x", W1)
    with pytest.raises(NonSummableProduct):
        taylor_shift(d, "x", "x0", "x2", W2)


def test_taylor_shift_window_escaping_support_rejected():
    # (x1 - x2)^(-1) escapes its window upward in the second variable, so a
    # shift in that variable cannot be certified
    d = binom_expand(-1, "x1", "x2", -1, W2)
    w3 = Window.symmetric(3, 12)
    with pytest.raises(NonSummableProduct):
        taylor_shift(d, "x2", "y", "z", w3)
    # and the first variable is unbounded below outright
    with pytest.raises(NonSummableProduct):
        taylor_shift(d, "x1", "y", "z", w3)


def test_residue_shift_compatibility():
    # shifting a polynomial never creates negative powers of the new variable
    for n in range(0, 6):
        m = monomial(("x",), (n,), Fraction(7), W1)
        s = taylor_shift(m, "x", "x0", "x2", W2)
        assert residue(s, "x0").is_zero()


# -- derivative --------------------------------------------------------------


def test_derivative_of_cube():
    m = monomial(("x",), (3,), Fraction(1), W1)
    assert dict(derivative(m, "x").coeffs) == {(2,): Fraction(3)}


def test_derivative_of_constant_is_zero():
    m = monomial(("x",), (0,), Fraction(9), W1)
    assert derivative(m, "x").is_zero()


def test_derivative_of_delta_coefficients():
    d = derivative(delta_series("x", W1), "x")
    for n in (-4, -1, 0, 3):
        assert d.coeff((n,)) == n + 1
    # the top of the window is no longer observable
    assert d.window.bounds[0] == (-12, 11)


def test_window_equal_differs_with_witness():
    a = monomial(("x",), (1,), Fraction(1), Window([(0, 2)]))
    b = from_terms(("x",), {(1,): Fraction(1), (2,): Fraction(1)}, Window([(0, 2)]))
    v = window_equal(a, b)
    assert v.kind == "differs"
    assert v.witness == (2,)


def test_window_equal_identical_is_exact():
    a = monomial(("x",), (1,), Fraction(1), W1)
    assert window_equal(a, a).exact


def test_region_kinds_follow_the_support():
    poly = binom_expand(3, "x1", "x2", -1, W2)
    assert poly.region.kind("x1") == "polynomial"
    assert poly.region.kind("x2") == "polynomial"
    inverse = binom_expand(-1, "x1", "x2", -1, W2)
    assert inverse.region.kind("x1") == "unrestricted"
    assert inverse.region.kind("x2") == "polynomial"
    assert delta_series("x", W1).region.kind("x") == "unrestricted"
    laurent = monomial(("x",), (-3,), Fraction(1), W1)
    assert laurent.region.kind("x") == "lower-bounded"
