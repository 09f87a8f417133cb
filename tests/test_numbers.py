"""Scalar arithmetic: cyclotomic fields and Laurent polynomials."""

import random
from fractions import Fraction

import pytest

from oracles import Poly, cyclo_div, divides, exact_div, poly_divmod
from twisthom.alexander import _monic_laurent
from twisthom.numbers import Cyclo, Laurent, cyclotomic_polynomial, euler_phi


def naive_poly_div(num, den):
    """Independent coefficient-list division oracle (exact, or raises)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    while len(num) >= len(den):
        c = Fraction(num[-1], den[-1])
        d = len(num) - len(den)
        q[d] = c
        for i, b in enumerate(den):
            num[d + i] -= c * b
        assert num[-1] == 0
        num.pop()
    assert all(x == 0 for x in num)
    return q


def test_cyclotomic_small():
    assert cyclotomic_polynomial(1) == Laurent({1: 1, 0: -1})
    assert cyclotomic_polynomial(2) == Laurent({1: 1, 0: 1})
    # Phi_6 by dividing t^6 - 1 by Phi_1 Phi_2 Phi_3 with the local oracle
    phi1, phi2, phi3 = [1 * 0 - 1, 1], [1, 1], [1, 1, 1]
    den = [0] * 5
    prod = [1]
    for f in ([-1, 1], [1, 1], [1, 1, 1]):
        new = [0] * (len(prod) + len(f) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(f):
                new[i + j] += a * b
        prod = new
    q = naive_poly_div([-1, 0, 0, 0, 0, 0, 1], prod)
    assert cyclotomic_polynomial(6) == Laurent({i: c for i, c in enumerate(q)})
    assert cyclotomic_polynomial(6) == Laurent({2: 1, 1: -1, 0: 1})


def test_cyclotomic_degrees():
    for n in range(1, 30):
        p = cyclotomic_polynomial(n)
        assert p.degree() == euler_phi(n)
        assert p.terms[p.degree()] == 1
        # product over divisors reconstructs t^n - 1
        prod = Poly({0: 1})
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == Laurent({n: 1, 0: -1})


def test_embed_rational():
    three = Cyclo.from_rational(3)
    e = three.embed(4)
    assert e.conductor == 4 and e.is_rational() and e.coeffs[0] == 3


def test_embed_zeta2():
    z2 = Cyclo.root_of_unity(2)
    e = z2.embed(4)
    assert e.is_rational() and e.coeffs[0] == -1


def test_embed_zeta3_cube():
    z3 = Cyclo.root_of_unity(3)
    e = z3.embed(6)
    assert e.conductor == 6
    assert e * e * e == Cyclo.one()
    assert e == z3  # equality embeds into the lcm


def test_conjugate_examples():
    five = Cyclo.from_rational(5)
    assert five.conjugate() == five
    z4 = Cyclo.root_of_unity(4)
    assert z4.conjugate() == -z4
    z5 = Cyclo.root_of_unity(5)
    x = z5 + z5 * z5
    y = x.conjugate()
    assert y == Cyclo.root_of_unity(5, 4) + Cyclo.root_of_unity(5, 3)
    assert (x + y).is_rational()
    assert y.conjugate() == x


def test_field_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 12)
        phi = euler_phi(n)
        x = Cyclo(n, [rng.randint(-3, 3) for _ in range(phi)])
        y = Cyclo(n, [rng.randint(-3, 3) for _ in range(phi)])
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x.conjugate().conjugate() == x
        if x:
            assert x * cyclo_div(Cyclo.one(n), x) == Cyclo.one()
            assert cyclo_div(x, x) == Cyclo.one()


def test_cross_conductor_arithmetic():
    z3 = Cyclo.root_of_unity(3)
    z4 = Cyclo.root_of_unity(4)
    prod = z3 * z4
    assert prod.conductor == 12
    assert prod == Cyclo.root_of_unity(12, 7)  # z3 z4 = z12^4 * z12^3


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        cyclo_div(Cyclo.one(5), Cyclo.zero(5))


def test_laurent_units_and_normalization():
    p = Laurent({3: 2, 1: -2})  # 2t^3 - 2t = 2t(t^2 - 1)
    assert len(p.terms) != 1  # units of Q[t, t^-1] are the monomials c t^k
    assert len(Laurent({5: Fraction(-7, 3)}).terms) == 1
    # the monic associate of the coefficients of -2 + 2t^2 (of -2t + 2t^3 / t)
    assert _monic_laurent((-2, 0, 2)) == Laurent({2: 1, 0: -1})
    assert _monic_laurent((3, 1)) == Laurent({0: 3, 1: 1})
    assert _monic_laurent((4, 6)) == Laurent({0: Fraction(2, 3), 1: 1})


def test_laurent_divmod_random():
    """The division of the test oracle, which the references rely on."""
    rng = random.Random(5)
    for _ in range(200):
        a = Poly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(4)})
        b = Poly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)})
        if not b:
            continue
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        if r:
            assert (r.degree() - r.valuation()) < (b.degree() - b.valuation())
        assert divides(b, a * b)
        assert exact_div(a * b, b) == a
