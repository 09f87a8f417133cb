"""Exact scalars: rationals, cyclotomic fields and Laurent polynomials.

Rationals are plain ``fractions.Fraction`` (already canonical: gcd 1, positive
denominator).  ``Cyclo`` represents elements of Q(zeta_n) reduced modulo the
n-th cyclotomic polynomial, by the integer rows x^k mod Phi_n that
``matrices`` reduces its arrays with.  ``Laurent`` holds elements of
Q[t, t^-1] as values; their arithmetic runs on integers, in ``matrices``.
Floats never appear here; numeric cross-checks live in the test suite.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


# ---------------------------------------------------------------------------
# dense Q[x] helpers (coefficient lists, index = exponent)
# ---------------------------------------------------------------------------

def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [ZERO] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


@functools.cache
def euler_phi(n: int) -> int:
    assert n >= 1
    out = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


@functools.cache
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """The integer coefficients of Phi_n, constant term first: x^n - 1
    divided by Phi_d for each d | n, d < n.  Each Phi_d is monic, so the
    synthetic division stays in the integers."""
    q = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            b = cyclotomic_coeffs(d)
            for m in range(len(q) - len(b), -1, -1):  # quotient left in q[len(b) - 1:]
                for i, c in enumerate(b[:-1]):
                    q[m + i] -= q[m + len(b) - 1] * c
            q = q[len(b) - 1:]
    return tuple(q)


@functools.cache
def cyclotomic_reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k < n holds the integer coefficients of x^k modulo Phi_n."""
    phi = euler_phi(n)
    low = [-c for c in cyclotomic_coeffs(n)[:phi]]  # x^phi = sum low[i] x^i
    rows = [tuple(int(i == k) for i in range(phi)) for k in range(min(n, phi))]
    while len(rows) < n:
        prev = rows[-1]
        top = prev[-1]
        rows.append(tuple(top * low[0] if i == 0 else prev[i - 1] + top * low[i]
                          for i in range(phi)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

class Cyclo:
    """An element of Q(zeta_n), stored as coefficients of 1, z, ..., z^(phi(n)-1).

    The representation is canonical for a fixed conductor; binary operations
    embed both arguments into the lcm of their conductors first.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ValueError(f"conductor must be >= 1, got {conductor}")
        phi = euler_phi(conductor)
        coeffs = tuple(as_fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for conductor {conductor}, got {len(coeffs)}")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo values are immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(x, conductor: int = 1) -> "Cyclo":
        x = as_fraction(x)
        coeffs = [x] + [ZERO] * (euler_phi(conductor) - 1)
        return Cyclo(conductor, coeffs)

    @staticmethod
    def zero(conductor: int = 1) -> "Cyclo":
        return Cyclo.from_rational(0, conductor)

    @staticmethod
    def one(conductor: int = 1) -> "Cyclo":
        return Cyclo.from_rational(1, conductor)

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "Cyclo":
        """zeta_n^k as an element of Q(zeta_n)."""
        k %= n
        poly = [ZERO] * k + [ONE]
        return Cyclo(n, _reduce_mod_cyclotomic(poly, n))

    # -- internals ---------------------------------------------------------

    def _embedded(self, m: int) -> tuple[Fraction, ...]:
        n = self.conductor
        if m == n:
            return self.coeffs
        if m % n != 0:
            raise ValueError(f"conductor {n} does not divide {m}")
        step = m // n
        poly = [ZERO] * ((len(self.coeffs) - 1) * step + 1) if self.coeffs else [ZERO]
        for i, c in enumerate(self.coeffs):
            if c:
                poly[i * step] = c
        return tuple(_reduce_mod_cyclotomic(poly, m))

    def embed(self, m: int) -> "Cyclo":
        """The same field element written with conductor m (n must divide m)."""
        return Cyclo(m, self._embedded(m))

    # -- ring structure -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.from_rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m = math.lcm(self.conductor, other.conductor)
        a, b = self._embedded(m), other._embedded(m)
        return Cyclo(m, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m = math.lcm(self.conductor, other.conductor)
        a, b = self._embedded(m), other._embedded(m)
        prod = _poly_mul(list(a), list(b))
        return Cyclo(m, _reduce_mod_cyclotomic(prod, m))

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclo":
        """Complex conjugation: the field automorphism zeta |-> zeta^(n-1)."""
        n = self.conductor
        if n == 1:
            return self
        poly = [ZERO] * n
        for i, c in enumerate(self.coeffs):
            if c:
                poly[(n - i) % n] += c
        return Cyclo(n, _reduce_mod_cyclotomic(poly, n))

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m = math.lcm(self.conductor, other.conductor)
        return self._embedded(m) == other._embedded(m)

    def __hash__(self):
        # Equal values may carry different conductors, so only the rational
        # case gets a discriminating hash; irrational values collide safely.
        if self.is_rational():
            return hash(self.coeffs[0])
        return 0x5EED

    def __repr__(self):
        terms = [f"{c}*z{self.conductor}^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def _reduce_mod_cyclotomic(poly: list[Fraction], n: int) -> list[Fraction]:
    """poly modulo Phi_n, by the integer rows of ``cyclotomic_reduction_rows``
    (x^k for k >= n is x^(k mod n))."""
    rows, phi = cyclotomic_reduction_rows(n), euler_phi(n)
    out = list(poly[:phi]) + [ZERO] * (phi - len(poly))
    for k in range(phi, len(poly)):
        if poly[k]:
            for i, r in enumerate(rows[k % n]):
                if r:
                    out[i] += poly[k] * r
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials over Q, as values
# ---------------------------------------------------------------------------

class Laurent:
    """Element of Q[t, t^-1] as a map exponent -> nonzero rational coefficient:
    the value type of torsion polynomials and their JSON, with no arithmetic."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                c = as_fraction(c)
                if c:
                    c0 = clean.get(e, ZERO) + c
                    if c0:
                        clean[int(e)] = c0
                    else:
                        clean.pop(e, None)
        object.__setattr__(self, "terms", dict(sorted(clean.items())))

    def __setattr__(self, *a):
        raise AttributeError("Laurent values are immutable")

    @staticmethod
    def _of(terms: dict) -> "Laurent":
        """From int exponents to Fraction coefficients, without the coercions of
        ``__init__``; zero coefficients are dropped."""
        out = object.__new__(Laurent)
        object.__setattr__(out, "terms", {e: terms[e] for e in sorted(terms) if terms[e]})
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self.terms)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.terms.items():
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"{c}*t")
            else:
                bits.append(f"{c}*t^{e}")
        return " + ".join(bits)


def cyclotomic_polynomial(n: int) -> Laurent:
    """The n-th cyclotomic polynomial Phi_n, monic of degree phi(n)."""
    if n < 1:
        raise ValueError("conductor must be positive")
    return Laurent(dict(enumerate(cyclotomic_coeffs(n))))
