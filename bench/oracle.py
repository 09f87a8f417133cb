"""Floating-point reference for twisted homology dimensions.

Independent of the exact pipeline under test: each boundary is assembled
straight from the complex's words and the representation's generator
matrices, with zeta_n sent to exp(2 pi i / n) and inverses taken as conjugate
transposes, and ranks come from numpy's SVD.  Nothing here calls
``specialize`` or any rank routine of twisthom.
"""

from __future__ import annotations

import cmath
from functools import cache

import numpy as np

RANK_TOL = 1e-8


@cache
def root(n: int, k: int = 1) -> complex:
    return cmath.exp(2j * cmath.pi * (k % n) / n)


def scalar(x) -> complex:
    """A cyclotomic number (coefficients of 1, z, ...) or rational as complex."""
    coeffs = getattr(x, "coeffs", None)
    if coeffs is None:
        return complex(float(x))
    n = x.conductor
    if n == 1:
        return complex(float(coeffs[0]))
    return sum((float(c) * root(n, i) for i, c in enumerate(coeffs) if c), 0j)


def rep_matrices(rep) -> list[np.ndarray]:
    """Complex generator matrices of a twisthom representation."""
    return [np.array([[scalar(x) for x in row] for row in m.entries], dtype=complex)
            for m in rep.generator_images]


def character_matrices(n: int, exponents) -> list[np.ndarray]:
    """1x1 matrices of the character g -> zeta_n^exponents[g]."""
    return [np.array([[root(n, e)]]) for e in exponents]


def svd_rank(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int((s > RANK_TOL * max(1.0, float(s[0]))).sum())


def float_dims(complex_, gens: list[np.ndarray], dim: int) -> tuple[int, ...]:
    """Homology dims of complex_ tensor C^dim under the given generator matrices."""
    cache: dict = {}
    ident = np.eye(dim, dtype=complex)

    def image(word):
        got = cache.get(word)
        if got is None:
            got = ident
            for g, e in word:
                got = got @ (gens[g] if e == 1 else gens[g].conj().T)
            cache[word] = got
        return got

    ranks = [0]
    for b in complex_.boundaries:
        out = np.zeros((b.rows * dim, b.cols * dim), dtype=complex)
        for i in range(b.rows):
            for j in range(b.cols):
                for word, coeff in b[i, j].terms.items():
                    out[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] += coeff * image(word)
        ranks.append(svd_rank(out))
    ranks.append(0)
    return tuple(r * dim - ranks[i] - ranks[i + 1] for i, r in enumerate(complex_.ranks))
