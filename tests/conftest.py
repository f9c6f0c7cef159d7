import mpmath as mp
import numpy as np
import pytest

from polarkit.becpolar import enumerate_level
from polarkit.gf2kernel import BitMatrix, kernel_profile

# one precision for every mp-based oracle; the deep-recursion comparisons
# need the most, and extra digits never hurt the rest
mp.mp.dps = 80

ARIKAN = "10;11"
L3 = "100;110;101"


@pytest.fixture(scope="session")
def arikan():
    return kernel_profile(BitMatrix.from_literal(ARIKAN))


@pytest.fixture(scope="session")
def l3prof():
    return kernel_profile(BitMatrix.from_literal(L3))


@pytest.fixture(scope="session")
def cdf_cache():
    """Exact level CDFs keyed by (kernel literal, eps, n), built once."""
    cache = {}

    def get(literal: str, eps: float, n: int):
        key = (literal, eps, n)
        if key not in cache:
            cache[key] = enumerate_level(BitMatrix.from_literal(literal), eps, n)
        return cache[key]

    return get


def np_gf2_rank(a: np.ndarray) -> int:
    """GF(2) rank by dense elimination on a 0/1 array."""
    a = a.copy().astype(np.int64) % 2
    r = 0
    for c in range(a.shape[1]):
        piv = np.flatnonzero(a[r:, c])
        if len(piv) == 0:
            continue
        p = r + piv[0]
        a[[r, p]] = a[[p, r]]
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        a[hit] ^= a[r]
        r += 1
        if r == a.shape[0]:
            break
    return r


def gf2_rank(vectors) -> int:
    table = {}
    r = 0
    for v in vectors:
        while v:
            b = v.bit_length() - 1
            if b not in table:
                table[b] = v
                r += 1
                break
            v ^= table[b]
    return r


def random_invertible(rng: np.random.Generator, ell: int) -> BitMatrix:
    """Uniform invertible ell x ell bit matrix by rejection."""
    while True:
        rows = rng.integers(0, 2, (ell, ell))
        m = BitMatrix.from_rows(rows.tolist())
        if gf2_rank(list(m.rows)) == ell:
            return m


def kron_power(power: int) -> BitMatrix:
    """The power-fold Kronecker power of the 2x2 kernel 10;11."""
    g = np.array([[1, 0], [1, 1]])
    a = g
    for _ in range(power - 1):
        a = np.kron(a, g)
    return BitMatrix.from_rows(a.tolist())
