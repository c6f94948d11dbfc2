"""Every catalog quotient, built from its closed form and not from cfindep.

Each catalog entry has partial quotients a_{n,j} = 2**E_n * r * alpha, with
E_n = c*n*d**n (or 0), r an exact rational and alpha 1 or an irrational
algebraic number.  This module writes each one down as the entries' sources
state it: H_n as a sum of Fractions, prime counts, primes and divisor counts
from sympy, and polynomial roots, square roots and phi from mpmath.  From
cfindep it reads only the catalog's parameters, its default K.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import sympy

from cfindep.catalog import catalog

# the quadratic x^2 - 8x + 14 of ex1 and c3, highest degree first
_EX1_POLY = [1, -8, 14]


def _harmonic(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def _roots(coeffs) -> list:
    """The real roots of a polynomial, descending, at the working precision."""
    roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=64)
    return sorted((mpmath.re(x) for x in roots), reverse=True)


def _sqrt2():
    return mpmath.sqrt(2)


def _prime_ratio(n: int) -> Fraction:
    return Fraction(int(sympy.prime(n)), n)


def _sqrt(j: int):
    """(rational part, irrational part or None) of sqrt(j)."""
    s = sympy.sqrt(j)
    return (Fraction(int(s)), None) if s.is_Integer else (Fraction(1), lambda: mpmath.sqrt(j))


def _doubly(d: int, c: int = 1):
    return lambda n: c * n * d ** n


def quotients(name: str) -> list:
    """For each sequence j = 1..M of the entry at its default K, a function
    n -> (E, r, alpha) with a_{n,j} = 2**E * r * alpha(); alpha is None when
    the quotient is rational, and is evaluated at mpmath's working precision."""
    K = catalog()[name].defaults.get("K", 3)  # ex3 is c2 at K = 3 and takes no K
    if name in ("ex1", "c3"):
        # d = 3 for ex1, and D**2 - 1 = 3 for the quadratic of c3
        E = _doubly(3)
        return [lambda n, i=i: (E(n), Fraction(1), lambda: _roots(_EX1_POLY)[i]) for i in (0, 1)]
    if name == "ex2":
        E = _doubly(3)
        return [lambda n, extra=extra: (E(n), Fraction(extra + sympy.divisor_count(n)), _sqrt2)
                for extra in (1, 0)]
    if name in ("c2", "ex3"):
        E = _doubly(2, 3)
        return [lambda n, j=j: (E(n), Fraction(1, j), None) for j in range(1, K + 1)]
    if name == "c4":
        E = _doubly(max(2, K - 1))
        return [lambda n, j=j: (E(n), j + _harmonic(n), None) for j in range(K, 0, -1)]
    if name == "c5":
        E = _doubly(max(2, K - 1))
        return [lambda n, j=j: (E(n), (1 + Fraction(int(sympy.primepi(n)), n)) ** j, None)
                for j in range(K - 1, -1, -1)]
    if name == "t2":
        E = _doubly(K * 2 ** int(sympy.primepi(K)))
        return [lambda n, j=j: (E(n), *_sqrt(j)) for j in range(K, 0, -1)]
    if name == "golden-powers":
        E = _doubly(max(2, 2 * K - 1))
        return [lambda n, j=j: (E(n), Fraction(1), lambda: mpmath.phi ** (j + 2 * (n - 1)))
                for j in range(K, 0, -1)]
    if name == "hanluc":
        E = _doubly(3)
        return [lambda n: (E(n), _prime_ratio(n), _sqrt2),
                lambda n: (0, 1 + _prime_ratio(n), _sqrt2)]
    raise KeyError(f"no closed form for {name!r}")


def value(E: int, r: Fraction, alpha, bits: int) -> Fraction:
    """2**E * r * alpha(): exact when alpha is None, else alpha is evaluated
    at ``bits`` bits and the rounded binary result is returned exactly."""
    if alpha is None:
        return Fraction(2) ** E * r
    with mpmath.workprec(bits):
        x = mpmath.ldexp(mpmath.mpf(r.numerator) / r.denominator * alpha(), E)
    man, exp = x.man_exp
    return Fraction(int(mpmath.sign(x)) * man) * Fraction(2) ** exp
