"""Integer polynomials: exact evaluation, Sturm counts, rigorous root refinement.

Coefficients are stored constant-term first.  All decisions (sign tests,
root counts) are exact; only the returned enclosures carry rounding, and that
rounding is always outward.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import NoSignChange, NonConvergent, NotSquarefree
from .dyadic import Dyadic
from .interval import (
    ComplexInterval,
    DyadicInterval,
    iv_add,
    iv_div,
    iv_mul,
    iv_sub,
    from_fraction,
    singleton,
)

__all__ = [
    "IntPoly",
    "sturm_count",
    "refine_root",
    "isolate_real_roots",
    "resultant",
    "qpoly_eval_interval",
    "qpoly_eval_complex",
]


@dataclass(frozen=True)
class IntPoly:
    """Polynomial with integer coefficients, constant term first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def of(cls, *coeffs: int) -> "IntPoly":
        return cls(tuple(coeffs))

    def degree(self) -> int:
        if self.is_zero():
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def leading(self) -> int:
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.leading() == 1

    def derivative(self) -> "IntPoly":
        if self.degree() <= 0:
            return IntPoly((0,))
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def eval_fraction(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_dyadic(self, x: Dyadic) -> Dyadic:
        """Exact evaluation at a dyadic point."""
        acc = Dyadic(0)
        for c in reversed(self.coeffs):
            acc = acc * x + Dyadic(c)
        return acc

    def eval_interval(self, x: DyadicInterval, prec: int) -> DyadicInterval:
        acc = singleton(0)
        for c in reversed(self.coeffs):
            acc = iv_add(iv_mul(acc, x, prec), singleton(c), prec)
        return acc

    def cauchy_root_bound(self) -> int:
        """Integer B with every real root in (-B, B)."""
        lead = abs(self.leading())
        top = max(abs(c) for c in self.coeffs)
        return 2 + top // lead

    def __repr__(self) -> str:
        return f"IntPoly{self.coeffs}"


# -- rational polynomial helpers (lists of Fraction, constant first) ---------

def _qtrim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _qdeg(p: list[Fraction]) -> int:
    return -1 if (len(p) == 1 and p[0] == 0) else len(p) - 1


def _qdivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by a nonzero b."""
    a = list(a)
    db, lb = _qdeg(b), b[-1]
    q = [Fraction(0)] * max(1, len(a) - db)
    while _qdeg(a) >= db:
        shift = _qdeg(a) - db
        coef = a[-1] / lb
        q[shift] = coef
        for i in range(db + 1):
            a[shift + i] -= coef * b[i]
        _qtrim(a)
    return _qtrim(q), a


def _qrem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return _qdivmod(a, b)[1]


def _to_q(p: IntPoly) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _qgcd_deg(a: list[Fraction], b: list[Fraction]) -> int:
    a, b = list(a), list(b)
    while _qdeg(b) >= 0:
        a, b = b, _qrem(a, b)
    return _qdeg(a)


def is_squarefree(p: IntPoly) -> bool:
    if p.degree() <= 1:
        return p.degree() >= 0 and not p.is_zero()
    return _qgcd_deg(_to_q(p), _to_q(p.derivative())) == 0


def irreducible_factors(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Irreducible factors of p over Z with their multiplicities (sympy)."""
    from sympy import Poly, Symbol  # lazy: keeps startup light

    _, factors = Poly(list(reversed(p.coeffs)), Symbol("x"), domain="ZZ").factor_list()
    return [(IntPoly(tuple(int(c) for c in reversed(f.all_coeffs()))), mult)
            for f, mult in factors]


def _sturm_chain(p: IntPoly) -> list[list[Fraction]]:
    chain = [_to_q(p), _to_q(p.derivative())]
    while _qdeg(chain[-1]) > 0:
        r = _qrem(chain[-2], chain[-1])
        if _qdeg(r) < 0:
            break
        chain.append([-c for c in r])
    return chain


def _variations(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for q in chain:
        acc = Fraction(0)
        for c in reversed(q):
            acc = acc * x + c
        if acc:
            signs.append(1 if acc > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p: IntPoly, interval: DyadicInterval) -> int:
    """Number of distinct real roots of a squarefree p in the closed interval."""
    if not is_squarefree(p):
        raise NotSquarefree(f"{p!r} has repeated roots")
    chain = _sturm_chain(p)
    a = interval.lo.as_fraction()
    b = interval.hi.as_fraction()
    count = _variations(chain, a) - _variations(chain, b)
    if p.eval_fraction(a) == 0:
        count += 1
    return count


def refine_root(p: IntPoly, isolating: DyadicInterval, target_width: Dyadic) -> DyadicInterval:
    """Shrink an isolating interval around a simple real root.

    Bisection until the interval is comfortably small, then interval Newton
    for the quadratic finish.  The returned interval lies inside ``isolating``,
    has width <= ``target_width`` and a sign change of p across it (or is the
    exact root when the root is dyadic).
    """
    lo, hi = isolating.lo, isolating.hi
    s_lo = p.eval_dyadic(lo).sign()
    s_hi = p.eval_dyadic(hi).sign()
    if s_lo == 0:
        return DyadicInterval(lo, lo)
    if s_hi == 0:
        return DyadicInterval(hi, hi)
    if s_lo == s_hi:
        raise NoSignChange(f"no sign change of {p!r} across {isolating!r}")
    if target_width.sign() <= 0:
        raise ValueError("target width must be positive")

    target_bits = max(8, -target_width.exp + target_width.man.bit_length())
    cap = 64 + 10 * target_bits
    dp = p.derivative()
    steps = 0
    while (hi - lo) > target_width:
        if steps > cap:
            raise NonConvergent(f"root refinement exceeded {cap} iterations")
        steps += 1
        mid = (lo + hi).scaled(-1)
        work = max(64, 8 - 2 * (hi - lo).exp, target_bits + 32)
        newton_done = False
        dpi = dp.eval_interval(DyadicInterval(lo, hi), work)
        if not dpi.contains_zero():
            pm = p.eval_dyadic(mid)
            step = iv_div(DyadicInterval(pm, pm), dpi, work)
            cand = iv_sub(DyadicInterval(mid, mid), step, work)
            new_lo = max(lo, cand.lo)
            new_hi = min(hi, cand.hi)
            if new_lo <= new_hi and (new_hi - new_lo) < (hi - lo):
                t_lo = p.eval_dyadic(new_lo).sign()
                t_hi = p.eval_dyadic(new_hi).sign()
                if t_lo == 0:
                    return DyadicInterval(new_lo, new_lo)
                if t_hi == 0:
                    return DyadicInterval(new_hi, new_hi)
                if t_lo != t_hi:
                    lo, hi, s_lo, s_hi = new_lo, new_hi, t_lo, t_hi
                    newton_done = True
        if not newton_done:
            sm = p.eval_dyadic(mid).sign()
            if sm == 0:
                return DyadicInterval(mid, mid)
            if sm == s_lo:
                lo, s_lo = mid, sm
            else:
                hi, s_hi = mid, sm
    return DyadicInterval(lo, hi)


def _split_point(p: IntPoly, a: Dyadic, b: Dyadic) -> Dyadic:
    """A dyadic point strictly inside (a, b) where p does not vanish."""
    w = b - a
    t = 1
    while t < 64:
        for i in range(1, 1 << t, 2):
            m = a + w * Dyadic(i, -t)
            if p.eval_dyadic(m).sign() != 0:
                return m
        t += 1
    raise NonConvergent("could not find a non-root split point")  # pragma: no cover


def isolate_real_roots(p: IntPoly) -> list[DyadicInterval]:
    """Disjoint isolating intervals for every real root, ascending.

    Requires a squarefree polynomial.  Each returned open interval contains
    exactly one root and p changes sign across it.
    """
    if p.degree() <= 0:
        return []
    if not is_squarefree(p):
        raise NotSquarefree(f"{p!r} has repeated roots")
    chain = _sturm_chain(p)

    def count_open(a: Dyadic, b: Dyadic) -> int:
        # roots in (a, b]; endpoints of stack entries are never roots,
        # so this equals the open count
        return _variations(chain, a.as_fraction()) - _variations(chain, b.as_fraction())

    bound = p.cauchy_root_bound()  # strictly beyond every root
    roots: list[DyadicInterval] = []
    stack = [(Dyadic(-bound), Dyadic(bound))]
    while stack:
        a, b = stack.pop()
        n = count_open(a, b)
        if n == 0:
            continue
        if n == 1:
            roots.append(DyadicInterval(a, b))
            continue
        m = _split_point(p, a, b)
        stack.append((a, m))
        stack.append((m, b))
    roots.sort(key=lambda iv: iv.lo.as_fraction())
    return roots


def resultant(f: list[Fraction], g: list[Fraction]) -> Fraction:
    """Exact resultant of two rational polynomials (constant term first)."""
    f = _qtrim([Fraction(c) for c in f])
    g = _qtrim([Fraction(c) for c in g])
    m, n = _qdeg(f), _qdeg(g)
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    cf = _lcm_denoms(f)
    cg = _lcm_denoms(g)
    fi = [int(c * cf) for c in f]
    gi = [int(c * cg) for c in g]
    det = _sylvester_det(fi, gi)
    return Fraction(det, cf ** n * cg ** m)


def _lcm_denoms(p: list[Fraction]) -> int:
    out = 1
    for c in p:
        d = c.denominator
        from math import gcd

        out = out * d // gcd(out, d)
    return out


def _sylvester_det(f: list[int], g: list[int]) -> int:
    m = len(f) - 1
    n = len(g) - 1
    size = m + n
    rows: list[list[int]] = []
    frow = list(reversed(f))  # leading first
    grow = list(reversed(g))
    for i in range(n):
        rows.append([0] * i + frow + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + grow + [0] * (size - n - 1 - i))
    return _bareiss_det(rows)


def _bareiss_det(mat: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def qpoly_eval_interval(coeffs: list[Fraction], x: DyadicInterval, prec: int) -> DyadicInterval:
    """Horner evaluation of a rational-coefficient polynomial over an interval."""
    acc = singleton(0)
    for c in reversed(coeffs):
        acc = iv_add(iv_mul(acc, x, prec), from_fraction(Fraction(c), prec), prec)
    return acc


def qpoly_eval_complex(coeffs: list[Fraction], z: ComplexInterval, prec: int) -> ComplexInterval:
    acc = ComplexInterval(singleton(0), singleton(0))
    for c in reversed(coeffs):
        acc = acc.mul(z, prec)
        acc = ComplexInterval(
            iv_add(acc.re, from_fraction(Fraction(c), prec), prec), acc.im
        )
    return acc
