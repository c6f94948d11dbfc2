"""Integer polynomials: exact evaluation, Sturm counts, rigorous root
refinement, certified complex roots and factoring over Z.

Coefficients are stored constant-term first.  All decisions (sign tests,
root counts, factors) are exact; only the returned enclosures carry rounding,
and that rounding is always outward.  Floating point only seeds the complex
roots, which certified disks then confirm.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations, count

from ..errors import (
    NoSignChange, NonConvergent, NotSquarefree, PrecisionInsufficient, refuse_assignment,
)
from .dyadic import Dyadic, _pair_cmp, rational_to_dyadic
from .interval import (
    ComplexInterval,
    DyadicInterval,
    _pair_down,
    _pair_quotient,
    _pair_up,
    iv_add,
    iv_mul,
    from_fraction,
    singleton,
)

__all__ = [
    "IntPoly",
    "SturmChain",
    "refine_root",
    "isolate_real_roots",
    "complex_root_boxes",
    "factor_with_roots",
    "qpoly_eval_interval",
    "qpoly_eval_complex",
]


class IntPoly:
    """Polynomial with integer coefficients, constant term first."""

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, coeffs: tuple[int, ...]):
        c = tuple(int(x) for x in coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        self.__dict__["coeffs"] = c

    def __eq__(self, other):
        return self.coeffs == other.coeffs if other.__class__ is IntPoly else NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

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

    def eval_dyadic(self, x: Dyadic) -> Dyadic:
        """Exact evaluation at a dyadic point."""
        return Dyadic(*_pair_eval(self.coeffs, x.man, x.exp))

    def cauchy_root_bound(self) -> int:
        """Integer B with every real root in (-B, B)."""
        lead = abs(self.leading())
        top = max(abs(c) for c in self.coeffs)
        return 2 + top // lead

    def __repr__(self) -> str:
        return f"IntPoly{self.coeffs}"


def _pair_eval(coeffs: tuple[int, ...], m: int, e: int) -> tuple[int, int]:
    """An integer polynomial at m * 2**e, exactly, as a pair, by integer
    Horner: with x = n / 2**k the loop computes 2**(k*deg) * p(x)."""
    n, k = (m << e, 0) if e >= 0 else (m, -e)
    acc = shift = 0
    for c in reversed(coeffs):
        acc = acc * n + (c << shift)
        shift += k
    return acc, k - shift


def _sign_at(coeffs: tuple[int, ...], x: Dyadic) -> int:
    """Sign of an integer polynomial at a dyadic point."""
    acc = _pair_eval(coeffs, x.man, x.exp)[0]
    return (acc > 0) - (acc < 0)


class SturmChain:
    """The Sturm sequence of a squarefree integer polynomial, built once.

    Each member is the primitive part of the integer pseudo-remainder of the
    two before it, which scales a by |lc(b)| at each step.  That is the
    rational remainder times a positive rational, so it has the same signs
    everywhere and the sign variations are those of the rational chain.  The
    remainder sequence is Euclid's algorithm on (p, p'), so it also decides
    squarefreeness.
    """

    def __init__(self, p: IntPoly):
        if p.is_zero():
            raise NotSquarefree("the zero polynomial has repeated roots")
        chain = [_primitive(p.coeffs)] + ([_primitive(p.derivative().coeffs)] if p.degree() > 0 else [])
        while len(chain[-1]) > 1:
            r = _pseudo_remainder(chain[-2], chain[-1])
            if not any(r):
                raise NotSquarefree(f"{p!r} has repeated roots")
            chain.append(_primitive([-c for c in r]))
        self.p = p
        self.members = chain

    def variations(self, x: Dyadic) -> int:
        """Sign changes along the chain at x, zeros skipped."""
        signs = [s for s in (_sign_at(q, x) for q in self.members) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def count(self, interval: DyadicInterval) -> int:
        """Number of distinct real roots in the closed interval."""
        count = self.variations(interval.lo) - self.variations(interval.hi)
        return count + (_sign_at(self.p.coeffs, interval.lo) == 0)

    def isolate(self) -> list[DyadicInterval]:
        """Disjoint isolating intervals for every real root, ascending.

        Each returned open interval contains exactly one root and p changes
        sign across it.
        """
        p = self.p
        if p.degree() <= 0:
            return []
        bound = p.cauchy_root_bound()  # strictly beyond every root
        roots: list[DyadicInterval] = []
        stack = [(Dyadic(-bound), Dyadic(bound))]
        while stack:
            a, b = stack.pop()
            # roots in (a, b]; endpoints of stack entries are never roots,
            # so this equals the open count
            n = self.variations(a) - self.variations(b)
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


def _primitive(coeffs) -> tuple[int, ...]:
    """A nonzero integer polynomial divided by its (positive) content."""
    g = math.gcd(*coeffs)
    return tuple(c // g for c in coeffs)


def _pseudo_remainder(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """|lc(b)|**k * (a mod b) for some k >= 0, trimmed: each step scales the
    remainder by |lc(b)| before it cancels the leading term, so every step
    stays in the integers."""
    r, db = list(a), len(b) - 1
    m, s = abs(b[-1]), 1 if b[-1] > 0 else -1
    while len(r) > db:
        top = r.pop() * s  # the term of degree len(r), cancelled below
        if top:
            shift = len(r) - db
            r = [m * c for c in r]
            for i in range(db):
                r[shift + i] -= top * b[i]
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return r


# Bound on the refinement memo; refine_root is pure in its hashable arguments.
_REFINE_CACHE_SIZE = 1024


def refine_root(p: IntPoly, isolating: DyadicInterval, target_width: Dyadic) -> DyadicInterval:
    """Shrink an isolating interval around a simple real root.

    Each step tries interval Newton from the midpoint and falls back to
    bisection on exact signs.  Newton works at twice the bits that the
    current width's leading bit resolves, plus a guard, but never at more
    than the target's bits plus 32: one step at most about squares the
    width, no step rounds finer than the result needs, and the endpoints of
    a result of width near 2**-p carry about p + 32 bits.  The returned
    interval lies inside ``isolating``, has width <= ``target_width`` and a
    sign change of p across it (or is the exact root when the root is
    dyadic).  A bounded memo keyed on the three arguments answers a repeated
    refinement.
    """
    return _refine_root(p, isolating, target_width)


def _pair_sub(a: int, ae: int, b: int, be: int) -> tuple[int, int]:
    """Exact difference of two pairs."""
    e = min(ae, be)
    return (a << (ae - e)) - (b << (be - e)), e


def _pair_eval_interval(coeffs, m1: int, e1: int, m2: int, e2: int, work: int):
    """An integer polynomial over x = [m1 * 2**e1, m2 * 2**e2] by Horner, each
    product (the least and the greatest of the four endpoint products) and
    each sum rounded outward to work bits as iv_mul and iv_add round them."""
    a1 = f1 = a2 = f2 = 0  # the accumulator [a1 * 2**f1, a2 * 2**f2]
    for c in reversed(coeffs):
        if m1 >= 0:  # x >= 0
            l, le = (a1 * m1, f1 + e1) if a1 >= 0 else (a1 * m2, f1 + e2)
            h, he = (a2 * m2, f2 + e2) if a2 >= 0 else (a2 * m1, f2 + e1)
        elif m2 <= 0:  # x <= 0
            l, le = (a2 * m1, f2 + e1) if a2 >= 0 else (a2 * m2, f2 + e2)
            h, he = (a1 * m2, f1 + e2) if a1 >= 0 else (a1 * m1, f1 + e1)
        else:  # x straddles 0
            l, le = (a2 * m1, f2 + e1) if a1 >= 0 else (a1 * m2, f1 + e2)
            h, he = (a2 * m2, f2 + e2) if a1 >= 0 else (a1 * m1, f1 + e1)
            if a1 < 0 < a2:  # and so does the accumulator
                if _pair_cmp(a2 * m1, f2 + e1, l, le) < 0:
                    l, le = a2 * m1, f2 + e1
                if _pair_cmp(a2 * m2, f2 + e2, h, he) > 0:
                    h, he = a2 * m2, f2 + e2
        a1, f1 = _pair_down(*_pair_sub(*_pair_down(l, le, work), -c, 0), work)  # + c
        a2, f2 = _pair_up(*_pair_sub(*_pair_up(h, he, work), -c, 0), work)
    return a1, f1, a2, f2


@lru_cache(maxsize=_REFINE_CACHE_SIZE)
def _refine_root(p: IntPoly, isolating: DyadicInterval, target_width: Dyadic) -> DyadicInterval:
    """``refine_root`` without the memo, on (mantissa, exponent) int pairs as
    the log and exp series run: each step rounds as the interval operations
    it stands for (Horner over [lo, hi], iv_div, iv_sub) at its work bits, so
    the endpoints are those of the loop on intervals."""
    lo, hi = isolating.lo, isolating.hi
    coeffs = p.coeffs
    s_lo, s_hi = _sign_at(coeffs, lo), _sign_at(coeffs, hi)
    if s_lo == 0:
        return DyadicInterval(lo, lo)
    if s_hi == 0:
        return DyadicInterval(hi, hi)
    if s_lo == s_hi:
        raise NoSignChange(f"no sign change of {p!r} across {isolating!r}")
    if target_width.sign() <= 0:
        raise ValueError("target width must be positive")

    tm, te = target_width.man, target_width.exp
    target_bits = max(8, -te + tm.bit_length())
    cap = 64 + 10 * target_bits
    dcoeffs = p.derivative().coeffs
    lm, le, hm, he, lo_pos = lo.man, lo.exp, hi.man, hi.exp, s_lo > 0
    for steps in count():
        wm, we = _pair_sub(hm, he, lm, le)  # the width
        if _pair_cmp(wm, we, tm, te) <= 0:
            return DyadicInterval(Dyadic(lm, le), Dyadic(hm, he))
        if steps > cap:
            raise NonConvergent(f"root refinement exceeded {cap} iterations")
        mm, me = (hm << (he - we)) + (lm << (le - we)), we - 1  # the midpoint
        work = max(64, min(8 - 2 * (we + wm.bit_length()), target_bits + 32))
        pm, pe = _pair_eval(coeffs, mm, me)
        d1, g1, d2, g2 = _pair_eval_interval(dcoeffs, lm, le, hm, he, work)
        if d1 > 0 or d2 < 0:  # p' has no zero on [lo, hi]: try a Newton step
            # the step p(mid) / p'([lo, hi]) as iv_div rounds it, divisor made
            # positive: the lower end is over p''s right end when p(mid) >= 0
            (bl, ble), (bh, bhe) = ((d2, g2), (d1, g1)) if pm >= 0 else ((d1, g1), (d2, g2))
            sg = 1 if d1 > 0 else -1
            ql, qle = _pair_quotient(sg * pm, pe - ble, sg * bl, work, False)
            qh, qhe = _pair_quotient(sg * pm, pe - bhe, sg * bh, work, True)
            # mid - step, rounded outward and cut to [lo, hi]
            cl, cle = _pair_down(*_pair_sub(mm, me, qh, qhe), work)
            ch, che = _pair_up(*_pair_sub(mm, me, ql, qle), work)
            if _pair_cmp(cl, cle, lm, le) < 0:
                cl, cle = lm, le
            if _pair_cmp(ch, che, hm, he) > 0:
                ch, che = hm, he
            if _pair_cmp(cl, cle, ch, che) <= 0 and _pair_cmp(*_pair_sub(ch, che, cl, cle), wm, we) < 0:
                vl, vh = _pair_eval(coeffs, cl, cle)[0], _pair_eval(coeffs, ch, che)[0]
                if not vl:
                    return DyadicInterval(Dyadic(cl, cle), Dyadic(cl, cle))
                if not vh:
                    return DyadicInterval(Dyadic(ch, che), Dyadic(ch, che))
                if (vl > 0) != (vh > 0):
                    lm, le, hm, he, lo_pos = cl, cle, ch, che, vl > 0
                    continue
        if not pm:  # bisection
            return DyadicInterval(Dyadic(mm, me), Dyadic(mm, me))
        if (pm > 0) == lo_pos:
            lm, le = mm, me
        else:
            hm, he = mm, me


def _split_point(p: IntPoly, a: Dyadic, b: Dyadic) -> Dyadic:
    """A dyadic point strictly inside (a, b) where p does not vanish."""
    w = b - a
    t = 1
    while t < 64:
        for i in range(1, 1 << t, 2):
            m = a + w * Dyadic(i, -t)
            if _sign_at(p.coeffs, m) != 0:
                return m
        t += 1
    raise NonConvergent("could not find a non-root split point")  # pragma: no cover


def isolate_real_roots(p: IntPoly) -> list[DyadicInterval]:
    """Disjoint isolating intervals for every real root of a squarefree p,
    ascending (see ``SturmChain.isolate``)."""
    if p.degree() <= 0:
        return []
    return SturmChain(p).isolate()


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


# ---------------------------------------------------------------------------
# complex roots: Aberth-Ehrlich seeds, Newton polish, certified disks
# ---------------------------------------------------------------------------

_ABERTH_ITERATIONS = 200
_ABERTH_ANGLE = 0.4  # start-circle offset, so no start point lies on the real axis


def _aberth_roots(p: IntPoly) -> list[complex]:
    """Approximations of all roots of p by Aberth-Ehrlich iteration in doubles.

    The start points sit on a fixed circle (radius the geometric mean of the
    root moduli) and the iteration count is capped, so the result depends on
    p alone.  Nothing is decided from these values: they only seed
    :func:`complex_root_boxes`, whose certified disks are the judge (Bini,
    "Numerical computation of polynomial zeros by means of Aberth's method",
    1996).
    """
    d = p.degree()
    scale = max(abs(c) for c in p.coeffs)  # no float overflow, whatever the coefficient sizes
    a = [float(Fraction(c, scale)) for c in p.coeffs]
    c0, lead = abs(p.coeffs[0]), abs(p.leading())
    radius = 2 ** ((math.log2(c0) - math.log2(lead)) / d) if c0 else 1.0
    z = [radius * cmath.exp(1j * (2 * math.pi * k / d + _ABERTH_ANGLE)) for k in range(d)]
    for _ in range(_ABERTH_ITERATIONS):
        moved = False
        for i, u in enumerate(z):
            pv, dv = 0j, 0j
            for c in reversed(a):
                dv = dv * u + pv
                pv = pv * u + c
            try:
                ratio = pv / dv
                w = ratio / (1 - ratio * sum(1 / (u - v) for j, v in enumerate(z) if j != i))
            except ZeroDivisionError:  # a root hit exactly, or two points met
                continue
            z[i] = u - w
            moved = moved or abs(w) > 1e-15 * abs(u)
        if not moved:
            break
    return z


def _newton_polish_complex(p: IntPoly, z: tuple[Fraction, Fraction], steps: int, bits: int):
    dp = p.derivative()
    zr, zi = z
    for _ in range(steps):
        pr, pi = _ceval(p, zr, zi)
        dr, di = _ceval(dp, zr, zi)
        den = dr * dr + di * di
        if den == 0:
            break
        wr = (pr * dr + pi * di) / den
        wi = (pi * dr - pr * di) / den
        zr, zi = zr - wr, zi - wi
        zr = Fraction((zr.numerator << bits) // zr.denominator, 1 << bits)
        zi = Fraction((zi.numerator << bits) // zi.denominator, 1 << bits)
    return zr, zi


def _ceval(p: IntPoly, zr: Fraction, zi: Fraction) -> tuple[Fraction, Fraction]:
    ar, ai = Fraction(0), Fraction(0)
    for c in reversed(p.coeffs):
        ar, ai = ar * zr - ai * zi + c, ar * zi + ai * zr
    return ar, ai


def _certify_disk(p: IntPoly, zr: Fraction, zi: Fraction, d: int, work: int):
    """Inclusion box from the disk bound r = d*|p(z)/p'(z)|, or None."""
    z = ComplexInterval.from_rationals(zr, zi, work)
    pv = qpoly_eval_complex([Fraction(c) for c in p.coeffs], z, work)
    dv = qpoly_eval_complex([Fraction(c) for c in p.derivative().coeffs], z, work)
    num = pv.abs_interval(work)
    den = dv.abs_interval(work)
    if den.lo.sign() <= 0:
        return None
    r_frac = d * num.hi.as_fraction() / den.lo.as_fraction()
    r = rational_to_dyadic(r_frac.numerator, r_frac.denominator, work, up=True)
    re = DyadicInterval((z.re.lo - r).round_down(work), (z.re.hi + r).round_up(work))
    im = DyadicInterval((z.im.lo - r).round_down(work), (z.im.hi + r).round_up(work))
    if im.lo.sign() <= 0:
        return None
    return re, im


def _pairs_admissible(pairs, target: Dyadic) -> bool:
    for re, im in pairs:
        if re.width() > target or im.width() > target:
            return False
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if pairs[i][0].intersects(pairs[j][0]) and pairs[i][1].intersects(pairs[j][1]):
                return False
    return True


def _certified_pairs(p: IntPoly, seeds: list[complex], precision: int):
    """Boxes around the roots near ``seeds`` (upper half plane), polished and
    certified, in the order of the seeds."""
    target = Dyadic(1, -precision)
    d = p.degree()
    work = max(64, precision + 16)
    for attempt in range(8):
        pairs = []
        for z in seeds:
            zr = Fraction(z.real).limit_denominator(1 << 40)
            zi = Fraction(z.imag).limit_denominator(1 << 40)
            zr, zi = _newton_polish_complex(p, (zr, zi), steps=6 + attempt * 2, bits=2 * work)
            box = _certify_disk(p, zr, zi, d, work)
            if box is None:
                break
            pairs.append(box)
        else:
            if _pairs_admissible(pairs, target):
                return pairs
        work *= 2
    raise PrecisionInsufficient("complex conjugate enclosures failed to certify")


def _box_order(a, b) -> int:
    """Boxes by real part; by imaginary part where the real parts overlap.

    Pairwise disjoint boxes differ in one of the two, and the order depends on
    the certified enclosures alone, not on the noise in the float seeds.
    """
    for x, y in zip(a, b):
        if x.hi < y.lo:
            return -1
        if y.hi < x.lo:
            return 1
    return 0


def complex_root_boxes(p: IntPoly, n_pairs: int, precision: int) -> list[tuple[DyadicInterval, DyadicInterval]]:
    """(re, im) boxes of width <= 2**-precision around the roots of p with
    positive imaginary part, pairwise disjoint, ordered by :func:`_box_order`.

    ``n_pairs`` is the number of conjugate pairs of the squarefree p (its
    degree less its real-root count, halved).  Each box holds a root by the
    disk bound d*|p(z)/p'(z)|; disjoint boxes hold distinct roots, so the n
    boxes hold all of them.
    """
    if not n_pairs:
        return []
    upper = sorted(_aberth_roots(p), key=lambda z: z.imag)[-n_pairs:]
    return sorted(_certified_pairs(p, upper, precision), key=cmp_to_key(_box_order))


# ---------------------------------------------------------------------------
# factoring over Z by certified root subsets
# ---------------------------------------------------------------------------

def _root_units(p: IntPoly, isolating: list[DyadicInterval], n_pairs: int, prec: int):
    """Each real root and each conjugate pair of p as its monic factor with
    interval coefficients, and the floor and ceiling of 2**prec times the
    trace of its roots, from root enclosures of width at most 2**-prec."""
    one = singleton(1)
    units = []
    for iv in isolating:
        r = refine_root(p, iv, Dyadic(1, -prec))
        units.append(((-r, one), r))
    for re, im in complex_root_boxes(p, n_pairs, prec):
        units.append(((re * re + im * im, -(re * 2), one), re * 2))
    return [(f, (t.lo.scaled(prec).floor(), -(-t.hi).scaled(prec).floor())) for f, t in units]


def _subsets(active: list[int], n_real: int, k: int):
    """Every set of ``active`` units holding k roots: units below ``n_real``
    are real roots, the others conjugate pairs."""
    reals = [u for u in active if u < n_real]
    pairs = [u for u in active if u >= n_real]
    for q in range(min(k // 2, len(pairs)) + 1):
        for rs in combinations(reals, k - 2 * q):
            for ps in combinations(pairs, q):
                yield rs + ps


def _exact_quotient(a: tuple[int, ...], b: list[int]) -> tuple[int, ...] | None:
    """a / b for a monic b when b divides a over Z, else None."""
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for s in range(len(q) - 1, -1, -1):
        c = q[s] = a[s + db]
        if c:
            for i in range(db):
                a[s + i] -= c * b[i]
    return None if any(a[:db]) else tuple(q)


def _subset_factor(units, subset, rest: tuple[int, ...], prec: int):
    """(factor, rest / factor) when the roots in ``subset`` form a factor of
    ``rest``, False when they do not, None when the enclosures cannot tell."""
    lo = sum(units[u][1][0] for u in subset)
    hi = sum(units[u][1][1] for u in subset)
    if -((-lo) >> prec) > hi >> prec:  # the trace must enclose an integer
        return False
    prod = [singleton(1)]
    for u in subset:
        f = units[u][0]
        out = [singleton(0)] * (len(prod) + len(f) - 1)
        for i, x in enumerate(prod):
            for j, y in enumerate(f):
                out[i + j] = out[i + j] + x * y
        prod = out
    cand, decided = [], True
    for c in prod:
        least, most = -((-c.lo).floor()), c.hi.floor()
        if least > most:
            return False
        decided = decided and least == most
        cand.append(least)
    if not decided:
        return None
    quotient = _exact_quotient(rest, cand)
    return False if quotient is None else (IntPoly(tuple(cand)), quotient)


def factor_with_roots(p: IntPoly, isolating: list[DyadicInterval]) -> list[IntPoly]:
    """The monic irreducible factors over Z of a monic squarefree p, by
    degree, given isolating intervals of all its real roots in ascending
    order (``SturmChain.isolate``).  Callers strip the sign and content.

    A monic factor of p is the product of (x - r) over a conjugation-closed
    set of its roots and has integer coefficients; conversely such a product
    with integer coefficients divides p.  The roots are enclosed rigorously
    (Sturm isolation and ``refine_root`` for real roots, certified disks for
    complex pairs) and the sets of at most half the remaining degree are
    tried in increasing size, so each factor found is irreducible.  A set is
    rejected when its trace, then some coefficient of its product, encloses
    no integer; otherwise exact division confirms or rejects the rounded
    product.  The enclosures start at a precision taken from the Mignotte
    bound and are refined to twice the precision while a set stays undecided.
    """
    d = p.degree()
    if d <= 1:
        return [p] if d == 1 else []
    n_real = len(isolating)
    n_pairs = (d - n_real) // 2
    half = d // 2
    mignotte = math.comb(half, half // 2) * (math.isqrt(sum(c * c for c in p.coeffs)) + 1)
    prec = mignotte.bit_length() + 16
    units = _root_units(p, isolating, n_pairs, prec)
    factors, rest, active, k = [], p.coeffs, list(range(n_real + n_pairs)), 1
    while 2 * k < len(rest):
        for subset in _subsets(active, n_real, k):
            verdict = _subset_factor(units, subset, rest, prec)
            while verdict is None:
                prec *= 2
                units = _root_units(p, isolating, n_pairs, prec)
                verdict = _subset_factor(units, subset, rest, prec)
            if verdict:
                factor, rest = verdict
                factors.append(factor)
                active = [u for u in active if u not in subset]
                break
        else:
            k += 1
    factors.append(IntPoly(rest))
    return sorted(factors, key=lambda f: (f.degree(), f.coeffs))
