"""Exact arithmetic in a real algebraic number field Q(theta).

Elements are rational coordinate vectors in the power basis 1, theta, ...,
theta^(D-1).  Ring and field operations are exact; embeddings into the
complex numbers are rigorous dyadic enclosures (real roots via Sturm
isolation and ``refine_root``, complex conjugate pairs via certified
inclusion disks).  A field caches its root enclosures and embeddings by
precision, each refined from the isolating intervals, so every enclosure is
a function of the field and the precision alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bigreal.dyadic import Dyadic
from .bigreal.interval import (
    ComplexInterval,
    DyadicInterval,
    from_fraction,
    iv_abs,
    iv_add,
    iv_max,
    iv_sqrt,
    singleton,
)
from .bigreal.poly import (
    IntPoly,
    SturmChain,
    complex_root_boxes,
    factor_with_roots,
    isolate_real_roots,
    qpoly_eval_complex,
    qpoly_eval_interval,
    refine_root,
)
from .errors import (
    DivisionByZero,
    FieldMismatch,
    NotMonic,
    NotSquarefree,
    PrecisionInsufficient,
    Reducible,
    RootNotIsolated,
    refuse_assignment,
)

__all__ = [
    "NumberField",
    "FieldElement",
    "EmbeddingSet",
    "field_new",
    "embeddings",
    "sigma_eval",
    "house",
    "characteristic_polynomial",
    "is_algebraic_integer",
    "multiquadratic_field",
]

MAX_FIELD_DEGREE = 8


class NumberField:
    """Q(theta) for theta the selected real root of a monic irreducible poly."""

    def __init__(self, minpoly: IntPoly, root_interval: DyadicInterval):
        self.minpoly = minpoly
        self.degree = minpoly.degree()
        self._root_iv = root_interval  # the isolating hint, never replaced
        # theta^D, ..., theta^(2D-2) in the power basis
        self._reduction = self._build_reduction()
        self._root_cache: dict[int, DyadicInterval] = {}
        self._embedding_cache: dict[int, "EmbeddingSet"] = {}

    def _build_reduction(self) -> list[tuple[Fraction, ...]]:
        d = self.degree
        base = [Fraction(-c) for c in self.minpoly.coeffs[:-1]]  # theta^D
        rows = [tuple(base)]
        for _ in range(d - 2):
            prev = rows[-1]
            shifted = [Fraction(0)] + list(prev[:-1])
            carry = prev[-1]
            nxt = [shifted[i] + carry * base[i] for i in range(d)]
            rows.append(tuple(nxt))
        return rows

    def element(self, coords) -> "FieldElement":
        c = list(coords)
        if len(c) > self.degree:
            raise ValueError("too many coordinates")
        c = [Fraction(v) for v in c] + [Fraction(0)] * (self.degree - len(c))
        return FieldElement(tuple(c), self)

    def from_rational(self, r) -> "FieldElement":
        return self.element([Fraction(r)])

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            return self.from_rational(-self.minpoly.coeffs[0])
        return self.element([0, 1])

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def root_enclosure(self, prec: int) -> DyadicInterval:
        """The distinguished real root, refined from the isolating hint to
        width <= 2**-prec.

        Each precision is refined once and kept; the result depends on the
        field and ``prec`` alone.  Two threads may refine the same precision
        at once, and then store equal intervals.
        """
        cached = self._root_cache.get(prec)
        if cached is None:
            target = Dyadic(1, -prec)
            hint = self._root_iv
            cached = hint if hint.width() <= target else refine_root(self.minpoly, hint, target)
            self._root_cache[prec] = cached
        return cached

    def __repr__(self) -> str:
        hint = "" if self._root_iv is None else f", root~{float(self._root_iv.midpoint()):.6g}"
        return f"NumberField({self.minpoly!r}{hint})"


def field_new(minpoly: IntPoly, root_hint: DyadicInterval) -> NumberField:
    """Construct a field, verifying irreducibility and root isolation."""
    if minpoly.degree() < 1:
        raise NotMonic("defining polynomial must have degree >= 1")
    if not minpoly.is_monic():
        raise NotMonic(f"{minpoly!r} is not monic")
    if minpoly.degree() > MAX_FIELD_DEGREE:
        raise ValueError(f"degree {minpoly.degree()} exceeds supported bound {MAX_FIELD_DEGREE}")
    try:
        chain = SturmChain(minpoly)
    except NotSquarefree:
        raise Reducible(f"{minpoly!r} factors over Q") from None
    if len(factor_with_roots(minpoly, chain.isolate())) != 1:
        raise Reducible(f"{minpoly!r} factors over Q")
    if chain.count(root_hint) != 1:
        raise RootNotIsolated(f"{root_hint!r} does not isolate exactly one root of {minpoly!r}")
    return NumberField(minpoly, root_hint)


class FieldElement:
    """Element of a number field as exact power-basis coordinates."""

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, coords: tuple[Fraction, ...], field: NumberField):
        self.__dict__.update(coords=coords, field=field)

    def __eq__(self, other):
        if other.__class__ is FieldElement:
            return self.coords == other.coords and self.field == other.field
        return NotImplemented

    def __hash__(self):
        return hash((self.coords, self.field))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coords[0]

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldMismatch("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(tuple(a + b for a, b in zip(self.coords, o.coords)), self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(tuple(a - b for a, b in zip(self.coords, o.coords)), self.field)

    def __neg__(self):
        return FieldElement(tuple(-a for a in self.coords), self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.field.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(o.coords):
                if b:
                    conv[i + j] += a * b
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = self.field._reduction[k - d]
                for i in range(d):
                    out[i] += c * row[i]
        return FieldElement(tuple(out), self.field)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return _divide(self.field.one(), self)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _divide(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _divide(o, self)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- numerics -------------------------------------------------------------

    def enclosure(self, prec: int) -> DyadicInterval:
        """Identity-embedding value, width <= 2**-prec relative to magnitude."""
        work = prec + 16
        for _ in range(64):
            theta = self.field.root_enclosure(work)
            val = qpoly_eval_interval(list(self.coords), theta, work)
            bound = max(Dyadic(1), val.mag())
            if val.width() <= Dyadic(1, -prec) * bound:
                return val
            work *= 2
        raise PrecisionInsufficient("element enclosure did not converge")  # pragma: no cover

    def sign_at_identity(self) -> int:
        """Exact sign of the distinguished-embedding value."""
        if self.is_zero():
            return 0
        if self.is_rational():
            c = self.coords[0]
            return (c > 0) - (c < 0)
        work = 64
        for _ in range(64):
            val = qpoly_eval_interval(list(self.coords), self.field.root_enclosure(work), work)
            if val.lo.sign() > 0:
                return 1
            if val.hi.sign() < 0:
                return -1
            work *= 2
        raise PrecisionInsufficient("sign determination did not converge")  # pragma: no cover

    def __repr__(self) -> str:
        return f"FieldElement({[_coord_str(c) for c in self.coords]})"


def _coord_str(c: Fraction) -> str:
    """str(c), or the bit lengths of its parts where str would pass the int-to-str digit limit."""
    try:
        return str(c)
    except ValueError:
        return f"{'-' if c < 0 else ''}<{c.numerator.bit_length()}-bit>/<{c.denominator.bit_length()}-bit>"


# -- division -----------------------------------------------------------------

def _divide(x: FieldElement, y: FieldElement) -> FieldElement:
    """x / y, each coordinate reduced once.

    A rational y divides coordinate-wise.  Otherwise x = X/ex and y = Y/ey
    with integer vectors X, Y, and x/y = (ey/ex) * adj(M_Y) X / det(M_Y) for
    M_Y the integer matrix of multiplication by Y (the minimal polynomial is
    monic and integral), so only the last step leaves the integers.  Above
    degree 2, X and Y are first divided by their integer contents, which
    join ex and ey: a common factor such as a quotient's 2**E would
    otherwise enter every pivot of the elimination.
    """
    if y.is_rational():
        r = y.coords[0]
        if r == 0:
            raise DivisionByZero("division by the zero field element")
        return FieldElement(tuple(c / r for c in x.coords), x.field)
    ex, X = _integral(x.coords)
    ey, Y = _integral(y.coords)
    if len(Y) > 2:
        cx, cy = math.gcd(*X) or 1, math.gcd(*Y)  # X = 0 has no content
        X, Y, ex, ey = [v // cx for v in X], [v // cy for v in Y], ex * cy, ey * cx
    det, W = _adjugate_solve(x.field.minpoly.coeffs, Y, X)
    if det == 0:
        raise DivisionByZero("element is not invertible (degenerate field?)")
    den = det * ex
    return FieldElement(tuple(Fraction(w * ey, den) for w in W), x.field)


def _integral(coords: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """(e, X) with coords = X/e, e the least common denominator."""
    e = math.lcm(*(c.denominator for c in coords))
    return e, [c.numerator * (e // c.denominator) for c in coords]


def _adjugate_solve(f: tuple[int, ...], Y: list[int], X: list[int]) -> tuple[int, list[int]]:
    """(det, adj(M_Y) X) up to one common sign, M_Y the multiplication-by-Y
    matrix modulo the monic f.

    Degree 2 multiplies by the conjugate of Y; higher degrees run
    fraction-free Gauss-Jordan elimination on [M_Y | X], whose every
    division is exact and which ends with det(M_Y) on the diagonal.
    """
    if len(Y) == 2:
        (c0, c1, _), (a, b), (p, q) = f, Y, X
        r = a - b * c1  # Y's conjugate is r - b*theta
        return a * r + c0 * b * b, [p * r + c0 * q * b, q * a - p * b]
    D = len(Y)
    cols = [Y]
    for _ in range(D - 1):  # Y theta^j, reduced by theta^D = -(f_0 + ... + f_{D-1} theta^(D-1))
        v = cols[-1]
        top = v[-1]
        cols.append([-top * f[0]] + [v[i - 1] - top * f[i] for i in range(1, D)])
    rows = [[col[i] for col in cols] + [X[i]] for i in range(D)]
    prev = 1
    for k in range(D):
        piv = next((i for i in range(k, D) if rows[i][k]), None)
        if piv is None:
            return 0, []
        rows[k], rows[piv] = rows[piv], rows[k]
        pivot_row = rows[k]
        p = pivot_row[k]
        for i in range(D):
            if i != k:
                g = rows[i][k]
                rows[i] = [(p * u - g * v) // prev for u, v in zip(rows[i], pivot_row)]
        prev = p
    return prev, [row[D] for row in rows]


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

class EmbeddingSet:
    """All D conjugate enclosures of the field generator.

    ``real_roots[0]`` is the distinguished (identity) embedding; remaining
    real roots follow in ascending order, then complex pairs with positive
    imaginary part.  Index i of :func:`sigma_eval` walks real embeddings
    first, then each pair as (upper, lower) conjugates.
    """

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, field: NumberField, real_roots: tuple[DyadicInterval, ...],
                 complex_pairs: tuple[tuple[DyadicInterval, DyadicInterval], ...],
                 precision: int):
        self.__dict__.update(field=field, real_roots=real_roots, complex_pairs=complex_pairs,
                             precision=precision)

    @property
    def degree(self) -> int:
        return len(self.real_roots) + 2 * len(self.complex_pairs)


def embeddings(field: NumberField, precision: int) -> EmbeddingSet:
    """Enclosures of all D conjugates, pairwise disjoint, at the given precision."""
    cached = field._embedding_cache.get(precision)
    if cached is not None:
        return cached

    p = field.minpoly
    d = field.degree
    target = Dyadic(1, -precision)

    isolated = isolate_real_roots(p)
    refined = [refine_root(p, iv, target) for iv in isolated]
    dist_idx = None
    for i, iv in enumerate(refined):
        if iv.intersects(field._root_iv) or field._root_iv.contains_interval(iv):
            dist_idx = i
            break
    if dist_idx is None:  # pragma: no cover
        raise RootNotIsolated("distinguished root lost during refinement")
    ordered = [refined[dist_idx]] + refined[:dist_idx] + refined[dist_idx + 1 :]

    pairs = complex_root_boxes(p, (d - len(refined)) // 2, precision)
    out = EmbeddingSet(field, tuple(ordered), tuple(pairs), precision)
    field._embedding_cache[precision] = out
    return out


def sigma_eval(e: EmbeddingSet, x: FieldElement, i: int) -> tuple[DyadicInterval, DyadicInterval]:
    """Enclosure of the i-th embedding of x, as (re, im) with exact im=0 when real."""
    if x.field is not e.field:
        raise FieldMismatch("element does not belong to the embedded field")
    if not 0 <= i < e.degree:
        raise IndexError(f"embedding index {i} out of range")
    prec = e.precision
    coords = list(x.coords)
    nr = len(e.real_roots)
    if i < nr:
        re = qpoly_eval_interval(coords, e.real_roots[i], prec)
        return re, singleton(0)
    k, upper = divmod(i - nr, 2)
    re_box, im_box = e.complex_pairs[k]
    z = ComplexInterval(re_box, im_box if upper == 0 else DyadicInterval(-im_box.hi, -im_box.lo))
    v = qpoly_eval_complex(coords, z, prec)
    return v.re, v.im


def house(x: FieldElement, precision: int) -> DyadicInterval:
    """Enclosure of the maximal conjugate modulus of x."""
    if x.is_zero():
        return singleton(0)
    if x.is_rational():
        c = abs(x.coords[0])
        return from_fraction(c, precision + 8)
    work = precision + 8
    for _ in range(10):
        e = embeddings(x.field, work)
        nr = len(e.real_roots)
        m = None
        for i in [*range(nr), *range(nr, e.degree, 2)]:  # a conjugate pair shares its modulus
            re, im = sigma_eval(e, x, i)
            v = iv_abs(re) if i < nr else ComplexInterval(re, im).abs_interval(work)
            m = v if m is None else iv_max(m, v)
        if m.width() <= Dyadic(1, -precision + 4) * max(Dyadic(1), m.mag()):
            return m
        work *= 2
    raise PrecisionInsufficient("house enclosure did not converge")  # pragma: no cover


def characteristic_polynomial(x: FieldElement) -> list[Fraction]:
    """The characteristic polynomial of multiplication by x on the field,
    monic of degree D, constant term first: the minimal polynomial of x to
    the power D / deg.  Its coefficients come by Newton's identities from
    the traces Tr(x^k), each linear in the coordinates of x^k with the
    traces Tr(theta^i) as weights, which Newton's identities give in turn
    from the monic defining polynomial.  The norm of x is (-1)^D chi(0).
    """
    f, d = x.field.minpoly.coeffs, x.field.degree
    weights = [d]  # Tr(theta^i), i < D
    for k in range(1, d):
        weights.append(-k * f[d - k] - sum(f[d - i] * weights[k - i] for i in range(1, k)))
    traces, power = [], x.field.one()  # Tr(x^k), k = 1..D
    for _ in range(d):
        power = power * x
        traces.append(sum(w * c for w, c in zip(weights, power.coords)))
    e = [Fraction(1)]  # elementary symmetric functions of the conjugates of x
    for k in range(1, d + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * traces[i - 1] for i in range(1, k + 1)) / k)
    return [(-1) ** k * e[k] for k in range(d, -1, -1)]


def is_algebraic_integer(x: FieldElement) -> bool:
    """True iff x is a root of a monic integer polynomial: iff its
    characteristic polynomial, a power of its minimal polynomial, has
    integer coefficients (Gauss's lemma).  A rational q has minimal
    polynomial x - q, so only its denominator counts."""
    if x.is_rational():
        return x.coords[0].denominator == 1
    return all(c.denominator == 1 for c in characteristic_polynomial(x))


# ---------------------------------------------------------------------------
# multiquadratic compositum Q(sqrt(p1), ..., sqrt(pr))
# ---------------------------------------------------------------------------

def _shift_by_sqrt(f: tuple[int, ...], p: int) -> tuple[list[int], list[int]]:
    """(E, O) with f(x + y) = E(x) + y O(x) modulo y^2 = p, by Horner."""
    n = len(f)
    E, O = [0] * n, [0] * n
    for c in reversed(f):  # (E + yO)(x + y) + c = xE + pO + c + y(E + xO)
        E, O = ([c + p * O[0]] + [E[i - 1] + p * O[i] for i in range(1, n)],
                [E[0]] + [O[i - 1] + E[i] for i in range(1, n)])
    return E, O


def _sum_of_square_roots(primes: tuple[int, ...]) -> tuple[int, ...]:
    """The minimal polynomial of sum(sqrt p), each prime adjoined by
    f(x - sqrt p) f(x + sqrt p) = E^2 - p O^2 over Z."""
    f = (0, 1)
    for p in primes:
        E, O = _shift_by_sqrt(f, p)
        g = [0] * (2 * len(f) - 1)
        for i, (a, b) in enumerate(zip(E, O)):
            for j, (c, d) in enumerate(zip(E, O)):
                g[i + j] += a * c - p * b * d
        f = tuple(g)
    return f


def multiquadratic_field(primes: tuple[int, ...]):
    """Field Q(sqrt p : p in primes) with exact sqrt coordinates.

    Returns (field, sqrt_of) where sqrt_of(j) is the element sqrt(j) for any
    positive integer j whose squarefree part divides the product of the primes.
    The generator is theta = sum(sqrt p).  For each p, with f the minimal
    polynomial of theta - sqrt p and f(x + y) = E + y O modulo y^2 = p,
    0 = f(theta - sqrt p) = E(theta) - sqrt p O(theta), so sqrt p is
    E(theta) / O(theta); O(theta) = 0 would make theta + sqrt p a root of f too.
    """
    primes = tuple(sorted(set(primes)))
    if 1 << len(primes) > MAX_FIELD_DEGREE:
        raise ValueError(f"compositum degree {1 << len(primes)} exceeds {MAX_FIELD_DEGREE}")
    minpoly = IntPoly(_sum_of_square_roots(primes) if primes else (-1, 1))

    hint = singleton(0)
    for p in primes:
        hint = iv_add(hint, iv_sqrt(singleton(p), 48), 48)
    if not primes:
        hint = singleton(1)
    pad = Dyadic(1, -20)
    hint = DyadicInterval(hint.lo - pad, hint.hi + pad)
    field = field_new(minpoly, hint)
    roots = {}
    for p in primes:
        E, O = _shift_by_sqrt(_sum_of_square_roots(tuple(q for q in primes if q != p)), p)
        roots[p] = field.element(E) / field.element(O)

    def sqrt_of(j: int) -> FieldElement:
        if j <= 0:
            raise ValueError("sqrt_of needs a positive integer")
        m, j0, root = 1, j, field.one()
        for p in primes:
            while j0 % (p * p) == 0:
                j0 //= p * p
                m *= p
            if j0 % p == 0:
                j0 //= p
                root = root * roots[p]
        s = math.isqrt(j0)
        if s * s != j0:
            raise ValueError(f"sqrt({j}) does not lie in this compositum")
        return root * (m * s)

    return field, sqrt_of
