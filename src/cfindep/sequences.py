"""Partial-quotient generators and their integral decompositions.

A CFSpec is a declarative, deterministic description of a sequence of exact
partial quotients a_1, a_2, ...  Each kind gives a_n as a pair (E, u),
a_n = 2**E * u with u small, and exposes a_n in the shape (S*b + c)/d with S
an integer and b, c, d algebraic integers, which is what the hypothesis
checker consumes, and reads itself from a JSON descriptor.  ``KINDS`` holds
these three per kind.
"""

from __future__ import annotations

import bisect
import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .bigreal.dyadic import Dyadic, rational_to_dyadic
from .bigreal.interval import DyadicInterval
from .bigreal.poly import IntPoly, SturmChain, factor_with_roots, refine_root
from .errors import (
    BitBudgetExceeded,
    NotSquarefree,
    RootsNotRealDistinctGreaterOne,
    UnknownFamily,
    refuse_assignment,
)
from .numfield import FieldElement, NumberField, field_new, multiquadratic_field

__all__ = [
    "CFSpec",
    "Decomposition",
    "KINDS",
    "spec",
    "parse_sequence",
    "parse_field",
    "parse_rational",
    "parse_int",
    "sqrt_j_family",
    "primes_up_to",
    "nth_prime",
    "prime_pi",
    "divisor_count",
    "harmonic",
    "polynomial_root_family",
    "sqrt2_field",
    "phi_field",
    "MAX_QUOTIENT_BITS",
    "MAX_ROOT_FAMILY_DEGREE",
]

MAX_QUOTIENT_BITS = 10 ** 6
# root subsets of a degree-16 polynomial number about 2**15
MAX_ROOT_FAMILY_DEGREE = 16


def _pow2(e: int) -> Fraction:
    """2**e, refused when it needs more bits than the per-quotient guard;
    only ``CFSpec.quotient`` and ``_decomposition`` build it."""
    if e + 1 > MAX_QUOTIENT_BITS:
        raise BitBudgetExceeded(f"quotient needs {e + 1} bits, guard is {MAX_QUOTIENT_BITS}")
    return Fraction(1 << e)


# ---------------------------------------------------------------------------
# number-theory utilities
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sieve(limit: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Smallest prime factor of each of 0..limit, and the primes up to limit."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return tuple(spf), tuple(n for n in range(2, limit + 1) if spf[n] == n)


def _sieve_covering(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sieve of the least power of two >= n, at least 1024."""
    return _sieve(1 << max(10, (n - 1).bit_length()))


def primes_up_to(n: int) -> list[int]:
    _, primes = _sieve_covering(n)
    return list(primes[: bisect.bisect_right(primes, n)])


def prime_pi(n: int) -> int:
    if n < 2:
        return 0
    return len(primes_up_to(n))


def nth_prime(k: int) -> int:
    if k < 1:
        raise ValueError("prime index starts at 1")
    bound = 16
    while True:
        guess = max(bound, int(k * (math.log(max(k, 2)) + math.log(math.log(max(k, 3))) + 2)))
        _, primes = _sieve_covering(guess)
        if len(primes) >= k:
            return primes[k - 1]
        bound *= 2


def divisor_count(n: int) -> int:
    if n < 1:
        raise ValueError("divisor count needs n >= 1")
    if n == 1:
        return 1
    spf, _ = _sieve_covering(n)
    out = 1
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out *= e + 1
    return out


_HARMONIC: list[Fraction] = [Fraction(0)]
_HARMONIC_LOCK = threading.Lock()


def harmonic(n: int) -> Fraction:
    """Exact H_n = 1 + 1/2 + ... + 1/n."""
    if n < 0:
        raise ValueError("harmonic index must be nonnegative")
    with _HARMONIC_LOCK:
        while len(_HARMONIC) <= n:
            k = len(_HARMONIC)
            _HARMONIC.append(_HARMONIC[-1] + Fraction(1, k))
        return _HARMONIC[n]


# ---------------------------------------------------------------------------
# shared fields
# ---------------------------------------------------------------------------

# x^2 - 2 and x^2 - x - 1 with their root in [1, 2]; field_new's checks of
# both run in the tests rather than at every import
_SQRT2_FIELD = NumberField(IntPoly.of(-2, 0, 1), DyadicInterval(Dyadic(1), Dyadic(2)))
_PHI_FIELD = NumberField(IntPoly.of(-1, -1, 1), DyadicInterval(Dyadic(1), Dyadic(2)))


def sqrt2_field() -> NumberField:
    return _SQRT2_FIELD


def phi_field() -> NumberField:
    return _PHI_FIELD


# ---------------------------------------------------------------------------
# CFSpec
# ---------------------------------------------------------------------------

class Decomposition:
    """Quotient presented as (S*b + c)/d with S integral, b/c/d algebraic integers."""

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, S: int, b, c, d):
        self.__dict__.update(S=S, b=b, c=c, d=d)


class CFSpec:
    """Deterministic generator of exact partial quotients, index n >= 1.

    The value of the continued fraction described by a spec is
    [0; a_1, a_2, ...].
    """

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, kind: str, params: tuple = (), field: NumberField | None = None):
        if kind not in KINDS:
            raise UnknownFamily(f"unknown sequence kind {kind!r}")
        self.__dict__.update(kind=kind, params=params, field=field)

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is CFSpec else NotImplemented

    def __hash__(self):
        return hash((self.kind, self.params, self.field))

    def _p(self, name, default=None):
        for k, v in self.params:
            if k == name:
                return v
        return default

    def pair(self, n: int) -> tuple:
        """(E, u) with a_n = 2**E * u."""
        if n < 1:
            raise ValueError("quotient index starts at 1")
        return KINDS[self.kind].pair(self, n)

    def quotient(self, n: int):
        """a_n = 2**E * u, refused past the per-quotient bit guard."""
        E, u = self.pair(n)
        return _pow2(E) * u if E else u

    def decomposition(self, n: int) -> Decomposition | None:
        return KINDS[self.kind].decomposition(self, n)


def spec(kind: str, field: NumberField | None = None, **params) -> CFSpec:
    return CFSpec(kind, tuple(sorted(params.items(), key=lambda kv: kv[0])), field)


# ---------------------------------------------------------------------------
# named generators
# ---------------------------------------------------------------------------

def polynomial_root_family(p: IntPoly, base: CFSpec) -> list[CFSpec]:
    """CFSpecs for alpha_j * a_n over all real roots alpha_j of p, ascending.

    Requires every root of p to be real, simple, and greater than 1, the
    degree to be at most ``MAX_ROOT_FAMILY_DEGREE``, and p to be an integer
    multiple of a monic polynomial, so that every irreducible factor is
    monic (the roots are algebraic integers).
    """
    deg = p.degree()
    if deg < 1:
        raise RootsNotRealDistinctGreaterOne("polynomial must be nonconstant")
    if deg > MAX_ROOT_FAMILY_DEGREE:
        raise RootsNotRealDistinctGreaterOne(f"degree {deg} exceeds {MAX_ROOT_FAMILY_DEGREE}")
    scale = math.gcd(*p.coeffs) * (1 if p.leading() > 0 else -1)
    p = IntPoly(tuple(c // scale for c in p.coeffs))
    try:
        chain = SturmChain(p)
    except NotSquarefree:
        raise RootsNotRealDistinctGreaterOne("repeated roots") from None
    window = DyadicInterval(Dyadic(1), Dyadic(p.cauchy_root_bound()))
    if chain.count(window) - (sum(p.coeffs) == 0) != deg:
        raise RootsNotRealDistinctGreaterOne("roots must all be real and > 1")
    if not p.is_monic():
        raise RootsNotRealDistinctGreaterOne(f"{p!r} is not monic, so one of its factors is not")
    roots = chain.isolate()
    factors = factor_with_roots(p, roots)
    out = []
    for iv in roots:
        owner = None
        for f in factors:
            if f.degree() >= 1 and f.eval_dyadic(iv.lo).sign() * f.eval_dyadic(iv.hi).sign() < 0:
                owner = f
                break
        if owner is None:  # pragma: no cover
            raise RootsNotRealDistinctGreaterOne("could not attribute root to a factor")
        tight = refine_root(owner, iv, Dyadic(1, -32))
        fld = field_new(owner, tight)
        out.append(spec("root-scaled", field=fld, base=base))
    return out


def sqrt_j_family(K: int, base: CFSpec) -> list[CFSpec]:
    """Quotients sqrt(j) * a_n, j = K..1 (descending), over Q(sqrt 1..K)."""
    if K < 2:
        raise ValueError("need K >= 2")
    ps = tuple(p for p in primes_up_to(K))
    fld, sqrt_of = multiquadratic_field(ps)
    out = []
    for j in range(K, 0, -1):
        out.append(spec("sqrt-j-scaled", field=fld, base=base, j=j, sqrt_elem=sqrt_of(j)))
    return out


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

def parse_rational(text) -> Fraction:
    """An exact rational from a JSON integer or a "num/den" string."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        if "/" in text:
            num, den = text.split("/", 1)
            if int(den) == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    raise ValueError(f"expected an exact rational, got {text!r}")


def parse_int(value, name: str, minimum: int | None = None) -> int:
    """A JSON integer, at least ``minimum`` if given; bools, floats and strings raise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def parse_sequence(desc: dict) -> CFSpec:
    """The CFSpec a JSON sequence descriptor names, e.g.
    ``{"kind": "harmonic", "j": 2, "base": {"kind": "doubly-exponential", "d": 3}}``."""
    if not isinstance(desc, dict) or not isinstance(desc.get("kind"), str):
        raise ValueError("sequence descriptor needs a 'kind'")
    kind = KINDS.get(desc["kind"])
    if kind is None or kind.parse is None:
        raise UnknownFamily(f"unknown sequence kind {desc['kind']!r}")
    return kind.parse(desc)


def parse_field(desc: dict) -> NumberField:
    """The number field a JSON field descriptor names, e.g.
    ``{"minpoly": [-2, 0, 1], "root": ["1", "2"]}``: the root of ``minpoly``
    (constant term first) inside the exact rational interval ``root``."""
    coeffs = desc.get("minpoly")
    root = desc.get("root")
    if not coeffs or not isinstance(coeffs, list):
        raise ValueError("field.minpoly must be a nonempty coefficient list")
    if not isinstance(root, list) or len(root) != 2:
        raise ValueError("field.root must be [lo, hi] exact rationals")
    lo = parse_rational(root[0])
    hi = parse_rational(root[1])
    iv = DyadicInterval(
        rational_to_dyadic(lo.numerator, lo.denominator, 64, up=False),
        rational_to_dyadic(hi.numerator, hi.denominator, 64, up=True),
    )
    return field_new(IntPoly(tuple(parse_int(c, "field.minpoly") for c in coeffs)), iv)


def _list(desc: dict, key: str) -> list:
    values = desc[key]
    if not isinstance(values, list):
        raise ValueError(f"{desc['kind']} sequence: {key!r} must be a list")
    return values


def _int(desc: dict, key: str, minimum: int | None = None) -> int:
    return parse_int(desc[key], key, minimum)


def _base(desc: dict) -> CFSpec:
    """The base sequence a_n that a base-scaled kind multiplies."""
    if "base" not in desc:
        raise ValueError(f"{desc['kind']} sequence needs 'base'")
    return parse_sequence(desc["base"])


# ---------------------------------------------------------------------------
# the kinds: pair, decomposition and JSON parser of each
# ---------------------------------------------------------------------------

class _Kind:
    """One sequence kind.

    ``pair(spec, n)`` gives a_n = 2**E * u as (E, u) and
    ``decomposition(spec, n)`` its (S*b + c)/d form.  They are separate
    computations, so the decomposition check compares two derivations of a_n.
    ``parse(descriptor)`` builds the spec from JSON; others are built in code.
    """

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, pair: Callable, decomposition: Callable = lambda s, n: None,
                 parse: Callable | None = None):
        self.__dict__.update(pair=pair, decomposition=decomposition, parse=parse)


def _scaled(factor: Callable) -> Callable:
    """The pair of a kind whose a_n is its base's times ``factor(s, n)``: the
    base's (E, u) is read once and only u is multiplied."""
    def pair(s: CFSpec, n: int) -> tuple:
        E, u = s._p("base").pair(n)
        return E, u * factor(s, n)
    return pair


def _decomposition(s: CFSpec, n: int, b=1, d=1, mult: int = 1) -> Decomposition | None:
    """(S*b + 0)/d for a quotient 2**E * u * mult * b/d, (E, u) the pair of the
    base of ``s`` or, for a kind without one, of ``s``.  S takes the numerator
    of 2**E * u and d also its denominator; a field-valued u has no such form."""
    E, u = s._p("base", s).pair(n)
    if isinstance(u, FieldElement):
        return None
    a = _pow2(E) * Fraction(u)
    S, d = a.numerator * mult, d * a.denominator
    if isinstance(b, FieldElement):
        return Decomposition(S, b, b.field.zero(), b.field.from_rational(d))
    return Decomposition(S, Fraction(b), Fraction(0), Fraction(d))


def _prime_pi_decomposition(s: CFSpec, n: int) -> Decomposition | None:
    """b_n ((n + pi(n))/n)^j, the ratio turned over for j < 0 so S and d stay integers."""
    j, up, down = s._p("j"), n + prime_pi(n), n
    if j < 0:
        up, down = down, up
    return _decomposition(s, n, 1, down ** abs(j), up ** abs(j))


def _polynomial(s: CFSpec, n: int) -> tuple:
    acc = Fraction(0)
    for c in reversed(s._p("coeffs")):
        acc = acc * n + Fraction(c)
    return 0, acc


def _prime_ratio(s: CFSpec, n: int) -> tuple:
    """Prime-ratio quotients over Q(sqrt 2): (1 + p_n/n) sqrt2 for j=1 and
    b_n (p_n/n) sqrt2 for j=2, p_n the n-th prime and b_n the base."""
    ratio = Fraction(nth_prime(n), n)
    if s._p("j") == 1:
        return 0, (1 + ratio) * sqrt2_field().generator()
    E, u = s._p("base").pair(n)
    return E, u * ratio * sqrt2_field().generator()


def _prime_ratio_decomposition(s: CFSpec, n: int) -> Decomposition:
    f = sqrt2_field()
    if s._p("j") == 1:
        return Decomposition(n + nth_prime(n), f.generator(), f.zero(), f.from_rational(n))
    return _decomposition(s, n, f.generator(), n, nth_prime(n))


def _parse_hanluc(desc: dict) -> CFSpec:
    j = _int(desc, "j")
    if j not in (1, 2):
        raise ValueError(f"hanluc j must be 1 or 2, got {j}")
    return spec("hanluc", field=sqrt2_field(), j=j, base=_base(desc) if j == 2 else None)


def _harmonic_decomposition(s: CFSpec, n: int) -> Decomposition:
    h = harmonic(n)
    return _decomposition(s, n, s._p("j") * h.denominator + h.numerator, h.denominator)


def _divisor_mult(s: CFSpec, n: int) -> int:
    return divisor_count(n) + (1 if s._p("variant") == "1+d" else 0)


def _parse_divisor_sqrt2(desc: dict) -> CFSpec:
    variant = desc.get("variant", "d")
    if variant not in ("d", "1+d"):
        raise ValueError(f"divisor-sqrt2 variant must be 'd' or '1+d', got {variant!r}")
    return spec("divisor-sqrt2", field=sqrt2_field(), base=_base(desc), variant=variant)


def _phi_exponent(s: CFSpec, n: int) -> int:
    return s._p("offset") + 2 * (n - 1)


@lru_cache(maxsize=32)
def _family(build: Callable, *args) -> tuple[CFSpec, ...]:
    """``build(*args)``, built once for every sequence that names the same
    family: the roots of one polynomial over one base share their fields, and
    the sqrt(j) over one base share one compositum.  Threads that race on a
    family may each build it; every build gives the same quotients."""
    return tuple(build(*args))


def _parse_root_scaled(desc: dict) -> CFSpec:
    idx = _int(desc, "root_index")
    poly = IntPoly(tuple(parse_int(c, "poly") for c in _list(desc, "poly")))
    fam = _family(polynomial_root_family, poly, _base(desc))
    if not 1 <= idx <= len(fam):
        raise ValueError("root_index out of range")
    return fam[idx - 1]


def _parse_sqrt_j_scaled(desc: dict) -> CFSpec:
    K, j = _int(desc, "K"), _int(desc, "j")
    if not 1 <= j <= K:
        raise ValueError("j out of range for sqrt-j-scaled")
    return _family(sqrt_j_family, K, _base(desc))[K - j]


KINDS: dict[str, _Kind] = {
    "constant": _Kind(
        lambda s, n: (0, s._p("value")),
        _decomposition,
        lambda desc: spec("constant", value=parse_rational(desc["value"])),
    ),
    "polynomial": _Kind(
        _polynomial,
        _decomposition,
        lambda desc: spec("polynomial",
                          coeffs=tuple(parse_rational(c) for c in _list(desc, "coeffs"))),
    ),
    "doubly-exponential": _Kind(
        lambda s, n: (s._p("c", 1) * n * s._p("d") ** n, Fraction(1)),
        _decomposition,
        lambda desc: spec("doubly-exponential", d=_int(desc, "d", 2),
                          c=parse_int(desc.get("c", 1), "c", 1)),
    ),
    "pow2-geometric": _Kind(
        lambda s, n: (s._p("d") ** n, Fraction(1)),
        _decomposition,
        lambda desc: spec("pow2-geometric", d=_int(desc, "d", 0)),
    ),
    "hanluc": _Kind(_prime_ratio, _prime_ratio_decomposition, _parse_hanluc),
    "div-by-j": _Kind(
        _scaled(lambda s, n: Fraction(1, s._p("j"))),
        lambda s, n: _decomposition(s, n, 1, s._p("j")),
        lambda desc: spec("div-by-j", base=_base(desc), j=_int(desc, "j", 1)),
    ),
    "root-scaled": _Kind(
        _scaled(lambda s, n: s.field.generator()),
        lambda s, n: _decomposition(s, n, s.field.generator()),
        _parse_root_scaled,
    ),
    "harmonic": _Kind(
        _scaled(lambda s, n: s._p("j") + harmonic(n)),
        _harmonic_decomposition,
        lambda desc: spec("harmonic", base=_base(desc), j=_int(desc, "j")),
    ),
    "prime-pi-power": _Kind(
        _scaled(lambda s, n: (1 + Fraction(prime_pi(n), n)) ** s._p("j")),
        _prime_pi_decomposition,
        lambda desc: spec("prime-pi-power", base=_base(desc), j=_int(desc, "j")),
    ),
    "divisor-sqrt2": _Kind(
        _scaled(lambda s, n: _divisor_mult(s, n) * s.field.generator()),
        lambda s, n: _decomposition(s, n, s.field.generator(), mult=_divisor_mult(s, n)),
        _parse_divisor_sqrt2,
    ),
    "phi-powers": _Kind(
        _scaled(lambda s, n: s.field.generator() ** _phi_exponent(s, n)),
        lambda s, n: _decomposition(s, n, s.field.generator() ** _phi_exponent(s, n)),
        lambda desc: spec("phi-powers", field=phi_field(), base=_base(desc),
                          offset=_int(desc, "offset")),
    ),
    "sqrt-j-scaled": _Kind(
        _scaled(lambda s, n: s._p("sqrt_elem")),
        lambda s, n: _decomposition(s, n, s._p("sqrt_elem")),
        _parse_sqrt_j_scaled,
    ),
    "custom": _Kind(
        lambda s, n: (0, s._p("fn")(n)),
        lambda s, n: s._p("decomp_fn")(n) if s._p("decomp_fn") else None,
    ),
}
