"""Partial-quotient generators and their integral decompositions.

A CFSpec is a declarative, deterministic description of a sequence of exact
partial quotients a_1, a_2, ...  Each supported kind also knows how to expose
its quotients in the shape (S*b + c)/d with S an integer and b, c, d algebraic
integers, which is what the hypothesis checker consumes.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction

from .bigreal.dyadic import Dyadic
from .bigreal.interval import DyadicInterval, iv_add, iv_div, iv_sqrt, singleton
from .bigreal.poly import IntPoly, sturm_count, is_squarefree
from .errors import (
    BitBudgetExceeded,
    RootsNotRealDistinctGreaterOne,
    UnknownFamily,
)
from .numfield import FieldElement, NumberField, field_new, multiquadratic_field

__all__ = [
    "CFSpec",
    "Decomposition",
    "spec",
    "sqrt_j_family",
    "primes_up_to",
    "nth_prime",
    "prime_pi",
    "divisor_count",
    "harmonic",
    "gen_doubly_exponential",
    "gen_prime_ratio",
    "gen_hanluc",
    "gen_corollary_family",
    "gen_from_polynomial_roots",
    "polynomial_root_family",
    "sqrt2_field",
    "phi_field",
    "max_quotient_bits",
]

DEFAULT_MAX_BITS = 10 ** 6


def max_quotient_bits() -> int:
    """Per-quotient bit guard; override with CFINDEP_MAX_BITS."""
    env = os.environ.get("CFINDEP_MAX_BITS")
    return int(env) if env else DEFAULT_MAX_BITS


def _guard_bits(bits: int) -> None:
    limit = max_quotient_bits()
    if bits > limit:
        raise BitBudgetExceeded(f"quotient needs {bits} bits, guard is {limit}")


# ---------------------------------------------------------------------------
# number-theory utilities
# ---------------------------------------------------------------------------

_SIEVE_LIMIT = 0
_SPF: list[int] = []
_PRIMES: list[int] = []


def _ensure_sieve(limit: int) -> None:
    global _SIEVE_LIMIT, _SPF, _PRIMES
    if limit <= _SIEVE_LIMIT:
        return
    limit = max(limit, 2 * _SIEVE_LIMIT, 1 << 10)
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    _SPF = spf
    _PRIMES = [n for n in range(2, limit + 1) if spf[n] == n]
    _SIEVE_LIMIT = limit


def primes_up_to(n: int) -> list[int]:
    _ensure_sieve(max(n, 2))
    import bisect

    return _PRIMES[: bisect.bisect_right(_PRIMES, n)]


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
        _ensure_sieve(guess)
        if len(_PRIMES) >= k:
            return _PRIMES[k - 1]
        bound *= 2


def divisor_count(n: int) -> int:
    if n < 1:
        raise ValueError("divisor count needs n >= 1")
    if n == 1:
        return 1
    _ensure_sieve(n)
    out = 1
    while n > 1:
        p = _SPF[n]
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

_FIELD_CACHE: dict[str, NumberField] = {}


def sqrt2_field() -> NumberField:
    f = _FIELD_CACHE.get("sqrt2")
    if f is None:
        f = field_new(IntPoly.of(-2, 0, 1), DyadicInterval(Dyadic(1), Dyadic(2)))
        _FIELD_CACHE["sqrt2"] = f
    return f


def phi_field() -> NumberField:
    f = _FIELD_CACHE.get("phi")
    if f is None:
        f = field_new(IntPoly.of(-1, -1, 1), DyadicInterval(Dyadic(1), Dyadic(2)))
        _FIELD_CACHE["phi"] = f
    return f


# ---------------------------------------------------------------------------
# CFSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Quotient presented as (S*b + c)/d with S integral, b/c/d algebraic integers."""

    S: int
    b: object
    c: object
    d: object


_KINDS = {
    "constant",
    "polynomial",
    "doubly-exponential",
    "pow2-geometric",
    "hanluc",
    "div-by-j",
    "root-scaled",
    "harmonic",
    "prime-pi-power",
    "divisor-sqrt2",
    "phi-powers",
    "sqrt-j-scaled",
    "one-plus-over-sqrt",
    "custom",
}


@dataclass(frozen=True)
class CFSpec:
    """Deterministic generator of exact partial quotients, index n >= 1.

    The value of the continued fraction described by a spec is
    [0; a_1, a_2, ...].
    """

    kind: str
    params: tuple = ()
    field: NumberField | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnknownFamily(f"unknown sequence kind {self.kind!r}")

    def _p(self, name, default=None):
        for k, v in self.params:
            if k == name:
                return v
        return default

    # -- quotient values ------------------------------------------------------

    def quotient(self, n: int, prec: int | None = None):
        if n < 1:
            raise ValueError("quotient index starts at 1")
        k = self.kind
        if k == "constant":
            return self._p("value")
        if k == "polynomial":
            coeffs = self._p("coeffs")
            acc = Fraction(0)
            for c in reversed(coeffs):
                acc = acc * n + Fraction(c)
            return acc
        if k == "doubly-exponential":
            return gen_doubly_exponential(self._p("d"), n, self._p("c", 1))
        if k == "pow2-geometric":
            e = self._p("d") ** n
            _guard_bits(e + 1)
            return Fraction(1 << e)
        if k == "hanluc":
            return gen_hanluc(self._p("j"), n, self._p("base"))
        if k == "div-by-j":
            return self._p("base").quotient(n) / self._p("j")
        if k == "root-scaled":
            alpha = self.field.generator()
            return self._p("base").quotient(n) * alpha
        if k == "harmonic":
            return self._p("base").quotient(n) * (self._p("j") + harmonic(n))
        if k == "prime-pi-power":
            j = self._p("j")
            return self._p("base").quotient(n) * (1 + Fraction(prime_pi(n), n)) ** j
        if k == "divisor-sqrt2":
            mult = divisor_count(n)
            if self._p("variant") == "1+d":
                mult += 1
            s = int(self._p("base").quotient(n)) * mult
            return self.field.element([0, s])
        if k == "phi-powers":
            e = self._p("offset") + 2 * (n - 1)
            phi = self.field.generator()
            return (phi ** e) * self._p("base").quotient(n)
        if k == "sqrt-j-scaled":
            return self._p("sqrt_elem") * self._p("base").quotient(n)
        if k == "one-plus-over-sqrt":
            c = Fraction(self._p("c"))
            root = iv_sqrt(singleton(n), prec)
            from .bigreal.interval import from_fraction

            return iv_add(singleton(1), iv_div(from_fraction(c, prec), root, prec), prec)
        if k == "custom":
            return self._p("fn")(n)
        raise UnknownFamily(self.kind)  # pragma: no cover

    # -- integral decompositions ------------------------------------------------

    def decomposition(self, n: int) -> Decomposition | None:
        k = self.kind
        if k in ("constant", "polynomial", "doubly-exponential", "pow2-geometric"):
            a = self.quotient(n)
            if isinstance(a, FieldElement):
                return None
            a = Fraction(a)
            return Decomposition(a.numerator, Fraction(1), Fraction(0), Fraction(a.denominator))
        if k == "hanluc":
            j = self._p("j")
            r2 = sqrt2_field().generator()
            if j == 1:
                return Decomposition(n + nth_prime(n), r2, sqrt2_field().zero(), sqrt2_field().from_rational(n))
            a_n = int(self._p("base").quotient(n))
            return Decomposition(a_n * nth_prime(n), r2, sqrt2_field().zero(), sqrt2_field().from_rational(n))
        if k == "div-by-j":
            a_n = self._p("base").quotient(n)
            return Decomposition(int(a_n), Fraction(1), Fraction(0), Fraction(self._p("j")))
        if k == "root-scaled":
            a_n = int(self._p("base").quotient(n))
            f = self.field
            return Decomposition(a_n, f.generator(), f.zero(), f.one())
        if k == "harmonic":
            h = harmonic(n)
            dn = h.denominator
            a_n = int(self._p("base").quotient(n))
            return Decomposition(a_n, Fraction(self._p("j") * dn + h.numerator), Fraction(0), Fraction(dn))
        if k == "prime-pi-power":
            j = self._p("j")
            a_n = int(self._p("base").quotient(n))
            return Decomposition(a_n * (n + prime_pi(n)) ** j, Fraction(1), Fraction(0), Fraction(n ** j))
        if k == "divisor-sqrt2":
            mult = divisor_count(n) + (1 if self._p("variant") == "1+d" else 0)
            a_n = int(self._p("base").quotient(n))
            f = self.field
            return Decomposition(a_n * mult, f.generator(), f.zero(), f.one())
        if k == "phi-powers":
            e = self._p("offset") + 2 * (n - 1)
            f = self.field
            a_n = int(self._p("base").quotient(n))
            return Decomposition(a_n, f.generator() ** e, f.zero(), f.one())
        if k == "sqrt-j-scaled":
            f = self.field
            a_n = int(self._p("base").quotient(n))
            return Decomposition(a_n, self._p("sqrt_elem"), f.zero(), f.one())
        if k == "custom":
            fn = self._p("decomp_fn")
            return fn(n) if fn else None
        return None

    def is_exact(self) -> bool:
        return self.kind != "one-plus-over-sqrt"

    def describe(self) -> str:
        return f"{self.kind}({', '.join(f'{k}={v}' for k, v in self.params if k not in ('fn', 'decomp_fn', 'sqrt_elem'))})"


def spec(kind: str, field: NumberField | None = None, **params) -> CFSpec:
    return CFSpec(kind, tuple(sorted(params.items(), key=lambda kv: kv[0])), field)


# ---------------------------------------------------------------------------
# named generators
# ---------------------------------------------------------------------------

def gen_doubly_exponential(d: int, n: int, c: int = 1) -> Fraction:
    """a_n = 2**(c * n * d**n); the canonical unbounded-growth witness."""
    if d < 2 or n < 1 or c < 1:
        raise ValueError("need d >= 2, n >= 1, c >= 1")
    e = c * n * d ** n
    _guard_bits(e + 1)
    return Fraction(1 << e)


def gen_prime_ratio(n: int) -> Fraction:
    """1 + p_n/n with p_n the n-th prime."""
    return 1 + Fraction(nth_prime(n), n)


def gen_hanluc(j: int, n: int, base: CFSpec | None = None) -> FieldElement:
    """Quotients of the two prime-ratio continued fractions over Q(sqrt 2).

    j=1 emits (1 + p_n/n) * sqrt2, j=2 emits a_n * (p_n/n) * sqrt2 with a_n
    drawn from ``base`` (doubly exponential with d=3 by default).
    """
    f = sqrt2_field()
    r2 = f.generator()
    if j == 1:
        return gen_prime_ratio(n) * r2
    if j == 2:
        if base is None:
            base = spec("doubly-exponential", d=3)
        return base.quotient(n) * Fraction(nth_prime(n), n) * r2
    raise ValueError("j must be 1 or 2")


def _monic_irreducible_factors(p: IntPoly) -> list[IntPoly]:
    from sympy import Poly, Symbol

    x = Symbol("x")
    _, factors = Poly(list(reversed(p.coeffs)), x, domain="ZZ").factor_list()
    out = []
    for f, mult in factors:
        coeffs = [int(c) for c in reversed(f.all_coeffs())]
        out.append((IntPoly(tuple(coeffs)), mult))
    return out


def polynomial_root_family(p: IntPoly, base: CFSpec) -> list[CFSpec]:
    """CFSpecs for alpha_j * a_n over all real roots alpha_j of p, ascending.

    Requires every root of p to be real, simple, and greater than 1, and every
    irreducible factor to be monic (so the roots are algebraic integers).
    """
    deg = p.degree()
    if deg < 1:
        raise RootsNotRealDistinctGreaterOne("polynomial must be nonconstant")
    if not is_squarefree(p):
        raise RootsNotRealDistinctGreaterOne("repeated roots")
    bound = p.cauchy_root_bound()
    window = DyadicInterval(Dyadic(1), Dyadic(bound))
    if sturm_count(p, window) - (1 if p.eval_fraction(Fraction(1)) == 0 else 0) != deg:
        raise RootsNotRealDistinctGreaterOne("roots must all be real and > 1")
    from .bigreal.poly import isolate_real_roots, refine_root

    factors = _monic_irreducible_factors(p)
    for f, _ in factors:
        if not f.is_monic():
            raise RootsNotRealDistinctGreaterOne(f"factor {f!r} is not monic")
    roots = isolate_real_roots(p)
    out = []
    for iv in roots:
        owner = None
        for f, _ in factors:
            if f.degree() >= 1 and f.eval_dyadic(iv.lo).sign() * f.eval_dyadic(iv.hi).sign() < 0:
                owner = f
                break
        if owner is None:  # pragma: no cover
            raise RootsNotRealDistinctGreaterOne("could not attribute root to a factor")
        tight = refine_root(owner, iv, Dyadic(1, -32))
        fld = field_new(owner, tight)
        out.append(spec("root-scaled", field=fld, base=base))
    return out


def gen_from_polynomial_roots(p: IntPoly, j: int, n: int, base: CFSpec):
    """Quotient and decomposition of the j-th (ascending) root family at index n."""
    fam = polynomial_root_family(p, base)
    if not 1 <= j <= len(fam):
        raise ValueError(f"root index {j} out of range")
    s = fam[j - 1]
    return s.quotient(n), s.decomposition(n)


def gen_corollary_family(name: str, params: dict, j: int, n: int):
    """Dispatch for the named quotient families.

    name in {div-by-j, root-scaled, harmonic, prime-pi-power, divisor-sqrt2,
    phi-powers}; params carries the base sequence and family data.
    """
    base = params["base"]
    if name == "div-by-j":
        return spec("div-by-j", base=base, j=j).quotient(n)
    if name == "root-scaled":
        return gen_from_polynomial_roots(params["poly"], j, n, base)[0]
    if name == "harmonic":
        return spec("harmonic", base=base, j=j).quotient(n)
    if name == "prime-pi-power":
        return spec("prime-pi-power", base=base, j=j).quotient(n)
    if name == "divisor-sqrt2":
        f = sqrt2_field()
        variant = params.get("variant", "d")
        return spec("divisor-sqrt2", field=f, base=base, variant=variant).quotient(n)
    if name == "phi-powers":
        return spec("phi-powers", field=phi_field(), base=base, offset=j).quotient(n)
    raise UnknownFamily(f"unknown family {name!r}")


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
