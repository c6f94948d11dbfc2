"""Named configurations for the continued fractions studied here.

Each entry builds a ready-to-check Thm1Config plus sensible defaults for the
relation probe.  Sequence order is always descending (j=1 largest), which is
what the ratio condition requires; entries whose source lists the sequences
the other way round are reordered and say so in their description.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .bigreal.poly import IntPoly
from .criteria import Thm1Config, c2_config
from .errors import refuse_assignment
from .sequences import (
    phi_field,
    polynomial_root_family,
    prime_pi,
    spec,
    sqrt2_field,
    sqrt_j_family,
)

__all__ = ["CatalogEntry", "catalog", "build_config", "list_named_examples"]


class CatalogEntry:
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, name: str, description: str, defaults: dict,
                 build: Callable[..., Thm1Config]):
        self.__dict__.update(name=name, description=description, defaults=defaults, build=build)


def _ex1(gamma=Fraction(1, 2)) -> Thm1Config:
    base = spec("doubly-exponential", d=3)
    fam = polynomial_root_family(IntPoly.of(14, -8, 1), base)  # ascending roots
    return Thm1Config(M=2, sequences=[fam[1], fam[0]], gamma=gamma,
                      field=fam[1].field, condition5_mode="auto", name="ex1")


def _c3(gamma=Fraction(1, 2)) -> Thm1Config:
    p = IntPoly.of(14, -8, 1)
    base = spec("doubly-exponential", d=max(2, p.degree() ** 2 - 1))
    fam = polynomial_root_family(p, base)
    fam = list(reversed(fam))  # descending roots
    K = len(fam)
    return Thm1Config(M=K, sequences=fam, gamma=gamma, field=fam[0].field,
                      D=K, condition5_mode="auto", name="c3")


def _ex2(gamma=Fraction(1, 2)) -> Thm1Config:
    f = sqrt2_field()
    base = spec("doubly-exponential", d=3)
    big = spec("divisor-sqrt2", field=f, base=base, variant="1+d")
    small = spec("divisor-sqrt2", field=f, base=base, variant="d")
    return Thm1Config(M=2, sequences=[big, small], gamma=gamma, field=f,
                      condition5_mode="auto", name="ex2")


def _c2(gamma=Fraction(1, 2), K: int = 3) -> Thm1Config:
    base = spec("doubly-exponential", d=2, c=3)
    cfg = c2_config(K, base, gamma, name="c2")
    return cfg


def _ex3(gamma=Fraction(1, 2)) -> Thm1Config:
    cfg = _c2(gamma, K=3)
    cfg.name = "ex3"
    return cfg


def _c4(gamma=Fraction(1, 2), K: int = 3) -> Thm1Config:
    base = spec("doubly-exponential", d=max(2, K - 1))
    seqs = [spec("harmonic", base=base, j=j) for j in range(K, 0, -1)]
    return Thm1Config(M=K, sequences=seqs, gamma=gamma, field=None, D=1,
                      condition5_mode="auto", name="c4")


def _c5(gamma=Fraction(1, 2), K: int = 3) -> Thm1Config:
    base = spec("doubly-exponential", d=max(2, K - 1))
    seqs = [spec("prime-pi-power", base=base, j=j) for j in range(K - 1, -1, -1)]
    return Thm1Config(M=K, sequences=seqs, gamma=gamma, field=None, D=1,
                      condition5_mode="auto", name="c5")


def _t2(gamma=Fraction(1, 2), K: int = 2) -> Thm1Config:
    base = spec("doubly-exponential", d=K * 2 ** prime_pi(K))
    seqs = sqrt_j_family(K, base)  # already descending
    return Thm1Config(M=K, sequences=seqs, gamma=gamma, field=seqs[0].field,
                      condition5_mode="auto", name="t2")


def _golden(gamma=Fraction(1, 2), K: int = 2) -> Thm1Config:
    f = phi_field()
    d = max(2, 2 * K - 1)
    base = spec("doubly-exponential", d=d)
    seqs = [spec("phi-powers", field=f, base=base, offset=j) for j in range(K, 0, -1)]
    return Thm1Config(M=K, sequences=seqs, gamma=gamma, field=f,
                      condition5_mode="auto", name="golden-powers")


def _hanluc(gamma=Fraction(1, 2)) -> Thm1Config:
    base = spec("doubly-exponential", d=3)
    f = sqrt2_field()
    big = spec("hanluc", j=2, base=base, field=f)
    small = spec("hanluc", j=1, base=base, field=f)
    return Thm1Config(M=2, sequences=[big, small], gamma=gamma, field=f,
                      condition5_mode="auto", name="hanluc")


_CATALOG: dict[str, CatalogEntry] = {}


def _register(name: str, description: str, build, **defaults) -> None:
    _CATALOG[name] = CatalogEntry(name, description, defaults, build)


_register(
    "ex1",
    "two quadratic-root multiples (4+sqrt2)a_n and (4-sqrt2)a_n over Q(sqrt2); "
    "D=M=2, d=3, a_n = 2^(n*3^n)",
    _ex1, N=6, precision=512,
)
_register(
    "ex2",
    "divisor-count multiples a_n(1+d(n))sqrt2 and a_n d(n) sqrt2 over Q(sqrt2), "
    "reordered descending; D=M=2, d=3 (the ratio margin oscillates with d(n); "
    "N=7 keeps the trailing window clear of a decreasing stretch)",
    _ex2, N=7, precision=256,
)
_register(
    "ex3",
    "rational quotients a_n/j for j=1,2,3 (the K=3 specialization); D=1, d=2",
    _ex3, N=6, precision=256,
)
_register(
    "c2",
    "rational quotients a_n/j, j=1..K over Q with a_n = 2^(3n*2^n); D=1",
    _c2, N=6, precision=256, K=3,
)
_register(
    "c3",
    "root-scaled families alpha_j a_n for a polynomial with real roots > 1 "
    "(default x^2-8x+14); per-root fields, D=K",
    _c3, N=6, precision=512,
)
_register(
    "c4",
    "harmonic multiples a_n(j + H_n), j=1..K descending over Q; D=1",
    _c4, N=6, precision=256, K=3,
)
_register(
    "c5",
    "prime-counting multiples a_n(1+pi(n)/n)^j, j=K-1..0 descending over Q; D=1 "
    "(pi(n)/sqrt(n) oscillates; N=12 suits the trailing window)",
    _c5, N=12, precision=256, K=3,
)
_register(
    "t2",
    "sqrt(j) a_n, j=K..1 descending over the compositum Q(sqrt1..sqrtK); K=2 default",
    _t2, N=6, precision=256, K=2,
)
_register(
    "golden-powers",
    "golden-ratio power multiples phi^(j+2(n-1)) a_n over Q(phi), reordered "
    "descending; d = max(2, 2K-1)",
    _golden, N=6, precision=256, K=2,
)
_register(
    "hanluc",
    "prime-ratio multiples of sqrt2 over Q(sqrt2), reordered descending; the "
    "interleaving condition fails mechanically at every index (reported honestly); "
    "use the relation probe for independence evidence",
    _hanluc, N=6, precision=256,
)


def catalog() -> dict[str, CatalogEntry]:
    return dict(_CATALOG)


def build_config(name: str, gamma: Fraction | None = None, K: int | None = None) -> Thm1Config:
    """The entry's Thm1Config, at its own gamma and K unless they are given."""
    entry = _CATALOG.get(name)
    if entry is None:
        raise KeyError(f"unknown named example {name!r}")
    if K is not None and "K" not in entry.defaults:
        raise ValueError(f"{name} takes no K")
    args = {} if gamma is None else {"gamma": gamma}
    return entry.build(**args) if K is None else entry.build(K=K, **args)


def list_named_examples() -> list[dict]:
    """Name, description and default parameters of every catalog entry."""
    out = []
    for name in sorted(_CATALOG):
        e = _CATALOG[name]
        cfg = e.build()
        out.append({
            "name": name,
            "description": e.description,
            "defaults": dict(e.defaults),
            "D": cfg.degree,
            "M": cfg.M,
            "d": cfg.d,
            "field_minpoly": list(cfg.field.minpoly.coeffs) if cfg.field else None,
        })
    return out
