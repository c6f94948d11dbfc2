"""Named configurations for the continued fractions studied here.

Each entry is the ``check-theorem1`` config that ``check-named-example``
runs: its sequences as JSON descriptors, a1 .. aM in the order j = 1 .. M,
and its default N and precision (and K, for an entry that takes one, whose
sequences are then a function of K).  ``resolve_family`` turns such a config
into its Thm1Config, for the catalog and for the command line alike.
Sequence order is always descending (j=1 largest), which is what the ratio
condition requires; entries whose source lists the sequences the other way
round are reordered and say so in their description.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .criteria import Thm1Config
from .errors import refuse_assignment
from .numfield import NumberField
from .sequences import CFSpec, parse_field, parse_sequence, prime_pi

__all__ = ["CatalogEntry", "catalog", "build_config", "resolve_family", "list_named_examples"]


def resolve_family(sequences: dict, order: list[str] | None = None, field: dict | None = None,
                   gamma: Fraction = Fraction(1, 2), mode: str = "auto", name: str | None = None
                   ) -> tuple[NumberField | None, list[CFSpec], Thm1Config]:
    """A config's explicit field (None without one), its sequences in
    ``order`` (default: name order) and their Thm1Config.  The Thm1Config's
    field, which fixes the degree D, is the explicit one or else the field of
    the first field-valued sequence."""
    fld = parse_field(field) if field else None
    parsed = {key: parse_sequence(desc) for key, desc in sequences.items()}
    ordered = [parsed[key] for key in order or sorted(parsed)]
    ambient = fld if fld is not None else next((s.field for s in ordered if s.field is not None), None)
    return fld, ordered, Thm1Config(M=len(ordered), sequences=ordered, gamma=gamma, field=ambient,
                                    condition5_mode=mode, name=name)


class CatalogEntry:
    """A named family: ``family()``, or ``family(K)`` for an entry with a K
    among its defaults, lists its sequence descriptors, j = 1 first."""

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, name: str, description: str, defaults: dict, family: Callable[..., list]):
        self.__dict__.update(name=name, description=description, defaults=defaults, family=family)

    def config(self, K: int | None = None) -> dict:
        """The check-theorem1 config of this entry at its defaults, or at ``K``."""
        if "K" in self.defaults:
            descs = self.family(self.defaults["K"] if K is None else K)
        elif K is None:
            descs = self.family()
        else:
            raise ValueError(f"{self.name} takes no K")
        names = [f"a{j}" for j in range(1, len(descs) + 1)]
        return {"task": "check-theorem1", "sequences": dict(zip(names, descs)),
                "params": {"order": names, "N": self.defaults["N"],
                           "precision": self.defaults["precision"]}}


def _base(d: int, **c) -> dict:
    """The doubly-exponential base a_n = 2^(c n d^n)."""
    return {"kind": "doubly-exponential", "d": d, **c}


def _quadratic_roots() -> list[dict]:
    """(4+sqrt2) a_n and (4-sqrt2) a_n, the roots of x^2 - 8x + 14, largest first."""
    return [{"kind": "root-scaled", "poly": [14, -8, 1], "root_index": i, "base": _base(3)}
            for i in (2, 1)]


def _div_by_j(K: int) -> list[dict]:
    return [{"kind": "div-by-j", "j": j, "base": _base(2, c=3)} for j in range(1, K + 1)]


_CATALOG: dict[str, CatalogEntry] = {}


def _register(name: str, description: str, family: Callable[..., list], **defaults) -> None:
    _CATALOG[name] = CatalogEntry(name, description, defaults, family)


_register(
    "ex1",
    "two quadratic-root multiples (4+sqrt2)a_n and (4-sqrt2)a_n over Q(sqrt2); "
    "D=M=2, d=3, a_n = 2^(n*3^n)",
    _quadratic_roots, N=6, precision=512,
)
_register(
    "ex2",
    "divisor-count multiples a_n(1+d(n))sqrt2 and a_n d(n) sqrt2 over Q(sqrt2), "
    "reordered descending; D=M=2, d=3 (the ratio margin oscillates with d(n); "
    "N=7 keeps the trailing window clear of a decreasing stretch)",
    lambda: [{"kind": "divisor-sqrt2", "variant": v, "base": _base(3)} for v in ("1+d", "d")],
    N=7, precision=256,
)
_register(
    "ex3",
    "rational quotients a_n/j for j=1,2,3 (the K=3 specialization); D=1, d=2",
    lambda: _div_by_j(3), N=6, precision=256,
)
_register(
    "c2",
    "rational quotients a_n/j, j=1..K over Q with a_n = 2^(3n*2^n); D=1",
    _div_by_j, N=6, precision=256, K=3,
)
_register(
    "c3",
    "root-scaled families alpha_j a_n for a polynomial with real roots > 1 "
    "(default x^2-8x+14); per-root fields, D=K",
    _quadratic_roots, N=6, precision=512,
)
_register(
    "c4",
    "harmonic multiples a_n(j + H_n), j=1..K descending over Q; D=1",
    lambda K: [{"kind": "harmonic", "j": j, "base": _base(max(2, K - 1))}
               for j in range(K, 0, -1)],
    N=6, precision=256, K=3,
)
_register(
    "c5",
    "prime-counting multiples a_n(1+pi(n)/n)^j, j=K-1..0 descending over Q; D=1 "
    "(pi(n)/sqrt(n) oscillates; N=12 suits the trailing window)",
    lambda K: [{"kind": "prime-pi-power", "j": j, "base": _base(max(2, K - 1))}
               for j in range(K - 1, -1, -1)],
    N=12, precision=256, K=3,
)
_register(
    "t2",
    "sqrt(j) a_n, j=K..1 descending over the compositum Q(sqrt1..sqrtK); K=2 default",
    lambda K: [{"kind": "sqrt-j-scaled", "K": K, "j": j, "base": _base(K * 2 ** prime_pi(K))}
               for j in range(K, 0, -1)],
    N=6, precision=256, K=2,
)
_register(
    "golden-powers",
    "golden-ratio power multiples phi^(j+2(n-1)) a_n over Q(phi), reordered "
    "descending; d = max(2, 2K-1)",
    lambda K: [{"kind": "phi-powers", "offset": j, "base": _base(max(2, 2 * K - 1))}
               for j in range(K, 0, -1)],
    N=6, precision=256, K=2,
)
_register(
    "hanluc",
    "prime-ratio multiples of sqrt2 over Q(sqrt2), reordered descending; the "
    "interleaving condition fails mechanically at every index (reported honestly); "
    "use the relation probe for independence evidence",
    lambda: [{"kind": "hanluc", "j": 2, "base": _base(3)}, {"kind": "hanluc", "j": 1}],
    N=6, precision=256,
)


def catalog() -> dict[str, CatalogEntry]:
    return dict(_CATALOG)


def build_config(name: str, gamma: Fraction | None = None, K: int | None = None) -> Thm1Config:
    """The entry's Thm1Config, at gamma 1/2 and its own K unless they are given."""
    entry = _CATALOG.get(name)
    if entry is None:
        raise KeyError(f"unknown named example {name!r}")
    config = entry.config(K)
    return resolve_family(config["sequences"], config["params"]["order"],
                          gamma=Fraction(1, 2) if gamma is None else gamma, name=name)[2]


def list_named_examples() -> list[dict]:
    """Name, description, default parameters and default config of every catalog entry."""
    out = []
    for name in sorted(_CATALOG):
        e = _CATALOG[name]
        cfg = build_config(name)
        out.append({
            "name": name,
            "description": e.description,
            "defaults": dict(e.defaults),
            "config": e.config(),
            "D": cfg.degree,
            "M": cfg.M,
            "d": cfg.d,
            "field_minpoly": list(cfg.field.minpoly.coeffs) if cfg.field else None,
        })
    return out
