"""JSON sequence descriptors parse to the same sequences as hand-built specs.

One descriptor per parseable kind; the parsed spec's quotients and
decompositions for n = 1..4 must equal those of the spec built in code.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from cfindep.bigreal.poly import IntPoly
from cfindep.numfield import FieldElement
from cfindep.sequences import (
    KINDS,
    Decomposition,
    parse_sequence,
    phi_field,
    polynomial_root_family,
    spec,
    sqrt2_field,
    sqrt_j_family,
)

README = Path(__file__).resolve().parents[1] / "README.md"
BASE_JSON = {"kind": "doubly-exponential", "d": 2}


def _base():
    return spec("doubly-exponential", d=2)


CASES = [
    ({"kind": "constant", "value": "5/2"},
     lambda: spec("constant", value=Fraction(5, 2))),
    ({"kind": "polynomial", "coeffs": ["1", "1/2", 2]},
     lambda: spec("polynomial", coeffs=(Fraction(1), Fraction(1, 2), Fraction(2)))),
    ({"kind": "doubly-exponential", "d": 3, "c": 2},
     lambda: spec("doubly-exponential", d=3, c=2)),
    ({"kind": "pow2-geometric", "d": 3},
     lambda: spec("pow2-geometric", d=3)),
    ({"kind": "hanluc", "j": 1},
     lambda: spec("hanluc", j=1, base=None, field=sqrt2_field())),
    ({"kind": "hanluc", "j": 2, "base": BASE_JSON},
     lambda: spec("hanluc", j=2, base=_base(), field=sqrt2_field())),
    ({"kind": "div-by-j", "j": 2, "base": BASE_JSON},
     lambda: spec("div-by-j", base=_base(), j=2)),
    ({"kind": "harmonic", "j": 2, "base": BASE_JSON},
     lambda: spec("harmonic", base=_base(), j=2)),
    ({"kind": "prime-pi-power", "j": 2, "base": BASE_JSON},
     lambda: spec("prime-pi-power", base=_base(), j=2)),
    ({"kind": "divisor-sqrt2", "variant": "1+d", "base": BASE_JSON},
     lambda: spec("divisor-sqrt2", field=sqrt2_field(), base=_base(), variant="1+d")),
    ({"kind": "phi-powers", "offset": 1, "base": BASE_JSON},
     lambda: spec("phi-powers", field=phi_field(), base=_base(), offset=1)),
    ({"kind": "root-scaled", "poly": [14, -8, 1], "root_index": 2, "base": BASE_JSON},
     lambda: polynomial_root_family(IntPoly.of(14, -8, 1), _base())[1]),
    ({"kind": "sqrt-j-scaled", "K": 3, "j": 2, "base": BASE_JSON},
     lambda: sqrt_j_family(3, _base())[1]),
]


def _key(x):
    """Comparable form; a field element also names its field's polynomial and root."""
    if isinstance(x, FieldElement):
        root = x.field.root_enclosure(32).midpoint()
        return ("element", x.field.minpoly.coeffs, round(float(root), 6), x.coords)
    if isinstance(x, Decomposition):
        return ("decomposition", x.S, _key(x.b), _key(x.c), _key(x.d))
    return x


def test_every_parseable_kind_is_covered():
    assert {d["kind"] for d, _ in CASES} == {name for name, k in KINDS.items() if k.parse}


def test_readme_kind_table_matches_the_code():
    text = README.read_text(encoding="utf-8")
    header = "| kind | fields | base | a_n |\n|---|---|---|---|\n"
    table = text[text.index(header) + len(header):].split("\n\n", 1)[0].splitlines()
    kinds = [row.split("|")[1].strip().strip("`") for row in table]
    assert sorted(kinds) == sorted(name for name, k in KINDS.items() if k.parse)


@pytest.mark.parametrize("desc, build", CASES,
                         ids=[f"{d['kind']}-{d.get('j', '')}" for d, _ in CASES])
def test_descriptor_matches_hand_built_spec(desc, build):
    parsed, expected = parse_sequence(desc), build()
    assert parsed.kind == expected.kind == desc["kind"]
    for n in range(1, 5):
        assert _key(parsed.quotient(n)) == _key(expected.quotient(n)), n
        assert _key(parsed.decomposition(n)) == _key(expected.decomposition(n)), n
