import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from cfindep.bigreal.dyadic import Dyadic
from cfindep.bigreal.interval import DyadicInterval, iv_mul
from cfindep.bigreal.poly import IntPoly, _certified_pairs, complex_root_boxes, isolate_real_roots
from cfindep import numfield
from cfindep.catalog import build_config
from cfindep.errors import DivisionByZero, FieldMismatch, NotMonic, Reducible, RootNotIsolated
from cfindep.numfield import (
    NumberField,
    characteristic_polynomial,
    embeddings,
    field_new,
    house,
    is_algebraic_integer,
    multiquadratic_field,
    sigma_eval,
)
from enclosing import contains


def _sqrt2():
    return field_new(IntPoly.of(-2, 0, 1), DyadicInterval(Dyadic(1), Dyadic(2)))


def _phi():
    return field_new(IntPoly.of(-1, -1, 1), DyadicInterval(Dyadic(1), Dyadic(2)))


def _sqrt5():
    return field_new(IntPoly.of(-5, 0, 1), DyadicInterval(Dyadic(2), Dyadic(3)))


def test_repr_without_a_root_hint():
    assert repr(NumberField(IntPoly.of(-2, 0, 1), None)) == f"NumberField({IntPoly.of(-2, 0, 1)!r})"


def test_division_above_degree_two_strips_integer_contents(monkeypatch):
    # 2**E * x over 2**E * y reaches the elimination as x over y does, so a
    # quotient's 2**E never enters its pivots
    field = build_config("t2", K=3).field
    assert field.degree == 4
    x, y = field.element([Fraction(3, 4), -1, 6, Fraction(5, 2)]), field.element([2, 0, -3, 1])
    scaled = [field.element([c * 2 ** 4096 for c in v.coords]) for v in (x, y)]
    seen = []
    solve = numfield._adjugate_solve

    def recording(f, Y, X):
        seen.append((f, Y, X))
        return solve(f, Y, X)

    monkeypatch.setattr(numfield, "_adjugate_solve", recording)
    assert numfield._divide(*scaled) == numfield._divide(x, y)
    assert seen[0] == seen[1]
    assert numfield._divide(field.zero(), y) == field.zero()  # a zero dividend has no content


def test_field_new_examples():
    k = _sqrt2()
    assert k.degree == 2
    p = _phi()
    assert p.degree == 2
    with pytest.raises(Reducible):
        field_new(IntPoly.of(-4, 0, 1), DyadicInterval(Dyadic(1), Dyadic(3)))
    with pytest.raises(Reducible):  # (x + 1)^2: a repeated root
        field_new(IntPoly.of(1, 2, 1), DyadicInterval(Dyadic(-2), Dyadic(0)))
    with pytest.raises(NotMonic):
        field_new(IntPoly.of(-1, 0, 2), DyadicInterval(Dyadic(0), Dyadic(1)))
    with pytest.raises(RootNotIsolated):
        field_new(IntPoly.of(-2, 0, 1), DyadicInterval(Dyadic(-2), Dyadic(2)))


@pytest.mark.parametrize("earlier_bits", [2, 128, 2000])
def test_root_enclosure_ignores_earlier_requests(earlier_bits):
    # an enclosure is a function of the field and the precision: a wider or
    # narrower request before it changes neither the interval nor its size
    for make in (_sqrt2, _phi):
        k = make()
        k.root_enclosure(earlier_bits)
        got = k.root_enclosure(64)
        assert got == make().root_enclosure(64)
        assert got.width() <= Dyadic(1, -64) and k._root_iv.contains_interval(got)


def test_element_arithmetic_examples():
    k = _sqrt2()
    x = k.element([4, 1])
    y = k.element([4, -1])
    assert (x * y).as_fraction() == 14
    r2 = k.generator()
    inv = r2.inverse()
    assert inv.coords == (Fraction(0), Fraction(1, 2))
    assert (r2 * inv).as_fraction() == 1
    assert (x + (-x)).is_zero()
    with pytest.raises(DivisionByZero):
        k.zero().inverse()


def test_repr_renders_coordinates_past_the_digit_limit():
    # ex2's a_{7,1} at its default N has a 15311-bit coordinate, past the
    # 4300-digit limit of int-to-str conversion
    from cfindep.catalog import build_config

    big = build_config("ex2").sequences[0].quotient(7)
    assert repr(big) == "FieldElement(['0', '<15311-bit>/<1-bit>'])"
    assert repr(-big / 7) == "FieldElement(['0', '-<15311-bit>/<3-bit>'])"
    assert repr(_sqrt2().element([Fraction(-3, 4), 1])) == "FieldElement(['-3/4', '1'])"


def test_field_mismatch_rejected():
    a = _sqrt2().generator()
    b = _phi().generator()
    with pytest.raises(FieldMismatch):
        _ = a + b


def test_ring_axioms_random():
    # spec invariant: associativity and distributivity hold exactly
    k = _sqrt2()
    rng = random.Random(99)

    def rand_elem():
        return k.element([Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(2)])

    for _ in range(500):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert ((a * b) * c).coords == (a * (b * c)).coords
        assert (a * (b + c)).coords == (a * b + a * c).coords
        assert ((a + b) + c).coords == (a + (b + c)).coords


def test_embeddings_quadratics():
    k = _sqrt2()
    e = embeddings(k, 64)
    vals = sorted(float(r.midpoint()) for r in e.real_roots)
    assert abs(vals[0] + 1.41421356) < 1e-6 and abs(vals[1] - 1.41421356) < 1e-6
    assert e.real_roots[0].contains_interval(e.real_roots[0])
    p = _phi()
    ep = embeddings(p, 64)
    vals = sorted(float(r.midpoint()) for r in ep.real_roots)
    assert abs(vals[0] + 0.61803399) < 1e-6 and abs(vals[1] - 1.61803399) < 1e-6


def test_embeddings_cubic_complex_pair():
    k = field_new(IntPoly.of(-2, 0, 0, 1), DyadicInterval(Dyadic(1), Dyadic(2)))
    for prec in (64, 192, 256):
        e = embeddings(k, prec)
        assert len(e.real_roots) == 1 and len(e.complex_pairs) == 1
        # cube-root oracle: real root is 2^(1/3)
        r = e.real_roots[0]
        lo, hi = r.lo.as_fraction(), r.hi.as_fraction()
        assert lo ** 3 <= 2 <= hi ** 3
        re, im = e.complex_pairs[0]
        assert im.lo.sign() > 0
        assert re.width() <= Dyadic(1, -prec) and im.width() <= Dyadic(1, -prec)
        # conjugate pair modulus equals 2^(1/3) as well
        m2 = (re.midpoint().as_fraction() ** 2 + im.midpoint().as_fraction() ** 2)
        assert abs(m2 ** 3 - 4) < Fraction(1, 10**6)
    # the real conjugate 1 + 2^(1/3) + 2^(2/3) is the largest; the pair has modulus ~0.51
    h = house(k.element([1, 1, 1]), 256)
    assert h.width() <= Dyadic(1, -252) * h.mag()
    with mpmath.workprec(1024):
        c = mpmath.cbrt(2)
        value = 1 + c + c * c
        assert mpmath.ldexp(h.lo.man, h.lo.exp) <= value <= mpmath.ldexp(h.hi.man, h.hi.exp)


def _numpy_seeds(p: IntPoly) -> list[complex]:
    """The np.roots seeds of the complex pairs, in the order embeddings took
    them before the Aberth iteration replaced them."""
    scale = max(abs(c) for c in p.coeffs)
    coeffs = [float(Fraction(c, scale)) for c in reversed(p.coeffs)]
    upper = [z for z in map(complex, np.roots(coeffs)) if z.imag > 0]
    return sorted(upper, key=lambda z: (z.real, z.imag))


# Q(cbrt 2); x^6 - 6x + 2 (Eisenstein at 2; two real roots, two pairs);
# x^4 + 3x^2 + 1 (pairs i*phi and i/phi, both of real part 0) and x^6 + 3x^4 - 1
# (two real roots, two purely imaginary pairs), where the seeds' real parts
# differ only by float noise.  The interval isolates the field's real root.
_COMPLEX_FIELDS = {
    "cbrt2": (IntPoly.of(-2, 0, 0, 1), DyadicInterval(Dyadic(1), Dyadic(2))),
    "sextic": (IntPoly.of(2, -6, 0, 0, 0, 0, 1), DyadicInterval(Dyadic(1), Dyadic(2))),
    "imaginary4": (IntPoly.of(1, 0, 3, 0, 1), None),
    "imaginary6": (IntPoly.of(-1, 0, 0, 0, 3, 0, 1), DyadicInterval(Dyadic(1, -1), Dyadic(1))),
}


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(sorted(_COMPLEX_FIELDS)), st.integers(64, 1024))
@example("cbrt2", 1024)
@example("sextic", 1024)
@example("imaginary4", 1024)
@example("imaginary6", 1024)
def test_complex_roots_match_numpy_seeded_path(name, prec):
    p, _ = _COMPLEX_FIELDS[name]
    n_pairs = (p.degree() - len(isolate_real_roots(p))) // 2
    assert complex_root_boxes(p, n_pairs, prec) == _certified_pairs(p, _numpy_seeds(p), prec)


@pytest.mark.parametrize("name, prec", [
    ("cbrt2", 64), ("cbrt2", 256), ("cbrt2", 1024), ("sextic", 64), ("sextic", 200), ("sextic", 1024),
    ("imaginary6", 64), ("imaginary6", 200)])
def test_embeddings_match_numpy_seeded_path(name, prec):
    p, root_iv = _COMPLEX_FIELDS[name]
    e = embeddings(field_new(p, root_iv), prec)
    assert len(e.complex_pairs) == (p.degree() - len(e.real_roots)) // 2 > 0
    assert list(e.complex_pairs) == _certified_pairs(p, _numpy_seeds(p), prec)


def test_sigma_eval_examples():
    k = _sqrt2()
    e = embeddings(k, 96)
    y = k.element([4, -1])  # 4 - sqrt2
    re, im = sigma_eval(e, y, 1)  # second embedding maps sqrt2 -> -sqrt2
    assert im.is_point() and im.lo.sign() == 0
    assert contains(re, Fraction(541421356237, 10**11)) or abs(float(re.midpoint()) - 5.41421356) < 1e-6
    r, i = sigma_eval(e, k.from_rational(Fraction(7, 3)), 0)
    assert contains(r, Fraction(7, 3)) and i.lo.sign() == 0
    for idx in range(2):
        r, i = sigma_eval(e, k.zero(), idx)
        assert contains(r, Fraction(0)) and contains(i, Fraction(0))


def test_house_examples():
    k = _sqrt2()
    r2 = k.generator()
    h = house(r2, 64)
    assert h.lo.as_fraction() ** 2 <= 2 <= h.hi.as_fraction() ** 2
    y = k.element([4, -1])
    h2 = house(y, 64)
    # house(4 - sqrt2) is 4 + sqrt2
    target_sq = 18  # (4+sqrt2)^2 = 18 + 8 sqrt2, compare via interval instead
    assert abs(float(h2.midpoint()) - 5.414213562) < 1e-6
    half = house(k.from_rational(Fraction(1, 2)), 64)
    assert contains(half, Fraction(1, 2))
    assert house(k.zero(), 64).is_point()


def test_house_width_bound():
    k = _sqrt2()
    x = k.element([3, 5])
    prec = 80
    h = house(x, prec)
    assert h.width().as_fraction() <= Fraction(2) ** (-prec + 4) * max(1, abs(h.hi.as_fraction()))


def test_is_algebraic_integer_examples():
    k5 = _sqrt5()
    phi = k5.element([Fraction(1, 2), Fraction(1, 2)])
    assert is_algebraic_integer(phi)
    assert characteristic_polynomial(phi) == [Fraction(-1), Fraction(-1), Fraction(1)]
    k = _sqrt2()
    assert not is_algebraic_integer(k.element([0, Fraction(1, 2)]))
    assert is_algebraic_integer(k.from_rational(7))
    assert not is_algebraic_integer(k.from_rational(Fraction(7, 2)))


def _norm(x) -> Fraction:
    """Product of the conjugates of x from its characteristic polynomial
    chi: (-1)^D * chi(0)."""
    return (-1) ** x.field.degree * characteristic_polynomial(x)[0]


def _sympy_norm(x) -> Fraction:
    """Res_t(f, g) for the field polynomial f and the coordinates g of x."""
    t = sympy.Symbol("t")
    f = sum(c * t ** i for i, c in enumerate(x.field.minpoly.coeffs))
    g = sum(sympy.Rational(c.numerator, c.denominator) * t ** i for i, c in enumerate(x.coords))
    return Fraction(str(sympy.resultant(f, g, t)))


def test_norm_integrality_random():
    # spec invariant: the exact norm of an algebraic integer is an integer
    k = _sqrt2()
    rng = random.Random(4)
    for _ in range(50):
        x = k.element([rng.randint(-30, 30), rng.randint(-30, 30)])
        n = _sympy_norm(x)
        assert n.denominator == 1 and (x.is_zero() or _norm(x) == n)
        # cross-check: norm of (a + b sqrt2) is a^2 - 2 b^2
        a, b = x.coords
        assert n == a * a - 2 * b * b


def test_embedding_homomorphism_property():
    k = _sqrt2()
    rng = random.Random(12)
    e = embeddings(k, 96)
    for _ in range(50):
        a = k.element([rng.randint(-9, 9), rng.randint(-9, 9)])
        b = k.element([rng.randint(-9, 9), rng.randint(-9, 9)])
        for i in range(2):
            ra, _ = sigma_eval(e, a, i)
            rb, _ = sigma_eval(e, b, i)
            rab, _ = sigma_eval(e, a * b, i)
            assert rab.intersects(iv_mul(ra, rb, 96))


def test_house_submultiplicative():
    k = _sqrt2()
    rng = random.Random(3)
    for _ in range(30):
        x = k.element([rng.randint(-9, 9), rng.randint(-9, 9)])
        y = k.element([rng.randint(-9, 9), rng.randint(-9, 9)])
        if x.is_zero() or y.is_zero():
            continue
        hxy = house(x * y, 64)
        hx, hy = house(x, 64), house(y, 64)
        assert hxy.lo.as_fraction() <= hx.hi.as_fraction() * hy.hi.as_fraction() * (1 + Fraction(1, 2**50))


def test_multiquadratic_compositum():
    fld, sqrt_of = multiquadratic_field((2, 3))
    assert fld.degree == 4
    assert fld.minpoly.coeffs == (1, 0, -10, 0, 1)
    s2 = sqrt_of(2)
    s3 = sqrt_of(3)
    assert (s2 * s2).as_fraction() == 2
    assert (s3 * s3).as_fraction() == 3
    s6 = s2 * s3
    assert (s6 * s6).as_fraction() == 6
    assert sqrt_of(4).as_fraction() == 2
    assert (sqrt_of(8) * sqrt_of(8)).as_fraction() == 8
    assert is_algebraic_integer(s2) and is_algebraic_integer(s3)
    # 5 sqrt 2 lies in Q(sqrt 2, sqrt 3), though 50 is not squarefree
    assert sqrt_of(50) == 5 * s2 and sqrt_of(12) == 2 * s3
    with pytest.raises(ValueError):
        sqrt_of(28)


@pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5)])
def test_multiquadratic_compositum_matches_sympy(primes):
    fld, sqrt_of = multiquadratic_field(primes)
    y = sympy.Symbol("y")
    theta = sum(sympy.sqrt(p) for p in primes)
    expected = sympy.Poly(sympy.minimal_polynomial(theta, y), y).all_coeffs()[::-1]
    assert list(fld.minpoly.coeffs) == expected
    for p in primes:
        coords = sqrt_of(p).coords
        value = sum(sympy.Rational(c.numerator, c.denominator) * theta ** i for i, c in enumerate(coords))
        assert sympy.expand(value) == sympy.sqrt(p)


def test_sign_at_identity():
    k = _sqrt2()
    assert k.element([4, -1]).sign_at_identity() == 1
    assert k.element([-4, 1]).sign_at_identity() == -1  # sqrt2 - 4 < 0
    assert (k.generator() - Fraction(3, 2)).sign_at_identity() == -1
    assert (k.generator() - Fraction(7, 5)).sign_at_identity() == 1
    assert k.zero().sign_at_identity() == 0


# Q(sqrt 2), Q(cbrt 2) and the field of x^4 + 3x^2 + 1, and the last two
# again with the generator shifted by 1, whose defining polynomials have every
# coefficient nonzero, so each trace Tr(theta^k) takes every term of Newton's
# identities.  The quartics have no real root for field_new to select, so
# they are built directly: minimal polynomials and norms are the same at
# every conjugate, and sympy may take any root.
_ORACLE_FIELDS = {
    "sqrt2": (IntPoly.of(-2, 0, 1), sympy.sqrt(2)),
    "cbrt2": (IntPoly.of(-2, 0, 0, 1), sympy.cbrt(2)),
    "imaginary4": (IntPoly.of(1, 0, 3, 0, 1), sympy.I * sympy.GoldenRatio),
    "1+cbrt2": (IntPoly.of(-3, 3, -3, 1), 1 + sympy.cbrt(2)),
    "1+imaginary4": (IntPoly.of(5, -10, 9, -4, 1), 1 + sympy.I * sympy.GoldenRatio),
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_ORACLE_FIELDS)),
       st.lists(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)), min_size=4, max_size=4))
@example("imaginary4", [Fraction(0), Fraction(0), Fraction(1), Fraction(0)])  # in Q(sqrt 5)
@example("cbrt2", [Fraction(-7, 3), Fraction(0), Fraction(0), Fraction(0)])
def test_norm_and_minimal_polynomial_match_sympy(name, coords):
    poly, root = _ORACLE_FIELDS[name]
    # chi = m^(D / deg m) for sympy's minimal polynomial m of x
    x = NumberField(poly, None).element(coords[:poly.degree()])
    assert _norm(x) == _sympy_norm(x)
    t, y = sympy.symbols("t y")
    g = sum(sympy.Rational(c.numerator, c.denominator) * t ** i for i, c in enumerate(x.coords))
    m = sympy.Poly(sympy.minimal_polynomial(g.subs(t, root), y), y).monic()
    expected = (m ** (poly.degree() // m.degree())).all_coeffs()[::-1]
    assert characteristic_polynomial(x) == [Fraction(str(c)) for c in expected]


# x / y against sympy's algebraic field: random monic irreducible quadratics
# and cubics, and the compositum Q(sqrt 2, sqrt 3) of t2 at K = 3
_T = sympy.symbols("t")


def _sympy_field(poly: IntPoly):
    return sympy.QQ.algebraic_field(sympy.CRootOf(sympy.Poly(poly.coeffs[::-1], _T), 0))


def _to_sympy(K, x):
    return K([sympy.QQ(c.numerator, c.denominator) for c in reversed(x.coords)])


def _from_sympy(a, degree: int) -> tuple:
    coords = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(a.to_list())]
    return tuple(coords + [Fraction(0)] * (degree - len(coords)))


@st.composite
def _division_cases(draw):
    shape = draw(st.sampled_from(["quadratic", "cubic", "t2"]))
    if shape == "t2":
        from cfindep.catalog import build_config

        poly = build_config("t2", K=3).field.minpoly
    else:
        low = draw(st.lists(st.integers(-20, 20), min_size=2 if shape == "quadratic" else 3,
                            max_size=2 if shape == "quadratic" else 3))
        poly = IntPoly.of(*low, 1)
        assume(sympy.Poly(poly.coeffs[::-1], _T).is_irreducible)
    D = poly.degree()

    def coords():  # numerators of up to 10^4 bits over denominators of up to 64
        bits = draw(st.sampled_from([4, 64, 10_000]))
        return draw(st.lists(st.builds(Fraction, st.integers(-2 ** bits, 2 ** bits),
                                       st.integers(1, 2 ** min(bits, 64))), min_size=D, max_size=D))

    x, y = coords(), coords()
    divisor = draw(st.sampled_from(["dense", "zero coordinate", "rational"]))
    if divisor == "rational":
        y[1:] = [Fraction(0)] * (D - 1)
    elif divisor == "zero coordinate":
        y[draw(st.integers(0, D - 1))] = Fraction(0)
    assume(any(y))
    field = NumberField(poly, None)
    return field, field.element(x), field.element(y)


@settings(max_examples=60, deadline=None)
@given(_division_cases())
def test_division_matches_sympy(case):
    field, x, y = case
    K = _sympy_field(field.minpoly)
    X, Y = _to_sympy(K, x), _to_sympy(K, y)
    assert (x / y).coords == _from_sympy(X / Y, field.degree)
    assert y.inverse().coords == _from_sympy(K.one / Y, field.degree)
    assert (x / y) * y == x
    assert Fraction(3, 7) / y == y.inverse() * Fraction(3, 7)
    for zero in (0, Fraction(0), field.zero()):
        with pytest.raises(DivisionByZero):
            x / zero
