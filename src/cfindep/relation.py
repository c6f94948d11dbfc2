"""Integer-relation detection via exact-integer lattice reduction.

The reduction is the classical all-integer LLL (Gram determinants d_i and
scaled coefficients lambda_{i,j}; no floating-point Gram-Schmidt) with the
Lovasz parameter fixed at delta = 99/100.  A relation search for m values
at height H and precision P builds the standard scaled-value lattice, rows
(c, c . x) for x the midpoints scaled by 2^s, and reduces it in stages whose
scale s starts at STEP bits (or P, if smaller) and grows by STEP bits up to
P, so each reduction sees entries of about s/m + STEP bits.  Any candidate
from the last stage is verified against the input enclosures at doubled
precision before it is reported.

After each stage below P the search stops early with ``none_below_height``
when the Gram determinants d_i of the reduced basis satisfy

    d_{i+1} > (m H^2 + (m H + slack)^2) d_i  for every i,  slack = 2^max(0, s - P//2).

Then every Gram-Schmidt norm^2, and so lambda_1^2, exceeds that bound.  A
candidate c with 0 < max|c_i| <= H passes the final verification only if
|c . mid| < 2^-(P//2); rounding the scaled midpoints then gives
|c . x| < m H + slack, so (c, c . x) would be a lattice vector inside the
bound.  The full search would therefore have reported ``none_below_height``
too.  The argument holds at every scale s <= P: the rows carry a unimodular
coefficient basis, so every integer c stays reachable from the first stage
on, and the stop can fire as early as the STEP-bit stage.

A ``none_below_height`` outcome is an empirical certificate relative to the
chosen height and precision; it is never a proof of linear independence.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .bigreal.dyadic import Dyadic
from .bigreal.interval import DyadicInterval, iv_add, iv_mul, singleton
from .errors import PrecisionTooLow, RankDeficient
from .numfield import NumberField

__all__ = [
    "RelationResult",
    "LLL_DELTA",
    "lll_reduce",
    "find_relation",
    "find_relation_over_field",
    "none_wording",
]

LLL_DELTA = Fraction(99, 100)

# Bits of scale of the first stage of a relation search and added per later
# stage (chosen by timing planted relations of 4 to 9 values at 2048 and
# 4096 bits).
STEP = 128


def none_wording(height: int, precision: int) -> str:
    return (
        f"empirical certificate relative to (H={height}, P={precision}); "
        "not a proof of linear independence"
    )


# ---------------------------------------------------------------------------
# exact-integer LLL
# ---------------------------------------------------------------------------

def _init_gram(b: list[list[int]]):
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for k in range(j):
                u = (d[k + 1] * u - lam[i][k] * lam[j][k]) // d[k]
            if j < i:
                lam[i][j] = u
            else:
                if u <= 0:
                    raise RankDeficient("basis rows are linearly dependent")
                d[i + 1] = u
    return d, lam


def lll_reduce(basis: list[list[int]]) -> list[list[int]]:
    """Exact-integer LLL reduction of the given row basis.

    Returns the reduced rows, a unimodular image of the input rows.  Raises
    RankDeficient for dependent rows.
    """
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n == 0:
        return []
    width = len(b[0])
    if any(len(row) != width for row in b):
        raise ValueError("ragged basis")
    d, lam = _init_gram(b)
    num, den = LLL_DELTA.numerator, LLL_DELTA.denominator

    def red(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = 1
    while k < n:
        red(k, k - 1)
        lk = lam[k][k - 1]
        if den * (d[k + 1] * d[k - 1] + lk * lk) < num * d[k] * d[k]:
            # Lovasz condition fails: swap rows k-1 and k
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            new_dk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (new_dk * t + lk * lam[i][k]) // d[k + 1]
            d[k] = new_dk
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return b


# ---------------------------------------------------------------------------
# relation search
# ---------------------------------------------------------------------------

class RelationResult:
    """``status`` is "found" or "none_below_height"."""

    def __init__(self, status: str, coefficients: list[int] | None, height_bound: int,
                 precision: int, residual: DyadicInterval | None, statement: str,
                 lattice_dim: tuple[int, int], k_coefficients: list | None = None):
        self.status, self.coefficients, self.height_bound = status, coefficients, height_bound
        self.precision, self.residual, self.statement = precision, residual, statement
        self.lattice_dim, self.k_coefficients = lattice_dim, k_coefficients

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is RelationResult else NotImplemented

    @property
    def found(self) -> bool:
        return self.status == "found"


def _scaled_midpoints(values: list[DyadicInterval], scale_bits: int) -> list[int]:
    out = []
    for v in values:
        f = v.midpoint().as_fraction() * (1 << scale_bits)
        out.append(round(f))
    return out


def _combination(values: list[DyadicInterval], coeffs: list[int], prec: int) -> DyadicInterval:
    acc = singleton(0)
    for c, v in zip(coeffs, values):
        if c:
            acc = iv_add(acc, iv_mul(singleton(c), v, prec), prec)
    return acc


def _normalize(coeffs: list[int]) -> list[int]:
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    if g > 1:
        coeffs = [c // g for c in coeffs]
    lead = next((c for c in coeffs if c), 1)
    if lead < 0:
        coeffs = [-c for c in coeffs]
    return coeffs


def _none(m: int, height: int, precision: int) -> RelationResult:
    return RelationResult(
        "none_below_height", None, height, precision, None,
        none_wording(height, precision), (m, m + 1),
    )


def _rules_out(reduced: list[list[int]], height: int, slack: int) -> bool:
    """True when the lattice has no vector (c, c . x) with 0 < max|c_i| <= height
    and |c . x| < m * height + slack.

    Such a vector has norm^2 below bound = m H^2 + (m H + slack)^2, and
    lambda_1^2 is at least the smallest Gram-Schmidt norm^2 d_{i+1} / d_i.
    """
    m = len(reduced)
    bound = m * height * height + (m * height + slack) ** 2
    d, _ = _init_gram(reduced)
    return all(d[i + 1] > bound * d[i] for i in range(m))


def find_relation(values: list[DyadicInterval], height: int, precision: int) -> RelationResult:
    """Search for integers c with sum c_i * values_i = 0 and max|c| <= height.

    Inputs must be enclosures of width <= 2**-precision.  The lattice is
    reduced at scales STEP, 2*STEP, ... and finally ``precision`` bits.
    Candidates from the last reduction are verified in interval arithmetic at
    doubled precision; ``found`` requires the verified residual to contain
    zero with width below 2**(-precision//2).  An earlier stage returns
    ``none_below_height`` at once when every Gram-Schmidt norm^2 of its
    reduced basis exceeds m*H^2 + (m*H + slack)^2, the test of the module
    docstring: no candidate could then pass the verification.
    """
    m = len(values)
    if m < 2:
        raise ValueError("need at least two values")
    if height < 1:
        raise ValueError("height must be >= 1")
    wmax = Dyadic(1, -precision)
    for v in values:
        if v.width() > wmax:
            raise PrecisionTooLow("input enclosure wider than 2^-precision")

    scales = list(range(min(precision, STEP), precision, STEP)) + [precision]
    # rows are (c, c . x), so the first m columns of a reduced basis carry
    # the coefficient vectors into the next, finer stage
    coeffs = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for s_bits in scales:
        x = _scaled_midpoints(values, s_bits)
        reduced = lll_reduce([c + [sum(ci * xi for ci, xi in zip(c, x))] for c in coeffs])
        coeffs = [row[:m] for row in reduced]
        if s_bits < precision and _rules_out(reduced, height,
                                             1 << max(0, s_bits - precision // 2)):
            return _none(m, height, precision)

    # inspect candidates by ascending norm
    order = sorted(range(m), key=lambda i: sum(c * c for c in reduced[i]))
    verify_prec = 2 * precision + 16
    residual_cap = Dyadic(1, -(precision // 2))
    for idx in order:
        c = _normalize(reduced[idx][:m])
        if all(v == 0 for v in c):
            continue
        if max(abs(v) for v in c) > height:
            continue
        resid = _combination(values, c, verify_prec)
        if resid.contains_zero() and resid.width() < residual_cap:
            return RelationResult(
                "found", c, height, precision, resid,
                "verified integer relation; residual enclosure contains zero",
                (m, m + 1),
            )
    return _none(m, height, precision)


def find_relation_over_field(values: list[DyadicInterval], field: NumberField,
                             height: int, precision: int) -> RelationResult:
    """Relation search over a number field via an expanded coefficient basis.

    Searches integer relations among {theta^i * v_j} union {theta^i}, i < D;
    a field relation with coefficients in Z[theta] exists exactly when such
    an expanded relation does.  Found coefficients map back to field
    elements (A_1, ..., A_M, A_0).
    """
    d = field.degree
    m = len(values)
    work = precision + 16 + 8 * d
    theta = field.root_enclosure(work)
    basis_encs = [singleton(1)]
    for _ in range(d - 1):
        basis_encs.append(iv_mul(basis_encs[-1], theta, work))
    expanded: list[DyadicInterval] = []
    for v in values:
        for be in basis_encs:
            expanded.append(iv_mul(v, be, work))
    expanded.extend(basis_encs)
    wmax = Dyadic(1, -precision)
    for v in expanded:
        if v.width() > wmax:
            raise PrecisionTooLow("expanded enclosure wider than 2^-precision; "
                                  "tighten the input values")
    res = find_relation(expanded, height, precision)
    if res.found:
        c = res.coefficients
        res.k_coefficients = [field.element(c[j * d:(j + 1) * d]) for j in range(m + 1)]
    return res
