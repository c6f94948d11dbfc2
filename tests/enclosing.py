"""Exact containment for the tests: an interval's endpoints against a rational."""

from fractions import Fraction


def contains(iv, x) -> bool:
    """lo <= x <= hi for an int, Fraction or Dyadic x, compared as Fractions."""
    x = x.as_fraction() if hasattr(x, "as_fraction") else Fraction(x)
    return iv.lo.as_fraction() <= x <= iv.hi.as_fraction()
