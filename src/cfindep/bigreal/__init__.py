"""Arbitrary-precision dyadic interval arithmetic and rigorous root refinement."""
