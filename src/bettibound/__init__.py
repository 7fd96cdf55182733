"""Certified first-Betti-number bounds on triangulated closed surfaces.

The library verifies, exactly on finite weighted measure spaces, the
operator inequalities that drive kernel-dimension bounds from Schatten
norms of heat semigroup differences, and applies them end to end to
compute certified upper bounds on b1 of closed surfaces, cross-checked
against independent homology oracles.

Importing the package loads nothing else: every name is imported from
the module that defines it (``bettibound.pipeline``, ``bettibound.cli``
and so on).
"""

__version__ = "0.1.0"
