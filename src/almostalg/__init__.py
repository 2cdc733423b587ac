"""Exact almost mathematics over perfectoid-style base rings.

The library works over two desk-scale base rings (the perfect monoid
ring F_p[t^(1/p^oo)] and its truncations), compares them with a
mixed-characteristic mock through the tilting basis dictionary, and
implements the bilocalization of module categories by the idempotent
ideal m = (t^(1/p^oo)): almost isomorphism certificates, firm/closed
reflections, perfect-complex splitting at the level of classes, the
shriek functors on algebras, a finite-syntomic ladder, tilting tables,
and limit round trips along the Frobenius tower.  Everything is exact
(polynomial arithmetic over F_p, and over Z/p^c in the mixed mock);
there are no floats.
"""

from .base_ring import RingConfig
from .exponents import PExp
from .linalg import PolyMatrix, snf
from .modules import ModuleMap, PresentedModule, iso_test
from .almost import (
    closedify,
    firmify,
    ideal_m,
    is_almost_iso,
    is_almost_zero,
    is_closed,
    is_firm,
    mu_map,
    shriek,
)
from .complexes import ChainComplex, ChainMap, cone, cylinder, homology

__version__ = "0.1.0"

__all__ = [
    "RingConfig", "PExp", "PolyMatrix", "snf",
    "ModuleMap", "PresentedModule", "iso_test",
    "closedify", "firmify", "ideal_m", "is_almost_iso", "is_almost_zero",
    "is_closed", "is_firm", "mu_map", "shriek",
    "ChainComplex", "ChainMap", "cone", "cylinder", "homology",
]
