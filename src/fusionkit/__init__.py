"""Fusion coefficients of type-A affine Lie algebras at level k.

Three independent computation routes over one basis:

* ``fusion``: Schur-polynomial quotient ring with level-k Pieri rules and
  Jacobi-Trudi iteration;
* ``orbits``: arithmetic of S_k-orbits of Z_N^k, raw and fixed products;
* ``weyl``: tableau Racah-Speiser and Kac-Walton algorithms;

plus ``duality`` for simple-current quotients and type-A rank-level duality,
``crosscheck`` for relations between two routes, and a ``fusionkit``
command-line front end.
"""

from .partitions import FusionContext, fusion_context

__all__ = ["FusionContext", "fusion_context"]
__version__ = "0.1.0"
