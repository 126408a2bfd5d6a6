"""covquant: exact computation for covering quantum (super)groups.

The package realizes the half covering quantum group as a free algebra
modulo the radical of its bilinear form, builds crystal and canonical
bases, truncated highest-weight modules, and verifies the twistor
isomorphisms relating the pi = 1 and pi = -1 specializations.
"""

__version__ = "0.1.0"

from .scalars import (  # noqa: F401
    GaussianRational,
    LaurentPoly,
    PiScalar,
    RationalFn,
    qbinomial,
    qfactorial,
    qinteger,
    qinteger_signed,
)
