"""covquant: exact computation for covering quantum (super)groups.

The package realizes the half covering quantum group as a free algebra
modulo the radical of its bilinear form, builds crystal and canonical
bases, truncated highest-weight modules, and verifies the twistor
isomorphisms relating the pi = 1 and pi = -1 specializations.

The scalar types below are read from scalars on first use, so importing
the package (as every CLI run does) does not load that module.
"""

__version__ = "0.1.0"

__all__ = ["GaussianRational", "LaurentPoly", "PiScalar", "RationalFn",
           "qbinomial", "qfactorial", "qinteger", "qinteger_signed"]


def __getattr__(name):
    if name in __all__:
        from . import scalars
        return getattr(scalars, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
