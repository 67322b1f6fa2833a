"""Exception hierarchy shared across the package."""


class Genus2Error(Exception):
    """Base class for all package-specific errors."""


class NotSeparable(Genus2Error):
    """gcd(f, f') is not constant; the sextic has a repeated root."""


class WrongDegree(Genus2Error):
    pass


class RationalBaseUnsupported(Genus2Error):
    """Root finding over Q is not implemented; supply the six roots."""


class Inconsistent(Genus2Error):
    """Linear system A.X = B has no solution."""


class OddMask(Genus2Error):
    """A root subset of odd cardinality where an even one is required."""


class MissingRoots(Genus2Error):
    pass


class DegenerateDivisor(Genus2Error):
    """Divisor touches a Weierstrass point or has equal x-coordinates."""


class NotGeneric(Genus2Error):
    """An addition or sampling step hit a non-generic configuration."""


class ExhaustedAttempts(Genus2Error):
    pass


class InterpolationFailed(Genus2Error):
    pass


class NonUnitDelta(Genus2Error):
    """delta has norm zero, so it is not a unit of L."""


class GammaViolation(Genus2Error):
    """The pair (delta, n) does not satisfy N(delta) = n^2."""


class IdentityPoint(Genus2Error):
    pass


class BadGauge(Genus2Error):
    """The chosen coordinate b_r vanishes at this point; retry with another."""


class BasePoint(Genus2Error):
    """All candidate outputs of a rational map vanish at this point."""


class TIVanishes(Genus2Error):
    """Some scale factor t_I with #I = 3 is zero for this (delta, n, epsilon)."""

    def __init__(self, partitions):
        self.partitions = list(partitions)
        super().__init__(f"t_I vanishes for partitions {self.partitions}")


class RankLoss(Genus2Error):
    """The twisted span is not defined over the ground field, or a set of
    descended forms has rank below 72."""


class MixedParity(Genus2Error):
    """A form has monomials of both [-1]-parities (even.odd and not)."""


class NotDiagonal(Genus2Error):
    """Conjugated translation matrix failed to be diagonal."""
