"""Domain exceptions shared across the package.

The CLI reports each of these exceptions by its class name verbatim, so
callers can dispatch on the name without parsing messages.
"""


class DomainError(Exception):
    """Base class for contract violations in the topology pipelines."""


class NotCoprimeError(DomainError):
    """Two integers required to be coprime are not."""


class NotNormalizedError(DomainError):
    """A Laurent polynomial fails the p(1) = 1 or p(t) = p(1/t) normalization."""


class UnsupportedFiberCountError(DomainError):
    """Seifert data does not reduce to exactly three exceptional fibers."""


class InfiniteH1Error(DomainError):
    """First homology is infinite where a finite group is required."""


class EvenOrderError(DomainError):
    """First homology has even order where an odd order is required."""


class NotHomologyS1xS2Error(DomainError):
    """Seifert data does not describe a homology S^1 x S^2."""


class FlatCobordismError(DomainError):
    """The product-equals-lcm-times-order divisibility condition fails."""


class InconsistentLkError(DomainError):
    """No admissible rank split is compatible with the given linking number."""
