"""Exception types shared across the library."""


class RegencodeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(RegencodeError, ValueError):
    """Code or field parameters violate a construction requirement."""


class ZeroInverse(RegencodeError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class LengthMismatch(RegencodeError, ValueError):
    """A sequence does not have the length required by the code."""


class SingularMatrix(RegencodeError):
    """A matrix that must be invertible was found singular.

    For Vandermonde submatrices on distinct points this indicates an
    internal fault, not a recoverable input condition.
    """


class DecodeFailure(RegencodeError):
    """The error-erasure decoder could not produce a consistent codeword."""


class DuplicatePosition(RegencodeError, ValueError):
    """A codeword position was delivered to the decoder twice."""


class TooShort(RegencodeError, ValueError):
    """Input is shorter than the appended checksum it must carry."""


class NoMajority(RegencodeError):
    """Replicated checksum recovery found no strict majority."""


class SelfRepair(RegencodeError, ValueError):
    """A node was asked to help regenerate itself."""


class PayloadTooLarge(RegencodeError, ValueError):
    """Payload does not fit the configured code dimensions."""


class OverlappingSets(RegencodeError, ValueError):
    """Crash and Byzantine sets in a fault plan overlap."""


class MalformedChunk(RegencodeError, ValueError):
    """A chunk file's header or body does not match the expected layout."""
