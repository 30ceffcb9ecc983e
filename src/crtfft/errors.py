"""Exception types shared across the package."""


class CrtFftError(Exception):
    """Base class for all library errors."""


class NotCoprimeError(CrtFftError):
    """Two moduli (or a value and its modulus) share a common factor."""


class NonFiniteError(CrtFftError):
    """A buffer contains NaN or infinite samples."""


class OracleCapExceededError(CrtFftError):
    """A computation was requested above a size budget or supported maximum."""


class ParseError(CrtFftError):
    """A serialized artifact (spectrum, certificate, config) is malformed."""


class DuplicateFrequencyError(CrtFftError):
    """A sparse spectrum lists the same frequency twice."""


class OutOfRangeError(CrtFftError):
    """A frequency or bin is not an integer in the range it was declared on."""


class DenseRegimeError(CrtFftError):
    """The sparsity ratio is too high for a fast-path plan."""


class StrideMismatchError(CrtFftError):
    """A view modulus does not divide the working grid length."""
