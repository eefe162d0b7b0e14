"""Exception types shared across the package."""


class KmlatError(Exception):
    """Base class for all domain errors raised by this package."""


class NonPrime(KmlatError):
    pass


class DegreeTooLarge(KmlatError):
    pass


class DivisionByZero(KmlatError):
    pass


class SpecMismatch(KmlatError):
    """Operands belong to different field specifications."""


class DegreeWindowExceeded(KmlatError):
    """A Laurent polynomial left the supported degree window."""


class NonInvertible(KmlatError):
    pass


class ZeroDeterminant(KmlatError):
    pass


class OddCharacteristic(KmlatError):
    """Raised when an operation requires characteristic two."""


class WindowTooLarge(KmlatError):
    pass


class SizeCapExceeded(KmlatError):
    pass


class NotASubgroup(KmlatError):
    pass


class NotFound(KmlatError):
    pass


class UnsupportedActionDomain(KmlatError):
    pass


class MalformedWord(KmlatError):
    pass


class InvalidInput(KmlatError):
    pass


class MinUndefined(KmlatError):
    pass


class KindInadmissible(KmlatError):
    pass
