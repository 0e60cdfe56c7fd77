"""Shared exception types.

Everything raised on purpose by this package derives from FFHyperError, so
callers (and the CLI) can distinguish domain problems from genuine bugs.
"""


class FFHyperError(Exception):
    pass


class NotPrime(FFHyperError):
    def __init__(self, p):
        super().__init__(f"characteristic must be prime, got {p}")
        self.p = p


class TooLarge(FFHyperError):
    def __init__(self, q, limit):
        super().__init__(f"field order {q} exceeds the configured maximum {limit}")
        self.q = q
        self.limit = limit


class ZeroInverse(FFHyperError):
    def __init__(self):
        super().__init__("0 has no multiplicative inverse")


class ZeroLog(FFHyperError):
    def __init__(self):
        super().__init__("discrete log of 0 is undefined")


class OrderMismatch(FFHyperError):
    def __init__(self, a, b):
        super().__init__(f"cyclotomic orders differ: {a} vs {b}")


class FieldMismatch(FFHyperError):
    def __init__(self):
        super().__init__("operands belong to different fields")


class InexactDivision(FFHyperError):
    def __init__(self, divisor):
        super().__init__(
            f"not exactly divisible by {divisor}; this indicates a bug"
        )


class UnknownIdentity(FFHyperError):
    def __init__(self, ident):
        super().__init__(f"unknown identity {ident!r}")
        self.ident = ident


class CapExceeded(FFHyperError):
    def __init__(self, size, cap):
        super().__init__(
            f"exhaustive domain has {size} assignments, above the cap {cap}; "
            "use sampled mode"
        )
        self.size = size
        self.cap = cap


class SamplingGaveUp(CapExceeded):
    """Sampled mode reached its attempt cap: the constraints reject most draws."""

    def __init__(self, attempts, accepted, count, constraint, rejected):
        FFHyperError.__init__(
            self,
            f"sampling gave up after {attempts} attempts with {accepted} of "
            f"{count} draws accepted; {rejected} draws violated {constraint!r}",
        )
        self.size = self.cap = attempts


class DomainViolation(FFHyperError):
    pass


class Diverged(FFHyperError):
    def __init__(self, x):
        super().__init__(f"series argument |{x}| >= 1 is outside the convergence disc")
