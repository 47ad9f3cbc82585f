"""Exception types shared across the package.

Every error raised by the library derives from DomainError, so callers
(notably the CLI) can separate domain/validation failures from genuine
I/O or programming errors. The class name states the violated invariant.
"""


class DomainError(ValueError):
    """Base class for all validation and domain-contract violations."""


class NonFinite(DomainError):
    """Input contains NaN or Inf entries."""


class NoConvergence(DomainError):
    """A decomposition failed to converge, or a basis failed its orthonormality check."""


class NotHermitian(DomainError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotNormalized(DomainError):
    """A state vector is not unit-norm under a strict policy."""


class RegimeViolation(DomainError):
    """A state set is not 2-d with M >= 1 and D > M+1 (``stateset.check_regime``).

    Evolution also raises it for a chain with n < 2, too large a step phase,
    a non-finite dt or span, and a Hamiltonian of the wrong shape.
    """


class DimMismatch(DomainError):
    """Operand dimensions are incompatible."""


class BadDimension(DomainError):
    """Requested coarse dimension d lies outside [2, M+1]."""


class ZeroNorm(DomainError):
    """Truncated state has norm below the renormalization cutoff."""


class NotPowerOfTwo(DomainError):
    """Hilbert-space dimension is not 2**n for integer n."""


class BadQubitIndex(DomainError):
    """Qubit index lies outside 1..n."""


class NotDensityMatrix(DomainError):
    """Matrix fails trace-one or positive-semidefiniteness checks."""
