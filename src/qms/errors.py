"""Exception hierarchy for the qms package.

Every exception carries enough context (offending residual, tolerance,
condition names) to be reported verbatim by the CLI layer.
"""


class QMSError(Exception):
    """Base class for all package errors."""


# --- shape / input validation -------------------------------------------------

class DimensionMismatch(QMSError):
    """Operands have incompatible shapes."""


class NotHermitian(QMSError):
    """Matrix fails the Hermiticity precondition."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"matrix is not Hermitian: relative residual {residual:.3e} > {tol:.3e}"
        )


class NotPositiveDefinite(QMSError):
    """Matrix fails positive definiteness (or conditioning) requirements."""


class NotPSD(QMSError):
    """Gram matrix has an eigenvalue below the negativity gate."""

    def __init__(self, min_eig, gate):
        self.min_eig = min_eig
        self.gate = gate
        super().__init__(
            f"matrix is not PSD: min eigenvalue {min_eig:.3e} < gate {gate:.3e}"
        )


class NoConvergence(QMSError):
    """The eigensolver backend failed to converge."""


# --- semigroup / generator checks --------------------------------------------

class InvalidJumpSystem(QMSError):
    """One or more of the four jump-system conditions failed."""

    def __init__(self, failed):
        self.failed = dict(failed)
        names = ", ".join(sorted(self.failed))
        super().__init__(f"jump system violates condition(s): {names}")


class NegativeTime(QMSError):
    """Semigroup evaluation requested at t < 0."""


class NotGNSSymmetric(QMSError):
    """Map is not self-adjoint for the weighted inner product."""


class NotConditionallyCP(QMSError):
    """Kossakowski matrix of the generator is not PSD."""


class NotContractive(QMSError):
    """P_t = e^{-tL} overflows: L generates no Markov (contractive) semigroup."""


# --- bimodule / reconstruction ------------------------------------------------

class NotInGeneratedSpan(QMSError):
    """Vector cannot be expressed in the generator-form span."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"vector outside generated span: residual {residual:.3e} > {tol:.3e}"
        )


class GramNotPSD(QMSError):
    """Reconstruction Gram matrix failed the PSD gate."""


class RankUndecided(QMSError):
    """The Gram rank cutoff keeps an eigenvalue of T in some right blocks and
    drops it in others."""


class SizeLimitExceeded(QMSError):
    """A stage would hold over ``sampling._STAGE_BYTES`` at its peak."""


class NotFixedPoint(QMSError):
    """Vector fails the required antilinear fixed-point condition."""


# --- CLI ----------------------------------------------------------------------

class ScenarioParseError(QMSError):
    """Scenario file does not parse against the schema."""
