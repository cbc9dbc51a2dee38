"""Exception hierarchy for the qkl engine."""


class QKLError(Exception):
    """Base class for all qkl errors."""


class ParamError(QKLError):
    """A parameter violates a structural precondition (wrong range, wrong type)."""


class PoleError(QKLError):
    """Evaluation at (or numerically indistinguishable from) a pole."""


class DomainError(QKLError):
    """Argument outside the mathematical domain of the operation."""


class RangeError(QKLError):
    """Argument outside the supported numerical range."""


class PrecisionError(QKLError):
    """An evaluation missed its digit target at every precision it tried."""


class DivergenceError(QKLError):
    """A non-terminating series was requested outside its convergence region."""


class DenominatorPoleError(PoleError):
    """A lower series parameter hits a nonpositive integer / q^{-m} before termination."""


class VWPoleError(PoleError):
    """Very-well-poised series with special parameter a = 1."""


class RealityError(QKLError):
    """A provably real quantity evaluated with an imaginary residue above tolerance."""


class DegreeError(QKLError):
    """Polynomial degree outside the admissible range (e.g. Hahn n > N)."""


class HypothesisError(QKLError):
    """Identity-case parameters violate the printed hypotheses of the identity."""


class ConvergenceError(QKLError):
    """Adaptive quadrature could not reach the requested error estimate."""
