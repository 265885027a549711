"""Exception types shared across the package."""


class RelclassError(Exception):
    """Base class for all package errors."""


class NonSquarefree(RelclassError):
    pass


class DegreeUnsupported(RelclassError):
    pass


class MixedFields(RelclassError):
    pass


class InvalidArgument(RelclassError):
    """An argument outside what the command or the field takes, such as a
    radicand or an omega-coordinate over Q, or an unreadable flag value."""


class SearchBudgetExceeded(RelclassError):
    """A bounded search ran out of budget; the answer is undecided, never guessed."""


class NontrivialBaseClassGroup(RelclassError):
    """The computation is implemented only over base fields with h_F = 1."""


class NotTotallyNegative(RelclassError):
    pass


class NotIntegral(RelclassError):
    pass


class DecompositionFailed(RelclassError):
    pass


class DegenerateForm(RelclassError):
    pass


class NotFundamental(RelclassError):
    pass


class LemmaViolation(RelclassError):
    """A computation contradicted a proved statement; signals a bug, treated as fatal."""


class InequalityViolated(RelclassError):
    pass


class BoundViolated(RelclassError):
    pass


class TruncationTooLarge(RelclassError):
    pass


class OutOfRegion(RelclassError):
    pass


class NonQuadraticCharacter(RelclassError):
    pass


class LevelNotSquarefree(RelclassError):
    pass


class OutOfTableRange(RelclassError):
    pass


class InsufficientCoefficients(RelclassError):
    pass


class StrategyUnavailable(RelclassError):
    pass


class NoFeasibleLambda(RelclassError):
    pass


class LambdaTooSmall(RelclassError):
    pass


class AssumptionViolated(RelclassError):
    pass


class ParityFails(RelclassError):
    pass


class CriterionFails(RelclassError):
    pass


class NoRepresentedValueFound(RelclassError):
    pass
