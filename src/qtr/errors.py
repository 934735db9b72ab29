"""Exception types. Each field-input error names the violated hypothesis."""


class FieldInputError(ValueError):
    """A pair (ell, n) that does not describe a field in the supported family,
    or one whose answer would take more than a budgeted amount of work."""


class EllNotPrime(FieldInputError):
    pass


class EllNotFiveMod8(FieldInputError):
    pass


class NNotPositive(FieldInputError):
    pass


class NotSquarefree(FieldInputError):
    pass


class NotCoprime(FieldInputError):
    pass


class PeriodBudgetExceeded(FieldInputError):
    """The unit of ell has a continued-fraction period past quad._PERIOD_BUDGET."""


class FactorBudgetExceeded(FieldInputError):
    """Pollard-Brent took more than ntheory._RHO_BUDGET steps on a factor of n."""


class JobsNotPositive(ValueError):
    """A scan asked for fewer than one worker process."""


class NotQuadraticResidue(ValueError):
    """Quartic residue symbol requested for a non-residue; the symbol is undefined."""


class InternalCheckError(RuntimeError):
    """A built-in cross-check failed; this is a bug, not a user error."""
