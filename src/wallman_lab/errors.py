"""Exception hierarchy shared by all modules."""


class WallmanLabError(Exception):
    """Base class for every error raised by this package."""


class MalformedTables(WallmanLabError):
    """Ragged tables or element indices out of range."""


class LatticeLawViolation(WallmanLabError):
    """One or more lattice laws fail; carries (law, witness) pairs."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ", ".join(f"{law}{witness}" for law, witness in self.violations)
        super().__init__(f"lattice laws violated: {lines}")


class NotDistributive(WallmanLabError):
    pass


class NotPliand(WallmanLabError):
    pass


class NonCanonicalInput(WallmanLabError):
    pass


class NotDisjoint(WallmanLabError):
    pass


class NotApplicable(WallmanLabError):
    pass


class NotBoolean(WallmanLabError):
    pass


class NotABase(WallmanLabError):
    pass


class NonSingletonFiber(WallmanLabError):
    pass


class FormulaSyntaxError(WallmanLabError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnboundVariable(WallmanLabError):
    pass


class MissingConstant(WallmanLabError):
    pass


class NotClosed(WallmanLabError):
    pass


class PreconditionViolated(WallmanLabError):
    pass


class NotContinuous(WallmanLabError):
    pass


class NotSurjective(WallmanLabError):
    pass


class PostconditionFailed(WallmanLabError):
    """A result failed the package's own check of it: a bug, not bad input."""
