"""Exception types shared across the package."""


class ParadoxLabError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(ParadoxLabError):
    pass


class NonUnitary(ParadoxLabError):
    pass


class BadTargets(ParadoxLabError):
    pass


class NotTracePreserving(ParadoxLabError):
    pass


class InvalidState(ParadoxLabError):
    """A state vector or density matrix violates its invariants."""


class UnknownKind(ParadoxLabError):
    pass


class BadParams(ParadoxLabError):
    pass


class BadProbability(ParadoxLabError):
    pass


class NonUnitaryInstruction(ParadoxLabError):
    """Raised where only unitary instructions are allowed."""


class NotAPermutation(ParadoxLabError):
    """A circuit that must permute basis states has a unitary that does not."""


class InvalidCircuit(ParadoxLabError):
    """A circuit's register sizes are invalid."""


class TooManyQubits(ParadoxLabError):
    pass


class ShapeMismatch(ParadoxLabError):
    pass


class BadMemoryState(ParadoxLabError):
    pass


class BadPartition(ParadoxLabError):
    pass


class BadLabel(ParadoxLabError):
    pass


class NoConvergence(ParadoxLabError):
    pass


class UsageError(ParadoxLabError):
    pass
