"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An argument broke a documented precondition (shape, range, rank).

    ``node`` is the first tree node that breaks a per-node check of
    `HierarchyTree`, and None on every other violation.
    """

    def __init__(self, message, node=None):
        self.node = node
        super().__init__(message)


class DataError(ValueError):
    """Input data is structurally inconsistent (orphans, duplicate ids)."""


class DumpParseError(ValueError):
    """An XML dump file could not be parsed.

    Carries the offending path and, when known, the 1-based line number.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class EmptyInputError(ValueError):
    """A dataset had nothing to build model inputs from."""


class SolverDiverged(RuntimeError):
    """An iterative solve produced non-finite values.

    ``last_state`` holds the most recent finite model, if any.
    """

    def __init__(self, message, last_state=None):
        self.last_state = last_state
        super().__init__(message)


class VersionMismatchError(ValueError):
    """A model file does not belong to the snapshot it is being used with."""
