"""Exception types raised by the ctxrec package."""


class CtxRecError(Exception):
    """Base class for all ctxrec errors."""


class InvalidConfig(CtxRecError):
    """A configuration object violates its invariants."""


class CorruptFile(CtxRecError):
    """A model or report file is not valid UTF-8 JSON."""


class MalformedRow(CtxRecError):
    """A ratings row cannot be parsed, lies outside the rating range or
    repeats a (user, situation, item) cell."""


class UnknownContextValue(CtxRecError):
    """A context value does not exist in the schema dimension."""


class UnknownUser(CtxRecError):
    """A user id, or a (user, cluster-label) key, is not part of the data
    structure, or the user has no context clustering."""


class LengthMismatch(CtxRecError):
    """Two vectors that must share a length do not."""


class EmptyInput(CtxRecError):
    """An input that must be non-empty is empty: no input vectors, ratings,
    rows, virtual users, relevant items or users to evaluate."""
