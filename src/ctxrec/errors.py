"""Exception types raised by the ctxrec package."""


class CtxRecError(Exception):
    """Base class for all ctxrec errors."""


class InvalidConfig(CtxRecError):
    """A configuration object violates its invariants."""


class CorruptFile(CtxRecError):
    """A model or report file is not valid UTF-8 JSON."""


class MalformedRow(CtxRecError):
    """A ratings CSV row cannot be parsed."""


class UnknownContextValue(CtxRecError):
    """A context value does not exist in the schema dimension."""


class RatingOutOfRange(CtxRecError):
    """A rating lies outside the schema's [rating_min, rating_max]."""


class DuplicateCell(CtxRecError):
    """Two ratings target the same (user, situation, item) cell."""


class UnknownUser(CtxRecError):
    """A user id is not part of the data structure."""


class UnknownVirtualUser(CtxRecError):
    """A (user, cluster-label) key is not part of the virtual-user space."""


class LengthMismatch(CtxRecError):
    """Two vectors that must share a length do not."""


class EmptyInput(CtxRecError):
    """A non-empty input collection was required."""


class EmptyList(CtxRecError):
    """An aggregation was asked for zero values."""


class NoRatings(CtxRecError):
    """The user has no ratings to work from."""


class MissingClustering(CtxRecError):
    """A user with ratings has no context clustering."""


class EmptySpace(CtxRecError):
    """A 2-D recommendation space contains no rows."""


class NoVirtualUsers(CtxRecError):
    """A user owns no virtual users in the collapsed space."""


class EmptyCube(CtxRecError):
    """The rating cube contains no cells."""


class EmptyRelevantSet(CtxRecError):
    """Recall is undefined: the relevant set is empty (skip this user)."""


class UntrainedSystem(CtxRecError):
    """Evaluation was given a system that is not a trained model."""
