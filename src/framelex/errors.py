"""Error taxonomy shared by the whole package.

Four failure families matter to callers: a name or ID that does not resolve,
a regular expression or argument combination the caller got wrong, a data
file that does not parse, and a data file that parses but violates the
format's integrity rules.  The CLI maps each family to a distinct exit code.
"""


class FramelexError(Exception):
    """Base class for everything raised deliberately by this package."""


class LookupFailure(FramelexError):
    """A frame, lexical unit, semantic type, or document could not be found."""


class PatternError(FramelexError):
    """A lookup pattern is not a valid regular expression."""


class UsageError(FramelexError, ValueError):
    """An argument value or combination the call does not accept."""


class CorpusError(FramelexError):
    """The data directory is unusable (missing, malformed, or inconsistent)."""


class ParseError(CorpusError):
    """A data file is not well-formed XML or lacks a required element."""


class IntegrityError(CorpusError):
    """A data file parsed but contradicts the format's invariants."""
