"""Exception hierarchy shared by every module in the package.

All domain failures derive from GrammarError (itself a ValueError), so callers
can catch one class, while the CLI maps each subclass to a diagnostic line.
"""


class GrammarError(ValueError):
    """Base class for every domain error raised by this package."""


class CyclicGrammar(GrammarError):
    """A nonterminal (transitively) derives itself."""


class DanglingReference(GrammarError):
    """A rule references a nonterminal id that has no rule."""


class DuplicateRule(GrammarError):
    """Two rules carry the same nonterminal id (file format only)."""


class TerminalOutOfRange(GrammarError):
    """A literal rule's code is negative or >= alphabet_size."""


class DimensionMismatch(GrammarError):
    """2D children disagree on the shared dimension, or a concat is ragged."""


class ArithmeticOverflow(GrammarError):
    """An expansion length or dimension exceeds 2**62."""


class ExpansionTooLarge(GrammarError):
    """The fully expanded string/matrix, or an index's tables, would exceed the configured cap."""


class EmptyLanguage(GrammarError):
    """A rule lists no children, so it would derive the empty string/matrix."""


class NotAnSlp(GrammarError):
    """A rule has arity other than 2 where a straight-line program is required."""


class RangeError(GrammarError):
    """A query argument violates the stated bounds."""


class PreconditionViolated(GrammarError):
    """A mapping was called outside its contract (delta or level bounds)."""


class PositionOutOfRange(GrammarError):
    """A random-access position lies outside the text."""


class NonUniformInstance(GrammarError):
    """An OV instance does not have the same number of ones in every vector."""


class ExtRequiresLengthTwo(GrammarError):
    """The extended marking construction needs a text of length >= 2."""


class ParseError(GrammarError):
    """A grammar/matrix/vector file does not follow the documented format."""
