"""Exception types shared across the package."""


class SaekError(Exception):
    """Base class for all engine errors."""


class NotHangulSyllable(SaekError):
    """Codepoint is outside the precomposed Hangul syllable block."""


class IndexOutOfRange(SaekError):
    """Jamo index outside its valid range."""


class LexiconError(SaekError):
    """Malformed lexicon file or broken table invariant."""


class EmptyUtterance(SaekError):
    """Input text is empty after trimming."""


class Unclassifiable(SaekError):
    """No classification rule fires (statement, fragment, rhetorical input)."""


class ExtractionFailed(SaekError):
    """Content span is empty after stripping."""


class OptionsNotFound(ExtractionFailed):
    """Parallel option phrases of an alternative question cannot be aligned."""


class IoFailure(SaekError):
    """Corpus stream cannot be read."""


class EmptyCorpus(SaekError):
    """Statistics requested over zero entries."""


class LengthMismatch(SaekError):
    """Prediction and gold sequences differ in length."""


class DegenerateMatrix(SaekError):
    """Chance agreement is 1; kappa denominator vanishes."""
