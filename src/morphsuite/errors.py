"""Exception types shared across the package.

Every error raised on a documented contract derives from MorphSuiteError so
callers (and the CLI) can distinguish validation failures from transport
failures.
"""


class MorphSuiteError(Exception):
    """Base class for all errors raised by this package."""


class UnknownLetter(MorphSuiteError):
    """A letter outside the language profile's alphabet."""


class NoVowel(MorphSuiteError):
    """A root with no vowel cannot be processed."""


class ExhaustedRetries(MorphSuiteError):
    """Nonce generation kept colliding with the lexicon or the original."""


class EmptyAffix(MorphSuiteError):
    """Affix surface forms must be nonempty."""


class CombinatorialCap(MorphSuiteError):
    """The per-block permutation count exceeds the configured cap."""


class NoNegativeAvailable(MorphSuiteError):
    """A 1-morpheme record without a manually annotated negative affix."""


class UnsupportedStrategy(MorphSuiteError):
    """The requested negative-selection strategy does not apply to this language."""


class SchemaError(MorphSuiteError):
    """An input record does not match the expected schema."""


class CompositionMismatch(MorphSuiteError):
    """Recomposing root and affixes does not reproduce the stated surface form."""


class MissingNonce(MorphSuiteError):
    """An OOD build needs a nonce root that the record does not carry."""


class MissingContext(MorphSuiteError):
    """A context build needs a sentence that the record does not carry."""


class InsufficientDemos(MorphSuiteError):
    """The demo pool has too few matching instances for the requested shots."""


class PlaceholderMismatch(MorphSuiteError):
    """A template has a malformed or unknown placeholder, one where it may not
    stand, or lacks a required one."""


class MissingTemplate(MorphSuiteError):
    """No template file for the requested (language, variant, task, distribution)."""


class TransportError(MorphSuiteError):
    """An HTTP request failed after all retries."""


class IncompleteEvaluation(TransportError):
    """Some prompts failed after all retries. records holds the answers to
    the others; failed holds [instance_id, option_index] of each failed one."""

    def __init__(self, message, records, failed):
        super().__init__(message)
        self.records = records
        self.failed = failed


class AuthError(MorphSuiteError):
    """The endpoint rejected the credentials."""


class RateLimited(MorphSuiteError):
    """The endpoint kept rate-limiting past the retry budget."""

    def __init__(self, message, retry_after=None):
        super().__init__(message)
        self.retry_after = retry_after


class LengthMismatch(MorphSuiteError):
    """Paired prediction/label sequences differ in length."""


class OrphanRecord(MorphSuiteError):
    """An evaluation record does not join to a suite instance and option."""


class DuplicateRecord(MorphSuiteError):
    """Two rows share a key that must be unique: a record_id or an evaluation
    record's (instance_id, option_index)."""


class OutDirLocked(MorphSuiteError):
    """Another report run holds the lock of the output directory."""


class UsageError(MorphSuiteError):
    """Invalid command-line usage."""
