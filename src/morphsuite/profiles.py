"""Per-language letter tables: vowel/consonant classes, vowel harmony,
letter frequencies, and casing rules.

Profiles are immutable after load and shared freely across threads. The
bundled defaults for Turkish and Finnish live in data/<language>.profile;
the file format is plain UTF-8 ``key = value`` lines (see those files).
"""
from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from typing import Callable, Mapping, NamedTuple

from morphsuite.errors import NoVowel, SchemaError, UnknownLetter

TURKISH = "turkish"
FINNISH = "finnish"
LANGUAGES = (TURKISH, FINNISH)  # bundled profiles

FRONT = "front"
BACK = "back"
NEUTRAL = "neutral"

VOWEL = "vowel"
CONSONANT = "consonant"


class LetterClass(NamedTuple):
    kind: str                # "vowel" or "consonant"
    harmony: str | None      # front/back/neutral for vowels, None otherwise


@dataclass(frozen=True)
class LanguageProfile:
    language_id: str
    vowels: frozenset[str]
    consonants: frozenset[str]
    harmony_class_of: Mapping[str, str]
    letter_frequency: Mapping[str, float]   # normalized to sum to 1 per class
    casing_pairs: Mapping[str, str]         # uppercase -> lowercase

    @property
    def alphabet(self) -> frozenset[str]:
        return self.vowels | self.consonants

    @cached_property
    def stable_letters(self) -> frozenset[str]:
        """The one-character letters and uppercase letters of the profile if
        each is a starter that NFC keeps as it is and NFC composes no two of
        them; else the empty set."""
        letters = [ch for ch in self.alphabet | self.casing_pairs.keys() if len(ch) == 1]
        pairs = "".join(a + b for a in letters for b in letters)
        if all(unicodedata.combining(ch) == 0 for ch in letters) and unicodedata.is_normalized(
            "NFC", pairs
        ):
            return frozenset(letters)
        return frozenset()

    def vowels_in_class(self, harmony: str) -> list[str]:
        return sorted(v for v in self.vowels if self.harmony_class_of[v] == harmony)

    def frequency_weights(self, letters) -> list[float]:
        return [self.letter_frequency[ch] for ch in letters]


def case_fold(word: str, profile: LanguageProfile) -> str:
    """Language-aware lowercasing; Turkish maps I to dotless i and dotted
    uppercase i to i. Characters outside the profile pass through unchanged.
    """
    word = unicodedata.normalize("NFC", word)
    out = []
    for ch in word:
        mapped = profile.casing_pairs.get(ch)
        out.append(mapped if mapped is not None else ch)
    return "".join(out)


def classify(letter: str, profile: LanguageProfile) -> LetterClass:
    """Classify a single letter as vowel (with harmony class) or consonant."""
    folded = case_fold(letter, profile)
    if folded in profile.vowels:
        return LetterClass(VOWEL, profile.harmony_class_of[folded])
    if folded in profile.consonants:
        return LetterClass(CONSONANT, None)
    raise UnknownLetter(f"{letter!r} is not in the {profile.language_id} alphabet")


def check_letters(word: str, profile: LanguageProfile) -> str:
    """Case-fold the word and verify every letter is in the alphabet."""
    folded = case_fold(word, profile)
    alphabet = profile.alphabet  # a property: builds a new set on each access
    for ch in folded:
        if ch not in alphabet:
            raise UnknownLetter(
                f"{ch!r} in {word!r} is not in the {profile.language_id} alphabet"
            )
    return folded


def has_adjacent_vowels(word: str, profile: LanguageProfile) -> bool:
    """True iff two vowels occur next to each other anywhere in the word."""
    return _vowel_pair(check_letters(word, profile), profile.vowels)


def _vowel_pair(folded: str, vowels) -> bool:
    return any(a in vowels and b in vowels for a, b in zip(folded, folded[1:]))


def adjacent_vowels_after(profile: LanguageProfile) -> Callable[[str, str], bool]:
    """A function clashes(text, form) equal to has_adjacent_vowels(text +
    form, profile), raising the same exception type, for a text that passes
    check_letters and has no adjacent vowels.

    A starter composes only with the character just before it. So when the
    last two characters of text and the first of form are stable letters,
    NFC acts on text and form apart, text + form folds to the folded text
    followed by the folded form, and only the last letter of text and the
    form (folded once per form) need a look. Otherwise the whole of text +
    form is scanned.
    """
    stable = profile.stable_letters
    edge = stable | {""}  # text[-1:] and text[-2:-1] are empty at its start
    vowels = profile.vowels
    casing = profile.casing_pairs
    forms: dict[str, tuple[bool, bool]] = {}  # form -> (starts with a vowel, clashes)

    def clashes(text: str, form: str) -> bool:
        if not (form[:1] in stable and text[-1:] in edge and text[-2:-1] in edge):
            return has_adjacent_vowels(text + form, profile)
        facts = forms.get(form)
        if facts is None:
            folded = check_letters(form, profile)
            facts = forms[form] = (folded[0] in vowels, _vowel_pair(folded, vowels))
        starts_with_vowel, clashes_inside = facts
        return clashes_inside or (
            starts_with_vowel and casing.get(text[-1:], text[-1:]) in vowels
        )

    return clashes


def last_vowel_suffix_span(word: str, profile: LanguageProfile) -> tuple[int, int]:
    """Span from the final vowel through the trailing consonants.

    The first letter of the span is a vowel and everything after it (to the
    end of the word) is consonants, so the span is exactly the word-final
    vowel+consonant cluster that stays fixed during nonce generation.
    """
    folded = check_letters(word, profile)
    for i in range(len(folded) - 1, -1, -1):
        if folded[i] in profile.vowels:
            return (i, len(folded))
    raise NoVowel(f"{word!r} contains no vowel")


# ---------------------------------------------------------------------------
# Profile file loading
# ---------------------------------------------------------------------------

# The keys of a profile file besides case.<upper> and freq.<letter>.
_KEYS = {"language", "vowels", "consonants"} | {f"harmony.{c}" for c in (FRONT, BACK, NEUTRAL)}


def parse_profile(text: str, source: str) -> LanguageProfile:
    """The profile in text, the ``key = value`` lines of a profile file;
    source names it in the SchemaError of a malformed line, an unknown key or
    a bad entry."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS and not key.startswith(("case.", "freq.")):
            raise SchemaError(f"{source}:{lineno}: unknown key {key!r}")
        entries[key] = value.strip()

    def letters(key: str) -> list[str]:
        if key not in entries:
            raise SchemaError(f"{source}: missing required key {key!r}")
        return entries[key].split()

    language_id = entries.get("language")
    if not language_id:
        raise SchemaError(f"{source}: missing required key 'language'")

    vowels = frozenset(letters("vowels"))
    consonants = frozenset(letters("consonants"))
    if vowels & consonants:
        raise SchemaError(f"{source}: vowels and consonants overlap: {sorted(vowels & consonants)}")

    harmony: dict[str, str] = {}
    for cls in (FRONT, BACK, NEUTRAL):
        key = f"harmony.{cls}"
        if key in entries:
            for v in entries[key].split():
                if v not in vowels:
                    raise SchemaError(f"{source}: harmony letter {v!r} is not a vowel")
                harmony[v] = cls
    missing = vowels - harmony.keys()
    if missing:
        raise SchemaError(f"{source}: vowels without a harmony class: {sorted(missing)}")

    casing: dict[str, str] = {}
    for key, value in entries.items():
        if key.startswith("case."):
            upper = key[len("case."):]
            if value not in vowels | consonants:
                raise SchemaError(f"{source}: casing target {value!r} not in alphabet")
            casing[upper] = value

    raw_freq: dict[str, float] = {}
    for key, value in entries.items():
        if key.startswith("freq."):
            ch = key[len("freq."):]
            freq = float(value)
            if freq < 0:
                raise SchemaError(f"{source}: negative frequency for {ch!r}")
            raw_freq[ch] = freq
    alphabet = vowels | consonants
    missing_freq = alphabet - raw_freq.keys()
    if missing_freq:
        raise SchemaError(f"{source}: letters without a frequency: {sorted(missing_freq)}")

    # Normalize to a distribution within each class.
    normalized: dict[str, float] = {}
    for group in (vowels, consonants):
        total = sum(raw_freq[ch] for ch in group)
        if total <= 0:
            raise SchemaError(f"{source}: zero total frequency in a letter class")
        for ch in group:
            normalized[ch] = raw_freq[ch] / total

    return LanguageProfile(
        language_id=language_id,
        vowels=vowels,
        consonants=consonants,
        harmony_class_of=harmony,
        letter_frequency=normalized,
        casing_pairs=casing,
    )


@cache
def load_profile(language: str) -> LanguageProfile:
    """The bundled profile of language, one of LANGUAGES, read once per process."""
    source = f"data/{language}.profile"
    text = resources.files("morphsuite").joinpath(source).read_text(encoding="utf-8")
    return parse_profile(text, source)
