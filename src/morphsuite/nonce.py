"""Nonce-root generation: pronounceable, lexicon-absent pseudo-roots that
inflect exactly like the originals they replace.

Turkish suffix surfaces are fully determined by the word-final vowel and
the consonants after it, so that final span is frozen and only the letters
before it are resampled (vowels keep their front/back class, consonants
stay consonants, both weighted by letter frequency). Finnish has no frozen
span; every vowel is resampled within {same harmony class + neutral} so
harmony stays intact. Resampling a position may return the original letter;
only the whole word must differ from the original and miss the lexicon.
"""
from __future__ import annotations

from dataclasses import dataclass

from morphsuite import profiles
from morphsuite.errors import ExhaustedRetries, NoVowel, UnsupportedStrategy
from morphsuite.jsonl import read_lines
from morphsuite.rng import make_rng

RETRY_LIMIT = 64


@dataclass(frozen=True)
class NonceMapping:
    original_root: str
    nonce_root: str
    language_id: str
    seed: int
    attempts: int


def _weighted_letter(rng, profile, letters) -> str:
    return rng.choices(letters, weights=profile.frequency_weights(letters))[0]


def _class_vowels(profile, harmony: str) -> list[str]:
    return profile.vowels_in_class(harmony)


def _consonants(profile) -> list[str]:
    return sorted(profile.consonants)


def nonce_turkish(
    root: str,
    profile: profiles.LanguageProfile,
    lexicon: set[str] | None = None,
    seed: int = 0,
) -> NonceMapping:
    """Resample the letters before the final vowel+consonant span.

    When nothing is replaceable (the root starts with its own final vowel,
    e.g. "at"), a frequency-weighted consonant-vowel-consonant prefix is
    prepended instead, with the vowel drawn from the root's harmony class.
    """
    folded = profiles.check_letters(root, profile)
    if not folded:
        raise NoVowel("empty root")
    start, _ = profiles.last_vowel_suffix_span(folded, profile)
    lexicon = lexicon or set()
    rng = make_rng(seed)
    harmony = profile.harmony_class_of[folded[start]]

    consonants = _consonants(profile)
    for attempt in range(1, RETRY_LIMIT + 1):
        if start == 0:
            vowel = _weighted_letter(rng, profile, _class_vowels(profile, harmony))
            prefix = (
                _weighted_letter(rng, profile, consonants)
                + vowel
                + _weighted_letter(rng, profile, consonants)
            )
            candidate = prefix + folded
        else:
            letters = list(folded)
            for i in range(start):
                cls = profiles.classify(letters[i], profile)
                if cls.kind == profiles.VOWEL:
                    pool = _class_vowels(profile, cls.harmony)
                else:
                    pool = consonants
                letters[i] = _weighted_letter(rng, profile, pool)
            candidate = "".join(letters)
        if candidate != folded and candidate not in lexicon:
            return NonceMapping(folded, candidate, profile.language_id, seed, attempt)
    raise ExhaustedRetries(
        f"no lexicon-free nonce for {root!r} within {RETRY_LIMIT} attempts"
    )


def nonce_finnish(
    root: str,
    profile: profiles.LanguageProfile,
    lexicon: set[str] | None = None,
    seed: int = 0,
) -> NonceMapping:
    """Resample every letter; vowels stay within {their class + neutral}."""
    folded = profiles.check_letters(root, profile)
    if not any(ch in profile.vowels for ch in folded):
        raise NoVowel(f"{root!r} contains no vowel")
    lexicon = lexicon or set()
    rng = make_rng(seed)

    consonants = _consonants(profile)
    neutral = _class_vowels(profile, profiles.NEUTRAL)
    for attempt in range(1, RETRY_LIMIT + 1):
        letters = []
        for ch in folded:
            cls = profiles.classify(ch, profile)
            if cls.kind == profiles.VOWEL:
                if cls.harmony == profiles.NEUTRAL:
                    pool = neutral
                else:
                    pool = sorted(set(_class_vowels(profile, cls.harmony)) | set(neutral))
            else:
                pool = consonants
            letters.append(_weighted_letter(rng, profile, pool))
        candidate = "".join(letters)
        if candidate != folded and candidate not in lexicon:
            return NonceMapping(folded, candidate, profile.language_id, seed, attempt)
    raise ExhaustedRetries(
        f"no lexicon-free nonce for {root!r} within {RETRY_LIMIT} attempts"
    )


def make_nonce(
    root: str,
    profile: profiles.LanguageProfile,
    lexicon: set[str] | None = None,
    seed: int = 0,
) -> NonceMapping:
    if profile.language_id == profiles.TURKISH:
        return nonce_turkish(root, profile, lexicon, seed)
    if profile.language_id == profiles.FINNISH:
        return nonce_finnish(root, profile, lexicon, seed)
    raise UnsupportedStrategy(f"no nonce rule for language {profile.language_id!r}")


def load_lexicon(path, profile: profiles.LanguageProfile) -> set[str]:
    """Read a newline-separated UTF-8 word list, case-folded for membership
    checks; a line that is not UTF-8 raises SchemaError naming path:line."""
    return {profiles.case_fold(word, profile) for _, word in read_lines(path)}
