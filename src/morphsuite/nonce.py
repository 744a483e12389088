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
from itertools import accumulate

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


def _pool(profile, letters) -> tuple[list[str], list[float]]:
    """letters with their cumulative frequency weights, as rng.choices takes them."""
    return letters, list(accumulate(profile.frequency_weights(letters)))


def _letter_pools(letters, profile, vowels_of) -> list[tuple[list[str], list[float]]]:
    """The pool of each letter: the consonants, or vowels_of(harmony class)."""
    consonants = _pool(profile, sorted(profile.consonants))
    pools = []
    for ch in letters:
        cls = profiles.classify(ch, profile)
        vowel = cls.kind == profiles.VOWEL
        pools.append(_pool(profile, vowels_of(cls.harmony)) if vowel else consonants)
    return pools


def _draw_nonce(root, folded, profile, lexicon, seed, pools, spell) -> NonceMapping:
    """Draw one frequency-weighted letter from each pool in turn and spell the
    candidate from the draws, until a candidate differs from folded and misses
    the lexicon; ExhaustedRetries after RETRY_LIMIT attempts."""
    lexicon = lexicon or set()
    rng = make_rng(seed)
    for attempt in range(1, RETRY_LIMIT + 1):
        candidate = spell([rng.choices(letters, cum_weights=cum)[0] for letters, cum in pools])
        if candidate != folded and candidate not in lexicon:
            return NonceMapping(folded, candidate, profile.language_id, seed, attempt)
    raise ExhaustedRetries(
        f"no lexicon-free nonce for {root!r} within {RETRY_LIMIT} attempts"
    )


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
    if start == 0:  # consonant + vowel + consonant + root, the vowel drawn first
        consonants = _pool(profile, sorted(profile.consonants))
        vowels = _pool(profile, profile.vowels_in_class(profile.harmony_class_of[folded[0]]))
        pools = [vowels, consonants, consonants]
        return _draw_nonce(root, folded, profile, lexicon, seed, pools,
                           lambda d: d[1] + d[0] + d[2] + folded)
    pools = _letter_pools(folded[:start], profile, profile.vowels_in_class)
    return _draw_nonce(root, folded, profile, lexicon, seed, pools,
                       lambda d: "".join(d) + folded[start:])


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
    neutral = profile.vowels_in_class(profiles.NEUTRAL)

    def vowels_of(harmony):
        return sorted(set(profile.vowels_in_class(harmony)) | set(neutral))

    pools = _letter_pools(folded, profile, vowels_of)
    return _draw_nonce(root, folded, profile, lexicon, seed, pools, "".join)


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
