from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from morphsuite import profiles
from morphsuite.errors import NoVowel, SchemaError, UnknownLetter

TR_LETTERS = sorted("abcçdefgğhıijklmnoöprsştuüvyz")
FI_LETTERS = sorted("abcdefghijklmnopqrstuvwxyzäö")


def test_classify_table_lookups(turkish, finnish):
    assert profiles.classify("a", turkish) == ("vowel", "back")
    assert profiles.classify("ş", turkish) == ("consonant", None)
    assert profiles.classify("ä", finnish) == ("vowel", "front")
    assert profiles.classify("e", finnish).harmony == "neutral"
    assert profiles.classify("y", finnish).kind == "vowel"
    assert profiles.classify("y", turkish).kind == "consonant"


def test_classify_case_folds_first(turkish):
    assert profiles.classify("A", turkish) == ("vowel", "back")
    assert profiles.classify("İ", turkish) == ("vowel", "front")
    assert profiles.classify("I", turkish) == ("vowel", "back")


def test_classify_unknown_letter(turkish, finnish):
    with pytest.raises(UnknownLetter):
        profiles.classify("q", turkish)
    with pytest.raises(UnknownLetter):
        profiles.classify("å", finnish)


def test_classify_total_and_consistent(turkish, finnish):
    for profile, letters in ((turkish, TR_LETTERS), (finnish, FI_LETTERS)):
        assert profile.alphabet == set(letters)
        for ch in letters:
            cls = profile and profiles.classify(ch, profile)
            assert (cls.kind == "vowel") == (ch in profile.vowels)
            assert (cls.kind == "consonant") == (ch in profile.consonants)


def test_profile_invariants(turkish, finnish):
    for profile in (turkish, finnish):
        assert not profile.vowels & profile.consonants
        assert set(profile.harmony_class_of) == profile.vowels
        assert sum(profile.letter_frequency[v] for v in profile.vowels) == pytest.approx(1.0)
        assert sum(profile.letter_frequency[c] for c in profile.consonants) == pytest.approx(1.0)
        assert all(f >= 0 for f in profile.letter_frequency.values())
    assert finnish.harmony_class_of["e"] == "neutral"
    assert finnish.harmony_class_of["i"] == "neutral"
    assert {v for v, h in finnish.harmony_class_of.items() if h == "front"} == set("äöy")
    assert {v for v, h in finnish.harmony_class_of.items() if h == "back"} == set("aou")
    assert turkish.vowels == set("aeıioöuü")


def test_has_adjacent_vowels(turkish):
    assert profiles.has_adjacent_vowels("sınıflandırıılmalarnı", turkish)
    assert not profiles.has_adjacent_vowels("sohbetler", turkish)
    assert not profiles.has_adjacent_vowels("değeriplendir", turkish)
    with pytest.raises(UnknownLetter):
        profiles.has_adjacent_vowels("wash", turkish)


@given(st.text(alphabet=TR_LETTERS, max_size=24))
def test_has_adjacent_vowels_reverse_symmetry(word):
    profile = profiles.load_profile("turkish")
    assert profiles.has_adjacent_vowels(word, profile) == profiles.has_adjacent_vowels(
        word[::-1], profile
    )


def test_last_vowel_suffix_span(turkish):
    assert profiles.last_vowel_suffix_span("sanat", turkish) == (3, 5)
    assert "sanat"[3:5] == "at"
    assert profiles.last_vowel_suffix_span("sıra", turkish) == (3, 4)
    assert profiles.last_vowel_suffix_span("kuş", turkish) == (1, 3)
    with pytest.raises(NoVowel):
        profiles.last_vowel_suffix_span("krt", turkish)


@given(st.text(alphabet=TR_LETTERS, min_size=1, max_size=24))
def test_last_vowel_suffix_span_shape(word):
    profile = profiles.load_profile("turkish")
    if not any(ch in profile.vowels for ch in word):
        return
    start, end = profiles.last_vowel_suffix_span(word, profile)
    assert end == len(word)
    assert word[start] in profile.vowels
    assert all(ch in profile.consonants for ch in word[start + 1 : end])


def test_case_fold(turkish, finnish):
    assert profiles.case_fold("Sohbetler", turkish) == "sohbetler"
    assert profiles.case_fold("Istanbul", turkish) == "ıstanbul"
    assert profiles.case_fold("İstanbul", turkish) == "istanbul"
    assert profiles.case_fold("ÄITI", finnish) == "äiti"
    # non-alphabet characters pass through unchanged
    assert profiles.case_fold("Qatar-2024!", turkish) == "Qatar-2024!"


@given(st.text(max_size=32))
def test_case_fold_idempotent(word):
    profile = profiles.load_profile("turkish")
    once = profiles.case_fold(word, profile)
    assert profiles.case_fold(once, profile) == once


def test_profile_file_errors(tmp_path):
    bad = tmp_path / "bad.profile"
    bad.write_text(
        "language = turkish\nvowels = a e\nconsonants = b\nharmony.back = a\n"
        "case.A = a\nfreq.a = 1\nfreq.e = 1\nfreq.b = 1\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError):  # vowel e lacks a harmony class
        profiles.parse_profile(bad.read_text(encoding="utf-8"), str(bad))


def test_profile_unknown_key_names_its_line():
    text = "language = turkish\n# a comment\nrounded = o ö u ü\nvowels = a\n"
    with pytest.raises(SchemaError, match=r"^bad\.profile:3: unknown key 'rounded'$"):
        profiles.parse_profile(text, "bad.profile")


def test_profile_roundtrip_from_path(tmp_path, turkish):
    from importlib import resources

    text = resources.files("morphsuite").joinpath("data/turkish.profile").read_text("utf-8")
    p = tmp_path / "copy.profile"
    p.write_text(text, encoding="utf-8")
    loaded = profiles.parse_profile(p.read_text(encoding="utf-8"), str(p))
    assert loaded.vowels == turkish.vowels
    assert loaded.letter_frequency == turkish.letter_frequency


def outcome(function, *args):
    """function(*args), or the type of the exception it raises."""
    try:
        return function(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


# Letters, uppercase I/İ, combining marks that compose with the letter before
# them (I + U+0307 is İ, o + U+0308 is ö), letters outside the alphabet, and
# the Hangul jamo U+1100 and U+1161, which compose to the syllable U+AC00.
_JOIN_PIECES = st.sampled_from(
    ["a", "e", "ı", "i", "o", "k", "l", "ar", "I", "İ", "Ia", "\u0307", "\u0308",
     "ö", "\u0327a", "ş", "ğ", "q", "\u1100", "\u1161", "\u1100\u1161", "\uac00"]
)


@given(
    st.sampled_from(["turkish", "turkish+hangul"]),
    st.lists(_JOIN_PIECES, max_size=8),
    st.lists(st.lists(_JOIN_PIECES, min_size=1, max_size=3).map("".join), min_size=1, max_size=4),
)
@example("turkish", ["kI"], ["\u0307a"])  # I + U+0307 is İ, a vowel
@example("turkish+hangul", ["\u1100\u1161"], ["a"])  # ends in a consonant
def test_adjacent_vowels_after_matches_full_text(turkish, which, pieces, forms):
    profile = turkish
    if which == "turkish+hangul":
        # The vowel U+1161 is stable beside every letter, but after U+1100,
        # which is no letter, it composes into the consonant U+AC00.
        profile = replace(turkish, consonants=turkish.consonants | {"\uac00"},
                          vowels=turkish.vowels | {"\u1161"})
        assert {"\uac00", "\u1161"} <= profile.stable_letters
    # Grow text piece by piece as the search does, keeping only pieces after
    # which it still passes the full-text check without a clash.
    text = ""
    for piece in pieces:
        if outcome(profiles.has_adjacent_vowels, text + piece, profile) is False:
            text += piece
    clashes = profiles.adjacent_vowels_after(profile)
    for form in forms + forms:  # the second round reads the per-form facts
        want = outcome(profiles.has_adjacent_vowels, text + form, profile)
        assert outcome(clashes, text, form) == want


def test_stable_letters(turkish, finnish):
    assert turkish.stable_letters == turkish.alphabet | turkish.casing_pairs.keys()
    assert "İ" in turkish.stable_letters and "I" in turkish.stable_letters
    assert finnish.stable_letters == finnish.alphabet | finnish.casing_pairs.keys()
