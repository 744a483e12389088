import pytest

from morphsuite import nonce, profiles
from morphsuite.errors import ExhaustedRetries, NoVowel


def test_turkish_keeps_final_span(turkish):
    m = nonce.nonce_turkish("sanat", turkish, seed=11)
    assert len(m.nonce_root) == 5
    assert m.nonce_root.endswith("at")
    assert m.nonce_root != "sanat"
    # position 2 vowel stays a back vowel
    assert m.nonce_root[1] in set("aıou")


def test_turkish_vowel_final_root(turkish):
    m = nonce.nonce_turkish("sıra", turkish, seed=11)
    assert len(m.nonce_root) == 4
    assert m.nonce_root.endswith("a")
    assert m.nonce_root[1] in set("aıou")
    assert m.nonce_root[3] == "a"


def test_turkish_cv_prefix_rule(turkish):
    m = nonce.nonce_turkish("at", turkish, seed=11)
    assert len(m.nonce_root) == 5
    assert m.nonce_root.endswith("at")
    prefix = m.nonce_root[:3]
    assert prefix[0] in turkish.consonants
    assert prefix[1] in turkish.vowels
    assert prefix[2] in turkish.consonants
    # the inserted vowel matches the root vowel's harmony class
    assert turkish.harmony_class_of[prefix[1]] == "back"


def test_turkish_determinism(turkish):
    a = nonce.nonce_turkish("sohbet", turkish, seed=123)
    b = nonce.nonce_turkish("sohbet", turkish, seed=123)
    c = nonce.nonce_turkish("sohbet", turkish, seed=124)
    assert a == b
    assert a.nonce_root != c.nonce_root or a.seed != c.seed


def test_no_vowel(turkish):
    with pytest.raises(NoVowel):
        nonce.nonce_turkish("krt", turkish, seed=1)


def test_lexicon_collisions_exhaust(turkish):
    # single replaceable consonant: the candidate space is the consonant set
    lexicon = {c + "a" for c in turkish.consonants}
    lexicon.add("ba")
    with pytest.raises(ExhaustedRetries):
        nonce.nonce_turkish("ba", turkish, lexicon=lexicon, seed=5)


def test_lexicon_respected(turkish):
    lexicon = {"tıdat"}  # the seed-42 draw for sanat; force a resample
    m = nonce.nonce_turkish("sanat", turkish, lexicon=lexicon, seed=42)
    assert m.nonce_root not in lexicon
    assert m.attempts >= 2


def test_finnish_harmony_closure(finnish):
    m = nonce.nonce_finnish("äiti", finnish, seed=9)
    back = {v for v, h in finnish.harmony_class_of.items() if h == "back"}
    assert not set(m.nonce_root) & back
    assert len(m.nonce_root) == 4

    m = nonce.nonce_finnish("sano", finnish, seed=9)
    front = {v for v, h in finnish.harmony_class_of.items() if h == "front"}
    assert not set(m.nonce_root) & front
    assert len(m.nonce_root) == 4
    assert m.nonce_root[1] in finnish.vowels and m.nonce_root[3] in finnish.vowels


def test_finnish_may_keep_letters_but_not_whole_word(finnish):
    for seed in range(40):
        m = nonce.nonce_finnish("petoks", finnish, seed=seed)
        assert m.nonce_root != "petoks"
        assert len(m.nonce_root) == 6


def test_make_nonce_dispatch(turkish, finnish):
    assert nonce.make_nonce("sanat", turkish, seed=1).language_id == "turkish"
    assert nonce.make_nonce("sano", finnish, seed=1).language_id == "finnish"


@pytest.mark.parametrize("root", ["sohbet", "sıra", "değer", "endişe", "kişi", "hayal", "sınıf"])
def test_turkish_reference_roots_class_preservation(turkish, root):
    m = nonce.nonce_turkish(root, turkish, seed=77)
    start, end = profiles.last_vowel_suffix_span(root, turkish)
    assert m.nonce_root[start:end] == root[start:end]
    for i in range(start):
        orig = profiles.classify(root[i], turkish)
        new = profiles.classify(m.nonce_root[i], turkish)
        assert orig.kind == new.kind
        if orig.kind == "vowel":
            assert orig.harmony == new.harmony


@pytest.mark.parametrize("language, root, seed, lexicon, nonce_root, attempts", [
    ("turkish", "at", 0, None, "mınat", 1),  # nothing to resample: a CVC prefix
    ("turkish", "at", 3, None, "lagat", 1),
    ("turkish", "kalem", 0, None, "zanem", 1),
    ("turkish", "bal", 10, None, "yal", 2),  # the first draw gave "bal" back
    ("turkish", "kalem", 0, {"zanem"}, "mahem", 2),  # the first draw is in the lexicon
    ("finnish", "petoks", 0, None, "tenenk", 1),  # e is neutral, o back
    ("finnish", "sieni", 1, None, "tiemi", 1),  # only neutral vowels
    ("finnish", "yöpaikka", 0, None, "äineikre", 1),
    ("finnish", "ei", 4, None, "ie", 4),
    ("finnish", "sano", 5, {"lata"}, "lena", 2),
])
def test_make_nonce_draws_stay_pinned(language, root, seed, lexicon, nonce_root, attempts):
    """The roots and attempt counts make_nonce gave before its two languages
    shared one draw loop; any change to the order or the weights of the draws
    moves them."""
    mapping = nonce.make_nonce(root, profiles.load_profile(language), lexicon, seed)
    assert (mapping.nonce_root, mapping.attempts) == (nonce_root, attempts)
