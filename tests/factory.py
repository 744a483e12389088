"""Synthetic corpus factory shared by the test suite (and the bundled demo
corpus generator in tools/).

Generates Turkish-shaped records with CV-alternating roots and distinct
affix forms chosen so that every per-block ordering yields a distinct
surface; that keeps the random baseline's per-stratum accuracy at exactly
1/(|P|!*|S|!) in expectation.
"""
from itertools import permutations

from morphsuite.derive import Affix, SegmentedWord, compose
from morphsuite.rng import make_rng

_BACK_SYLLABLES = ["ka", "sa", "ta", "ma", "la", "ra", "da", "ba", "ya", "za", "na", "pa"]
_FRONT_SYLLABLES = ["ke", "se", "te", "me", "le", "re", "de", "be", "ye", "ze", "ne", "pe"]
_BACK_AFFIXES = [
    "lar", "dan", "da", "ım", "ın", "ı", "dı", "sa", "ma", "mış", "lık",
    "cı", "lı", "sız", "ça", "tan", "ka", "ında", "ları", "dır", "acak", "ıp",
]
_FRONT_AFFIXES = [
    "ler", "den", "de", "im", "in", "i", "di", "se", "me", "miş", "lik",
    "ci", "li", "siz", "çe", "ten", "ke", "inde", "leri", "dir", "ecek", "ip",
]
_SENTENCES = [
    "bu yazıda ___ konusunu ele aldık",
    "dün akşam ___ üzerine uzun uzun konuştuk",
    "herkes ___ sözünü merakla bekliyordu",
    "kitapta ___ diye bir bölüm vardı",
    "sonunda ___ dedi ve sustu",
]


def _distinct_surfaces(root, forms):
    surfaces = {root + "".join(p) for p in permutations(forms)}
    n = 1
    for i in range(2, len(forms) + 1):
        n *= i
    return len(surfaces) == n


def synth_turkish_records(per_stratum, strata, seed=0, with_sentences=True):
    """Deterministic Turkish-shaped SegmentedWord list, one pool per stratum."""
    rng = make_rng(seed, "synth-corpus")
    records = []
    for stratum in sorted(strata):
        for i in range(per_stratum):
            back = rng.random() < 0.5
            syllables = _BACK_SYLLABLES if back else _FRONT_SYLLABLES
            pool = _BACK_AFFIXES if back else _FRONT_AFFIXES
            root = "".join(rng.choice(syllables) for _ in range(rng.choice([2, 3])))
            while True:
                forms = rng.sample(pool, stratum)
                if _distinct_surfaces(root, forms):
                    break
            affixes = [Affix(form=f, slot="suffix") for f in forms]
            manual = None
            if stratum == 1:
                manual = rng.choice([f for f in pool if f != forms[0]])
            sentence = rng.choice(_SENTENCES) if with_sentences else None
            record = SegmentedWord(
                record_id=f"tr-s{stratum}-{i:03d}",
                language_id="turkish",
                root=root,
                affixes=affixes,
                gold_surface=compose(root, affixes),
                sentence=sentence,
                manual_negative_affix=manual,
            )
            records.append(record)
    return records
