import math
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphsuite import derive, profiles, suite
from morphsuite.derive import Affix, SegmentedWord
from morphsuite.errors import (
    CombinatorialCap,
    EmptyAffix,
    NoNegativeAvailable,
    UnsupportedStrategy,
)
from morphsuite.profiles import has_adjacent_vowels
from morphsuite.rng import make_rng
from test_distance import dp_oracle
from test_profiles import outcome


def word(root, suffixes, prefixes=(), language="turkish", **kwargs):
    affixes = [Affix(f, "prefix", i) for i, f in enumerate(prefixes)]
    affixes += [Affix(f, "suffix", i) for i, f in enumerate(suffixes)]
    gold = "".join(prefixes) + root + "".join(suffixes)
    return SegmentedWord(
        record_id=f"t-{root}",
        language_id=language,
        root=root,
        affixes=affixes,
        gold_surface=gold,
        **kwargs,
    )


def test_compose_fixtures():
    assert derive.compose("sohbet", [Affix("ler")]) == "sohbetler"
    fi = word("olosuhte", ["i", "lta", "an"], prefixes=["kuvaus"], language="finnish")
    assert derive.compose("olosuhte", fi.affixes) == "kuvausolosuhteiltaan"
    assert derive.compose("değer", []) == "değer"


def test_compose_rejects_empty_affix():
    with pytest.raises(EmptyAffix):
        derive.compose("x", [Affix("")])


@given(
    st.text(alphabet="abcde", min_size=1, max_size=6),
    st.lists(st.text(alphabet="xyz", min_size=1, max_size=3), max_size=4),
    st.lists(st.text(alphabet="uvw", min_size=1, max_size=3), max_size=4),
)
def test_compose_length_additive(root, prefixes, suffixes):
    w = word(root, suffixes, prefixes=prefixes)
    surface = derive.compose(root, w.affixes)
    assert len(surface) == len(root) + sum(len(a.form) for a in w.affixes)
    assert surface == "".join(prefixes) + root + "".join(suffixes)


def test_enumerate_orderings_counts():
    w = word("sıra", ["dan", "mış"])
    cands = derive.enumerate_orderings(w)
    assert {c.surface for c in cands} == {"sıradanmış", "sıramışdan"}
    assert sum(c.is_gold for c in cands) == 1

    w = word("değer", ["len", "dir", "ip"])
    cands = derive.enumerate_orderings(w)
    assert len(cands) == 6
    assert sum(c.is_gold for c in cands) == 1

    w = word("palvelu", ["j", "a"], prefixes=["laina", "n", "välitys"], language="finnish")
    cands = derive.enumerate_orderings(w)
    assert len(cands) == 12
    surfaces = {c.surface for c in cands}
    assert "lainanvälityspalveluja" in surfaces  # gold
    assert "nlainavälityspalveluja" in surfaces
    assert "lainanvälityspalveluaj" in surfaces


def test_enumerate_orderings_dedups_duplicate_forms():
    w = word("hayal", ["ler", "im", "de", "ki", "ler", "i"])
    cands = derive.enumerate_orderings(w)
    assert len(cands) == math.factorial(6) // 2  # two identical 'ler'
    assert sum(c.is_gold for c in cands) == 1
    assert len({c.surface for c in cands}) == len(cands)


def test_enumerate_orderings_cap():
    w = word("kök", [str(i) for i in "abcdefgh"])  # 8! > 10080
    with pytest.raises(CombinatorialCap):
        derive.enumerate_orderings(w)


def test_sample_orderings_uniform_without_replacement():
    w = word("kök", list("abcdefgh"))
    cands = derive.sample_orderings(w, 200, make_rng(3))
    assert any(c.is_gold for c in cands)
    assert len({c.surface for c in cands}) == len(cands)
    assert len(cands) <= 200
    # every sampled ordering is a true permutation of the affixes
    for c in cands:
        assert sorted(c.suffix_order) == sorted(list("abcdefgh"))


def test_levenshtein_fixture():
    assert derive.levenshtein("sıradanmış", "sıramışdan") == 6


DEGER_REFERENCE_NEGATIVES = {
    "değeriplendir",
    "değerdirlenip",
    "değeripdirlen",
    "değerlenipdir",
}


def test_select_negatives_deger_tie_band():
    """The four reference negatives and the selected four must agree outside
    the distance tie band and both stay inside it."""
    w = word("değer", ["len", "dir", "ip"])
    cands = derive.enumerate_orderings(w)
    non_gold = {c.surface: c.levenshtein_to_gold for c in cands if not c.is_gold}
    assert len(non_gold) == 5

    distances = sorted(non_gold.values())
    kth = distances[3]
    forced = {s for s, d in non_gold.items() if d < kth}
    band = {s for s, d in non_gold.items() if d == kth}

    assert forced <= DEGER_REFERENCE_NEGATIVES
    assert DEGER_REFERENCE_NEGATIVES - forced <= band

    selected = {c.surface for c in derive.select_negatives(w, "lang_agnostic", 4)}
    assert len(selected) == 4
    assert forced <= selected
    assert selected - forced <= band


def test_select_negatives_distance_dominance():
    w = word("kişi", ["leş", "tir", "me", "si", "ne"])
    cands = derive.enumerate_orderings(w)
    selected = derive.select_negatives(w, "lang_agnostic", 4)
    worst = max(c.levenshtein_to_gold for c in selected)
    excluded = [c for c in cands if not c.is_gold and c not in selected]
    assert all(c.levenshtein_to_gold >= worst for c in excluded)


def test_select_negatives_single_candidate():
    w = word("sıra", ["dan", "mış"])
    for strategy in ("random", "lang_agnostic", "lang_specific_tr"):
        negs = derive.select_negatives(w, strategy, 1, make_rng(1))
        assert [c.surface for c in negs] == ["sıramışdan"]


def test_select_negatives_manual_single_morpheme():
    w = word("sohbet", ["ler"], manual_negative_affix="yin")
    negs = derive.select_negatives(w, "lang_agnostic", 1)
    assert [c.surface for c in negs] == ["sohbetyin"]
    bare = word("sohbet", ["ler"])
    with pytest.raises(NoNegativeAvailable):
        derive.select_negatives(bare, "lang_agnostic", 1)


def test_select_negatives_random_is_subset_and_seeded():
    w = word("değer", ["len", "dir", "ip"])
    a = {c.surface for c in derive.select_negatives(w, "random", 4, make_rng(5))}
    b = {c.surface for c in derive.select_negatives(w, "random", 4, make_rng(5))}
    assert a == b
    assert len(a) == 4
    assert a <= {c.surface for c in derive.enumerate_orderings(w) if not c.is_gold}


def test_select_negatives_tr_heuristic_prefers_no_adjacent_vowels(turkish):
    from morphsuite.profiles import has_adjacent_vowels

    w = word("sınıf", ["lan", "dır", "ıl", "ma", "lar", "ı", "nı"])
    selected = derive.select_negatives(w, "lang_specific_tr", 4)
    assert len(selected) == 4
    cands = derive.enumerate_orderings(w)
    smooth_pool = [
        c for c in cands if not c.is_gold and not has_adjacent_vowels(c.surface, turkish)
    ]
    if len(smooth_pool) >= 4:
        assert all(not has_adjacent_vowels(c.surface, turkish) for c in selected)


def test_select_negatives_tr_heuristic_backfills():
    # Both non-gold orderings of two vowel-initial suffixes clash, so the
    # heuristic has to fall back to adjacent-vowel candidates.
    w = word("masa", ["ı", "a", "lar"])
    selected = derive.select_negatives(w, "lang_specific_tr", 4)
    assert len(selected) == 4


def test_select_negatives_tr_heuristic_rejects_finnish():
    w = word("sano", ["taan", "pas"], language="finnish")
    with pytest.raises(UnsupportedStrategy):
        derive.select_negatives(w, "lang_specific_tr", 1)


def test_negatives_never_gold_or_known_valid():
    w = word("değer", ["len", "dir", "ip"], known_valid_alternatives={"değerlenipdir"})
    for strategy in ("random", "lang_agnostic"):
        negs = derive.select_negatives(w, strategy, 4, make_rng(7))
        surfaces = {c.surface for c in negs}
        assert "değerlendirip" not in surfaces
        assert "değerlenipdir" not in surfaces


@given(
    st.text(alphabet="aeklmnrst", min_size=2, max_size=5),
    st.lists(
        st.text(alphabet="aeklmnrst", min_size=1, max_size=3),
        min_size=2,
        max_size=4,
        unique=True,
    ),
)
def test_enumerate_matches_bruteforce(root, suffixes):
    w = word(root, suffixes)
    expected = {root + "".join(p) for p in permutations(suffixes)}
    got = {c.surface for c in derive.enumerate_orderings(w)}
    assert got == expected


def oracle_negatives(w, strategy, k, rng, profile):
    """Brute force: every ordering, first ordering per surface, one edit
    distance each by the full-matrix DP, then a (distance, surface) sort;
    lang_specific_tr takes the smooth surfaces first and backfills with the
    clashing ones."""
    gold = "".join(w.prefix_forms) + w.root + "".join(w.suffix_forms)
    first = {}
    for pp in permutations(w.prefix_forms):
        for sp in permutations(w.suffix_forms):
            first.setdefault("".join(pp) + w.root + "".join(sp), (pp, sp))
    pool = [
        (surface, pp, sp, dp_oracle(surface, gold))
        for surface, (pp, sp) in first.items()
        if surface != gold and surface not in w.known_valid_alternatives
    ]
    if len(pool) <= k:
        return pool  # enumeration order, unranked
    if strategy == "random":
        return rng.sample(pool, k)
    ranked = sorted(pool, key=lambda c: (c[3], c[0]))
    if strategy == "lang_agnostic":
        return ranked[:k]
    smooth = [c for c in ranked if not has_adjacent_vowels(c[0], profile)]
    clashing = [c for c in ranked if has_adjacent_vowels(c[0], profile)]
    return (smooth + clashing)[:k]


def _as_tuples(candidates):
    assert not any(c.is_gold for c in candidates)
    return [(c.surface, c.prefix_order, c.suffix_order, c.levenshtein_to_gold) for c in candidates]


# Colliding segmentations ("l"+"ar" vs "la"+"r"), repeated forms and vowel-only
# forms, so surface dedup, same-form skipping and the smooth/clashing split all occur.
_FORMS = st.sampled_from(["l", "ar", "la", "r", "a", "ı", "e", "ler", "ki", "ın", "dı"])


@st.composite
def _words(draw, forms=_FORMS):
    root = draw(st.text(alphabet="aeıklmrs", min_size=1, max_size=4))
    prefixes = draw(st.lists(forms, max_size=2))
    n_prefixes = len(prefixes)
    suffixes = draw(st.lists(forms, min_size=max(0, 2 - n_prefixes), max_size=6 - n_prefixes))
    w = word(root, suffixes, prefixes=prefixes)
    surfaces = {
        "".join(pp) + root + "".join(sp)
        for pp in permutations(prefixes)
        for sp in permutations(suffixes)
    }
    alternatives = sorted(surfaces - {w.gold_surface})
    if alternatives:
        w.known_valid_alternatives = set(
            draw(st.lists(st.sampled_from(alternatives), max_size=2, unique=True))
        )
    return w


@settings(max_examples=200, deadline=None)
@given(_words(), st.sampled_from(derive.STRATEGIES), st.integers(1, 6), st.integers(0, 2**16))
# At most k distinct negatives: returned in enumeration order, which for
# değer's five is not their distance order.
@example(word("değer", ["len", "dir", "ip"]), "lang_agnostic", 5, 0)
@example(word("değer", ["len", "dir", "ip"]), "lang_specific_tr", 6, 0)
@example(word("değer", ["len", "dir", "ip"]), "random", 5, 0)
# Eight affixes: distinct forms colliding into few surfaces, and vowel-heavy
# forms whose surfaces mostly clash.
@example(word("kök", ["a" * n for n in range(1, 8)] + ["b"]), "lang_agnostic", 4, 0)
@example(word("kap", ["ab", "ba", "a", "b", "ab", "ba", "aa", "bb"]), "lang_specific_tr", 4, 0)
# The only clash is at the prefix/root join (mle + ak), and the clashing
# mleaklardı is nearer gold than the smooth lemakdılar.
@example(word("ak", ["lar", "dı"], prefixes=["le", "m"]), "lang_specific_tr", 2, 0)
# Three smooth negatives for k = 4: every smooth one, then the nearest clashing one.
@example(word("kap", ["ı", "la", "m"]), "lang_specific_tr", 4, 0)
# A returned smooth negative 8 edits further from gold than the nearest
# clashing one (len(gold) is 14): the clash offset must exceed that gap.
@example(word("sım", ["la", "ar", "dı", "e"], prefixes=["la", "ar"]), "lang_specific_tr", 2, 0)
# A suffix, a prefix or the root with adjacent vowels of its own: every
# surface clashes, so the search starts clashed.
@example(word("kap", ["la", "aa", "m", "dı"]), "lang_specific_tr", 2, 0)
@example(word("ak", ["lar", "dı"], prefixes=["ee", "m"]), "lang_specific_tr", 2, 0)
@example(word("kaap", ["la", "m", "ı"], prefixes=["e"]), "lang_specific_tr", 2, 0)
def test_select_negatives_matches_bruteforce_oracle(turkish, w, strategy, k, seed):
    want = oracle_negatives(w, strategy, k, make_rng(seed), turkish)
    got = derive.select_negatives(w, strategy, k, make_rng(seed))
    assert _as_tuples(got) == want
    # A given pool feeds random and the small-pool return; the distance
    # strategies always search the record's own orderings. Above the cap
    # there is no full pool to give.
    if derive.ordering_space(w) > derive.DEFAULT_ORDERING_CAP:
        return
    given = derive.enumerate_orderings(w)
    if strategy != "random" and sum(not c.is_gold for c in given) > k:
        with pytest.raises(ValueError):
            derive.select_negatives(w, strategy, k, candidates=given)
    else:
        given_pool = derive.select_negatives(w, strategy, k, make_rng(seed), candidates=given)
        assert _as_tuples(given_pool) == want


def oracle_random(w, k, seed):
    """random by brute force: the list of every ordering, or above the cap
    that list indexed by the seeded draw [0] + sorted(rng.sample(range(1,
    total), cap - 1)); the first ordering per surface, gold and known-valid
    surfaces dropped, rng.sample(pool, k) when the pool exceeds k, and a
    full-matrix DP distance for each pick. seed None means no rng."""
    rng = None if seed is None else make_rng(seed)
    orders = list(product(permutations(w.prefix_forms), permutations(w.suffix_forms)))
    cap = derive.DEFAULT_ORDERING_CAP
    if len(orders) > cap:
        if rng is None:
            raise CombinatorialCap
        orders = [orders[i] for i in [0] + sorted(rng.sample(range(1, len(orders)), cap - 1))]
    gold = "".join(w.prefix_forms) + w.root + "".join(w.suffix_forms)
    first = {}
    for pp, sp in orders:
        first.setdefault("".join(pp) + w.root + "".join(sp), (pp, sp))
    pool = [
        (surface, pp, sp)
        for surface, (pp, sp) in first.items()
        if surface != gold and surface not in w.known_valid_alternatives
    ]
    if len(pool) > k:
        if rng is None:
            raise ValueError
        pool = rng.sample(pool, k)
    return [(surface, pp, sp, dp_oracle(surface, gold)) for surface, pp, sp in pool]


_KALEM = ["la", "ma", "di", "ki", "ce", "sı", "nu", "pe"]


@settings(max_examples=200, deadline=None)
@given(
    # Colliding (a + ab = aa + b = aab) and repeated forms in both blocks.
    _words(st.sampled_from(["a", "aa", "ab", "ba", "b", "ler"])),
    st.integers(1, 8),
    st.none() | st.integers(0, 2**16),
)
# Above the cap: only the seeded draw of 10,080 of the 8! orderings is a pool,
# and without an rng there is none.
@example(word("kalem", _KALEM), 4, 3)
@example(word("kalem", _KALEM), 4, None)
# Above the cap with a prefix block (3! * 7!), and exactly at the cap (2! * 7!).
@example(word("kalem", _KALEM[:7], prefixes=["ön", "ar", "ab"]), 4, 11)
@example(word("kalem", _KALEM[:7], prefixes=["ön", "ar"]), 4, 11)
def test_select_random_matches_bruteforce_oracle(w, k, seed):
    want = outcome(oracle_random, w, k, seed)
    rng = None if seed is None else make_rng(seed)
    got = outcome(lambda: _as_tuples(derive.select_negatives(w, "random", k, rng)))
    assert got == want


def full_text_clashes(profile):
    """clashes(text, form) that re-folds and re-scans the whole of text +
    form: the oracle of profiles.adjacent_vowels_after."""
    return lambda text, form: has_adjacent_vowels(text + form, profile)


# Uppercase I/İ and combining marks at form joins (I + U+0307 is İ), and a
# letter outside the alphabet.
_JOIN_FORMS = st.sampled_from(
    ["a", "ı", "e", "l", "ar", "k", "I", "İ", "Ia", "\u0307", "\u0308", "\u0307a", "o", "q"]
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["k", "kI", "ko", "İk", "\u0307k"]),
    st.lists(_JOIN_FORMS, max_size=2),
    st.lists(_JOIN_FORMS, min_size=1, max_size=5),
    st.integers(1, 4),
)
@example("kap", [], ["ab", "ba", "a", "b", "ab", "ba", "aa", "bb", "la", "le"], 4)
def test_nearest_clashes_matches_full_text(turkish, root, prefixes, suffixes, k):
    w = word(root, suffixes, prefixes=prefixes)
    clashes = profiles.adjacent_vowels_after(turkish)
    got = outcome(lambda: _as_tuples(derive._nearest(w, k, clashes)))
    assert got == outcome(lambda: _as_tuples(derive._nearest(w, k, full_text_clashes(turkish))))


def test_nearest_asks_only_the_forms_when_one_clashes_alone(turkish):
    # aa is in every ordering, so every surface clashes and ranks as under
    # lang_agnostic; no placed text needs a look.
    w = word("kap", ["ab", "ba", "a", "b", "ab", "ba", "aa", "bb", "la", "le"])
    asked = []
    clashes = profiles.adjacent_vowels_after(turkish)

    def counting(text, form):
        asked.append(text)
        return clashes(text, form)

    assert _as_tuples(derive._nearest(w, 4, counting)) == _as_tuples(derive._nearest(w, 4))
    assert set(asked) == {""}


def test_select_negatives_above_cap(turkish):
    # 8! orderings, over DEFAULT_ORDERING_CAP; repeated forms keep the
    # distinct surfaces, and so the oracle's distance calls, few.
    w = word("kök", list("aaaabbbc"))
    assert derive.ordering_space(w) > derive.DEFAULT_ORDERING_CAP
    # The distance strategies are exact at any size. In the second word,
    # distinct forms collide into few surfaces and tie with gold along the
    # way, so only the search's merging of equal states keeps it small.
    colliding = word("kök", ["a" * n for n in range(1, 8)] + ["b"])
    for w_exact in (w, colliding):
        for strategy in ("lang_agnostic", "lang_specific_tr"):
            got = derive.select_negatives(w_exact, strategy, 4)
            assert _as_tuples(got) == oracle_negatives(w_exact, strategy, 4, None, turkish)
    # random keeps drawing from a seeded sample of DEFAULT_ORDERING_CAP orderings
    rng = make_rng(3)
    sampled = derive.sample_orderings(w, derive.DEFAULT_ORDERING_CAP, rng)
    want = rng.sample([c for c in sampled if not c.is_gold], 4)
    assert derive.select_negatives(w, "random", 4, make_rng(3)) == want
    with pytest.raises(CombinatorialCap):
        derive.select_negatives(w, "random", 4)

    warnings = {
        strategy: suite.build_suite(
            [w], "systematicity", "id", suite.BuildOptions(strategy=strategy)
        )[1]["warnings"]
        for strategy in ("random", "lang_agnostic")
    }
    assert warnings == {
        "random": ["record t-kök: ordering space over cap 10080, candidates sampled"],
        "lang_agnostic": [],
    }
