"""Surface composition, ordering enumeration, and negative-option selection.

Affixes are surface-realized: composing is plain concatenation of the prefix
block, the root, and the suffix block. Alternative orderings permute affixes
within their slot block only; prefixes never migrate past the root.

Enumeration order is itertools.permutations order over the prefix block
(outer) and the suffix block (inner); a surface reached by several orderings
is represented by the first of them.

The nearest negatives (lang_agnostic, lang_specific_tr) are found without
scoring every ordering: a depth-first search places the prefix block, the
root, then the suffix block, one affix per step, and each step advances a
column of edit distances to the gold surface (distance.Pattern) by that
affix's characters, so orderings that share a prefix share its columns.
Orderings that place the same text with the same forms left have the same
completions, so only the first of them is searched; this also keeps one
ordering per surface.

A surface ranks by (clashes, distance, surface): under lang_specific_tr a
surface with adjacent vowels clashes, under lang_agnostic none does. The
search adds len(gold) + 1 to a clashing surface's distance, which keeps the
rank one number: every ordering has gold's length, so no distance exceeds
len(gold) and each smooth surface ranks first. Placed text that clashes
clashes in every completion, so a branch carries that as a flag. With i
characters placed, every completion is at least D(i, i) from gold, the
distance between the first i characters of each: an alignment leaves the
column through some cell D(r, i), still pays |i - r| for the unequal
lengths left, and neighbouring cells differ by at most 1 (the cutoff of
Ukkonen, 1985). A branch is pruned only when that bound, plus len(gold) + 1
if it clashes, is strictly greater than the current k-th best rank: ties
survive, which keeps the order exact. A smooth branch may stay smooth, so
every one is searched while fewer than k smooth surfaces are known, unless
the root or a form has adjacent vowels of its own: then every surface
clashes, and the search starts clashed. The search is still exponential in
the number of affixes at worst (many distinct surfaces tied at the k-th
rank); no ordering cap bounds it.
"""
from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from itertools import islice, permutations, product, repeat
from typing import Callable, Iterable, Iterator, Sequence

from morphsuite import profiles
from morphsuite.distance import Column, Pattern, levenshtein
from morphsuite.errors import (
    CombinatorialCap,
    EmptyAffix,
    NoNegativeAvailable,
    UnsupportedStrategy,
)

PREFIX = "prefix"
SUFFIX = "suffix"

RANDOM = "random"
LANG_AGNOSTIC = "lang_agnostic"
LANG_SPECIFIC_TR = "lang_specific_tr"
STRATEGIES = (RANDOM, LANG_AGNOSTIC, LANG_SPECIFIC_TR)

DEFAULT_ORDERING_CAP = 10080  # 7! * 2!


@dataclass(frozen=True)
class Affix:
    """One surface-realized bound morpheme with its slot. A record lists its
    affixes in gold order; gold_index is read by nothing and left at 0."""

    form: str
    slot: str = SUFFIX
    gold_index: int = 0


@dataclass
class SegmentedWord:
    """A segmented record: root, slotted affixes, and the gold surface form."""

    record_id: str
    language_id: str
    root: str
    affixes: list[Affix]
    gold_surface: str
    sentence: str | None = None
    meta_affixes: list[str] = field(default_factory=list)
    manual_negative_affix: str | None = None
    known_valid_alternatives: set[str] = field(default_factory=set)
    nonce_root: str | None = None

    @property
    def morpheme_count(self) -> int:
        return len(self.affixes)

    @property
    def prefix_forms(self) -> list[str]:
        return [a.form for a in self.affixes if a.slot == PREFIX]

    @property
    def suffix_forms(self) -> list[str]:
        return [a.form for a in self.affixes if a.slot == SUFFIX]

    @property
    def gold_order_forms(self) -> list[str]:
        """All affix forms in gold order, prefixes first."""
        return self.prefix_forms + self.suffix_forms


@dataclass(frozen=True)
class CandidateDerivation:
    """One ordering of a record's affixes, realized as a surface string."""

    surface: str
    prefix_order: tuple[str, ...]
    suffix_order: tuple[str, ...]
    is_gold: bool
    levenshtein_to_gold: int


def compose(root: str, ordered_affixes: Sequence[Affix]) -> str:
    """Concatenate the prefix block, the root, and the suffix block."""
    for affix in ordered_affixes:
        if not affix.form:
            raise EmptyAffix(f"empty affix form attached to root {root!r}")
    prefixes = [a.form for a in ordered_affixes if a.slot == PREFIX]
    suffixes = [a.form for a in ordered_affixes if a.slot == SUFFIX]
    return compose_forms(root, prefixes, suffixes)


def compose_forms(root: str, prefixes: Iterable[str], suffixes: Iterable[str]) -> str:
    return "".join(prefixes) + root + "".join(suffixes)


def ordering_space(word: SegmentedWord) -> int:
    return math.factorial(len(word.prefix_forms)) * math.factorial(len(word.suffix_forms))


def _gold(word: SegmentedWord) -> str:
    return compose_forms(word.root, word.prefix_forms, word.suffix_forms)


def _all_orders(word: SegmentedWord) -> Iterator[tuple[tuple, tuple]]:
    """Every (prefix_order, suffix_order) pair, in enumeration order."""
    for prefix_order in permutations(word.prefix_forms):
        yield from zip(repeat(prefix_order), permutations(word.suffix_forms))


def _distinct(
    word: SegmentedWord, orders, exclude: Iterable[str] = ()
) -> Iterator[tuple[str, tuple, tuple]]:
    """(surface, prefix_order, suffix_order) for the first ordering that
    realizes each surface not in exclude, lazily."""
    seen = set(exclude)
    for prefix_order, suffix_order in orders:
        surface = compose_forms(word.root, prefix_order, suffix_order)
        if surface not in seen:
            seen.add(surface)
            yield surface, prefix_order, suffix_order


def _candidates_from_orders(word: SegmentedWord, orders) -> list[CandidateDerivation]:
    """Realize orderings as surfaces, deduplicated; gold status follows the
    surface, so colliding orderings can never split the gold mark."""
    gold = _gold(word)
    return [
        CandidateDerivation(
            surface=surface,
            prefix_order=tuple(prefix_order),
            suffix_order=tuple(suffix_order),
            is_gold=surface == gold or surface in word.known_valid_alternatives,
            levenshtein_to_gold=levenshtein(surface, gold),
        )
        for surface, prefix_order, suffix_order in _distinct(word, orders)
    ]


def enumerate_orderings(
    word: SegmentedWord, *, cap: int = DEFAULT_ORDERING_CAP
) -> list[CandidateDerivation]:
    """All per-block orderings of the word's affixes, deduplicated by surface."""
    if word.morpheme_count < 1:
        raise EmptyAffix(f"record {word.record_id} has no affixes")
    if ordering_space(word) > cap:
        raise CombinatorialCap(
            f"record {word.record_id}: {ordering_space(word)} orderings exceed cap {cap}"
        )
    return _candidates_from_orders(word, _all_orders(word))


def _unrank_permutation(items: Sequence[str], index: int) -> tuple[str, ...]:
    """Lehmer-decode the index-th permutation of items (factorial numbering)."""
    pool = list(items)
    out = []
    for i in range(len(pool), 0, -1):
        f = math.factorial(i - 1)
        pos, index = divmod(index, f)
        out.append(pool.pop(pos))
    return tuple(out)


def _order(word: SegmentedWord, index: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The index-th (prefix_order, suffix_order) in enumeration order."""
    p_index, s_index = divmod(index, math.factorial(len(word.suffix_forms)))
    prefix_order = _unrank_permutation(word.prefix_forms, p_index)
    return prefix_order, _unrank_permutation(word.suffix_forms, s_index)


def _sample_indices(word: SegmentedWord, n: int, rng) -> list[int]:
    """The seeded draw of n ordering indices, ascending; index 0 (gold) first."""
    total = ordering_space(word)
    return [0] + sorted(rng.sample(range(1, total), max(0, min(n, total) - 1)))


def sample_orderings(word: SegmentedWord, n: int, rng) -> list[CandidateDerivation]:
    """Uniform sample of n orderings without replacement, always incl. gold
    (index 0 in the factorial numbering); used above the cap."""
    return _candidates_from_orders(word, [_order(word, i) for i in _sample_indices(word, n, rng)])


def candidate_pool(word: SegmentedWord, *, rng=None) -> tuple[list[CandidateDerivation], bool]:
    """All orderings, or a seeded sample of DEFAULT_ORDERING_CAP of them above it.

    Returns (candidates, truncated). Sampling requires an rng; without one
    the cap overflow propagates as CombinatorialCap.
    """
    if ordering_space(word) <= DEFAULT_ORDERING_CAP or rng is None:
        return enumerate_orderings(word), False
    return sample_orderings(word, DEFAULT_ORDERING_CAP, rng), True


def samples_orderings(word: SegmentedWord, strategy: str) -> bool:
    """True when select_negatives draws from a sample of the orderings
    rather than all of them: random above DEFAULT_ORDERING_CAP."""
    return strategy == RANDOM and ordering_space(word) > DEFAULT_ORDERING_CAP


def _candidate(word: SegmentedWord, surface: str, prefix_order, suffix_order):
    return CandidateDerivation(
        surface=surface,
        prefix_order=tuple(prefix_order),
        suffix_order=tuple(suffix_order),
        is_gold=False,
        levenshtein_to_gold=levenshtein(surface, _gold(word)),
    )


def _random_negatives(word: SegmentedWord, k: int, rng) -> list[CandidateDerivation]:
    """random from the record's own orderings: see select_negatives."""
    total = ordering_space(word)
    if total <= DEFAULT_ORDERING_CAP:
        indices = range(total)
        prefixes = map("".join, permutations(word.prefix_forms))
        suffixes = map("".join, permutations(word.suffix_forms))
        surfaces = list(map("".join, product(prefixes, (word.root,), suffixes)))
    elif rng is None:
        raise CombinatorialCap(
            f"record {word.record_id}: {total} orderings exceed cap {DEFAULT_ORDERING_CAP}"
        )
    else:
        indices = _sample_indices(word, DEFAULT_ORDERING_CAP, rng)
        surfaces = [compose_forms(word.root, *_order(word, index)) for index in indices]
    pool = dict.fromkeys(surfaces)  # first ordering per surface, in order
    for surface in {_gold(word)} | word.known_valid_alternatives:
        pool.pop(surface, None)
    if len(pool) > k:
        if rng is None:
            raise ValueError("random strategy needs an rng")
        pool = rng.sample(list(pool), k)
    return [_candidate(word, s, *_order(word, indices[surfaces.index(s)])) for s in pool]


def _nearest(
    word: SegmentedWord, k: int, clashes: Callable[[str, str], bool] | None = None
) -> list[CandidateDerivation]:
    """The k distinct negatives that rank first, by the branch-and-bound
    search of the module docstring. clashes(text, form) tells whether text +
    form has adjacent vowels; it is asked only while the placed text is
    smooth, form by form, the root included. Without it nothing clashes."""
    if k < 1:
        return []
    gold = _gold(word)
    excluded = {gold} | word.known_valid_alternatives
    clash_rank = len(gold) + 1  # above any distance: see the module docstring
    best: list[tuple[int, str, tuple, tuple, int]] = []  # sorted (rank, surface, orders, distance)
    cutoff = math.inf  # k-th best rank once k negatives are known
    prefix_order: list[str] = []
    suffix_order: list[str] = []
    searched: set[str] = set()  # block + placed text, then the sorted forms left, NUL-joined
    pattern = Pattern(gold)

    def permute(
        block: str, order: list[str], remaining: tuple, column: Column, text: str,
        clashed: bool, then,
    ) -> None:
        if not remaining:
            then(column, text, clashed)
            return
        for index, form in enumerate(remaining):
            rest = remaining[:index] + remaining[index + 1:]
            placed = text + form
            # Placed text and the multiset of forms left fix every completion,
            # so only the first ordering to reach them is searched. A string
            # key, unlike a tuple, adds nothing for the garbage collector to scan.
            state = "\0".join((block + placed, *sorted(rest)))
            if state in searched:
                continue
            searched.add(state)
            extended = pattern.advance(column, form)
            i = len(placed)
            bound = pattern.cell(extended, i, i)
            if bound > cutoff:
                continue
            # Placed text that clashes makes every completion clash.
            now = clashed or (clashes is not None and clashes(text, form))
            if now and bound + clash_rank > cutoff:
                continue
            order.append(form)
            permute(block, order, rest, extended, placed, now, then)
            order.pop()

    def leaf(column: Column, surface: str, clashed: bool) -> None:
        nonlocal cutoff
        distance = column[2]
        rank = distance + clash_rank if clashed else distance
        if rank > cutoff or surface in excluded:
            return
        if len(best) == k:
            if (rank, surface) > best[-1][:2]:
                return
            best.pop()
        insort(best, (rank, surface, tuple(prefix_order), tuple(suffix_order), distance))
        if len(best) == k:
            cutoff = best[-1][0]

    def after_prefixes(column: Column, text: str, clashed: bool) -> None:
        clashed = clashed or (clashes is not None and clashes(text, word.root))
        column, text = pattern.advance(column, word.root), text + word.root
        permute(SUFFIX, suffix_order, tuple(word.suffix_forms), column, text, clashed, leaf)

    # A root or form with adjacent vowels of its own is in every ordering.
    clashed = clashes is not None and any(
        clashes("", form) for form in (word.root, *word.prefix_forms, *word.suffix_forms)
    )
    permute(
        PREFIX, prefix_order, tuple(word.prefix_forms), pattern.start, "", clashed, after_prefixes
    )
    return [
        CandidateDerivation(surface, po, so, False, distance)
        for _, surface, po, so, distance in best
    ]


def _manual_negative(word: SegmentedWord) -> CandidateDerivation:
    if not word.manual_negative_affix:
        raise NoNegativeAvailable(
            f"record {word.record_id}: 1-morpheme items need manual_negative_affix"
        )
    surface = compose_forms(word.root, [], [word.manual_negative_affix])
    return _candidate(word, surface, (), (word.manual_negative_affix,))


def default_k(morpheme_count: int) -> int:
    """Negatives per sample: 1 for 1-2 morphemes, 4 for 3 or more."""
    return 1 if morpheme_count <= 2 else 4


def select_negatives(
    word: SegmentedWord,
    strategy: str,
    k: int | None = None,
    rng=None,
    *,
    candidates: list[CandidateDerivation] | None = None,
) -> list[CandidateDerivation]:
    """Pick k invalid orderings for a record under the given strategy.

    random: uniform k-subset, drawn with rng.sample from the distinct
    surfaces in enumeration order. Up to DEFAULT_ORDERING_CAP orderings the
    pool costs one string per ordering; above it, only a seeded sample of
    that many orderings is unranked (the draw of sample_orderings). The
    orderings and edit distances are computed for the k picks only.

    lang_agnostic and lang_specific_tr: the k surfaces that rank first in
    the one branch-and-bound search of the module docstring, exact at any
    ordering-space size. lang_agnostic ranks by (distance to gold, surface);
    lang_specific_tr ranks every surface without adjacent vowels first, so
    it returns the k nearest smooth surfaces, and the nearest clashing ones
    only when fewer than k smooth ones exist.

    A record with at most k distinct negative surfaces gets all of them, in
    enumeration order rather than ranked, under every strategy. Gold and
    known-valid surfaces are never returned. ``candidates`` replaces the
    record's own orderings with a given list: random samples from it, and
    the distance strategies accept it only when it holds at most k
    negatives (ValueError otherwise).
    """
    if strategy not in STRATEGIES:
        raise UnsupportedStrategy(f"unknown strategy {strategy!r}")
    if strategy == LANG_SPECIFIC_TR and word.language_id != profiles.TURKISH:
        raise UnsupportedStrategy(
            f"{LANG_SPECIFIC_TR} only applies to Turkish, not {word.language_id}"
        )
    if k is None:
        k = default_k(word.morpheme_count)

    if word.morpheme_count == 1:
        return [_manual_negative(word)]

    if candidates is None and strategy == RANDOM:
        return _random_negatives(word, k, rng)
    if candidates is None:
        # The distance strategies only need to know if the pool exceeds k.
        excluded = {_gold(word)} | word.known_valid_alternatives
        pool = list(islice(_distinct(word, _all_orders(word), excluded), k + 1))
    else:
        pool = [(c.surface, c.prefix_order, c.suffix_order) for c in candidates if not c.is_gold]

    if len(pool) <= k:
        return [_candidate(word, *ordering) for ordering in pool]
    if strategy == RANDOM:
        if rng is None:
            raise ValueError("random strategy needs an rng")
        return [_candidate(word, *ordering) for ordering in rng.sample(pool, k)]
    if candidates is not None:
        raise ValueError(f"candidates= is a pool for {RANDOM} only, not for {strategy}")
    clashes = None
    if strategy == LANG_SPECIFIC_TR:
        clashes = profiles.adjacent_vowels_after(profiles.load_profile(word.language_id))
    return _nearest(word, k, clashes)
