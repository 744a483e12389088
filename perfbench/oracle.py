"""Brute-force reference for lang_agnostic negative selection.

Independent of the program: its own full-matrix edit distance, full
enumeration of per-block orderings, and an explicit (distance, surface)
sort. The benchmark checks the program's suites against it, and the
self-tests check it against ``derive.select_negatives`` on small records.
"""
from itertools import permutations


def edit_distance(a, b):
    """Levenshtein distance by the textbook full (len(a)+1) x (len(b)+1) table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            substitute = table[i - 1][j - 1] + (a[i - 1] != b[j - 1])
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1, substitute)
    return table[len(a)][len(b)]


def orderings(root, prefixes, suffixes):
    """{surface: (prefix order, suffix order)} over every per-block ordering.

    Surfaces that several orderings produce keep the first ordering met.
    """
    out = {}
    for prefix_order in permutations(prefixes):
        for suffix_order in permutations(suffixes):
            surface = "".join(prefix_order) + root + "".join(suffix_order)
            out.setdefault(surface, (prefix_order, suffix_order))
    return out


def top_k_negatives(root, prefixes, suffixes, k, known_valid=()):
    """The k non-gold surfaces closest to gold, ordered by (distance, surface)."""
    gold = "".join(prefixes) + root + "".join(suffixes)
    excluded = {gold, *known_valid}
    ranked = sorted(
        (edit_distance(surface, gold), surface)
        for surface in orderings(root, prefixes, suffixes)
        if surface not in excluded
    )
    return [surface for _, surface in ranked[:k]]


def default_k(morpheme_count):
    """Negatives per item as the README specifies: 1 for 1-2 morphemes, 4 otherwise."""
    return 1 if morpheme_count <= 2 else 4
