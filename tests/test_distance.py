import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphsuite.distance import Pattern, levenshtein


def dp_table(a, b):
    """Full (len(a)+1) x (len(b)+1) edit-distance table: table[i][j] is the
    distance between a[:i] and b[:j]. Kept independent of the library kernel."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
            )
    return table


def dp_oracle(a, b):
    """Full-matrix quadratic DP, kept independent of the library kernel."""
    return dp_table(a, b)[-1][-1]


KNOWN = [
    ("", "", 0),
    ("x", "x", 0),
    ("abc", "", 3),
    ("kitten", "sitting", 3),
    ("saturday", "sunday", 3),
    ("sıradanmış", "sıramışdan", 6),  # computed with dp_oracle before freezing
    ("değeriplendir", "değerlendirip", 4),
]


def test_known_distances():
    for a, b, expected in KNOWN:
        assert levenshtein(a, b) == expected
        assert dp_oracle(a, b) == expected


def test_backends_agree_with_oracle_randomized():
    rng = random.Random(99)
    alphabet = "abcçdeğıijosştuüy"
    for _ in range(500):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        expected = dp_oracle(a, b)
        assert levenshtein(a, b) == expected


@given(st.text(max_size=12), st.text(max_size=12))
def test_matches_oracle_hypothesis(a, b):
    assert levenshtein(a, b) == dp_oracle(a, b)


@given(st.text(max_size=16), st.text(max_size=16), st.text(max_size=16))
def test_metric_axioms(a, b, c):
    assert levenshtein(a, b) >= 0
    assert (levenshtein(a, b) == 0) == (a == b)
    assert levenshtein(a, b) == levenshtein(b, a)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# Five letters, so they repeat: a Turkish one and two outside the BMP. Up
# to 90 characters, so patterns span more than one 64-bit word.
_LETTERS = "abğ\U0001F600\U00010348"
_STRINGS = st.integers(0, 90).flatmap(
    lambda n: st.text(alphabet=_LETTERS, min_size=n, max_size=n)
)


@settings(deadline=None)
@given(_STRINGS, _STRINGS)
@example("", "ab")
@example("a" * 70 + "b", "b" + "a" * 68 + "\U0001F600")
@example("ğ\U0001F600" * 40, "\U0001F600ğ" * 33)
def test_every_column_cell_matches_dp_table(pattern_text, text):
    pattern = Pattern(pattern_text)
    table = dp_table(pattern_text, text)
    column = pattern.start
    for j in range(len(text) + 1):
        if j:
            column = pattern.advance(column, text[j - 1])
        cells = [pattern.cell(column, i, j) for i in range(len(pattern_text) + 1)]
        assert cells == [row[j] for row in table]
        assert column[2] == table[-1][j]
    assert pattern.advance(pattern.start, text) == column
    assert levenshtein(text, pattern_text) == table[-1][-1]
