import random

from hypothesis import given
from hypothesis import strategies as st

from morphsuite.distance import levenshtein


def dp_oracle(a, b):
    """Full-matrix quadratic DP, kept independent of the library kernels."""
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
    return table[m][n]


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
