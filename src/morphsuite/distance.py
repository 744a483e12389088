"""Levenshtein distance over Unicode scalar values.

Two-row dynamic program; O(len(a)*len(b)) time, O(min(len)) space. The
branch-and-bound negative search in morphsuite.derive computes the same
rows incrementally; this function is its reference.
"""


def levenshtein(a: str, b: str) -> int:
    """Minimal insertions/deletions/substitutions turning a into b."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)

    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cost = prev[j - 1] if ca == cb else prev[j - 1] + 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, cost)
        prev = cur
    return prev[-1]
