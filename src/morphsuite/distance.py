"""Levenshtein distance over Unicode scalar values, by one bit-vector kernel.

Pattern holds the match masks of a fixed pattern p of length m: bit r of
peq[c] is set when p[r] == c. For a text t, D(i, j) is the edit distance
between p[:i] and t[:j]. A column of D is kept as (Pv, Mv, D(m, j)): bit
i - 1 of Pv (of Mv) is set when D(i, j) - D(i - 1, j) is +1 (is -1).
Advancing the column by one text character takes a fixed number of integer
operations, whatever m is: Myers (1999), "A fast bit-vector algorithm for
approximate string matching based on dynamic programming", in the
global-distance form of Hyyrö (2001), where D(0, j) = j shifts a 1 into the
horizontal delta Ph at every step. Any cell follows from a column as

    D(i, j) = j + (Pv & mask_i).bit_count() - (Mv & mask_i).bit_count(),
    mask_i = (1 << i) - 1.

levenshtein() advances a pattern over a whole string; the branch-and-bound
negative search in morphsuite.derive advances one column per placed affix
and reads D(i, i) as its bound.
"""
from __future__ import annotations

Column = tuple[int, int, int]  # (Pv, Mv, D(m, j))


class Pattern:
    """Match masks of a fixed pattern, and the columns of D over it."""

    __slots__ = ("peq", "full", "top", "start")

    def __init__(self, pattern: str):
        peq: dict[str, int] = {}
        for r, ch in enumerate(pattern):
            peq[ch] = peq.get(ch, 0) | 1 << r
        self.peq = peq
        self.full = (1 << len(pattern)) - 1
        self.top = 1 << len(pattern)  # the bit of row m once Ph is shifted
        self.start: Column = (self.full, 0, len(pattern))  # D(i, 0) = i

    def advance(self, column: Column, text: str) -> Column:
        """The column after text's characters, one step each."""
        pv, mv, score = column
        peq, full, top = self.peq, self.full, self.top
        for ch in text:
            eq = peq.get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = ((mv | ~(xh | pv)) & full) << 1 | 1
            mh = (pv & xh) << 1
            if ph & top:
                score += 1
            elif mh & top:
                score -= 1
            pv = (mh | ~(xv | ph)) & full
            mv = ph & xv
        return pv, mv, score

    @staticmethod
    def cell(column: Column, i: int, j: int) -> int:
        """D(i, j) from the column reached after j text characters."""
        pv, mv, _ = column
        mask = (1 << i) - 1
        return j + (pv & mask).bit_count() - (mv & mask).bit_count()


def levenshtein(a: str, b: str) -> int:
    """Minimal insertions/deletions/substitutions turning a into b."""
    if a == b:
        return 0
    pattern = Pattern(b)
    return pattern.advance(pattern.start, a)[2]
