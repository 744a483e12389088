"""rng.derive_seed against its definition: the blake2b digest of each
str(part) followed by a \\x1f byte, fed to the hash part by part."""
import hashlib
import random

from hypothesis import example, given
from hypothesis import strategies as st

from morphsuite.rng import derive_seed, make_rng


def oracle_seed(*parts) -> int:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


_PARTS = st.lists(
    st.text()  # non-ASCII included; no lone surrogates, which UTF-8 cannot encode
    | st.sampled_from(["", "\x1f", "a\x1fb", "değer", "present"])
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.none()
    | st.booleans(),
    max_size=6,
)


@given(_PARTS)
@example([])
@example(["a\x1f", "b"])  # the same bytes as "a", "\x1fb"
@example([7, "tr-s2-000", "present"])
def test_derive_seed_matches_part_by_part_hashing(parts):
    seed = oracle_seed(*parts)
    assert derive_seed(*parts) == seed
    assert make_rng(*parts).getstate() == random.Random(seed).getstate()
