"""Deterministic seed derivation.

Every randomized step derives its own generator from the run seed plus a
stable string key (usually a record or instance id), so independent records
can be processed in any order, or in parallel, without changing the output.
"""
import hashlib
import random


def derive_seed(*parts) -> int:
    """Collapse the parts into a stable unsigned 64-bit seed: the blake2b
    digest of each str(part) followed by \x1f, hashed in one call."""
    data = "".join([str(part) + "\x1f" for part in parts]).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def make_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))
