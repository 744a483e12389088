"""Byte-level pins of systematicity suites across negative strategies.

Each cell runs gen-nonce (fixed seed) and build-suite through the CLI and
compares the sha256 of the written suite.jsonl with a digest frozen from an
earlier, independently implemented negative selection (full enumeration,
one edit distance per ordering, then a sort). C10 only compares two runs of
the same code; these pins catch a suite that changes across versions.
"""
from pathlib import Path

import pytest

from factory import synth_turkish_records
from morphsuite import cli
from morphsuite.jsonl import write_jsonl
from morphsuite.suite import file_digest, record_to_row

SEED = 5

DIGESTS = {
    ("turkish_demo", "random", "id"): (
        "ad9e246ec078a96b4c2b5bd59f27fc6f04368d56ae1c722cec7ff0a88337d65a"
    ),
    ("turkish_demo", "random", "ood"): (
        "bb06aa57c092f38d73a2755741a414541ac534335d18c92deedad6f395b66a2d"
    ),
    ("turkish_demo", "lang_agnostic", "id"): (
        "8ac5438157eb41e27a583b9ba0aeadd8ba7dac896d4a03b54842ffd12a276a80"
    ),
    ("turkish_demo", "lang_agnostic", "ood"): (
        "a10156bdb6dbe7b3536d5bc7035b2a68fe89d2b68b603b0f26cd260adb37cce5"
    ),
    ("turkish_demo", "lang_specific_tr", "id"): (
        "635854023c6a712bc01deacbe78a3407df4092ff0449e442406bcedb6fc4c7f4"
    ),
    ("turkish_demo", "lang_specific_tr", "ood"): (
        "d269d3d0da9577d18e9a2201af981ecbf387bbfdb0322a58fdb33d33a0c48000"
    ),
    ("finnish_examples", "random", "id"): (
        "5bec88dd078d26f40da3cf6e8260313e3371aec526967e1dc84b92cf124bc19b"
    ),
    ("finnish_examples", "random", "ood"): (
        "021d7ba038aee3ad4c68eed27239f2bb319f4c6797620e8d44cd618e65532dd8"
    ),
    ("finnish_examples", "lang_agnostic", "id"): (
        "1e642a326129e071400adc6e1eb38e18b5f911436d13cef5bdfe6772254592f0"
    ),
    ("finnish_examples", "lang_agnostic", "ood"): (
        "239f9e6bc66a5ad9c537cb16582a651acd9cfafc3c8eac07510fd0b4a74221f1"
    ),
    ("synth_s5_7", "random", "id"): (
        "9bde31760e4354a3a51164027872f708fa7bd7793997ac8407b0b2ee699feace"
    ),
    ("synth_s5_7", "random", "ood"): (
        "81e890aeec859c93b36663c436c8fb9c2139d1ddc70af5115f2cfcdd3fca7902"
    ),
    ("synth_s5_7", "lang_agnostic", "id"): (
        "7210d7d4ff26edcb2f81b8925f8e17926aa782856bd00fa4d9860375e67db2fd"
    ),
    ("synth_s5_7", "lang_agnostic", "ood"): (
        "9f5bceccff479f602f2ee353f35ac5bd33f64a202f3f6d3d0893703c5a256c12"
    ),
    ("synth_s5_7", "lang_specific_tr", "id"): (
        "954be230e71c45a0ae53c411dcec307c19fcc33a0dfe82d319fde55c426aa262"
    ),
    ("synth_s5_7", "lang_specific_tr", "ood"): (
        "1f094c181471d268768630f555ec2cbd6189a64760896c59d90aa8b33c8e7c7d"
    ),
}

LANGUAGES = {"turkish_demo": "turkish", "finnish_examples": "finnish", "synth_s5_7": "turkish"}


@pytest.fixture(scope="module")
def nonced(tmp_path_factory):
    """Corpus name -> path of its gen-nonce output."""
    root = tmp_path_factory.mktemp("digests")
    synth = root / "synth_s5_7.jsonl"
    write_jsonl(synth, (record_to_row(r) for r in synth_turkish_records(1, [5, 6, 7], seed=17)))
    sources = {
        "turkish_demo": "bundled:turkish_demo",
        "finnish_examples": "bundled:finnish_examples",
        "synth_s5_7": str(synth),
    }
    out = {}
    for name, source in sources.items():
        out[name] = root / f"{name}.nonced.jsonl"
        assert cli.main([
            "gen-nonce", "--lang", LANGUAGES[name], "--seed", str(SEED),
            "--in", source, "--out", str(out[name]),
        ]) == 0
    return out


@pytest.mark.parametrize(
    "corpus,strategy,dist", sorted(DIGESTS), ids=["-".join(cell) for cell in sorted(DIGESTS)]
)
def test_suite_bytes_pinned(nonced, tmp_path, corpus, strategy, dist):
    out = tmp_path / "suite.jsonl"
    assert cli.main([
        "build-suite", "--task", "systematicity", "--dist", dist,
        "--strategy", strategy, "--seed", str(SEED),
        "--in", str(nonced[corpus]), "--out", str(out),
    ]) == 0
    assert Path(out).stat().st_size > 0
    assert file_digest(out) == DIGESTS[(corpus, strategy, dist)]
