# -*- coding: utf-8 -*-
"""Regenerate the bundled corpora under src/morphsuite/data/corpora/.

- turkish_examples.jsonl / finnish_examples.jsonl: curated records whose
  gold derivations and nonce roots are fixed reference data.
- turkish_demo.jsonl: synthetic 4-strata corpus big enough for 5-shot
  rendering after the demo holdout; used by the README walkthrough.

Run from the repo root: python3 tools/make_corpora.py
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

from factory import synth_turkish_records  # noqa: E402

from morphsuite.jsonl import write_jsonl  # noqa: E402
from morphsuite.suite import record_to_row, validate_record  # noqa: E402

OUT = ROOT / "src" / "morphsuite" / "data" / "corpora"

TURKISH = [
    {
        "record_id": "tr-sohbet",
        "language_id": "turkish",
        "root": "sohbet",
        "affixes": [{"form": "ler", "slot": "suffix"}],
        "gold_surface": "sohbetler",
        "manual_negative_affix": "yin",
        "nonce_root": "şakşet",
    },
    {
        "record_id": "tr-sira",
        "language_id": "turkish",
        "root": "sıra",
        "affixes": [{"form": "dan", "slot": "suffix"}, {"form": "mış", "slot": "suffix"}],
        "gold_surface": "sıradanmış",
        "nonce_root": "yova",
    },
    {
        "record_id": "tr-deger",
        "language_id": "turkish",
        "root": "değer",
        "affixes": [
            {"form": "len", "slot": "suffix"},
            {"form": "dir", "slot": "suffix"},
            {"form": "ip", "slot": "suffix"},
        ],
        "gold_surface": "değerlendirip",
        "nonce_root": "diser",
    },
    {
        "record_id": "tr-endise",
        "language_id": "turkish",
        "root": "endişe",
        "affixes": [
            {"form": "len", "slot": "suffix"},
            {"form": "dir", "slot": "suffix"},
            {"form": "me", "slot": "suffix"},
            {"form": "mek", "slot": "suffix"},
        ],
        "gold_surface": "endişelendirmemek",
        "nonce_root": "ödlede",
    },
    {
        "record_id": "tr-kisi",
        "language_id": "turkish",
        "root": "kişi",
        "affixes": [
            {"form": "leş", "slot": "suffix"},
            {"form": "tir", "slot": "suffix"},
            {"form": "me", "slot": "suffix"},
            {"form": "si", "slot": "suffix"},
            {"form": "ne", "slot": "suffix"},
        ],
        "gold_surface": "kişileştirmesine",
        "nonce_root": "meşi",
    },
    {
        "record_id": "tr-hayal",
        "language_id": "turkish",
        "root": "hayal",
        "affixes": [
            {"form": "ler", "slot": "suffix"},
            {"form": "im", "slot": "suffix"},
            {"form": "de", "slot": "suffix"},
            {"form": "ki", "slot": "suffix"},
            {"form": "ler", "slot": "suffix"},
            {"form": "i", "slot": "suffix"},
        ],
        "gold_surface": "hayallerimdekileri",
        "nonce_root": "rokal",
    },
    {
        "record_id": "tr-sinif",
        "language_id": "turkish",
        "root": "sınıf",
        "affixes": [
            {"form": "lan", "slot": "suffix"},
            {"form": "dır", "slot": "suffix"},
            {"form": "ıl", "slot": "suffix"},
            {"form": "ma", "slot": "suffix"},
            {"form": "lar", "slot": "suffix"},
            {"form": "ı", "slot": "suffix"},
            {"form": "nı", "slot": "suffix"},
        ],
        "gold_surface": "sınıflandırılmalarını",
        "nonce_root": "datıf",
    },
]

FINNISH = [
    {
        "record_id": "fi-yopaikka",
        "language_id": "finnish",
        "root": "yöpaikka",
        "affixes": [{"form": "nne", "slot": "suffix"}],
        "gold_surface": "yöpaikkanne",
        "manual_negative_affix": "ksi",
        "nonce_root": "äydainca",
    },
    {
        "record_id": "fi-sano",
        "language_id": "finnish",
        "root": "sano",
        "affixes": [{"form": "taan", "slot": "suffix"}, {"form": "pas", "slot": "suffix"}],
        "gold_surface": "sanotaanpas",
        "nonce_root": "tato",
    },
    {
        "record_id": "fi-petoks",
        "language_id": "finnish",
        "root": "petoks",
        "affixes": [
            {"form": "i", "slot": "suffix"},
            {"form": "ne", "slot": "suffix"},
            {"form": "en", "slot": "suffix"},
        ],
        "gold_surface": "petoksineen",
        "sentence": "hän paljasti koko korruptoituneen järjestelmän ___.",
        "nonce_root": "seloks",
    },
    {
        "record_id": "fi-olosuhte",
        "language_id": "finnish",
        "root": "olosuhte",
        "affixes": [
            {"form": "kuvaus", "slot": "prefix"},
            {"form": "i", "slot": "suffix"},
            {"form": "lta", "slot": "suffix"},
            {"form": "an", "slot": "suffix"},
        ],
        "gold_surface": "kuvausolosuhteiltaan",
        "nonce_root": "olanajke",
    },
    {
        "record_id": "fi-palvelu",
        "language_id": "finnish",
        "root": "palvelu",
        "affixes": [
            {"form": "laina", "slot": "prefix"},
            {"form": "n", "slot": "prefix"},
            {"form": "välitys", "slot": "prefix"},
            {"form": "j", "slot": "suffix"},
            {"form": "a", "slot": "suffix"},
        ],
        "gold_surface": "lainanvälityspalveluja",
        "nonce_root": "sapsevu",
    },
    {
        "record_id": "fi-salaisuuks",
        "language_id": "finnish",
        "root": "salaisuuks",
        "affixes": [
            {"form": "motivaatio", "slot": "prefix"},
            {"form": "n", "slot": "prefix"},
            {"form": "nostatus", "slot": "prefix"},
            {"form": "i", "slot": "suffix"},
            {"form": "a", "slot": "suffix"},
            {"form": "ni", "slot": "suffix"},
        ],
        "gold_surface": "motivaationnostatussalaisuuksiani",
        "nonce_root": "noraekauks",
    },
]


def main():
    for rows in (TURKISH, FINNISH):
        for row in rows:
            validate_record(row)  # refuse to write broken reference data
    write_jsonl(OUT / "turkish_examples.jsonl", TURKISH)
    write_jsonl(OUT / "finnish_examples.jsonl", FINNISH)

    demo = synth_turkish_records(60, [1, 2, 3, 4], seed=20240915)
    write_jsonl(OUT / "turkish_demo.jsonl", (record_to_row(r) for r in demo))
    print(f"wrote {len(TURKISH)} + {len(FINNISH)} reference records and {len(demo)} demo records")


if __name__ == "__main__":
    main()
