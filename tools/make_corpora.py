# -*- coding: utf-8 -*-
"""Rewrite the bundled corpora under src/morphsuite/data/corpora/.

- turkish_examples.jsonl / finnish_examples.jsonl: curated records whose
  gold derivations and nonce roots are fixed reference data. The files are
  the only copy: each record is validated and written back as
  record_to_row gives it, so a record that fails validate_record stops the
  run before anything is written, and a row that is not canonical changes.
- turkish_demo.jsonl: synthetic 4-strata corpus from tests/factory.py, big
  enough for 5-shot rendering after the demo holdout; used by the README
  walkthrough.

Run from the repo root: python3 tools/make_corpora.py
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

from factory import synth_turkish_records  # noqa: E402

from morphsuite.errors import MorphSuiteError  # noqa: E402
from morphsuite.jsonl import read_jsonl, write_jsonl  # noqa: E402
from morphsuite.suite import record_to_row, validate_record  # noqa: E402

OUT = ROOT / "src" / "morphsuite" / "data" / "corpora"
CURATED = ("turkish_examples", "finnish_examples")


def canonical_rows(path) -> list[dict]:
    """The canonical row of each record in path; a record that fails
    validate_record exits with one line naming path:line."""
    rows = []
    for lineno, row in read_jsonl(path):
        try:
            rows.append(record_to_row(validate_record(row)))
        except MorphSuiteError as exc:
            sys.exit(f"{path}:{lineno}: {type(exc).__name__}: {exc}")
    return rows


def main():
    curated = {name: canonical_rows(OUT / f"{name}.jsonl") for name in CURATED}
    for name, rows in curated.items():
        write_jsonl(OUT / f"{name}.jsonl", rows)

    demo = synth_turkish_records(60, [1, 2, 3, 4], seed=20240915)
    write_jsonl(OUT / "turkish_demo.jsonl", (record_to_row(r) for r in demo))
    counts = " + ".join(str(len(rows)) for rows in curated.values())
    print(f"wrote {counts} reference records and {len(demo)} demo records")


if __name__ == "__main__":
    main()
