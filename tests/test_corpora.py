"""tools/make_corpora.py keeps the curated corpora as their only copy: it
reads them back valid and canonical, and it refuses a record that fails
validate_record."""
import importlib.util
import json
from pathlib import Path

import pytest

from morphsuite.jsonl import dumps

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_corpora.py"
_spec = importlib.util.spec_from_file_location("make_corpora", _TOOL)
make_corpora = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_corpora)


@pytest.mark.parametrize("name", make_corpora.CURATED)
def test_curated_corpora_read_back_canonical(name):
    path = make_corpora.OUT / f"{name}.jsonl"
    rows = make_corpora.canonical_rows(path)
    assert "".join(dumps(row) + "\n" for row in rows) == path.read_text(encoding="utf-8")


def test_a_curated_record_that_fails_validation_is_refused(tmp_path):
    lines = (make_corpora.OUT / "finnish_examples.jsonl").read_text("utf-8").splitlines()
    row = json.loads(lines[1])
    row["gold_surface"] += "x"
    lines[1] = json.dumps(row, ensure_ascii=False)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SystemExit, match=r"bad\.jsonl:2: CompositionMismatch: record fi-sano"):
        make_corpora.canonical_rows(bad)
