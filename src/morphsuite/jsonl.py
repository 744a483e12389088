"""JSONL reading/writing with the conventions used by every pipeline stage:
UTF-8, NFC-normalized strings, sorted keys, one object per line.

Sorted keys plus NFC make outputs byte-reproducible across runs.
"""
import json
import unicodedata
from pathlib import Path

from morphsuite.errors import SchemaError


def nfc(value):
    """Recursively NFC-normalize every string in a JSON-like structure."""
    if isinstance(value, str):
        return unicodedata.normalize("NFC", value)
    if isinstance(value, dict):
        return {nfc(k): nfc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [nfc(v) for v in value]
    return value


def dumps(obj) -> str:
    return json.dumps(nfc(obj), ensure_ascii=False, sort_keys=True)


def write_jsonl(path, rows) -> int:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in rows:
            f.write(dumps(row))
            f.write("\n")
            n += 1
    return n


def read_jsonl(path):
    """Yield (line_number, object) pairs; malformed lines raise SchemaError."""
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, nfc(json.loads(line))
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: invalid JSON ({exc})") from exc


def read_objects(path, from_row):
    """from_row applied to every row of a JSONL file, in order; a row that is
    not an object, lacks a key or holds a value of the wrong type raises
    SchemaError naming path:line."""
    out = []
    for lineno, row in read_jsonl(path):
        if not isinstance(row, dict):
            raise SchemaError(f"{path}:{lineno}: row is not a JSON object")
        try:
            out.append(from_row(row))
        except KeyError as exc:
            raise SchemaError(f"{path}:{lineno}: row lacks {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}:{lineno}: malformed row ({exc})") from None
    return out


def read_json(path):
    """Parse one JSON document; invalid JSON raises SchemaError."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(nfc(obj), f, ensure_ascii=False, sort_keys=True, indent=2)
        f.write("\n")
