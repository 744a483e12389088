r"""JSONL reading/writing with the conventions used by every pipeline stage:
UTF-8, NFC-normalized strings, sorted keys, one object per line.

Sorted keys plus NFC make outputs byte-reproducible across runs.

Invariant: every string that is written or read is in NFC, and the bytes are
those of json.dumps(nfc(obj), ensure_ascii=False, sort_keys=True). The walk
of nfc is skipped whenever it cannot change anything, which is exact because
JSON punctuation and escapes never compose under NFC (UAX #15):

- Writing. A quote, comma, colon, bracket or whitespace between JSON tokens
  composes with no neighbour, so the serialized text is NFC exactly when
  each escaped string in it is. An escape replaces a quote, backslash or
  control character (which compose with nothing) by ASCII text that can
  only make the result non-NFC (the n of ``\n`` composes with a following
  U+0303), never hide a string that is not NFC. So when the text of
  json.dumps(obj) is NFC, every string and key of obj is NFC already and
  that text is returned; otherwise obj goes through nfc first.
- Reading. Decoding a two-character escape (``\n``, ``\t``, ``\"``,
  ``\\``, ...) yields a character that composes with nothing, so a line
  that is NFC and holds no ``\u`` escape decodes to NFC strings. Other lines
  go through nfc.
"""
import json
import unicodedata
from dataclasses import MISSING, fields
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


def dumps(obj, indent=None) -> str:
    """obj as sorted-key JSON text with NFC strings (see the module docstring)."""
    text = json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=indent)
    if unicodedata.is_normalized("NFC", text):
        return text
    return json.dumps(nfc(obj), ensure_ascii=False, sort_keys=True, indent=indent)


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


def decode(data: bytes, path) -> str:
    """The contents of path as UTF-8 text; other bytes raise SchemaError
    naming path and the line of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None


def read_lines(path):
    """Yield (line_number, stripped text) for the non-blank lines of a UTF-8
    file; bytes that are not UTF-8 raise SchemaError naming path:line."""
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if line:
                    yield lineno, line
    except UnicodeDecodeError:
        # The reader decodes blocks ahead of the line it returns, so the
        # line of the bad byte comes from the bytes.
        decode(Path(path).read_bytes(), path)
        raise


def read_jsonl(path):
    """Yield (line_number, object) pairs; malformed lines raise SchemaError."""
    for lineno, line in read_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        if "\\u" in line or not unicodedata.is_normalized("NFC", line):
            obj = nfc(obj)
        yield lineno, obj


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
    """Parse one JSON document; invalid UTF-8 or JSON raises SchemaError."""
    text = decode(Path(path).read_bytes(), path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(dumps(obj, indent=2))
        f.write("\n")


# The JSON values a config field of each annotation accepts, and their name in
# messages. Only bool fields take true and false, which Python counts as ints.
_CONFIG_TYPES = {
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "int": ((int,), "an integer"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "list[str]": ((list,), "a list of strings"),
    "str | dict": ((str, dict), "a string or an object"),
}


def read_config(cls, data, source, what):
    """cls(**data) for a dataclass whose field annotations (strings, under
    ``from __future__ import annotations``) are keys of _CONFIG_TYPES. Data
    that is not an object, an unknown key, a missing required key or a value
    of another JSON type raises SchemaError naming source, what and the key."""
    if not isinstance(data, dict):
        raise SchemaError(f"{source}: {what} must be a JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise SchemaError(f"{source}: unknown {what} key {unknown[0]!r}")
    for f in fields(cls):
        if f.name not in data:
            if f.default is MISSING and f.default_factory is MISSING:
                raise SchemaError(f"{source}: {what} lacks {f.name!r}")
            continue
        value = data[f.name]
        types, name = _CONFIG_TYPES[f.type]
        ok = isinstance(value, types) and (bool in types or not isinstance(value, bool))
        if isinstance(value, list):
            ok = ok and all(isinstance(v, str) for v in value)
        if not ok:
            raise SchemaError(f"{source}: {what} key {f.name!r} must be {name}")
    return cls(**data)
