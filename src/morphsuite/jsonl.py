r"""The pipeline's file format, for every stage: each output file is
written by write_text, and each row and config is read here and checked key
by key against its class's annotations (read_objects, read_config). UTF-8,
NFC-normalized strings, sorted keys, one object per line.

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
import functools
import json
import re
import unicodedata
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints, is_typeddict

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


# json.dumps with these arguments builds a new JSONEncoder on every call;
# dumps keeps one per indent it is called with.
_ENCODERS = {
    indent: json.JSONEncoder(ensure_ascii=False, sort_keys=True, indent=indent)
    for indent in (None, 2)
}


def _row_encoder():
    """encode(obj) for indent None: the text of _ENCODERS[None].encode(obj).

    JSONEncoder.encode builds a C encoder, and a float formatter it does not
    use, on every call, and every row of every output is one call. This
    builds the C encoder once, with the same settings. It keeps no markers
    for circular references, as a shared markers dict could hold stale
    entries after an exception: rows are acyclic trees the program builds.
    Without the C accelerator (no _json), it is JSONEncoder.encode."""
    make_encoder = json.encoder.c_make_encoder
    encoder = _ENCODERS[None]
    if make_encoder is None:
        return encoder.encode
    iterencode = make_encoder(
        None, encoder.default, json.encoder.encode_basestring, None,
        encoder.key_separator, encoder.item_separator, encoder.sort_keys,
        encoder.skipkeys, encoder.allow_nan,
    )

    def encode(obj):
        return "".join(iterencode(obj, 0))

    return encode


_encode_row = _row_encoder()


def dumps(obj, indent=None) -> str:
    """obj as sorted-key JSON text with NFC strings (see the module docstring);
    indent is None or 2."""
    encode = _encode_row if indent is None else _ENCODERS[indent].encode
    text = encode(obj)
    if unicodedata.is_normalized("NFC", text):
        return text
    return encode(nfc(obj))


def write_text(path, parts) -> None:
    """Write the strings of parts to path, creating its directory: UTF-8 with
    \\n line ends. Every pipeline file is written here, and written whole
    each time: whether a file is written at all is for cli's rerun rule to
    decide. When parts raises, the file holds the parts before it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(parts)


def write_jsonl(path, rows) -> None:
    write_text(path, (dumps(row) + "\n" for row in rows))


def write_json(path, obj) -> None:
    write_text(path, (dumps(obj, indent=2), "\n"))


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


# A UTF-16 surrogate code point. A decoded JSON string holds one only from a
# \u escape that is not half of a pair, and UTF-8 cannot encode it.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # or an escaped backslash and "ud8"
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')  # a JSON string token, in text that parsed


def _refuse_lone_surrogate(text, path, lineno=1) -> None:
    """Raise SchemaError naming path and line if a string of the JSON text,
    whose first line is lineno, decodes to a lone surrogate: no output could
    hold it."""
    if not _SURROGATE_ESCAPE.search(text):
        return
    for match in _STRING.finditer(text):
        if _SURROGATE_ESCAPE.search(match[0]) and LONE_SURROGATE.search(json.loads(match[0])):
            lineno += text.count("\n", 0, match.start())
            raise SchemaError(f"{path}:{lineno}: a string escapes a lone surrogate (not UTF-8)")


def read_jsonl(path):
    """Yield (line_number, object) pairs; a line of invalid JSON, or with a
    lone surrogate, raises SchemaError."""
    for lineno, line in read_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        if "\\u" in line:  # only an escape makes a surrogate
            _refuse_lone_surrogate(line, path, lineno)
            obj = nfc(obj)
        elif not unicodedata.is_normalized("NFC", line):
            obj = nfc(obj)
        yield lineno, obj


def read_objects(path, cls, unique=None):
    """Every row of a JSONL file read as cls by read_config, in order. A row
    that is not an object or does not match cls (a ValueError of cls included),
    or whose key unique repeats the non-null value of an earlier row, raises
    SchemaError naming path:line."""
    out = []
    first_line = {}  # the line of each value of unique taken
    for lineno, row in read_jsonl(path):
        if not isinstance(row, dict):
            raise SchemaError(f"{path}:{lineno}: row is not a JSON object")
        try:
            out.append(read_config(cls, row, None, "row"))
        except SchemaError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: malformed row ({exc})") from None
        value = row.get(unique)  # None when unique is None
        if value is not None and first_line.setdefault(value, lineno) != lineno:
            raise SchemaError(
                f"{path}:{lineno}: repeated {unique} {value!r}, first on line {first_line[value]}"
            )
    return out


def read_json(path):
    """Parse one JSON document; invalid UTF-8 or JSON, or a lone surrogate,
    raises SchemaError."""
    with open(path, "rb") as f:
        text = decode(f.read(), path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    _refuse_lone_surrogate(text, path)
    return obj


# The name in messages of the JSON values of each type, alone and in a list.
_NAMES = {str: ("a string", "strings"), int: ("an integer", "integers"),
          float: ("a number", "numbers"), bool: ("true or false", "booleans"),
          dict: ("an object", "objects"), type(None): ("null", "nulls")}


def _compile(tp):
    """(kinds, name, nested) of annotation tp: the exact types of the JSON
    values it takes (so true is no number), their name in messages, and for a
    list, (its items' kinds, the dataclass each item is read as or None, list
    or tuple), else None. tp is a Literal of strings, or str, int, float,
    bool, dict, None, list[T] or tuple[T, ...] of one of those or of a
    dataclass, or a union of those with at most one list."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal:
        return frozenset({str}), "one of " + ", ".join(args), None
    if Literal in map(get_origin, args):  # _reader checks the values of a whole Literal only
        raise TypeError(f"{tp}: a Literal must be the whole annotation")
    if origin is Union or origin is UnionType:
        kinds, names, nested = zip(*map(_compile, args))
        [nested] = [part for part in nested if part] or [None]
        return frozenset().union(*kinds), " or ".join(names), nested
    if origin is list or origin is tuple:
        item = args[0]
        if is_dataclass(item):
            return frozenset({list}), "a list of objects", (frozenset({dict}), item, origin)
        return frozenset({list}), f"a list of {_NAMES[item][1]}", (_compile(item)[0], None, origin)
    return frozenset({int, float} if tp is float else {tp}), _NAMES[tp][0], None


@functools.cache
def _reader(cls):
    """read(data, source, what) for cls, a dataclass or a TypedDict: the
    checks of read_config key by key, in declaration order, in a loop over a
    (name, kinds, Literal values or None, nested, required) tuple per key.
    Code generated per class read 1,000 suite rows in 8.0 ms where this takes
    9.7 (2-vCPU VM), but a cold report_wide or http_eval pass reads about
    1,000 rows in 0.7 s or more, and a kept rerun reads none."""
    hints = get_type_hints(cls)  # every key of cls, in declaration order
    make = None if is_typeddict(cls) else cls  # a TypedDict is read as the dict itself
    required = cls.__required_keys__ if make is None else {
        f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
    names = {}  # key -> the name in messages of the values it takes
    keys = []
    for name, hint in hints.items():
        kinds, names[name], nested = _compile(hint)
        allowed = frozenset(get_args(hint)) if get_origin(hint) is Literal else None
        keys.append((name, kinds, allowed, nested, name in required))

    def read(data, source, what):
        values = {}
        for name, kinds, allowed, nested, required in keys:
            value = data.get(name, MISSING)
            if value is MISSING and not required:
                continue
            if type(value) not in kinds or allowed is not None and value not in allowed:
                raise _fault(data, source, what, names, name)
            if nested and type(value) is list:
                items, item, container = nested
                if not items.issuperset(map(type, value)):
                    raise _fault(data, source, what, names, name)
                if item is not None:
                    value = _items(item, value, source, name)
                elif container is tuple:
                    value = tuple(value)
            values[name] = value
        if len(values) < len(data):
            raise _fault(data, source, what, names, None)
        # keyword arguments are matched by identity first: the interned key
        # names of values make this several times faster than decoded keys
        return values if make is None else make(**values)

    return read


def _fault(data, source, what, names, key) -> SchemaError:
    """The SchemaError of data, which read rejects at key (None: at an unknown
    key). An unknown key is named first: it is most often a misspelt one."""
    unknown = data.keys() - names.keys()
    if unknown:
        return _error(source, f"unknown {what} key {min(unknown)!r}")
    if key not in data:
        return _error(source, f"{what} lacks {key!r}")
    return _error(source, f"{what} key {key!r} must be {names[key]}")


def _items(cls, items, source, key):
    """cls read from each object of the list at key, as read_config reads
    it; the message of a rejected one names it key[i]."""
    read = _reader(cls)
    try:
        return [read(item, source, key) for item in items]
    except SchemaError:  # read them again to find the index
        for i, item in enumerate(items):
            read(item, source, f"{key}[{i}]")
        raise


def read_config(cls, data, source, what):
    """cls(**data) for a dataclass or a TypedDict, each key read as _compile
    reads its annotation. Data that is not an object, an unknown key, a
    missing required key or a value of another JSON type raises SchemaError
    naming source (if any), what (options[0] for an object in a list) and the key."""
    if not isinstance(data, dict):
        raise _error(source, f"{what} must be a JSON object")
    return _reader(cls)(data, source, what)


def field_values(obj) -> dict:
    """{name: value} of the fields of a dataclass instance. vars(obj) holds the
    same, but on CPython 3.11+ asking for it gives obj a dict of its own, and
    every later attribute read on obj gets slower."""
    return {name: getattr(obj, name) for name in obj.__dataclass_fields__}


def _error(source, message) -> SchemaError:
    return SchemaError(f"{source}: {message}" if source else message)
