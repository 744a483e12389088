"""The jsonl fast paths against the plain paths they replace: text that is
already NFC skips the nfc walk, and must give the same bytes and objects;
write_text, which leaves bytes that match alone, must leave a file as a
plain write of the same parts does."""
import json
import os
import platform
import re
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphsuite import jsonl
from morphsuite.errors import SchemaError
from morphsuite.jsonl import nfc

E_ACUTE = "é"  # é, precomposed
E_PLUS_ACUTE = "e\u0301"  # é, decomposed: not NFC

# Characters that compose or reorder under NFC (combining marks, Hangul jamo),
# bases they compose with, precomposed letters, a singleton decomposition
# (the Angstrom sign), and the characters json.dumps escapes ('"', '\\',
# controls), whose escape letters (n, t, u, f, ...) compose with a mark that
# follows.
_CHARS = (
    list("aeInotubfr/ ")
    + [E_ACUTE, "ñ", "İ", "\uac00", "\u212b"]
    + ['"', "\\", "\n", "\t", "\r", "\b", "\x00", "\x1f"]
    + ["\u0300", "\u0301", "\u0303", "\u0307", "\u0308", "\u0323", "\u0327"]
    + ["\u1100", "\u1161", "\u11a8"]
)
_TEXT = st.text(alphabet=_CHARS, max_size=8)
_SURROGATES = st.sampled_from(["\ud800", "\udfff"])


def _values(text):
    scalars = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | text
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(text, inner, max_size=4),
        max_leaves=12,
    )


_OBJECTS = _values(_TEXT)
# dumps never encodes, so its strings may hold lone surrogates.
_OBJECTS_WITH_SURROGATES = _values(st.lists(_TEXT | _SURROGATES, max_size=3).map("".join))


def nfc_first_dumps(obj, indent=None):
    return json.dumps(nfc(obj), ensure_ascii=False, sort_keys=True, indent=indent)


@settings(max_examples=300)
@given(_OBJECTS_WITH_SURROGATES)
@example({E_ACUTE: 1, E_PLUS_ACUTE: 2})  # keys that NFC merges
@example({"f": 1, E_PLUS_ACUTE: 2})  # sorts before "f" until NFC makes it U+00E9
@example("\n\u0303")  # serialized, the n of the escape takes the tilde
@example(["\uac00", "\u1100\u1161", "\u1100", "\u1161\u11a8"])
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 2**70, -(2**70), True, None])
def test_dumps_matches_nfc_first(obj):
    """Both encoders of rows: the C row encoder and, as without the C
    accelerator, JSONEncoder.encode."""
    want = nfc_first_dumps(obj)
    assert jsonl.dumps(obj) == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json.encoder, "c_make_encoder", None)
        patch.setattr(jsonl, "_encode_row", jsonl._row_encoder())
        assert jsonl.dumps(obj) == want


@pytest.mark.skipif(platform.python_implementation() != "CPython", reason="CPython's accelerator")
def test_rows_take_the_c_encoder():
    """A change in json.encoder that left rows to JSONEncoder.encode would
    slow every write without changing a byte."""
    assert json.encoder.c_make_encoder is not None
    assert jsonl._encode_row != jsonl._ENCODERS[None].encode


@settings(max_examples=100, deadline=None)
@given(_OBJECTS)
@example({E_PLUS_ACUTE: ["\t\u0301", "\\\u0303"]})
def test_write_json_bytes_match_nfc_first(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("json") / "out.json"
    jsonl.write_json(path, obj)
    assert path.read_bytes() == (nfc_first_dumps(obj, indent=2) + "\n").encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_OBJECTS, st.booleans()), min_size=1, max_size=4))
@example([({E_PLUS_ACUTE: E_PLUS_ACUTE}, False)])
@example([([E_ACUTE], True)])  # a \u escape of an NFC string
@example([([E_PLUS_ACUTE], True)])  # \u escapes that compose
@example([(["\n\u0303", "\t\u0301"], False)])
def test_read_jsonl_matches_nfc_first(tmp_path_factory, rows):
    """Lines written raw or with \\u escapes (ensure_ascii), without NFC."""
    lines = [json.dumps(obj, ensure_ascii=escaped) for obj, escaped in rows]
    path = tmp_path_factory.mktemp("read") / "rows.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    got = [obj for _, obj in jsonl.read_jsonl(path)]
    assert got == [nfc(json.loads(line)) for line in lines]


# The text of write_text's parts: non-ASCII letters of one to four UTF-8
# bytes, so a cut old file can end inside a character.
_PART = st.text(alphabet=list("ab\n") + ["ı", "ş", "\uac00", "\U0001f600"], max_size=5)


@st.composite
def _old_and_new(draw):
    """(old bytes on disk or None, the new parts): the old file absent, equal
    to the new text, a prefix of it, longer, or differing in the first or the
    last part, or any bytes."""
    parts = draw(st.lists(_PART, max_size=6))
    new = "".join(parts).encode("utf-8")
    kind = draw(st.sampled_from(["absent", "equal", "prefix", "longer", "first", "last", "any"]))
    if kind == "absent":
        return None, parts
    if kind == "prefix":
        return new[: draw(st.integers(0, len(new)))], parts
    if kind == "longer":
        return new + draw(st.binary(min_size=1, max_size=5)), parts
    if kind in ("first", "last") and parts:
        changed = list(parts)
        i = 0 if kind == "first" else -1
        changed[i] = draw(_PART.filter(lambda part: part != parts[i]))
        return "".join(changed).encode("utf-8"), parts
    if kind == "any":
        return draw(st.binary(max_size=20)), parts
    return new, parts


@settings(max_examples=300, deadline=None)
@given(_old_and_new())
@example((b"", ["", "", "\u0131"]))  # empty parts before the first byte
@example((b"ab", ["ab", ""]))  # the new text ends at the end of the old
@example(("ş".encode("utf-8")[:1], ["ş"]))  # the old file ends inside a character
def test_write_text_matches_write_bytes(tmp_path_factory, case):
    old, parts = case
    path = tmp_path_factory.mktemp("write") / "out.txt"
    if old is not None:
        path.write_bytes(old)
    jsonl.write_text(path, parts)
    assert path.read_bytes() == "".join(parts).encode("utf-8")


def test_write_text_leaves_an_unchanged_file_alone(tmp_path):
    path = tmp_path / "out.jsonl"
    rows = [{"a": "ı"}, {"b": 2}]
    jsonl.write_jsonl(path, rows)
    os.utime(path, ns=(10**9, 10**9))
    before = path.stat()
    jsonl.write_jsonl(path, rows)
    after = path.stat()
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (before.st_ino, before.st_size, 10**9)
    jsonl.write_jsonl(path, rows[:1])
    assert path.stat().st_mtime_ns != 10**9
    assert path.read_bytes() == '{"a": "ı"}\n'.encode("utf-8")


class _Interrupted(Exception):
    pass


def _raising_after(parts, n):
    yield from parts[:n]
    raise _Interrupted


@settings(max_examples=200, deadline=None)
@given(_old_and_new(), st.data())
def test_write_text_keeps_the_parts_given_before_parts_raises(tmp_path_factory, case, data):
    """Before the first difference, while the file is only read, and after it,
    while the file is written, the file ends as the parts given so far."""
    old, parts = case
    n = data.draw(st.integers(0, len(parts)))
    path = tmp_path_factory.mktemp("raise") / "out.txt"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(_Interrupted):
        jsonl.write_text(path, _raising_after(parts, n))
    assert path.read_bytes() == "".join(parts[:n]).encode("utf-8")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_write_text_writes_to_a_fifo_without_reading_it(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, "rb") as f:
            got.append(f.read())

    threads = [threading.Thread(target=read, daemon=True),
               threading.Thread(target=jsonl.write_text, args=(fifo, ["ş\n", "b"]), daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert got == ["ş\nb".encode("utf-8")]


@pytest.mark.parametrize("text, line", [
    ('{"a": "ok"}\n{"record_id": "x\\ud800"}\n', 2),
    ('{"a": "\\\\ud800", "b": "\\udc00 \\ud83d\\ude00"}\n', 1),  # an escaped backslash, then a low half
])
def test_read_jsonl_refuses_a_lone_surrogate(tmp_path, text, line):
    path = tmp_path / "rows.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:{line}: a string escapes"):
        list(jsonl.read_jsonl(path))


def test_read_json_refuses_a_lone_surrogate_naming_its_line(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{\n "a": "\\ud83d\\ude00 \\\\ud800",\n "model_name": "\\ud800"\n}', "utf-8")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:3: a string escapes"):
        jsonl.read_json(path)
    path.write_text('{"a": "\\ud83d\\ude00 \\\\ud800"}', "utf-8")
    assert jsonl.read_json(path) == {"a": "\U0001f600 \\ud800"}
