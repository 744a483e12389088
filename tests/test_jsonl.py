"""The jsonl fast paths against the nfc-first path they replace: text that is
already NFC skips the nfc walk, and must give the same bytes and objects."""
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphsuite import jsonl
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
def test_dumps_matches_nfc_first(obj):
    assert jsonl.dumps(obj) == nfc_first_dumps(obj)


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
