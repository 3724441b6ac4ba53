"""The reader's per-head frame parse against the per-location parse it replaced.

The corpus reader parses each distinct head of a ``CLASS.METHOD(FILE:LINE)``
text (the text up to its last ``:``, such as ``a.B.m(B.java``) once, and
gives every later text of that head only its line, ``raw`` and ``rendered``.
The oracle below is the reader's old ``_parse_frame``, kept verbatim: it ran
the whole frame grammar on each distinct text and shared only the names of a
``CLASS.METHOD`` location. On every text, parsed fresh or after other texts
of its head, the two must give equal frames with equal ``location`` and
``rendered``, or raise MalformedFrame with the same message.
"""
from __future__ import annotations

import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaketriage.errors import MalformedFrame
from flaketriage.ingest import (
    _FRAME_RE,
    _MODULE_RE,
    _NO_SOURCE,
    _PACKAGING_RE,
    _SOURCE_RE,
    _parse_head_frame,
    parse_frame,
)
from flaketriage.model import StackFrame, _prechecked_frame


# --- oracle --------------------------------------------------------------------


def _parse_frame(
    text: str, locations: dict[str, tuple[str, str, str]]
) -> StackFrame:
    """:func:`parse_frame`, reusing the interned (class, method, location)
    names that ``locations`` holds for a ``CLASS.METHOD`` text, and adding
    new ones."""
    stripped = text.strip()
    match = _FRAME_RE.match(stripped)
    if match is None:
        stripped = _PACKAGING_RE.sub("", stripped, count=1)
        match = _FRAME_RE.match(stripped)
        if match is None:
            raise MalformedFrame(f"frame does not fit the frame grammar: {text!r}")
    loc, where = match.groups()
    if "/" in loc and (module := _MODULE_RE.match(loc)) is not None:
        loc, stripped = loc[module.end():], stripped[module.end():]
    names = locations.get(loc)
    if names is None:
        class_fqn, dot, method = loc.rpartition(".")
        if not dot:
            raise MalformedFrame(f"frame has no class.method location: {text!r}")
        if not class_fqn or not method:
            raise MalformedFrame(f"frame has an empty class or method: {text!r}")
        # Few names recur across many frames (a synthetic 13k-failure history
        # has 197 classes and 53 methods in 23k distinct frames); one object
        # per name keeps the names that matching reads few and close in
        # memory.
        names = locations[loc] = (sys.intern(class_fqn), sys.intern(method), loc)
    class_fqn, method, location = names
    # The grammar has checked what StackFrame's own checks would: the class
    # has no whitespace, class and method are not empty, and a line is
    # ASCII digits, so not negative. ``stripped`` is ``LOCATION(WHERE)``.
    if where in _NO_SOURCE:
        return _prechecked_frame(class_fqn, method, None, None, stripped, location, stripped)
    source = _SOURCE_RE.match(where)
    if source is None:
        raise MalformedFrame(f"unrecognised source position {where!r} in {text!r}")
    file, digits = source.groups()
    file, line = sys.intern(file), int(digits)
    # The text is the rendered one unless the line is zero-padded ("B.java:01").
    if digits[0] == "0" and digits != "0":
        rendered = f"{location}({file}:{line})"
    else:
        rendered = stripped
    return _prechecked_frame(class_fqn, method, file, line, stripped, location, rendered)


# --- the parts of a frame text -------------------------------------------------

PREFIXES = ["", "app//", "java.base/", "java.base@11.0.2/", "com.foo.loader/foo@9.0/"]
CLASSES = [
    "a.B", "B", "a.B$Inner", "a.B$$Lambda$1/0x0000000800c8c440",
    "a.B$$Lambda$14/1831932724", "", "a b", "a.(B",
]
METHODS = ["m", "lambda$run$0", "<init>", ""]
FILES = ["B.java", "B.kt", "", " ", "B\n.java", "B\t.java", "B:x.java", "B(.java", "B).java"]
# ASCII lines, plain and zero-padded, and tails that are not an ASCII line.
LINES = ["1", "0", "01", "007", "834", "", "1a", "٣", "²", " 1", "1 "]
SUFFIXES = ["", " ~[classes/:?]", " [junit-4.12.jar:4.12]", "\t~[?:1.8.0_292]", "~[x]"]
NO_SOURCE = ["Native Method", "Unknown Source"]


def outcome(parse, text, memo):
    """What ``parse(text, memo)`` gives: the frame and its derived texts, or
    the error."""
    try:
        frame = parse(text, memo)
    except MalformedFrame as exc:
        return "MalformedFrame", str(exc)
    return frame, frame.location, frame.rendered


def assert_parsed_alike(texts):
    """Each text, stripped as the reader has it, parses as the oracle parses
    it: fresh, and after the texts before it with memos shared."""
    texts = [text.strip() for text in texts]
    for text in texts:
        assert outcome(_parse_head_frame, text, {}) == outcome(_parse_frame, text, {})
    heads, locations = {}, {}
    for text in texts:
        got = outcome(_parse_head_frame, text, heads)
        assert got == outcome(_parse_frame, text, locations), text


def head_texts(prefix, cls, method, file, lines, suffix):
    return [f"{prefix}{cls}.{method}({file}:{line}){suffix}" for line in lines]


@settings(max_examples=300)
@given(
    prefix=st.sampled_from(PREFIXES),
    cls=st.sampled_from(CLASSES),
    method=st.sampled_from(METHODS),
    file=st.sampled_from(FILES),
    lines=st.lists(st.sampled_from(LINES), min_size=2, max_size=4),
    suffix=st.sampled_from(SUFFIXES),
)
def test_texts_of_one_head_parse_as_the_oracle_does(prefix, cls, method, file, lines, suffix):
    texts = head_texts(prefix, cls, method, file, lines, suffix)
    assert_parsed_alike(texts + texts[::-1])


@settings(max_examples=300)
@given(
    head=st.text(alphabet="aB.$/(): \n\t0٣~[]", max_size=14),
    lines=st.lists(st.sampled_from(LINES), min_size=2, max_size=4),
)
def test_any_head_text_parses_as_the_oracle_does(head, lines):
    texts = [f"{head}:{line})" for line in lines]
    assert_parsed_alike(texts + texts[::-1])


@pytest.mark.parametrize("prefix", PREFIXES)
@pytest.mark.parametrize("suffix", SUFFIXES)
def test_the_named_shapes_parse_as_the_oracle_does(prefix, suffix):
    # Every pair of lines of one head, in both orders, and the shapes
    # without a line, which share no head.
    for cls, file in itertools.product(CLASSES[:5], ["B.java", "B\n.java", " "]):
        texts = head_texts(prefix, cls, "m", file, LINES, suffix)
        for first, second in itertools.permutations(texts, 2):
            assert_parsed_alike([first, second])
        assert_parsed_alike([f"{prefix}{cls}.m({where}){suffix}" for where in NO_SOURCE])


@pytest.mark.parametrize("text", [
    "a.B.m(B.java:1)", "a.B.m(B.java:01)", "  java.base/a.B.m(B.java:007) ~[x]  ",
    "a.B.m(Native Method)", "a.B.m(B.java:)", "a.B.m(B\n.java:1)", "a.B.m( :1)",
])
def test_parse_frame_parses_as_the_oracle_does(text):
    assert outcome(lambda t, _: parse_frame(t), text, None) == outcome(_parse_frame, text, {})
