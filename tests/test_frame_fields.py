"""The texts a StackFrame derives from its fields and keeps with itself.

``location`` (``CLASS.METHOD``) and ``rendered`` (the canonical text)
are set once per frame: by the parser from the text it has already split,
and by ``__post_init__`` for every other way to build a frame. Each frame
here is checked against texts computed in the test from the frame's fields.
"""
from __future__ import annotations

import dataclasses

import pytest

from conftest import random_corpus, render_from_fields
from test_index_oracles import with_padded_lines
from flaketriage.ingest import parse_frame, read_corpus_xml, write_corpus_xml
from flaketriage.model import StackFrame, _prechecked_frame

# Frame texts whose rendered text is not plain to derive.
TEXTS = [
    "a.B.test(B.java:1)",
    "a.B.test(B.java:01)",
    "a.B.test(B.java:007)",
    "a.B.test(B.java:0)",
    "a.B.test(B.java:00)",
    "a.B.test(B.java:10)",
    "a.B.run(Native Method)",
    "a.B.run(Unknown Source)",
    "app//a.B.test(B.java:1)",
    "java.base@11.0.2/java.lang.Thread.run(Thread.java:0834)",
    "com.foo.loader/foo@9.0/a.B.run(Native Method)",
    "a.B.test(B.java:02) ~[classes/:?]",
    "a.B.test(B.java:3) [junit-4.12.jar:4.12]",
    "a.B$$Lambda$1/0x0000000800c8c440.run(Unknown Source)",
    "app//a.B$$Lambda$14/1831932724.run(Unknown Source) ~[classes/:?]",
]


def assert_derived(f: StackFrame) -> None:
    assert f.location == f"{f.class_fqn}.{f.method}"
    assert f.rendered == render_from_fields(f)


def odd_document() -> str:
    lines = "".join(f"<line>{text}</line>" for text in TEXTS)
    return (
        '<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/>'
        f"<S>{lines}</S></Failure></Corpus>"
    )


def test_parsed_frames_derive_their_texts_from_their_fields():
    frames = [parse_frame(text) for text in TEXTS]
    for f in frames:
        assert_derived(f)
    assert parse_frame("a.B.test(B.java:01)").rendered == "a.B.test(B.java:1)"
    assert parse_frame("a.B.test(B.java:0)").rendered == "a.B.test(B.java:0)"
    assert parse_frame("app//a.B.test(B.java:02) ~[x]").rendered == "a.B.test(B.java:2)"
    hidden = parse_frame(TEXTS[-1])
    assert hidden.location == "a.B$$Lambda$14/1831932724.run"
    assert hidden.rendered == hidden.raw == "a.B$$Lambda$14/1831932724.run(Unknown Source)"


@pytest.mark.parametrize("seed", range(5))
def test_read_frames_derive_their_texts_from_their_fields(seed):
    corpus = random_corpus(seed)
    documents = (write_corpus_xml(with_padded_lines(corpus)), odd_document())
    frames = [f for doc in documents for r in read_corpus_xml(doc).records() for f in r.frames]
    assert sum(f.rendered != f.raw for f in frames) > len(TEXTS)
    for f in frames:
        assert_derived(f)


def test_constructed_frames_derive_their_texts_from_their_fields():
    parsed = [parse_frame(text) for text in TEXTS]
    frames = [StackFrame(f.class_fqn, f.method, f.file, f.line, f.raw) for f in parsed]
    # A raw text the fields do not describe still renders from the fields.
    frames.append(StackFrame("a.B", "m", "B.java", 4, "junk"))
    frames.append(StackFrame("a.B", "m", None, None, "a.B.m(Unknown Source)"))
    frames += [
        StackFrame.from_parts("a.B", "m", "B.java", 0),
        StackFrame.from_parts("a.B", "m"),
        StackFrame.from_parts("a.B", "m", "B.java"),
        StackFrame.from_parts("a.B$$Lambda$1/0x0000000800c8c440", "run"),
    ]
    base = parse_frame("a.B.test(B.java:01)")
    frames += [
        dataclasses.replace(base, class_fqn="c.D"),
        dataclasses.replace(base, method="other"),
        dataclasses.replace(base, line=12),
        dataclasses.replace(base, file=None, line=None),
        dataclasses.replace(base, raw="a.B.test(B.java:1)"),
    ]
    for f in frames:
        assert_derived(f)
    assert frames[-1].rendered == base.rendered == "a.B.test(B.java:1)"
    with pytest.raises(ValueError):
        dataclasses.replace(base, rendered="x")


def test_equality_hash_and_repr_ignore_the_derived_texts():
    for f in map(parse_frame, TEXTS):
        odd = _prechecked_frame(f.class_fqn, f.method, f.file, f.line, f.raw, "x", "y")
        assert odd == f and hash(odd) == hash(f) and repr(odd) == repr(f)
        assert "location" not in repr(f) and "rendered" not in repr(f)
        assert {odd, f} == {f}
