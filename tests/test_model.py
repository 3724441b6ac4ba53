"""Domain-type invariants and corpus bookkeeping."""
import copy
import dataclasses
import pickle
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaketriage.errors import UnlabeledRecord
from flaketriage.model import (
    Corpus,
    FailureRecord,
    Label,
    StackFrame,
    TestId,
)

from conftest import frame, record


def test_test_id_full_name_joins_class_and_method():
    t = TestId("alluxio", "tachyon.JournalTest", "TableTest")
    assert t.full_name() == "tachyon.JournalTest.TableTest"
    assert TestId("p", "A", "m").full_name() == "A.m"
    assert TestId("p", "a.b.C", "t1").full_name() == "a.b.C.t1"


def test_test_id_rejects_empty_fields():
    with pytest.raises(ValueError):
        TestId("", "A", "m")
    with pytest.raises(ValueError):
        TestId("p", "", "m")
    with pytest.raises(ValueError):
        TestId("p", "A", "")


def test_frame_render_round_trips():
    f = frame("a.B", "c", "B.java", 7)
    assert f.raw == "a.B.c(B.java:7)"
    assert f.render() == f.raw
    native = frame("a.B", "c")
    assert native.render() == "a.B.c(Native Method)"
    assert native.file is None and native.line is None


def test_frame_rejects_whitespace_class_and_negative_line():
    with pytest.raises(ValueError):
        StackFrame("a b", "m", None, None, "a b.m(Native Method)")
    with pytest.raises(ValueError):
        StackFrame("a.B", "m", "B.java", -1, "a.B.m(B.java:-1)")


def test_regex_whitespace_class_agrees_with_str_isspace():
    # StackFrame rejects class names by r"\s"; it must mean str.isspace().
    every_char = "".join(map(chr, range(sys.maxunicode + 1)))
    by_regex = {m.start() for m in re.finditer(r"\s", every_char)}
    by_isspace = {i for i, ch in enumerate(every_char) if ch.isspace()}
    assert by_regex == by_isspace
    assert len(by_isspace) > 20


@pytest.mark.parametrize("space", [" ", "\t", "\u00a0", "\u2028", "\u3000", "\x1c"])
def test_frame_rejects_any_unicode_whitespace_in_class(space):
    with pytest.raises(ValueError):
        StackFrame(f"a{space}B", "m", None, None, "raw")


def test_record_requires_exception_type():
    with pytest.raises(ValueError):
        record(TestId("p", "A", "m"), exception="")


def test_record_coerces_frame_list_to_tuple():
    r = FailureRecord(
        test=TestId("p", "A", "m"),
        exception_type="E",
        message="",
        frames=[frame("a.B", "c", "B.java", 1)],  # type: ignore[arg-type]
    )
    assert isinstance(r.frames, tuple)


def test_corpus_rejects_unlabeled_records():
    corpus = Corpus()
    with pytest.raises(UnlabeledRecord):
        corpus.add(record(TestId("p", "A", "m")))


def test_corpus_bucket_and_label_consistency():
    corpus = Corpus()
    t = TestId("p", "A", "m")
    corpus.add(record(t, label=Label.FLAKY))
    corpus.add(record(t, exception="IOException", label=Label.TRUE))
    corpus.add(record(t, label=Label.FLAKY))
    assert all(r.label is Label.FLAKY for r in corpus.bucket(t, Label.FLAKY))
    assert all(r.label is Label.TRUE for r in corpus.bucket(t, Label.TRUE))
    assert len(corpus.bucket(t, Label.FLAKY)) == 2
    assert corpus.count("p") == 3


def test_corpus_subset_and_identifiers():
    corpus = Corpus()
    a = TestId("p1", "A", "m")
    b = TestId("p2", "B", "m")
    corpus.add(record(a, label=Label.FLAKY))
    corpus.add(record(b, label=Label.TRUE))
    sub = corpus.subset("p1")
    assert sub.project_names() == ["p1"]
    ids = [record_id for record_id, _ in corpus.identified_records("p1")]
    assert ids == ["p1/A.m/flaky[0]"]


@st.composite
def labeled_records(draw):
    project = draw(st.sampled_from(["p1", "p2"]))
    class_fqn = draw(st.sampled_from(["a.ATest", "a.BTest", "b.CTest"]))
    method = draw(st.sampled_from(["m0", "m1"]))
    exception = draw(st.sampled_from(["E1", "E2"]))
    label = draw(st.sampled_from([Label.FLAKY, Label.TRUE]))
    message = draw(st.text(max_size=10))
    return record(TestId(project, class_fqn, method), exception, message, (), label)


@given(st.lists(labeled_records(), max_size=40))
@settings(max_examples=100)
def test_corpus_preserves_record_multiplicity(records):
    corpus = Corpus()
    corpus.add_all(records)
    assert Counter(records) == Counter(corpus.records())


@given(st.lists(labeled_records(), max_size=40))
@settings(max_examples=100)
def test_corpus_buckets_always_match_labels(records):
    corpus = Corpus()
    corpus.add_all(records)
    for project in corpus.project_names():
        for test in corpus.tests(project):
            for label in (Label.FLAKY, Label.TRUE):
                assert all(r.label is label for r in corpus.bucket(test, label))
                assert all(r.test == test for r in corpus.bucket(test, label))


def test_slotted_values_copy_compare_and_hash_as_values():
    test = TestId("p", "a.T", "m")
    frames = (frame("a.Lib", "go", "Lib.java", 2), frame("a.N", "run"))
    rec = FailureRecord(test, "E", "boom", frames, Label.FLAKY, "x.E")
    for value, field in ((frames[0], "line"), (frames[1], "raw"), (rec, "label")):
        assert not hasattr(value, "__dict__")
        restored = pickle.loads(pickle.dumps(value))
        assert restored == value and hash(restored) == hash(value)
        assert copy.copy(value) == value and copy.deepcopy(value) == value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, None)
    assert pickle.loads(pickle.dumps(rec)).frames == frames
    moved = dataclasses.replace(frames[0], line=3)
    assert moved.line == 3 and moved != frames[0]
    relabeled = dataclasses.replace(rec, label=Label.TRUE)
    assert relabeled.label is Label.TRUE and relabeled.frames is rec.frames
    assert relabeled != rec and {rec, relabeled, dataclasses.replace(relabeled)} == {rec, relabeled}
    assert FailureRecord(test, "E", "", [frames[0]]).frames == (frames[0],)
