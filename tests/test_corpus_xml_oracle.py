"""The streaming corpus reader against the tree reader it replaced.

The oracle below is the old ``read_corpus_xml``, kept verbatim: it had
ElementTree build the whole document before reading a single failure. The
streaming reader must return an equal Corpus, and on a malformed document
raise the same exception type with the oracle's message, prefixed by the
failing ``<Failure>``'s position when the error is inside one. The only
documents where the two differ are the stricter rules of
``STRICT_SCHEMA_CASES``, which the oracle read without an error.
"""
from __future__ import annotations

import gc
import io
import re
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from conftest import SCHEMA_ERROR_CASES, STRICT_SCHEMA_CASES, frame, random_corpus, record
from flaketriage.errors import DuplicateProjectMismatch, MalformedFrame, SchemaError
from flaketriage.ingest import _LABELS, parse_frame, read_corpus_xml, write_corpus_xml
from flaketriage.model import Corpus, FailureRecord, Label, StackFrame, TestId
from flaketriage.synth import CountDistribution, ExceptionSpec, GeneratorConfig, generate

SEEDS = range(50)


# --- oracle --------------------------------------------------------------------


def oracle_read_corpus_xml(doc):
    try:
        if isinstance(doc, (bytes, str)):
            root = ET.fromstring(doc)
        else:
            root = ET.parse(doc).getroot()
    except ET.ParseError as exc:
        raise SchemaError(f"not well-formed XML: {exc}") from exc

    if root.tag != "Corpus":
        raise SchemaError(f"root element must be <Corpus>, found <{root.tag}>")
    corpus = Corpus()
    # Frames recur across failures; equal lines share one parsed frame.
    frames: dict[str, StackFrame] = {}
    for child in root:
        if child.tag == "Failure":
            corpus.add(_oracle_read_failure(child, None, frames))
        elif child.tag == "Project":
            name = child.get("name")
            if not name:
                raise SchemaError("<Project> is missing its name attribute")
            for sub in child:
                if sub.tag != "Failure":
                    raise SchemaError(
                        f"unexpected element <{sub.tag}> under <Project>"
                    )
                corpus.add(_oracle_read_failure(sub, name, frames))
        else:
            raise SchemaError(f"unexpected element <{child.tag}> under <Corpus>")
    return corpus


def _oracle_read_failure(
    elem: ET.Element,
    enclosing_project: str | None,
    parsed_frames: dict[str, StackFrame],
) -> FailureRecord:
    label_attr = elem.get("label", "flaky")
    if label_attr not in _LABELS:
        raise SchemaError(f"<Failure> has unknown label {label_attr!r}")

    t_elem = elem.find("T")
    if t_elem is None:
        raise SchemaError("<Failure> is missing its <T> child")
    project = t_elem.get("project")
    if not project:
        raise SchemaError("<T> is missing its project attribute")
    if enclosing_project is not None and project != enclosing_project:
        raise DuplicateProjectMismatch(
            f"<T> project {project!r} conflicts with enclosing "
            f"<Project name={enclosing_project!r}>"
        )
    full_name = (t_elem.text or "").strip()
    if "." not in full_name:
        raise SchemaError(f"<T> must contain a class.method name, found {full_name!r}")
    class_fqn, method = full_name.rsplit(".", 1)

    e_elem = elem.find("E")
    if e_elem is None:
        raise SchemaError("<Failure> is missing its <E> child")
    exception_type = (e_elem.text or "").strip()
    if not exception_type:
        raise SchemaError("<E> must contain an exception type")

    m_elem = elem.find("M")
    if m_elem is None:
        raise SchemaError("<Failure> is missing its <M> child")
    message = m_elem.text or ""

    s_elem = elem.find("S")
    if s_elem is None:
        raise SchemaError("<Failure> is missing its <S> child")
    frames = []
    for line_elem in s_elem:
        if line_elem.tag != "line":
            raise SchemaError(f"unexpected element <{line_elem.tag}> under <S>")
        text = (line_elem.text or "").strip()
        frame = parsed_frames.get(text)
        if frame is None:
            try:
                frame = parsed_frames[text] = parse_frame(text)
            except MalformedFrame as exc:
                raise SchemaError(f"bad <line> element: {exc}") from exc
        frames.append(frame)

    return FailureRecord(
        test=TestId(project, class_fqn, method),
        exception_type=exception_type,
        message=message,
        frames=tuple(frames),
        label=_LABELS[label_attr],
    )


# --- helpers -------------------------------------------------------------------

# Text of an error raised inside a <Failure>: its position, then the message.
_POSITION = re.compile(r"failure [1-9][0-9]*: ")
# The oracle's messages for errors outside any <Failure>.
_OUTSIDE = re.compile(
    r"not well-formed XML|root element|<Project> is missing"
    r"|unexpected element <[^>]*> under <(Corpus|Project)>$"
)


def outcome(read, doc):
    """``("ok", corpus)`` or ``(exception type, message)``."""
    try:
        return "ok", read(doc)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)


def assert_agrees(doc, wrap=lambda doc: doc) -> None:
    """The two readers agree on ``wrap(doc)``, a fresh input for each."""
    expected = outcome(oracle_read_corpus_xml, wrap(doc))
    got = outcome(read_corpus_xml, wrap(doc))
    assert got[0] is expected[0]
    if expected[0] == "ok" or _OUTSIDE.match(expected[1]):
        assert got[1] == expected[1]
    else:  # raised inside a <Failure>
        assert _POSITION.match(got[1]), got[1]
        assert _POSITION.sub("", got[1], count=1) == expected[1]


def grouped(doc: bytes) -> bytes:
    """``doc`` with each run of one project's failures in a <Project> group."""
    root = ET.fromstring(doc)
    out = ET.Element("Corpus")
    group = None
    for failure in root:
        project = failure.find("T").get("project")
        if group is None or group.get("name") != project:
            group = ET.SubElement(out, "Project", name=project)
        group.append(failure)
    return ET.tostring(out, encoding="utf-8", xml_declaration=True)


def with_prolog_and_comments(doc: bytes) -> bytes:
    """``doc`` with a DOCTYPE, a comment and a processing instruction before
    the root, and a comment at the start of each non-empty ``<M>``."""
    declaration = doc.index(b"?>") + 2
    prolog = b"\n<!DOCTYPE Corpus>\n<!-- history -->\n<?tool run=1?>"
    return (doc[:declaration] + prolog + doc[declaration:]).replace(b"<M>", b"<M><!-- note -->")


class OneByteAtATime(io.BytesIO):
    """A binary file whose ``read`` returns one byte per call, so that a
    chunk boundary falls inside every tag, the XML declaration included. It
    notes whether the cyclic collector was enabled at each call."""

    def __init__(self, data: bytes) -> None:
        super().__init__(data)
        self.collecting: set[bool] = set()

    def read(self, size: int | None = -1) -> bytes:
        self.collecting.add(gc.isenabled())
        return super().read(1)


def corpus_doc(seed: int) -> bytes:
    return write_corpus_xml(random_corpus(seed))


# --- valid documents -----------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_round_trip_agrees_with_oracle(seed):
    corpus = random_corpus(seed)
    doc = write_corpus_xml(corpus)
    assert doc.startswith(b"<?xml ")
    for variant in (doc, grouped(doc), with_prolog_and_comments(doc)):
        expected = oracle_read_corpus_xml(variant)
        assert expected == corpus
        assert read_corpus_xml(variant) == expected
        assert read_corpus_xml(variant.decode("utf-8")) == expected
        assert read_corpus_xml(io.BytesIO(variant)) == expected
        assert read_corpus_xml(OneByteAtATime(variant)) == expected


def test_reads_a_path(tmp_path):
    doc = corpus_doc(0)
    path = tmp_path / "corpus.xml"
    path.write_bytes(doc)
    assert read_corpus_xml(path) == oracle_read_corpus_xml(doc)


def test_equal_values_share_one_object_across_feed_chunks():
    test = TestId("p", "a.T", "m")
    shared = frame("a.Shared", "run", "Shared.java", 7)
    corpus = Corpus()
    corpus.add(record(test, frames=(shared,), label=Label.FLAKY))
    for i in range(2000):
        corpus.add(record(test, message=f"filler {i}", frames=(frame("a.F", "f", "F.java", i),),
                          label=Label.FLAKY))
    corpus.add(record(test, frames=(shared,), label=Label.TRUE))
    doc = write_corpus_xml(corpus)
    assert len(doc) > 4 * 64 * 1024  # several feed chunks, whatever their size
    records = list(read_corpus_xml(doc).records())
    first, last = records[0], records[-1]
    assert last.label is Label.TRUE and first.frames == last.frames
    assert first.frames[0] is last.frames[0]
    assert first.test is last.test
    assert first.exception_type is last.exception_type


# --- malformed documents -------------------------------------------------------


@pytest.mark.parametrize("doc, fragment", SCHEMA_ERROR_CASES)
def test_schema_error_agrees_with_oracle(doc, fragment):
    assert_agrees(doc)
    assert_agrees(doc.decode("utf-8"))
    assert_agrees(doc, io.BytesIO)
    assert_agrees(doc, OneByteAtATime)


@pytest.mark.parametrize("doc, fragment", STRICT_SCHEMA_CASES)
def test_strict_rules_are_the_only_difference(doc, fragment):
    try:
        oracle_read_corpus_xml(doc)
    except ValueError as exc:  # a TestId with an empty class or method
        assert not isinstance(exc, SchemaError)
    with pytest.raises(SchemaError, match=re.escape(fragment)):
        read_corpus_xml(doc)


@pytest.mark.parametrize("seed", range(5))
def test_truncations_agree_with_oracle(seed):
    doc = corpus_doc(seed)
    step = max(1, len(doc) // 100)
    for variant in (doc, grouped(doc)):
        for end in [*range(0, len(variant), step), len(variant) - 1]:
            assert_agrees(variant[:end])


@pytest.mark.parametrize(
    "doc, fragment",
    [case for case in SCHEMA_ERROR_CASES + STRICT_SCHEMA_CASES if case[0].endswith(b"</Corpus>")],
)
def test_truncation_after_a_schema_error_is_not_well_formed(doc, fragment):
    # A valid tail longer than any feed chunk, then the truncation.
    body = corpus_doc(1)
    tail = body[body.index(b"<Failure"):body.rindex(b"</Corpus>")] * 20
    assert len(tail) > 4 * 64 * 1024
    broken = doc[: -len(b"</Corpus>")] + tail + b"<Failure>"
    assert_agrees(broken)
    with pytest.raises(SchemaError, match="not well-formed XML"):
        read_corpus_xml(broken)


def test_errors_late_in_a_large_grouped_document_agree_with_oracle():
    doc = grouped(write_corpus_xml(random_corpus(7, max_records=2000)))
    assert len(doc) > 4 * 64 * 1024 and doc.count(b"<Project ") > 1
    assert_agrees(doc)
    last_e = doc.rindex(b"<E>")
    assert_agrees(doc[:last_e] + b"<E> </E>" + doc[doc.index(b"</E>", last_e) + 4:])
    last_group = doc.rindex(b"</Project>")
    assert_agrees(doc[:last_group] + b"<Oops/>" + doc[last_group:])
    assert_agrees(doc[:last_group])
    with pytest.raises(SchemaError, match="'stray' directly under <Project>$"):
        read_corpus_xml(doc[:last_group] + b"stray" + doc[last_group:])


def test_schema_error_names_the_failure_position():
    good = b'<Failure><T project="p">a.T.m</T><E>E</E><M/><S/></Failure>'
    bad = b'<Failure><T project="p">a.T.m</T><E> </E><M/><S/></Failure>'
    doc = b'<Corpus>' + good + b'<Project name="p">' + good + bad + b"</Project>" + bad + b"</Corpus>"
    with pytest.raises(SchemaError, match=r"^failure 3: <E> must contain an exception type$"):
        read_corpus_xml(doc)
    mismatch = doc.replace(b'<Project name="p">', b'<Project name="q">')
    with pytest.raises(DuplicateProjectMismatch, match=r"^failure 2: <T> project 'p' conflicts"):
        read_corpus_xml(mismatch)


# --- memory --------------------------------------------------------------------


@pytest.fixture(scope="module")
def history_doc() -> bytes:
    """A generated history of a few thousand failures, shaped like the paper's."""
    config = GeneratorConfig(
        seed=3,
        projects=2,
        tests_per_project=CountDistribution.constant(20),
        flaky_signatures_per_test=CountDistribution.uniform(1, 4),
        flaky_occurrences_per_signature=CountDistribution.geometric(0.05),
        true_failures_per_test=CountDistribution.uniform(10, 50),
        frame_depth=(3, 12),
        exception_pool=(
            ExceptionSpec("UnknownHostException", 3),
            ExceptionSpec("AssertionError", 2, shared_across_labels=True),
            ExceptionSpec("NullPointerException", 2, only_label=Label.TRUE),
        ),
    )
    return write_corpus_xml(generate(config))


@pytest.mark.parametrize("group", [False, True])
def test_read_peak_memory_stays_near_what_the_corpus_holds(history_doc, group):
    doc = grouped(history_doc) if group else history_doc
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        corpus = read_corpus_xml(doc)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) > 2000
    ratio = (peak - base) / (held - base)
    assert ratio <= 1.5, f"read peaked at {ratio:.2f}x what the corpus holds"


# --- the cyclic collector ------------------------------------------------------


@pytest.fixture
def restore_collector():
    """Restores whether the cyclic collector is enabled after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("doc, result", [
    (corpus_doc(0), "ok"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E> </E><M/><S/></Failure></Corpus>', SchemaError),
    (corpus_doc(0)[:-20], SchemaError),
], ids=["valid", "schema-error", "not-well-formed"])
def test_read_pauses_the_collector_and_restores_its_state(restore_collector, doc, result, enabled):
    (gc.enable if enabled else gc.disable)()
    source = OneByteAtATime(doc)
    assert outcome(read_corpus_xml, source)[0] == result
    assert source.collecting == {False}
    assert gc.isenabled() is enabled


def test_a_read_leaves_no_cyclic_garbage(history_doc):
    gc.collect()
    corpus = read_corpus_xml(history_doc)
    assert gc.collect() == 0
    assert len(corpus) > 2000
