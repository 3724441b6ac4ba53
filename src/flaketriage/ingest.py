"""Failure-log parsing, frame filtering, and the XML corpus format."""
from __future__ import annotations

import gc
import io
import re
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO

from .errors import (
    DuplicateProjectMismatch,
    MalformedFrame,
    MalformedLog,
    SchemaError,
)
from .model import (
    Corpus,
    FailureRecord,
    Label,
    StackFrame,
    TestId,
    _prechecked_frame,
    _prechecked_record,
)

# One stack-trace line after the leading "at " is removed, e.g.
#   tachyon.LocalTachyonCluster.start(LocalTachyonCluster.java:104)
#   java.net.InetAddress$2.lookupAllHostAddr(InetAddress.java:929)
#   java.net.Inet6AddressImpl.lookupAllHostAddr(Native Method)
_FRAME_RE = re.compile(r"^(?P<loc>[^\s()]+)\((?P<where>[^()]*)\)$")
_SOURCE_RE = re.compile(r"^(?P<file>[^:\s]+):(?P<line>[0-9]+)\Z")
# The packaging data logback and log4j2 append to a frame, e.g.
#   a.B.test(B.java:1) ~[classes/:?]
#   org.junit.runners.ParentRunner.run(ParentRunner.java:363) [junit-4.12.jar:4.12]
_PACKAGING_RE = re.compile(r"\s+~?\[[^\[\]]*\]$")
_NO_SOURCE = ("Native Method", "Unknown Source")
# The class loader and module JDK 9+ print before a class, e.g. "app//" or
# "java.base@11.0.2/". A digit follows the "/" of a hidden class name, e.g.
# a.B$$Lambda$1/0x0000000800c8c440, so that "/" is kept.
_MODULE_RE = re.compile(r"(?:[^/]*/){1,2}(?=[A-Za-z_$])")

# What the JVM's default handler writes before an uncaught exception, e.g.
#   Exception in thread "main" java.lang.RuntimeException: boom
# The thread name ends at the first quote followed by a space.
_THREAD_PREFIX_RE = re.compile(r'Exception in thread ".*?" (?=\S)')
# Lines that start a nested trace (a cause, or an exception suppressed by
# try-with-resources); the primary trace ends at either.
_TRACE_ENDS = ("Caused by:", "Suppressed:")

# Non-deterministic reflection accessors synthesized by the JVM, e.g.
#   sun.reflect.GeneratedMethodAccessor42.invoke(...)
#   jdk.internal.reflect.GeneratedConstructorAccessor7.newInstance(...)
# The generalisation to constructor accessors is deliberate.
DEFAULT_NOISE_PATTERN = re.compile(
    r"(?:GeneratedMethodAccessor|GeneratedConstructorAccessor)\d+"
)


class TruncationBasis(Enum):
    """How the kept part of a trace was cut off at the test boundary."""

    TEST_METHOD_FRAME = "test_method_frame"
    TEST_CLASS_FRAME = "test_class_frame"
    NONE = "none"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class NormalizedFailure:
    """A failure record plus the frame subsequence that survives filtering.

    ``kept_frames`` is always a subsequence of ``base.frames``: reflection
    noise is dropped first, then the trace is truncated at the test boundary
    (inclusive). ``truncation_basis`` records which boundary rule applied.
    """

    base: FailureRecord
    kept_frames: tuple[StackFrame, ...]
    truncation_basis: TruncationBasis


def parse_frame(text: str) -> StackFrame:
    """Parse one frame line (without the leading ``at ``) into a StackFrame.

    Accepted shapes: ``CLASS.METHOD(FILE:LINE)``, ``CLASS.METHOD(Native
    Method)``, and ``CLASS.METHOD(Unknown Source)``. METHOD is the last
    dot-segment before the parenthesis, and LINE is ASCII digits. One
    trailing logback or log4j2 packaging suffix, such as `` ~[classes/:?]``,
    and the class loader and module prefix of JDK 9+, such as ``app//`` or
    ``java.base/``, are dropped; ``raw`` is the text without them.
    """
    stripped = text.strip()
    match = _FRAME_RE.match(stripped)
    if match is None:
        stripped = _PACKAGING_RE.sub("", stripped, count=1)
        match = _FRAME_RE.match(stripped)
        if match is None:
            raise MalformedFrame(f"frame does not fit the frame grammar: {text!r}")
    location, where = match.groups()
    if "/" in location and (module := _MODULE_RE.match(location)) is not None:
        location, stripped = location[module.end():], stripped[module.end():]
    class_fqn, dot, method = location.rpartition(".")
    if not dot:
        raise MalformedFrame(f"frame has no class.method location: {text!r}")
    if not class_fqn or not method:
        raise MalformedFrame(f"frame has an empty class or method: {text!r}")
    # Few names recur across many frames (a synthetic 13k-failure history has
    # 197 classes and 53 methods in 23k distinct frames); one object per name
    # keeps the names that matching reads few and close in memory.
    class_fqn, method = sys.intern(class_fqn), sys.intern(method)
    # The grammar has checked what StackFrame's own checks would: the class
    # has no whitespace, class and method are not empty, and a line is
    # ASCII digits, so not negative. ``stripped`` is ``LOCATION(WHERE)``.
    if where in _NO_SOURCE:
        return _prechecked_frame(class_fqn, method, None, None, stripped, location, stripped)
    source = _SOURCE_RE.match(where)
    if source is None:
        raise MalformedFrame(f"unrecognised source position {where!r} in {text!r}")
    file, digits = source.groups()
    return _prechecked_frame(
        class_fqn, method, sys.intern(file), int(digits), stripped, location,
        _rendered(stripped, location, file, digits),
    )


def _rendered(raw: str, location: str, file: str, digits: str) -> str:
    """A FILE:LINE frame's rendered text: ``raw`` itself unless the line is
    zero-padded (``B.java:01`` renders as ``B.java:1``)."""
    if digits[0] == "0" and digits != "0":
        return f"{location}({file}:{int(digits)})"
    return raw


# What a frame's head gives every text of it: class, method, file, location,
# and the length of the JDK 9+ prefix that ``raw`` drops.
_Head = tuple[str, str, str, str, int]


def _parse_head_frame(text: str, heads: dict[str, _Head]) -> StackFrame:
    """:func:`parse_frame` on a stripped ``text``, parsing each head once.

    The head of a ``CLASS.METHOD(FILE:LINE)`` text is the text up to its
    last ``:``, e.g. ``a.B.m(B.java``. Whether such a text fits the grammar,
    and its class, method, file and location, follow from its head alone. So
    the first text of a head goes through :func:`parse_frame`, which names that
    text in any error, and ``heads`` keeps what it gave for the head's later
    texts. A text of any other shape is parsed whole.
    """
    if text[-1:] != ")":
        return parse_frame(text)
    head, colon, digits = text[:-1].rpartition(":")
    if not (colon and digits.isdigit() and digits.isascii()):
        return parse_frame(text)
    known = heads.get(head)
    if known is None:
        frame = parse_frame(text)
        heads[head] = (
            frame.class_fqn, frame.method, frame.file, frame.location,
            len(text) - len(frame.raw),
        )
        return frame
    class_fqn, method, file, location, cut = known
    raw = text[cut:]
    return _prechecked_frame(
        class_fqn, method, file, int(digits), raw, location,
        _rendered(raw, location, file, digits),
    )


def parse_failure_text(
    raw: str, test: TestId, diagnostics: list[str] | None = None
) -> FailureRecord:
    """Parse one raw failure log into an (unlabeled) FailureRecord.

    The first non-blank line must be the exception header, optionally
    followed by ``: message``; a JVM ``Exception in thread "NAME" `` prefix is
    dropped. Frame lines start with optional whitespace and ``at ``; anything
    else is ignored, and a ``Caused by:`` or ``Suppressed:`` line ends the
    primary trace. Malformed frame lines are skipped, with a note appended to
    ``diagnostics`` when a list is supplied. One leading byte order mark
    (U+FEFF) is dropped, so it cannot become part of the exception type.
    """
    lines = raw.removeprefix("\ufeff").splitlines()
    header = None
    start = 0
    for i, line in enumerate(lines):
        if line.strip():
            header = line.strip()
            start = i + 1
            break
    if header is None:
        raise MalformedLog("no exception header: input is empty")
    if header.startswith("at "):
        raise MalformedLog("no exception header: log starts with a stack frame")
    thread = _THREAD_PREFIX_RE.match(header)
    if thread is not None:
        header = header[thread.end():]

    head, sep, rest = header.partition(":")
    token = head.strip()
    exception_type = token.rsplit(".", 1)[-1]
    if not exception_type or any(ch.isspace() for ch in token):
        raise MalformedLog(f"cannot identify an exception header in {header!r}")
    message = ""
    if sep:
        message = rest[1:] if rest.startswith(" ") else rest
    exception_fqn = token if "." in token else ""

    frames: list[StackFrame] = []
    for line in lines[start:]:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(_TRACE_ENDS):
            break  # only the primary trace is parsed
        if stripped.startswith("at "):
            try:
                frames.append(parse_frame(stripped[3:]))
            except MalformedFrame as exc:
                if diagnostics is not None:
                    diagnostics.append(str(exc))
        # anything else ("... 3 more", build-tool noise) is ignored

    return FailureRecord(
        test=test,
        exception_type=exception_type,
        message=message,
        frames=tuple(frames),
        exception_fqn=exception_fqn,
    )


def parse_failure_file(
    path: Path | str, test: TestId, diagnostics: list[str] | None = None
) -> FailureRecord:
    """Parse one plain-text failure log file, which must be UTF-8.

    Bytes that are not UTF-8 raise :class:`MalformedLog` rather than being
    replaced, since a replaced byte would silently change a frame's text.
    """
    data = Path(path).read_bytes()
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLog(
            f"{path}: not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from None
    return parse_failure_text(raw, test, diagnostics)


def normalize(record: FailureRecord) -> NormalizedFailure:
    """Drop JVM reflection noise, then truncate the trace at the test boundary.

    Noise is a frame whose class matches :data:`DEFAULT_NOISE_PATTERN`.
    Truncation keeps frames from the top through the first frame whose
    ``class.method`` starts with the test's full name; if there is none,
    through the last frame whose class equals the test's class; otherwise all
    surviving frames are kept. The boundary frame itself is kept.
    """
    noise = DEFAULT_NOISE_PATTERN.search
    survivors = [f for f in record.frames if not noise(f.class_fqn)]
    test = record.test
    full = test.full_name()
    kept = survivors
    basis = TruncationBasis.NONE
    for i, frame in enumerate(survivors):
        if frame.location.startswith(full):
            kept = survivors[: i + 1]
            basis = TruncationBasis.TEST_METHOD_FRAME
            break
    else:
        for i in range(len(survivors) - 1, -1, -1):
            if survivors[i].class_fqn == test.class_fqn:
                kept = survivors[: i + 1]
                basis = TruncationBasis.TEST_CLASS_FRAME
                break
    return NormalizedFailure(record, tuple(kept), basis)


# --- corpus XML -----------------------------------------------------------
#
# <Corpus>
#   <Failure label="flaky|true">          label optional, absent means flaky
#     <T project="NAME">pkg.Class.method</T>
#     <E>ExceptionType</E>
#     <M>free text, significant verbatim (a CR is written as &#13;)</M>
#     <S><line>frame text without "at "</line>...</S>
#   </Failure>
# </Corpus>
#
# Failures may optionally be wrapped in <Project name="NAME"> groups; the
# group name must then agree with each inner T's project attribute.

_LABELS = {"flaky": Label.FLAKY, "true": Label.TRUE}
_FAILURE_PARTS = ("T", "E", "M", "S")
# Bytes or characters handed to the parser at a time.
_CHUNK = 64 * 1024

# A character outside XML 1.0's Char production: no XML 1.0 document can hold
# it, not even as a character reference (e.g. NUL, ESC, a lone surrogate).
_find_non_xml_char = re.compile(
    "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"
).search


def read_corpus_xml(doc: bytes | str | IO[bytes] | Path) -> Corpus:
    """Read a corpus XML document into a Corpus.

    ``doc`` is the document as bytes or str, or a binary file object or path
    to read it from. The document is parsed as a stream: each entry (a
    ``<Failure>``, or a ``<Project>`` group's ``<Failure>``) is read once it
    has ended and then dropped, so few failures' elements are alive at a time.
    The root is found under a holder element that the reader's tree builder
    opens first, so the parser queues no per-element events.

    The cyclic garbage collector is paused while the document is read, since
    the read creates no reference cycles, and its prior state is restored
    when the read ends, as ``timeit`` does. So a ``gc.disable()`` that
    another thread makes during a read is undone when the read ends.

    Raises SchemaError naming the first offending element, and
    DuplicateProjectMismatch when a T project attribute conflicts with an
    enclosing Project group. An error inside a ``<Failure>`` names that
    failure's 1-based position in the document. A document that is not
    well-formed XML raises that error, whatever else is wrong with it.
    """
    if isinstance(doc, bytes):
        doc = io.BytesIO(doc)
    elif isinstance(doc, str):
        doc = io.StringIO(doc)
    elif not hasattr(doc, "read"):
        with open(doc, "rb") as handle:
            return read_corpus_xml(handle)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _read_stream(doc)
    finally:
        if collecting:
            gc.enable()


def _read_stream(doc: IO[bytes] | IO[str]) -> Corpus:
    """:func:`read_corpus_xml` on a file object, with the collector paused.

    The tree builder opens a holder element of its own before the parser
    starts, so the document's root becomes the holder's child as soon as its
    start tag is parsed: no parser events are needed to find it, and the
    tree itself shows which entries have ended.
    """
    builder = ET.TreeBuilder()
    holder = builder.start("holder", {})
    parser = ET.XMLParser(target=builder)
    reader = None
    try:
        while chunk := doc.read(_CHUNK):
            parser.feed(chunk)
            if reader is None and len(holder):
                reader = _CorpusReader(holder[0])
            if reader is not None:
                reader.read()
        parser.close()
    except ET.ParseError as exc:
        raise SchemaError(f"not well-formed XML: {exc}") from exc
    # A schema error is raised only now, once the whole document has parsed.
    reader.read(final=True)
    if reader.error is not None:
        raise reader.error
    return reader.corpus


class _CorpusReader:
    """Reads a corpus document's entries in document order once they end.

    ``root`` is the document's root while it is still being parsed: the
    first child of the holder element that :func:`_read_stream` opens, which
    the parser never closes. The read runs with the cyclic collector paused.
    The entries are the children of the root and of a ``<Project>`` group.
    All children of an element but the last have ended, and so has the last
    once the element has; so each entry is read, with the text after it,
    once a sibling follows it or its parent has ended, and is then removed
    from the tree. The first schema error is kept in ``error``; entries after
    it are dropped unread.
    """

    def __init__(self, root: ET.Element) -> None:
        self.root = root
        self.corpus = Corpus()
        # Frames and tests recur across failures; equal ones share one object.
        self.frames: dict[str, StackFrame] = {}
        self.heads: dict[str, _Head] = {}
        self.tests: dict[tuple[str, str], TestId] = {}
        self.error: SchemaError | None = None
        if root.tag != "Corpus":
            self.error = SchemaError(f"root element must be <Corpus>, found <{root.tag}>")
        self.failures = 0
        self.group: ET.Element | None = None  # the <Project> being read

    def read(self, container: ET.Element | None = None, final: bool = False) -> None:
        """Read the entries of ``container`` (the root) that have ended.

        With ``final``, the container has ended and all of them are read.
        """
        if container is None:
            container = self.root
        self._check_text(container.text, container)
        ended = container[:] if final else container[:-1]
        del container[: len(ended)]
        for entry in ended:
            self._entry(container, entry)
            if entry is self.group:
                self.read(entry, final=True)
                self.group = None
            self._check_text(entry.tail, container)
        if container is self.root and len(container) and container[-1].tag == "Project":
            # A group still open: read the entries that have ended in it.
            self._entry(container, container[-1])
            self.read(container[-1])

    def _entry(self, container: ET.Element, entry: ET.Element) -> None:
        if entry is self.group:
            return  # opened while it was still open
        if entry.tag == "Failure":
            self.failures += 1
            if self.error is None:
                group = None if container is self.root else container.get("name")
                try:
                    record = _read_failure(
                        entry, group, self.frames, self.heads, self.tests
                    )
                except SchemaError as exc:
                    self.error = type(exc)(f"failure {self.failures}: {exc}")
                    self.error.__cause__ = exc.__cause__
                else:
                    self.corpus.add(record)
        elif entry.tag == "Project" and container is self.root:
            self.group = entry
            if self.error is None and not entry.get("name"):
                self.error = SchemaError("<Project> is missing its name attribute")
        elif self.error is None:
            self.error = SchemaError(
                f"unexpected element <{entry.tag}> under <{container.tag}>"
            )

    def _check_text(self, text: str | None, container: ET.Element) -> None:
        if self.error is None and not _blank(text):
            self.error = _stray_text(text, container.tag)


def _blank(text: str | None) -> bool:
    """Whether text between elements is absent or XML whitespace.

    XML whitespace is space, tab, CR and LF. Every other ASCII character
    that ``str.isspace`` accepts is illegal in XML, so in a well-formed
    document ASCII text that it accepts is XML whitespace.
    """
    return not text or (text.isspace() and text.isascii())


def _stray_text(text: str, tag: str) -> SchemaError:
    return SchemaError(f"unexpected text {text.strip()[:40]!r} directly under <{tag}>")


def _nested_element(elem: ET.Element) -> SchemaError:
    return SchemaError(f"<{elem.tag}> must not contain the element <{elem[0].tag}>")


def _check_parts(failure: ET.Element) -> None:
    """Raise SchemaError for an unknown or repeated child of ``<Failure>``."""
    seen = set()
    for child in failure:
        if child.tag not in _FAILURE_PARTS:
            raise SchemaError(f"unexpected element <{child.tag}> under <Failure>")
        if child.tag in seen:
            raise SchemaError(f"<Failure> has more than one <{child.tag}>")
        seen.add(child.tag)


def _read_failure(
    elem: ET.Element,
    enclosing_project: str | None,
    parsed_frames: dict[str, StackFrame],
    heads: dict[str, _Head],
    parsed_tests: dict[tuple[str, str], TestId],
) -> FailureRecord:
    label_attr = elem.get("label", "flaky")
    if label_attr not in _LABELS:
        raise SchemaError(f"<Failure> has unknown label {label_attr!r}")

    # Each of T, E, M and S at most once, and nothing else; T, E and M hold
    # text only, and no text sits between them.
    if len(elem) == 4 and tuple(child.tag for child in elem) == _FAILURE_PARTS:
        t_elem, e_elem, m_elem, s_elem = elem  # the order the writer uses
    else:
        _check_parts(elem)
        t_elem, e_elem, m_elem, s_elem = map(elem.find, _FAILURE_PARTS)
    if not _blank(elem.text):
        raise _stray_text(elem.text, "Failure")
    for child in elem:
        if len(child) and child is not s_elem:
            raise _nested_element(child)
        if not _blank(child.tail):
            raise _stray_text(child.tail, "Failure")

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
    test = parsed_tests.get((project, full_name))
    if test is None:
        class_fqn, _, method = full_name.rpartition(".")
        if not class_fqn or not method:
            raise SchemaError(
                f"<T> must contain a class.method name, found {full_name!r}"
            )
        test = parsed_tests[project, full_name] = TestId(project, class_fqn, method)

    if e_elem is None:
        raise SchemaError("<Failure> is missing its <E> child")
    exception_type = (e_elem.text or "").strip()
    if not exception_type:
        raise SchemaError("<E> must contain an exception type")
    exception_type = sys.intern(exception_type)  # a few names, many failures

    if m_elem is None:
        raise SchemaError("<Failure> is missing its <M> child")
    message = m_elem.text or ""

    if s_elem is None:
        raise SchemaError("<Failure> is missing its <S> child")
    if not _blank(s_elem.text):
        raise _stray_text(s_elem.text, "S")
    frames = []
    for line_elem in s_elem:
        if line_elem.tag != "line":
            raise SchemaError(f"unexpected element <{line_elem.tag}> under <S>")
        if len(line_elem):
            raise _nested_element(line_elem)
        text = (line_elem.text or "").strip()
        frame = parsed_frames.get(text)
        if frame is None:
            try:
                frame = parsed_frames[text] = _parse_head_frame(text, heads)
            except MalformedFrame as exc:
                raise SchemaError(f"bad <line> element: {exc}") from exc
        frames.append(frame)
        tail = line_elem.tail  # _blank inlined: this runs once per frame
        if tail and not (tail.isspace() and tail.isascii()):
            raise _stray_text(tail, "S")

    return _prechecked_record(
        test, exception_type, message, tuple(frames), _LABELS[label_attr]
    )


def write_corpus_xml(corpus: Corpus) -> bytes:
    """Serialise a Corpus to UTF-8 XML; reading it back yields an equal Corpus.

    Failures are emitted grouped by project and test in sorted order, flaky
    bucket first, preserving insertion order inside each bucket. The label
    attribute is written only for true failures (absent means flaky).

    Carriage returns are written as ``&#13;`` so that XML end-of-line
    handling cannot turn them into line feeds. Text holding a character that
    XML 1.0 cannot carry (most C0 controls, such as the ESC of ANSI colour
    codes, and lone surrogates) raises SchemaError; nothing is written.
    """
    root = ET.Element("Corpus")
    for project in corpus.project_names():
        for test in corpus.tests(project):
            project_name = _xml_text(project, test)
            name = _xml_text(test.full_name(), test)
            for label in (Label.FLAKY, Label.TRUE):
                for record in corpus.bucket(test, label):
                    failure = ET.SubElement(root, "Failure")
                    if label is Label.TRUE:
                        failure.set("label", "true")
                    t_elem = ET.SubElement(failure, "T", project=project_name)
                    t_elem.text = name
                    e_elem = ET.SubElement(failure, "E")
                    e_elem.text = _xml_text(record.exception_type, test)
                    ET.SubElement(failure, "M").text = _xml_text(record.message, test)
                    s_elem = ET.SubElement(failure, "S")
                    for frame in record.frames:
                        line = ET.SubElement(s_elem, "line")
                        line.text = _xml_text(frame.raw, test)
    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    # ElementTree escapes a CR in attributes but writes it raw in element
    # text; in UTF-8 the byte 0x0D is always a CR.
    body = ET.tostring(root, encoding="utf-8", xml_declaration=True)
    return body.replace(b"\r", b"&#13;") + b"\n"


def _xml_text(text: str, test: TestId) -> str:
    bad = _find_non_xml_char(text)
    if bad is not None:
        raise SchemaError(
            f"a failure of {test.project}/{test.full_name()} holds "
            f"U+{ord(bad.group()):04X}, which XML 1.0 cannot carry"
        )
    return text
