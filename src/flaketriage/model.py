"""Core domain types: stack frames, test identities, failure records, corpora.

Everything in this module is an immutable value object except Corpus, which
is the single mutable container. Nothing in the package starts a thread: a
Corpus is built by one writer and is then safe to read from many threads.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .errors import UnlabeledRecord

# Matches exactly the characters str.isspace() accepts, in one native scan.
_find_whitespace = re.compile(r"\s").search

_T = TypeVar("_T")


class Label(Enum):
    """Ground-truth kind of a failure: flaky, or a real ("true") failure."""

    FLAKY = "flaky"
    TRUE = "true"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class TestId:
    """Identity of one test method within a project."""

    project: str
    class_fqn: str
    method: str

    def __post_init__(self) -> None:
        if not self.project:
            raise ValueError("project must be non-empty")
        if not self.class_fqn or not self.method:
            raise ValueError("class_fqn and method must be non-empty")

    def full_name(self) -> str:
        return f"{self.class_fqn}.{self.method}"


def record_id(test: TestId, label: Label, position: int) -> str:
    """Stable identifier of the record at ``position`` in a test's label bucket."""
    return f"{test.project}/{test.full_name()}/{label.value}[{position}]"


class KnownTests:
    """A set of tests, indexed to ask whether a text starts with a test's name.

    Full names are held in a set and probed once per distinct name length, so
    a lookup costs a few set probes however many tests there are. The names
    that start a text are remembered per text, so a text asked about again,
    such as a frame that many failures share, costs one dict lookup; readers
    in several threads may each scan a text, to equal names. Names are
    compared as text: tests of different projects that share a full name are
    one name here.
    """

    def __init__(self, tests: Iterable[TestId]) -> None:
        self.tests = frozenset(tests)
        self.classes = frozenset(t.class_fqn for t in self.tests)
        self._name_counts = Counter(t.full_name() for t in self.tests)
        self._lengths = sorted({len(name) for name in self._name_counts})
        self._starts: dict[str, tuple[str, ...]] = {}

    def prefixes(self, text: str, excluding: str | None = None) -> bool:
        """True iff some known full name other than ``excluding`` starts ``text``."""
        starts = self._starts.get(text)
        if starts is None:
            starts = self._starts[text] = self._names_starting(text)
        # The names are distinct, so one other than ``excluding`` is among
        # them unless ``excluding`` is the only one.
        return bool(starts) and (excluding is None or starts != (excluding,))

    def _names_starting(self, text: str) -> tuple[str, ...]:
        """The known full names that start ``text``, shortest first."""
        names = self._name_counts
        size = len(text)
        found = []
        for length in self._lengths:
            if length > size:
                break
            head = text[:length]
            if head in names:
                found.append(head)
        return tuple(found)

    def name_to_exclude(self, test: TestId) -> str | None:
        """``test``'s full name, unless another known test has the same name.

        Passed as ``excluding`` to :meth:`prefixes`, it asks about the known
        tests other than ``test`` itself.
        """
        name = test.full_name()
        others = self._name_counts.get(name, 0) - (test in self.tests)
        return None if others else name


@dataclass(frozen=True, slots=True)
class StackFrame:
    """One stack-trace line: class, method, and source position.

    ``raw`` keeps the original text with any leading ``at `` and surrounding
    whitespace removed, so the frame can be re-rendered exactly. ``file`` and
    ``line`` are absent for ``(Native Method)`` / ``(Unknown Source)`` frames.

    Two texts derived from the fields are stored with the frame, so that a
    frame shared by many failures derives them once: ``location``, the
    ``CLASS.METHOD`` text, and ``rendered``, the canonical text form:
    ``CLASS.METHOD(FILE:LINE)`` with the line as a plain integer, otherwise
    ``raw``. It differs from ``raw`` where the text was not canonical, e.g. a
    zero-padded line (``B.java:01`` renders as ``B.java:1``). Equality,
    hashing and repr ignore both.
    """

    class_fqn: str
    method: str
    file: str | None
    line: int | None
    raw: str
    location: str = field(init=False, compare=False, repr=False)
    rendered: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.class_fqn or _find_whitespace(self.class_fqn):
            raise ValueError(f"bad class name in frame {self.raw!r}")
        if not self.method:
            raise ValueError(f"missing method name in frame {self.raw!r}")
        if self.line is not None and self.line < 0:
            raise ValueError(f"negative line number in frame {self.raw!r}")
        location = f"{self.class_fqn}.{self.method}"
        _set_location(self, location)
        if self.file is not None and self.line is not None:
            _set_rendered(self, f"{location}({self.file}:{self.line})")
        else:
            _set_rendered(self, self.raw)

    @classmethod
    def from_parts(
        cls,
        class_fqn: str,
        method: str,
        file: str | None = None,
        line: int | None = None,
    ) -> StackFrame:
        """Build a frame and its canonical raw text from components."""
        if file is not None and line is not None:
            raw = f"{class_fqn}.{method}({file}:{line})"
        else:
            raw = f"{class_fqn}.{method}(Native Method)"
        return cls(class_fqn, method, file, line, raw)


_new_object = object.__new__
_set_class_fqn = StackFrame.class_fqn.__set__
_set_method = StackFrame.method.__set__
_set_file = StackFrame.file.__set__
_set_line = StackFrame.line.__set__
_set_raw = StackFrame.raw.__set__
_set_location = StackFrame.location.__set__
_set_rendered = StackFrame.rendered.__set__


def _prechecked_frame(
    class_fqn: str,
    method: str,
    file: str | None,
    line: int | None,
    raw: str,
    location: str,
    rendered: str,
) -> StackFrame:
    """A StackFrame built without ``__post_init__``'s checks and derivations.

    Only for a caller whose grammar already guarantees the checks (a
    non-empty class without whitespace, a non-empty method, and no line or a
    non-negative one) and that passes the derived texts ``__post_init__``
    would set: ``location`` is ``CLASS.METHOD`` and ``rendered`` the
    canonical text of :class:`StackFrame`. It sets the slots directly, so it
    costs about half of ``StackFrame(...)``; the result equals what
    ``StackFrame(...)`` builds.
    """
    frame = _new_object(StackFrame)
    _set_class_fqn(frame, class_fqn)
    _set_method(frame, method)
    _set_file(frame, file)
    _set_line(frame, line)
    _set_raw(frame, raw)
    _set_location(frame, location)
    _set_rendered(frame, rendered)
    return frame


@dataclass(frozen=True, slots=True)
class FailureRecord:
    """One observed failure of one test.

    ``exception_type`` is stored exactly as parsed and always compared
    verbatim; ``exception_fqn`` preserves the fully-qualified name when the
    source log carried a package prefix. ``frames`` keeps the original log
    order, topmost (most recent) call first. ``label`` is ``None`` for a
    failure that has not been triaged yet.
    """

    test: TestId
    exception_type: str
    message: str
    frames: tuple[StackFrame, ...]
    label: Label | None = None
    exception_fqn: str = ""

    def __post_init__(self) -> None:
        if not self.exception_type:
            raise ValueError("exception_type must be non-empty")
        if not isinstance(self.frames, tuple):
            object.__setattr__(self, "frames", tuple(self.frames))


_set_test = FailureRecord.test.__set__
_set_exception_type = FailureRecord.exception_type.__set__
_set_message = FailureRecord.message.__set__
_set_frames = FailureRecord.frames.__set__
_set_label = FailureRecord.label.__set__
_set_exception_fqn = FailureRecord.exception_fqn.__set__


def _prechecked_record(
    test: TestId,
    exception_type: str,
    message: str,
    frames: tuple[StackFrame, ...],
    label: Label | None,
) -> FailureRecord:
    """``FailureRecord(test, exception_type, message, frames, label)`` set
    slot by slot, as :func:`_prechecked_frame` builds a frame, for a caller
    that has checked that ``exception_type`` is not empty and ``frames`` is
    a tuple."""
    record = _new_object(FailureRecord)
    _set_test(record, test)
    _set_exception_type(record, exception_type)
    _set_message(record, message)
    _set_frames(record, frames)
    _set_label(record, label)
    _set_exception_fqn(record, "")
    return record


class Corpus:
    """Labeled failure history grouped by project, test, and label bucket.

    Records are kept in insertion order and duplicates are kept as separate
    entries: downstream statistics are occurrence counts, not distinct-failure
    counts. Only labeled records may be stored, so every record's label always
    matches the bucket it sits in.

    A corpus also holds values derived from its records (see :meth:`derived`);
    they live as long as the corpus and are dropped by every :meth:`add`.
    """

    def __init__(self) -> None:
        self._projects: dict[str, dict[TestId, dict[Label, list[FailureRecord]]]] = {}
        self._derived: dict[Hashable, object] = {}

    def add(self, record: FailureRecord) -> None:
        if record.label is None:
            raise UnlabeledRecord(
                f"record for {record.test.full_name()} has no label"
            )
        test = record.test
        # Not setdefault: its default would be built on every call.
        tests = self._projects.get(test.project)
        if tests is None:
            tests = self._projects[test.project] = {}
        buckets = tests.get(test)
        if buckets is None:
            buckets = tests[test] = {Label.FLAKY: [], Label.TRUE: []}
        buckets[record.label].append(record)
        # A new dict rather than clear(): if this add runs inside a
        # ``derived`` build, that build's value goes into the old dict, which
        # nothing reads.
        self._derived = {}

    def derived(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """``build()``'s value, computed once per ``key`` until the next add.

        ``build`` must compute the value from this corpus's records alone.
        Concurrent readers may each build a missing key, to equal values.
        """
        memo = self._derived
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = build()
            return value

    def add_all(self, records: Iterable[FailureRecord]) -> None:
        for record in records:
            self.add(record)

    def project_names(self) -> list[str]:
        return sorted(self._projects)

    def tests(self, project: str) -> list[TestId]:
        return sorted(self._projects.get(project, {}))

    def bucket(self, test: TestId, label: Label) -> tuple[FailureRecord, ...]:
        buckets = self._projects.get(test.project, {}).get(test)
        if buckets is None:
            return ()
        return tuple(buckets[label])

    def records(
        self, project: str | None = None, label: Label | None = None
    ) -> Iterator[FailureRecord]:
        projects = [project] if project is not None else self.project_names()
        labels = [label] if label is not None else [Label.FLAKY, Label.TRUE]
        for name in projects:
            for test in self.tests(name):
                for wanted in labels:
                    yield from self.bucket(test, wanted)

    def identified_records(
        self, project: str
    ) -> Iterator[tuple[str, FailureRecord]]:
        """Records of one project paired with stable identifier strings."""
        for test in self.tests(project):
            for label in (Label.FLAKY, Label.TRUE):
                for i, record in enumerate(self.bucket(test, label)):
                    yield record_id(test, label, i), record

    def count(self, project: str | None = None, label: Label | None = None) -> int:
        return sum(1 for _ in self.records(project, label))

    def subset(self, project: str) -> Corpus:
        sub = Corpus()
        sub.add_all(self.records(project))
        return sub

    def __len__(self) -> int:
        return self.count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self._projects == other._projects

    def __repr__(self) -> str:
        return (
            f"Corpus({len(self.project_names())} projects, "
            f"{self.count(label=Label.FLAKY)} flaky, "
            f"{self.count(label=Label.TRUE)} true)"
        )
