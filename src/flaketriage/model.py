"""Core domain types: stack frames, test identities, failure records, corpora.

Everything in this module is an immutable value object except Corpus, which
is the single mutable container. Nothing in the package starts a thread: a
Corpus is built by one writer and is then safe to read from many threads.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
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
    a lookup costs a few set probes however many tests there are. Names are
    compared as text: tests of different projects that share a full name are
    one name here.
    """

    def __init__(self, tests: Iterable[TestId]) -> None:
        self.tests = frozenset(tests)
        self.classes = frozenset(t.class_fqn for t in self.tests)
        self._name_counts = Counter(t.full_name() for t in self.tests)
        self._lengths = sorted({len(name) for name in self._name_counts})

    def prefixes(self, text: str, excluding: str | None = None) -> bool:
        """True iff some known full name other than ``excluding`` starts ``text``."""
        names = self._name_counts
        size = len(text)
        for length in self._lengths:
            if length > size:
                break
            head = text[:length]
            if head in names and head != excluding:
                return True
        return False

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
    """

    class_fqn: str
    method: str
    file: str | None
    line: int | None
    raw: str

    def __post_init__(self) -> None:
        if not self.class_fqn or _find_whitespace(self.class_fqn):
            raise ValueError(f"bad class name in frame {self.raw!r}")
        if not self.method:
            raise ValueError(f"missing method name in frame {self.raw!r}")
        if self.line is not None and self.line < 0:
            raise ValueError(f"negative line number in frame {self.raw!r}")

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

    def render(self) -> str:
        """Canonical text form; equals ``raw`` for well-formed frames."""
        if self.file is not None and self.line is not None:
            return f"{self.class_fqn}.{self.method}({self.file}:{self.line})"
        return self.raw


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
        tests = self._projects.setdefault(record.test.project, {})
        buckets = tests.setdefault(record.test, {Label.FLAKY: [], Label.TRUE: []})
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
