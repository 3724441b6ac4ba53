"""Exact text-based failure matching and history-based triage.

A failure's signature is its exception type plus its normalized stack frames
rendered to text; the free-text message never participates, because volatile
details (hosts, timestamps) would otherwise set equivalent failures apart.
Two failures match when their signatures are equal.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple

from .ingest import NormalizedFailure, normalize
from .model import Corpus, KnownTests, Label, TestId, record_id


class MatchMode(Enum):
    """What a signature is built from: frames and exception, or exception only."""

    FULL = "full"
    EXCEPTION_ONLY = "exception_only"

    def __str__(self) -> str:
        return self.value


class MatchScope(Enum):
    """Whether failures are compared within one test or across a project.

    Cross-test comparison additionally removes frames that point at tests,
    since those frames would otherwise prevent any cross-test match.
    """

    PER_TEST = "per_test"
    CROSS_TEST = "cross_test"

    def __str__(self) -> str:
        return self.value


class FailureSignature(NamedTuple):
    """Canonical match key of a failure: two failures match when their
    signatures, built under the same mode and scope, are equal.

    A signature equals the plain tuple it holds, so it is a
    :class:`ProjectIndex` key as it stands across tests, and
    ``(test, *signature)`` is the key per test.
    """

    exception_type: str
    frame_keys: tuple[str, ...]


class TriageBasis(Enum):
    """Which kinds of history records a triaged failure matched."""

    MATCHED_FLAKY_ONLY = "matched_flaky_only"
    MATCHED_TRUE = "matched_true"
    MATCHED_BOTH = "matched_both"
    MATCHED_NONE = "matched_none"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def of(cls, flaky: int, true: int) -> TriageBasis:
        """The basis of a match with ``flaky`` flaky and ``true`` true records."""
        if flaky:
            return cls.MATCHED_BOTH if true else cls.MATCHED_FLAKY_ONLY
        return cls.MATCHED_TRUE if true else cls.MATCHED_NONE


@dataclass(frozen=True)
class TriageVerdict:
    """Outcome of comparing one failure against a labeled history.

    ``predicted`` is flaky exactly when the basis is MATCHED_FLAKY_ONLY; any
    true-match or no-match is conservatively treated as a real failure, so a
    verdict can never silently suppress a defect it has seen evidence for.
    """

    predicted: Label
    basis: TriageBasis
    evidence: tuple[str, ...] = ()

    @classmethod
    def of(cls, flaky: int, true: int, evidence: tuple[str, ...] = ()) -> TriageVerdict:
        """The verdict on a match with ``flaky`` flaky and ``true`` true records."""
        basis = TriageBasis.of(flaky, true)
        flaky_only = basis is TriageBasis.MATCHED_FLAKY_ONLY
        return cls(Label.FLAKY if flaky_only else Label.TRUE, basis, evidence)


def signature(
    nf: NormalizedFailure,
    mode: MatchMode = MatchMode.FULL,
    scope: MatchScope = MatchScope.PER_TEST,
    known_tests: KnownTests | Iterable[TestId] = frozenset(),
) -> FailureSignature:
    """Build the canonical signature of a normalized failure.

    Frame keys are the rendered kept frames, line numbers included: two
    failures that differ only in a line number do not match. Under CROSS_TEST scope, frames whose class
    equals the failure's own test class, or whose class.method is prefixed by
    any known test's full name, are removed before keying. Under
    EXCEPTION_ONLY mode there are no frame keys. The value is the match key
    :meth:`ProjectIndex.key` builds as a plain tuple. Pass a
    :class:`KnownTests` to reuse its name lookup across calls.
    """
    known = None
    if scope is MatchScope.CROSS_TEST and mode is MatchMode.FULL:
        known = (
            known_tests
            if isinstance(known_tests, KnownTests)
            else KnownTests(known_tests)
        )
    return FailureSignature(nf.base.exception_type, _frame_keys(nf, mode, known))


def _frame_keys(
    nf: NormalizedFailure, mode: MatchMode, known: KnownTests | None
) -> tuple[str, ...]:
    """The frame keys of :func:`signature`: cross-test ones when ``known``
    is given, per-test ones otherwise."""
    if mode is MatchMode.EXCEPTION_ONLY:
        return ()
    if known is None:
        return tuple([f.rendered for f in nf.kept_frames])
    own_class = nf.base.test.class_fqn
    prefixes = known.prefixes
    return tuple([
        f.rendered
        for f in nf.kept_frames
        if f.class_fqn != own_class and not prefixes(f.location)
    ])


def triage(
    nf: NormalizedFailure,
    history: Corpus,
    mode: MatchMode = MatchMode.FULL,
    scope: MatchScope = MatchScope.PER_TEST,
) -> TriageVerdict:
    """Compare a new failure against a labeled history and predict its label.

    PER_TEST scope compares only against history records of the same test;
    CROSS_TEST compares against all records of the same project, through the
    project's :func:`project_index`. An empty relevant history yields
    MATCHED_NONE (predicted true), not an error. Evidence lists the matching
    flaky records, then the matching true ones, each in history order.

    A record matches when its :func:`signature` equals the failure's; the
    per-test walk, and the cross-test walk for a test the project does not
    know, compare the exception type first, then the frame keys with ``==``.
    """
    test, exception = nf.base.test, nf.base.exception_type
    hits: dict[Label, list[str]] = {Label.FLAKY: [], Label.TRUE: []}
    if scope is MatchScope.PER_TEST:
        # A match needs equal exception types, so a record of another type is
        # never normalized or keyed; under EXCEPTION_ONLY the type alone decides.
        target = _frame_keys(nf, mode, None)
        # With the test and exception fixed, the frames alone decide, and
        # copies of a recurring failure share frame objects, so each sequence
        # of frame objects is keyed once. An id names an object only while
        # it lives, so the memo must not outlive this call.
        matched: dict[tuple[int, ...], bool] = {}
        for label, ids in hits.items():
            for i, record in enumerate(history.bucket(test, label)):
                if record.exception_type != exception:
                    continue
                if mode is MatchMode.FULL:
                    frames = tuple(map(id, record.frames))
                    hit = matched.get(frames)
                    if hit is None:
                        keys = _frame_keys(normalize(record), mode, None)
                        hit = matched[frames] = keys == target
                    if not hit:
                        continue
                ids.append(record_id(test, label, i))
    elif test.project in history.project_names():  # no index for a stranger project
        index = project_index(history, test.project)
        if test in index.known.tests:
            positions = index.groups(mode, scope).get(index.key(nf, mode, scope), ())
        else:
            # The query's own test is a known test too, so the project's keys
            # do not hold: key against the widened tests only the failures of
            # the query's exception type, the only ones that can match.
            known = KnownTests((*index.known.tests, test))
            target = _frame_keys(nf, mode, known)
            positions = [
                i for i, record in enumerate(index.records)
                if record.exception_type == exception
                and _frame_keys(index.normalized[i], mode, known) == target
            ]
        for i in positions:
            hits[index.records[i].label].append(index.ids[i])

    flaky_hits, true_hits = hits[Label.FLAKY], hits[Label.TRUE]
    return TriageVerdict.of(len(flaky_hits), len(true_hits), (*flaky_hits, *true_hits))


# --- per-project index -------------------------------------------------------


class ProjectIndex:
    """A set of normalized failures with the facts derived from them, each once.

    Holds the failures, their records and the records' tests as the known
    tests. Per mode and scope, on first use, it groups the records by match
    key and counts each group's labels. A record's key is the plain tuple
    ``(test, *signature)`` under PER_TEST and ``signature`` under
    CROSS_TEST, where the known tests' frames are dropped, for the record's
    :func:`signature`.
    """

    def __init__(self, normalized: Iterable[NormalizedFailure]) -> None:
        self.normalized = tuple(normalized)
        self.records = tuple(nf.base for nf in self.normalized)
        self._groups: dict[tuple[MatchMode, MatchScope], dict[tuple, list[int]]] = {}
        self._counts: dict[tuple[MatchMode, MatchScope], list[tuple[int, int]]] = {}

    @cached_property
    def known(self) -> KnownTests:
        """The records' tests; only the CROSS_TEST keys need them."""
        return KnownTests(r.test for r in self.records)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        """Each record's :func:`record_id`, counting positions in record order."""
        seen: Counter[tuple[TestId, Label]] = Counter()
        ids = []
        for r in self.records:
            ids.append(record_id(r.test, r.label, seen[r.test, r.label]))
            seen[r.test, r.label] += 1
        return tuple(ids)

    def key(self, nf: NormalizedFailure, mode: MatchMode, scope: MatchScope) -> tuple:
        """Match key of any normalized failure against these known tests.

        Equal to ``(test, *signature(nf, mode, scope))`` under PER_TEST and
        to ``signature(nf, mode, scope, self.known)`` under CROSS_TEST, built
        as a plain tuple.
        """
        record = nf.base
        if scope is MatchScope.PER_TEST:
            return (record.test, record.exception_type, _frame_keys(nf, mode, None))
        return (record.exception_type, _frame_keys(nf, mode, self.known))

    def keys(self, mode: MatchMode, scope: MatchScope) -> list[tuple]:
        """Match key of every record, in record order."""
        return [self.key(nf, mode, scope) for nf in self.normalized]

    def groups(self, mode: MatchMode, scope: MatchScope) -> dict[tuple, list[int]]:
        """Positions of the records sharing each match key, in record order."""
        groups = self._groups.get((mode, scope))
        if groups is None:
            groups = {}
            for i, key in enumerate(self.keys(mode, scope)):
                groups.setdefault(key, []).append(i)
            self._groups[(mode, scope)] = groups
        return groups

    def counts(self, mode: MatchMode, scope: MatchScope) -> list[tuple[int, int]]:
        """Flaky and true records per group of :meth:`groups`, in its order;
        counted once per mode and scope, like the groups."""
        counts = self._counts.get((mode, scope))
        if counts is None:
            records = self.records
            counts = []
            for positions in self.groups(mode, scope).values():
                flaky = sum(records[i].label is Label.FLAKY for i in positions)
                counts.append((flaky, len(positions) - flaky))
            self._counts[(mode, scope)] = counts
        return counts

    def bases(self, mode: MatchMode, scope: MatchScope) -> list[TriageBasis]:
        """Each record's leave-one-out basis, in record order.

        That is the basis :func:`triage` gives the record against every other
        record: its group's counts with the record itself taken out.
        """
        records = self.records
        bases = [TriageBasis.MATCHED_NONE] * len(records)
        groups = self.groups(mode, scope).values()
        for positions, (flaky, true) in zip(groups, self.counts(mode, scope)):
            # Each basis is read only if the group has a member of its label.
            of_flaky = TriageBasis.of(flaky - 1, true)
            of_true = TriageBasis.of(flaky, true - 1)
            for i in positions:
                bases[i] = of_flaky if records[i].label is Label.FLAKY else of_true
        return bases


def project_index(corpus: Corpus, project: str) -> ProjectIndex:
    """The :class:`ProjectIndex` of one project's records, kept on ``corpus``.

    The index holds the records in :meth:`Corpus.records` order (tests
    sorted, flaky bucket first), so it knows all of the project's tests. It
    is built on first use, normalizing each record once, and kept until a
    record is added to ``corpus``.
    """
    return corpus.derived(
        (ProjectIndex, project), lambda: ProjectIndex(map(normalize, corpus.records(project)))
    )


@dataclass(frozen=True)
class ProjectRepetitiveness:
    """Occurrence statistics of one project's flaky failures.

    ``uniq``/``repet`` counts split the flaky occurrences into those whose
    signature appears exactly once and more than once; ``distinct`` counts
    distinct per-test full signatures. Per-test and cross-test columns each
    sum back to ``flaky``.
    """

    tests: int
    flaky: int
    distinct: int
    uniq_per_test: int
    repet_per_test: int
    uniq_cross: int
    repet_cross: int


@dataclass(frozen=True)
class RepetitivenessReport:
    per_project: dict[str, ProjectRepetitiveness]

    def total(self) -> ProjectRepetitiveness:
        rows = self.per_project.values()
        return ProjectRepetitiveness(*(
            sum(getattr(row, column.name) for row in rows)
            for column in fields(ProjectRepetitiveness)
        ))


def repetitiveness(corpus: Corpus) -> RepetitivenessReport:
    """How often each project's flaky failures recur, per test and across tests."""
    per_project: dict[str, ProjectRepetitiveness] = {}
    for project in corpus.project_names():
        index = project_index(corpus, project)
        flaky_tests = [r.test for r in index.records if r.label is Label.FLAKY]
        if not flaky_tests:
            continue
        per_test, cross = (
            [flaky for flaky, _ in index.counts(MatchMode.FULL, scope) if flaky]
            for scope in (MatchScope.PER_TEST, MatchScope.CROSS_TEST)
        )
        per_project[project] = ProjectRepetitiveness(
            tests=len(set(flaky_tests)),
            flaky=len(flaky_tests),
            distinct=len(per_test),
            uniq_per_test=per_test.count(1),
            repet_per_test=len(flaky_tests) - per_test.count(1),
            uniq_cross=cross.count(1),
            repet_cross=len(flaky_tests) - cross.count(1),
        )
    return RepetitivenessReport(per_project)
