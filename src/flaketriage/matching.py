"""Exact text-based failure matching and history-based triage.

A failure's signature is its exception type plus its normalized stack frames
rendered to text; the free-text message never participates, because volatile
details (hosts, timestamps) would otherwise set equivalent failures apart.
Matching is exact componentwise equality of signatures.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

from .errors import ModeMismatch
from .ingest import NormalizedFailure, normalize
from .model import Corpus, FailureRecord, KnownTests, Label, TestId, record_id


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


@dataclass(frozen=True)
class FailureSignature:
    """Canonical match key of a failure under a chosen mode and scope.

    Equality is componentwise; two signatures from different modes or scopes
    are never meaningfully comparable (see :func:`matches`).
    """

    exception_type: str
    frame_keys: tuple[str, ...]
    mode: MatchMode
    scope: MatchScope


class TriageBasis(Enum):
    """Which kinds of history records a triaged failure matched."""

    MATCHED_FLAKY_ONLY = "matched_flaky_only"
    MATCHED_TRUE = "matched_true"
    MATCHED_BOTH = "matched_both"
    MATCHED_NONE = "matched_none"

    def __str__(self) -> str:
        return self.value


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
    EXCEPTION_ONLY mode there are no frame keys. Pass a :class:`KnownTests`
    to reuse its name lookup across calls.
    """
    if mode is MatchMode.EXCEPTION_ONLY:
        keys: tuple[str, ...] = ()
    else:
        frames = nf.kept_frames
        if scope is MatchScope.CROSS_TEST:
            known = (
                known_tests
                if isinstance(known_tests, KnownTests)
                else KnownTests(known_tests)
            )
            own_class = nf.base.test.class_fqn
            frames = tuple(
                f
                for f in frames
                if f.class_fqn != own_class
                and not known.prefixes(f"{f.class_fqn}.{f.method}")
            )
        keys = tuple(f.render() for f in frames)
    return FailureSignature(nf.base.exception_type, keys, mode, scope)


def matches(a: FailureSignature, b: FailureSignature) -> bool:
    """True iff the exception types and frame keys are equal elementwise."""
    if a.mode is not b.mode or a.scope is not b.scope:
        raise ModeMismatch(
            f"cannot compare signatures built under {a.mode}/{a.scope} "
            f"and {b.mode}/{b.scope}"
        )
    return a.exception_type == b.exception_type and a.frame_keys == b.frame_keys


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
    """
    # A match needs equal exception types, so a record of another type is
    # never normalized or signed; under EXCEPTION_ONLY the type alone decides.
    test, exception = nf.base.test, nf.base.exception_type
    hits: dict[Label, list[str]] = {Label.FLAKY: [], Label.TRUE: []}
    if scope is MatchScope.PER_TEST:
        target = signature(nf, mode, scope)
        # With the test and exception fixed, the frames alone decide, and
        # copies of a recurring failure share frame objects, so each sequence
        # of frame objects is signed once. An id names an object only while
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
                        hit = matched[frames] = matches(
                            target, signature(normalize(record), mode, scope)
                        )
                    if not hit:
                        continue
                ids.append(record_id(test, label, i))
    elif test.project in history.project_names():  # no index for a stranger project
        index = project_index(history, test.project)
        if test in index.known.tests:
            positions = index.groups(mode, scope).get(index.key(nf, mode, scope), ())
        else:
            # The query's own test is a known test too; key the project's
            # failures against the widened set, without keeping the keys.
            known = KnownTests([*index.known.tests, test])
            target = signature(nf, mode, scope, known)
            positions = [
                i
                for i, other in enumerate(index.normalized)
                if other.base.exception_type == exception
                and matches(target, signature(other, mode, scope, known))
            ]
        for i in positions:
            hits[index.records[i].label].append(index.ids[i])

    flaky_hits, true_hits = hits[Label.FLAKY], hits[Label.TRUE]
    if flaky_hits and true_hits:
        basis = TriageBasis.MATCHED_BOTH
    elif flaky_hits:
        basis = TriageBasis.MATCHED_FLAKY_ONLY
    elif true_hits:
        basis = TriageBasis.MATCHED_TRUE
    else:
        basis = TriageBasis.MATCHED_NONE
    predicted = (
        Label.FLAKY if basis is TriageBasis.MATCHED_FLAKY_ONLY else Label.TRUE
    )
    return TriageVerdict(predicted, basis, tuple(flaky_hits + true_hits))


# --- per-project index -------------------------------------------------------


class ProjectIndex:
    """A set of failure records with the facts derived from them, each once.

    Holds every record's normalized failure and the records' tests as the
    known tests, and groups the records by match key per mode and scope on
    first use. A record's key is ``(test, signature)`` under PER_TEST and the
    signature alone under CROSS_TEST, where the known tests' frames are
    dropped.
    """

    def __init__(self, records: Iterable[FailureRecord]) -> None:
        self.records = tuple(records)
        self.normalized = tuple(normalize(r) for r in self.records)
        self._groups: dict[tuple[MatchMode, MatchScope], dict[object, list[int]]] = {}

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

    def key(self, nf: NormalizedFailure, mode: MatchMode, scope: MatchScope) -> object:
        """Match key of any normalized failure against these known tests."""
        if scope is MatchScope.PER_TEST:
            return (nf.base.test, signature(nf, mode, scope))
        return signature(nf, mode, scope, self.known)

    def keys(self, mode: MatchMode, scope: MatchScope) -> list[object]:
        """Match key of every record, in record order."""
        return [self.key(nf, mode, scope) for nf in self.normalized]

    def groups(self, mode: MatchMode, scope: MatchScope) -> dict[object, list[int]]:
        """Positions of the records sharing each match key, in record order."""
        groups = self._groups.get((mode, scope))
        if groups is None:
            groups = {}
            for i, key in enumerate(self.keys(mode, scope)):
                groups.setdefault(key, []).append(i)
            self._groups[(mode, scope)] = groups
        return groups

    def flaky_counts(self, mode: MatchMode, scope: MatchScope) -> list[int]:
        """Flaky records per group of :meth:`groups`, in its order."""
        records = self.records
        return [
            sum(records[i].label is Label.FLAKY for i in positions)
            for positions in self.groups(mode, scope).values()
        ]


def project_index(corpus: Corpus, project: str) -> ProjectIndex:
    """The :class:`ProjectIndex` of one project's records, kept on ``corpus``.

    The index holds the records in :meth:`Corpus.records` order (tests
    sorted, flaky bucket first), so it knows all of the project's tests. It
    is built on first use and kept until a record is added to ``corpus``.
    """
    return corpus.derived(
        (ProjectIndex, project), lambda: ProjectIndex(corpus.records(project))
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
        rows = list(self.per_project.values())
        return ProjectRepetitiveness(
            tests=sum(r.tests for r in rows),
            flaky=sum(r.flaky for r in rows),
            distinct=sum(r.distinct for r in rows),
            uniq_per_test=sum(r.uniq_per_test for r in rows),
            repet_per_test=sum(r.repet_per_test for r in rows),
            uniq_cross=sum(r.uniq_cross for r in rows),
            repet_cross=sum(r.repet_cross for r in rows),
        )


def repetitiveness(corpus: Corpus) -> RepetitivenessReport:
    """How often each project's flaky failures recur, per test and across tests."""
    per_project: dict[str, ProjectRepetitiveness] = {}
    for project in corpus.project_names():
        index = project_index(corpus, project)
        flaky_tests = [r.test for r in index.records if r.label is Label.FLAKY]
        if not flaky_tests:
            continue
        per_test, cross = (
            [n for n in index.flaky_counts(MatchMode.FULL, scope) if n]
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
