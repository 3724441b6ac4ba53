"""The per-project match index kept on a Corpus.

``project_index`` builds a project's index on first use and keeps it on the
corpus until the next ``Corpus.add``; scoring, statistics and cross-test
triage all read it. These tests count the builds, check that an add is seen,
check the stranger-test path of cross-test triage against the
whole-project walk it replaced, and count the per-frame work of the keys.
"""
from __future__ import annotations

import dataclasses
import itertools
from collections import Counter, defaultdict

from conftest import frame, random_corpus, record
from test_index_oracles import oracle_triage, with_padded_lines
from flaketriage import ingest, matching
from flaketriage.classifier import FeatureContext, default_cut_prefixes
from flaketriage.evaluation import (
    distinct_signature_counts,
    exception_frequency,
    score_matching,
)
from flaketriage.ingest import normalize, read_corpus_xml, write_corpus_xml
from flaketriage.matching import (
    MatchMode,
    MatchScope,
    ProjectIndex,
    TriageBasis,
    project_index,
    repetitiveness,
    triage,
)
from flaketriage.model import Corpus, KnownTests, Label, StackFrame, TestId


def copy_of(corpus: Corpus) -> Corpus:
    fresh = Corpus()
    fresh.add_all(corpus.records())
    return fresh


def reports(corpus: Corpus):
    """Every report that reads the index, for every mode and scope."""
    return (
        repetitiveness(corpus),
        [score_matching(corpus, mode, scope)
         for mode, scope in itertools.product(MatchMode, MatchScope)],
        [exception_frequency(corpus, mode) for mode in MatchMode],
        [distinct_signature_counts(corpus, p) for p in corpus.project_names()],
    )


def count_builds(monkeypatch) -> list[int]:
    builds = []
    build = ProjectIndex.__init__

    def counted(self, records):
        build(self, records)
        builds.append(len(self.records))

    monkeypatch.setattr(ProjectIndex, "__init__", counted)
    return builds


def count_label_counts(monkeypatch) -> dict[tuple, list[int]]:
    """Per (index, mode, scope), the id of each list ``counts`` returns."""
    results: dict[tuple, list[int]] = defaultdict(list)
    counts = ProjectIndex.counts
    indexes = []  # kept alive, so that their ids stay distinct

    def recorded(self, mode, scope):
        indexes.append(self)
        got = counts(self, mode, scope)
        results[id(self), mode, scope].append(id(got))
        return got

    monkeypatch.setattr(ProjectIndex, "counts", recorded)
    return results


def test_reports_on_one_corpus_build_one_index_per_project(monkeypatch):
    corpus = random_corpus(6, max_records=200)
    expected = reports(copy_of(corpus))
    builds = count_builds(monkeypatch)
    label_counts = count_label_counts(monkeypatch)
    for _ in range(2):
        assert reports(corpus) == expected
    for query in list(corpus.records())[::10]:
        for mode in MatchMode:
            triage(normalize(query), corpus, mode, MatchScope.CROSS_TEST)
    projects = corpus.project_names()
    assert len(projects) > 1
    assert builds == [corpus.count(p) for p in projects]
    # Each index counts the labels of its groups once per mode and scope,
    # however many reports read them.
    assert len(label_counts) == len(projects) * len(MatchMode) * len(MatchScope)
    assert all(len(set(ids)) == 1 for ids in label_counts.values())
    assert max(map(len, label_counts.values())) > 2


def test_add_drops_the_index(monkeypatch):
    corpus = random_corpus(5, max_records=120)
    builds = count_builds(monkeypatch)
    project = corpus.project_names()[0]
    before = project_index(corpus, project)
    assert project_index(corpus, project) is before
    corpus.add(dataclasses.replace(next(corpus.records(project)), label=Label.TRUE))
    after = project_index(corpus, project)
    assert after is not before and len(after.records) == len(before.records) + 1
    assert len(builds) == 2
    assert reports(corpus) == reports(copy_of(corpus))


def test_cross_test_triage_sees_a_record_added_after_a_query():
    corpus = random_corpus(9, max_records=150)
    query = normalize(next(corpus.records()))
    test = query.base.test
    for mode in MatchMode:
        first = triage(query, corpus, mode, MatchScope.CROSS_TEST)
        assert first == oracle_triage(query, corpus, mode, MatchScope.CROSS_TEST)
        corpus.add(dataclasses.replace(query.base, label=Label.FLAKY))
        position = len(corpus.bucket(test, Label.FLAKY)) - 1
        added = f"{test.project}/{test.full_name()}/flaky[{position}]"
        second = triage(query, corpus, mode, MatchScope.CROSS_TEST)
        assert second == oracle_triage(query, corpus, mode, MatchScope.CROSS_TEST)
        assert added in second.evidence and added not in first.evidence


def test_stranger_test_is_a_known_test_of_its_own_query():
    helper = frame("a.B.testutil.Helper", "go", "Helper.java", 4)
    lib = frame("lib.X", "run", "X.java", 1)
    corpus = Corpus()
    other = TestId("p", "a.C", "other")
    corpus.add(record(other, frames=(lib, helper), label=Label.FLAKY))
    corpus.add(record(other, frames=(lib,), label=Label.TRUE))
    corpus.add(record(other, exception="E", frames=(lib,), label=Label.TRUE))
    index = project_index(corpus, "p")
    index.groups(MatchMode.FULL, MatchScope.CROSS_TEST)
    memo = dict(index._groups)

    # "a.B.testutil.Helper.go" starts with the stranger's full name "a.B.test",
    # so the history frame is the stranger's own and drops out of the key.
    stranger = normalize(record(TestId("p", "a.B", "test"), frames=(lib, helper)))
    got = triage(stranger, corpus, MatchMode.FULL, MatchScope.CROSS_TEST)
    assert got == oracle_triage(stranger, corpus, MatchMode.FULL, MatchScope.CROSS_TEST)
    assert got.basis is TriageBasis.MATCHED_BOTH
    assert got.evidence == ("p/a.C.other/flaky[0]", "p/a.C.other/true[0]")
    assert project_index(corpus, "p") is index and index._groups == memo


def test_stranger_test_keys_only_the_failures_of_its_exception_type(monkeypatch):
    # A stranger's key needs the widened known tests, so the project's keys
    # do not serve it; only a failure of its exception type can match, so
    # only those and the query itself are keyed.
    keyed, compared, total = [], 0, 0
    frame_keys = matching._frame_keys

    def counted(nf, mode, known):
        keyed.append(nf)
        return frame_keys(nf, mode, known)

    for seed in range(0, 40, 4):
        corpus = random_corpus(seed, max_records=120)
        # "com.pN.Lib0.op" starts frames of the history: they drop out of the key.
        strangers = [
            normalize(dataclasses.replace(r, test=TestId(p, f"com.{p}.{name}", "op")))
            for r in list(corpus.records())[::5]
            for p in [r.test.project]
            for name in ("New", "Lib0")
        ]
        for project in corpus.project_names():
            project_index(corpus, project).known  # built before counting
        for stranger in strangers:
            project = stranger.base.test.project
            monkeypatch.setattr(matching, "_frame_keys", counted)
            keyed.clear()
            got = triage(stranger, corpus, MatchMode.FULL, MatchScope.CROSS_TEST)
            monkeypatch.setattr(matching, "_frame_keys", frame_keys)
            same_type = sum(
                r.exception_type == stranger.base.exception_type for r in corpus.records(project)
            )
            assert len(keyed) <= same_type + 1
            assert got == oracle_triage(stranger, corpus, MatchMode.FULL, MatchScope.CROSS_TEST)
            compared += len(keyed)
            total += corpus.count(project) + 1
    assert compared < total / 2, (compared, total)


def test_query_of_an_unknown_project_builds_no_index(monkeypatch):
    corpus = random_corpus(6, max_records=120)
    builds = count_builds(monkeypatch)
    for i in range(3):
        query = normalize(record(TestId(f"elsewhere{i}", "a.B", "m")))
        for mode in MatchMode:
            got = triage(query, corpus, mode, MatchScope.CROSS_TEST)
            assert got == oracle_triage(query, corpus, mode, MatchScope.CROSS_TEST)
            assert got.basis is TriageBasis.MATCHED_NONE
    assert builds == []


def test_keys_and_features_derive_each_frame_text_once(monkeypatch):
    # After a read, a frame's texts are stored on it: the reader renders only
    # a zero-padded line anew, and keying and feature extraction build no
    # frame. Each known-tests set scans the name lengths for a text once.
    document = write_corpus_xml(with_padded_lines(random_corpus(3, max_records=250)))
    built = []
    prechecked = ingest._prechecked_frame

    def recorded(*args):
        built.append(prechecked(*args))
        return built[-1]

    monkeypatch.setattr(ingest, "_prechecked_frame", recorded)
    corpus = read_corpus_xml(document)
    rendered_anew = [f for f in built if f.rendered is not f.raw]
    assert rendered_anew and len(rendered_anew) < len(built)
    assert all(f.raw != f.rendered == f"{f.location}({f.file}:{f.line})" for f in rendered_anew)

    renders = []
    monkeypatch.setattr(StackFrame, "__post_init__", lambda f: renders.append(f))
    scans: Counter[tuple[int, str]] = Counter()
    scanners = []  # kept alive, so that their ids stay distinct
    names_starting = KnownTests._names_starting

    def counted(self, text):
        scanners.append(self)
        scans[id(self), text] += 1
        return names_starting(self, text)

    monkeypatch.setattr(KnownTests, "_names_starting", counted)
    occurrences = 0
    for project in corpus.project_names():
        index = project_index(corpus, project)
        for mode, scope in itertools.product(MatchMode, MatchScope):
            index.groups(mode, scope)
        context = FeatureContext(index.known, default_cut_prefixes(index.known.tests))
        for nf in index.normalized:
            context.features(nf)
            occurrences += len(nf.kept_frames)
    assert renders == []
    assert scans and max(scans.values()) == 1
    assert sum(scans.values()) < occurrences
