"""Signatures, exact matching, triage semantics, and repetitiveness."""
import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaketriage.ingest import normalize, parse_failure_text
from flaketriage.matching import (
    MatchMode,
    MatchScope,
    ProjectRepetitiveness,
    RepetitivenessReport,
    TriageBasis,
    repetitiveness,
    signature,
    triage,
)
from flaketriage.model import Corpus, Label, TestId

from conftest import frame, random_corpus, record


def _nf(rec):
    return normalize(rec)


def _sig(rec, mode=MatchMode.FULL, scope=MatchScope.PER_TEST, known=frozenset()):
    return signature(_nf(rec), mode, scope, known)


# --- signatures --------------------------------------------------------------


def test_signature_alluxio_full(alluxio_logs, alluxio_test):
    rec = parse_failure_text(alluxio_logs[0], alluxio_test)
    sig = _sig(rec)
    assert sig.exception_type == "UnknownHostException"
    assert len(sig.frame_keys) == 6
    assert sig.frame_keys[-1] == "tachyon.JournalTest.before(JournalTest.java:33)"


def test_signature_exception_only_drops_frames(alluxio_logs, alluxio_test):
    rec = parse_failure_text(alluxio_logs[0], alluxio_test)
    sig = _sig(rec, MatchMode.EXCEPTION_ONLY)
    assert sig.exception_type == "UnknownHostException"
    assert sig.frame_keys == ()


def test_signature_cross_test_removes_test_frames(alluxio_logs, alluxio_test):
    rec = parse_failure_text(alluxio_logs[0], alluxio_test)
    sig = _sig(rec, scope=MatchScope.CROSS_TEST, known={alluxio_test})
    assert len(sig.frame_keys) == 5
    assert all("JournalTest" not in key for key in sig.frame_keys)


def test_signature_cross_test_removes_other_known_test_prefixes():
    test = TestId("p", "a.MyTest", "m")
    other = TestId("p", "a.OtherTest", "x")
    frames = (
        frame("a.Lib", "call", "Lib.java", 3),
        frame("a.OtherTest", "x", "OtherTest.java", 4),
        frame("a.OtherTest", "helper", "OtherTest.java", 5),
    )
    sig = _sig(record(test, frames=frames), scope=MatchScope.CROSS_TEST, known={test, other})
    # other.x is removed by the full-name prefix rule; other.helper is not a
    # test entry point and its class is not this failure's test class.
    assert sig.frame_keys == (
        "a.Lib.call(Lib.java:3)",
        "a.OtherTest.helper(OtherTest.java:5)",
    )


def test_signature_never_contains_message(alluxio_logs, alluxio_test):
    rec = parse_failure_text(alluxio_logs[0], alluxio_test)
    sig = _sig(rec)
    assert all("ip-172" not in key for key in (sig.exception_type, *sig.frame_keys))


def test_signature_keys_keep_line_numbers():
    test = TestId("p", "a.T", "m")
    a = record(test, "E", frames=(frame("a.X", "f", "X.java", 1),))
    b = record(test, "E", frames=(frame("a.X", "f", "X.java", 2),))
    assert _sig(a) != _sig(b)
    assert _sig(a).frame_keys == ("a.X.f(X.java:1)",)


# --- matching -----------------------------------------------------------------


def test_alluxio_pair_matches_despite_messages(alluxio_logs, alluxio_test):
    first = parse_failure_text(alluxio_logs[0], alluxio_test)
    second = parse_failure_text(alluxio_logs[1], alluxio_test)
    assert first.message != second.message
    assert _sig(first) == _sig(second)


def test_matches_is_reflexive(alluxio_logs, alluxio_test):
    rec = parse_failure_text(alluxio_logs[0], alluxio_test)
    assert _sig(rec) == _sig(rec)


def test_extra_frame_breaks_match():
    test = TestId("p", "a.T", "m")
    a = record(test, "E", frames=(frame("a.X", "f", "X.java", 1),))
    b = record(test, "E", frames=(frame("a.X", "f", "X.java", 1), frame("a.Y", "g", "Y.java", 2)))
    assert _sig(a) != _sig(b)


def test_signature_is_the_plain_key_pair_in_every_mode_and_scope():
    test = TestId("p", "a.T", "m")
    rec = record(test, "E", frames=(frame("a.X", "f", "X.java", 1), frame("a.T", "m", "T.java", 9)))
    for mode in MatchMode:
        for scope in MatchScope:
            sig = _sig(rec, mode, scope, known={test})
            assert type(sig)._fields == ("exception_type", "frame_keys")
            assert not hasattr(sig, "mode") and not hasattr(sig, "scope")
            plain = (sig.exception_type, sig.frame_keys)
            assert sig == plain and hash(sig) == hash(plain)
            assert {plain: scope}[sig] is scope
            assert (test, *sig) == (test, "E", sig.frame_keys)


@given(st.data())
@settings(max_examples=100)
def test_signature_equality_is_an_equivalence_relation(data):
    test = TestId("p", "a.T", "m")
    pool = [
        record(test, e, message=m, frames=f)
        for e in ("E1", "E2")
        for m in ("one", "two")
        for f in ((), (frame("a.X", "f", "X.java", 1),))
    ]
    a, b, c = (data.draw(st.sampled_from(pool)) for _ in range(3))
    sa, sb, sc = _sig(a), _sig(b), _sig(c)
    assert sa == sa
    assert (sa == sb) == (sb == sa)
    if sa == sb and sb == sc:
        assert sa == sc
    if sa == sb:
        assert hash(sa) == hash(sb)
    same = a.exception_type == b.exception_type and a.frames == b.frames
    assert (sa == sb) == same


def test_full_match_implies_exception_only_match():
    for seed in range(5):
        corpus = random_corpus(seed, max_records=60)
        for project in corpus.project_names():
            records = list(corpus.records(project))
            for a, b in itertools.combinations(records, 2):
                if _sig(a) == _sig(b):
                    assert _sig(a, MatchMode.EXCEPTION_ONLY) == _sig(b, MatchMode.EXCEPTION_ONLY)


# --- triage -------------------------------------------------------------------


def _history(*records_with_labels):
    corpus = Corpus()
    for rec, label in records_with_labels:
        corpus.add(dataclasses.replace(rec, label=label))
    return corpus


def test_triage_alluxio_pair(alluxio_logs, alluxio_test):
    first = parse_failure_text(alluxio_logs[0], alluxio_test)
    second = parse_failure_text(alluxio_logs[1], alluxio_test)
    verdict = triage(_nf(second), _history((first, Label.FLAKY)))
    assert verdict.predicted is Label.FLAKY
    assert verdict.basis is TriageBasis.MATCHED_FLAKY_ONLY
    assert verdict.evidence == ("alluxio/tachyon.JournalTest.TableTest/flaky[0]",)


def test_triage_of_a_log_with_packaging_suffixes(alluxio_logs, alluxio_test):
    history = _history((parse_failure_text(alluxio_logs[0], alluxio_test), Label.FLAKY))
    plain = alluxio_logs[1]
    suffixed = plain.replace(")\n", ") ~[classes/:?]\n")
    assert suffixed.count("~[") == 6
    verdicts = [
        triage(_nf(parse_failure_text(raw, alluxio_test)), history)
        for raw in (plain, suffixed)
    ]
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].basis is TriageBasis.MATCHED_FLAKY_ONLY


def test_triage_of_a_log_with_jdk9_frames(alluxio_logs, alluxio_test):
    history = _history((parse_failure_text(alluxio_logs[0], alluxio_test), Label.FLAKY))
    plain = alluxio_logs[1]
    prefixed = plain.replace("at java.", "at java.base/java.").replace("at tachyon.", "at app//tachyon.")
    assert prefixed.count("/java.") == 4 and prefixed.count("//tachyon.") == 2
    verdicts = [
        triage(_nf(parse_failure_text(raw, alluxio_test)), history)
        for raw in (plain, prefixed)
    ]
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].basis is TriageBasis.MATCHED_FLAKY_ONLY


def test_triage_empty_history_is_true_not_error():
    rec = record(TestId("p", "a.T", "m"), "E")
    verdict = triage(_nf(rec), Corpus())
    assert verdict.predicted is Label.TRUE
    assert verdict.basis is TriageBasis.MATCHED_NONE


def test_triage_four_bases():
    test = TestId("p", "a.T", "m")
    query = record(test, "E")
    same = record(test, "E")
    different = record(test, "Other")
    cases = [
        ((), TriageBasis.MATCHED_NONE, Label.TRUE),
        (((same, Label.FLAKY),), TriageBasis.MATCHED_FLAKY_ONLY, Label.FLAKY),
        (((same, Label.TRUE),), TriageBasis.MATCHED_TRUE, Label.TRUE),
        (
            ((same, Label.FLAKY), (same, Label.TRUE)),
            TriageBasis.MATCHED_BOTH,
            Label.TRUE,
        ),
        (((different, Label.FLAKY),), TriageBasis.MATCHED_NONE, Label.TRUE),
    ]
    for history, basis, predicted in cases:
        verdict = triage(_nf(query), _history(*history))
        assert verdict.basis is basis
        assert verdict.predicted is predicted


def test_triage_per_test_ignores_other_tests():
    query_test = TestId("p", "a.T", "m")
    other_test = TestId("p", "a.T", "n")
    query = record(query_test, "E")
    verdict = triage(
        _nf(query), _history((record(other_test, "E"), Label.FLAKY))
    )
    assert verdict.basis is TriageBasis.MATCHED_NONE


def test_triage_cross_test_reaches_other_tests():
    query_test = TestId("p", "a.T", "m")
    other_test = TestId("p", "a.U", "n")
    shared = (frame("a.Lib", "call", "Lib.java", 3),)
    query = record(query_test, "E", frames=shared)
    verdict = triage(
        _nf(query),
        _history((record(other_test, "E", frames=shared), Label.FLAKY)),
        scope=MatchScope.CROSS_TEST,
    )
    assert verdict.predicted is Label.FLAKY


def test_triage_cross_test_stays_within_project():
    query = record(TestId("p", "a.T", "m"), "E")
    other_project = record(TestId("q", "a.T", "m"), "E")
    verdict = triage(
        _nf(query), _history((other_project, Label.FLAKY)), scope=MatchScope.CROSS_TEST
    )
    assert verdict.basis is TriageBasis.MATCHED_NONE


@given(st.text(max_size=30), st.text(max_size=30))
@settings(max_examples=100)
def test_message_mutation_never_changes_verdicts(message_a, message_b):
    test = TestId("p", "a.T", "m")
    frames = (frame("a.X", "f", "X.java", 1),)
    history = _history((record(test, "E", message_a, frames), Label.FLAKY))
    query = record(test, "E", message_b, frames)
    assert _sig(query) == _sig(record(test, "E", "other", frames))
    verdict = triage(_nf(query), history)
    assert verdict.predicted is Label.FLAKY


def test_adding_flaky_never_flips_flaky_verdict_to_none():
    test = TestId("p", "a.T", "m")
    query = record(test, "E")
    history = _history((record(test, "E"), Label.FLAKY))
    assert triage(_nf(query), history).basis is TriageBasis.MATCHED_FLAKY_ONLY
    history.add(dataclasses.replace(record(test, "Unrelated"), label=Label.FLAKY))
    assert triage(_nf(query), history).basis is TriageBasis.MATCHED_FLAKY_ONLY


def test_adding_true_only_moves_verdicts_toward_true():
    test = TestId("p", "a.T", "m")
    query = record(test, "E")
    order = {Label.FLAKY: 0, Label.TRUE: 1}
    for initial in (
        (),
        ((record(test, "E"), Label.FLAKY),),
        ((record(test, "E"), Label.TRUE),),
    ):
        history = _history(*initial)
        before = triage(_nf(query), history).predicted
        history.add(dataclasses.replace(record(test, "E"), label=Label.TRUE))
        after = triage(_nf(query), history).predicted
        assert order[after] >= order[before]


# --- repetitiveness -----------------------------------------------------------


def test_repetitiveness_three_test_shape():
    # 3 tests, 7 flaky failures, 4 distinct per-test signatures. One shared
    # trace appears once in each test (unique per test, repetitive across
    # tests); one trace repeats 4 times inside a single test.
    corpus = Corpus()
    tests = [TestId("elastic", f"io.job.Suite{i}Test", f"case{i}") for i in range(3)]
    shared = (frame("io.job.Registry", "connect", "Registry.java", 41),)
    solo = (frame("io.job.Sharding", "await", "Sharding.java", 77),)
    for test in tests:
        corpus.add(record(test, "TimeoutException", "t", shared, Label.FLAKY))
    for _ in range(4):
        corpus.add(record(tests[2], "TimeoutException", "t", solo, Label.FLAKY))
    stats = repetitiveness(corpus).per_project["elastic"]
    assert (stats.tests, stats.flaky, stats.distinct) == (3, 7, 4)
    assert (stats.uniq_per_test, stats.repet_per_test) == (3, 4)
    assert (stats.uniq_cross, stats.repet_cross) == (0, 7)


def test_repetitiveness_singleton():
    corpus = Corpus()
    corpus.add(record(TestId("p", "a.T", "m"), "E", label=Label.FLAKY))
    stats = repetitiveness(corpus).per_project["p"]
    assert (stats.flaky, stats.distinct) == (1, 1)
    assert (stats.uniq_per_test, stats.repet_per_test) == (1, 0)
    assert (stats.uniq_cross, stats.repet_cross) == (1, 0)


def test_repetitiveness_total_of_no_projects_is_zero():
    assert RepetitivenessReport({}).total() == ProjectRepetitiveness(0, 0, 0, 0, 0, 0, 0)


def _brute_force_repetitiveness(corpus, project):
    """O(n^2) pairwise comparator over the project's flaky failures."""
    tests = corpus.tests(project)
    known = frozenset(tests)
    entries = [
        (test, rec)
        for test in tests
        for rec in corpus.bucket(test, Label.FLAKY)
    ]
    uniq_per_test = uniq_cross = 0
    for i, (test_i, rec_i) in enumerate(entries):
        per_test_hit = cross_hit = False
        for j, (test_j, rec_j) in enumerate(entries):
            if i == j:
                continue
            if test_i == test_j and _sig(rec_i) == _sig(rec_j):
                per_test_hit = True
            if _sig(rec_i, scope=MatchScope.CROSS_TEST, known=known) == _sig(
                rec_j, scope=MatchScope.CROSS_TEST, known=known
            ):
                cross_hit = True
        uniq_per_test += not per_test_hit
        uniq_cross += not cross_hit
    return uniq_per_test, uniq_cross


@pytest.mark.parametrize("seed", range(8))
def test_repetitiveness_agrees_with_brute_force(seed):
    corpus = random_corpus(seed, max_records=80)
    report = repetitiveness(corpus)
    for project in corpus.project_names():
        flaky = corpus.count(project, Label.FLAKY)
        if flaky == 0:
            assert project not in report.per_project
            continue
        stats = report.per_project[project]
        uniq_per_test, uniq_cross = _brute_force_repetitiveness(corpus, project)
        assert stats.uniq_per_test == uniq_per_test
        assert stats.uniq_cross == uniq_cross
        assert stats.uniq_per_test + stats.repet_per_test == stats.flaky == flaky
        assert stats.uniq_cross + stats.repet_cross == stats.flaky


@pytest.mark.parametrize("seed", range(8))
def test_cross_test_uniques_never_exceed_per_test_uniques(seed):
    report = repetitiveness(random_corpus(seed + 100, max_records=120))
    for stats in report.per_project.values():
        assert stats.uniq_cross <= stats.uniq_per_test
        assert stats.distinct <= stats.flaky
