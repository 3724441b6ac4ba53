"""The shared index against the straightforward code it replaced.

Feature extraction, the cross-test frame filter and triage each once
recomputed everything per record: a sorted scan over every known test name,
a walk over the whole project, a normalization of every record of the
query's test. The tree and Bayes fits walked every sample, and the match
scores and exception table counted every record under its own basis. The
oracles below are those implementations, kept verbatim, with frames rendered
from their fields; the indexed paths must agree with them exactly.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import random
from collections import Counter, defaultdict

import pytest

from conftest import frame, random_corpus, record, render_from_fields
from flaketriage import classifier, cli, evaluation, ingest, tfidf
from flaketriage.classifier import (
    FeatureVector,
    default_cut_prefixes,
    extract_features,
    oversample,
    train_decision_tree,
    train_naive_bayes,
)
from flaketriage.evaluation import (
    bayes_trainer,
    cross_validate_project,
    tree_trainer,
)
from flaketriage import matching
from flaketriage.ingest import normalize, read_corpus_xml, write_corpus_xml
from flaketriage.matching import (
    FailureSignature,
    MatchMode,
    MatchScope,
    ProjectIndex,
    TriageBasis,
    TriageVerdict,
    signature,
    triage,
)
from flaketriage.model import Corpus, KnownTests, Label, TestId, record_id
from flaketriage.synth import GeneratorConfig, generate

SEEDS = range(50)


# --- oracles -----------------------------------------------------------------


def oracle_features(nf, known_tests, cut_prefixes=None):
    known = set(known_tests)
    if cut_prefixes is None:
        cut_prefixes = default_cut_prefixes(known | {nf.base.test})
    cut_prefixes = tuple(cut_prefixes)
    framework_prefixes = ("org.junit.", "junit.")

    test = nf.base.test
    full_name = test.full_name()
    other_names = sorted(t.full_name() for t in known if t != test)
    test_classes = {t.class_fqn for t in known} | {test.class_fqn}

    lines = [render_from_fields(f) for f in nf.kept_frames]
    return FeatureVector(
        exception_type=nf.base.exception_type,
        test_name_in_trace=any(line.startswith(full_name) for line in lines),
        test_class_in_trace=any(test.class_fqn in line for line in lines),
        other_tests_in_trace=any(
            line.startswith(name) for line in lines for name in other_names
        ),
        junit_in_trace=any(
            f.class_fqn.startswith(prefix)
            for f in nf.kept_frames
            for prefix in framework_prefixes
        ),
        cut_in_trace=any(
            f.class_fqn not in test_classes
            and any(f.class_fqn.startswith(prefix) for prefix in cut_prefixes)
            for f in nf.kept_frames
        ),
    )


def oracle_cross_test_signature(nf, known_tests):
    frames = nf.kept_frames
    own_class = nf.base.test.class_fqn
    test_names = sorted(t.full_name() for t in known_tests)
    frames = tuple(
        f
        for f in frames
        if f.class_fqn != own_class
        and not any(
            f"{f.class_fqn}.{f.method}".startswith(name) for name in test_names
        )
    )
    keys = tuple(render_from_fields(f) for f in frames)
    return FailureSignature(nf.base.exception_type, keys)


def oracle_triage(nf, history, mode, scope):
    test = nf.base.test
    project = test.project
    known = frozenset(history.tests(project)) | {test}
    target = signature(nf, mode, scope, known)
    flaky_hits, true_hits = [], []
    for record_id, rec in history.identified_records(project):
        if scope is MatchScope.PER_TEST and rec.test != test:
            continue
        if target == signature(normalize(rec), mode, scope, known):
            (flaky_hits if rec.label is Label.FLAKY else true_hits).append(record_id)
    if flaky_hits and true_hits:
        basis = TriageBasis.MATCHED_BOTH
    elif flaky_hits:
        basis = TriageBasis.MATCHED_FLAKY_ONLY
    elif true_hits:
        basis = TriageBasis.MATCHED_TRUE
    else:
        basis = TriageBasis.MATCHED_NONE
    predicted = Label.FLAKY if basis is TriageBasis.MATCHED_FLAKY_ONLY else Label.TRUE
    return TriageVerdict(predicted, basis, tuple(flaky_hits + true_hits))


def oracle_per_test_triage(nf, history, mode):
    scope = MatchScope.PER_TEST
    test = nf.base.test
    hits: dict[Label, list[str]] = {Label.FLAKY: [], Label.TRUE: []}
    target = signature(nf, mode, scope)
    for label, ids in hits.items():
        for i, record in enumerate(history.bucket(test, label)):
            if target == signature(normalize(record), mode, scope):
                ids.append(record_id(test, label, i))

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


def oracle_trainer(fit, oversampled=False, seed=0, drew=None):
    """Per fold, fit ``fit`` to freshly extracted features; when
    ``oversampled``, on the :func:`oversample` of them, noting in ``drew``
    whether it drew any sample."""
    def train(normalized):
        known = frozenset(nf.base.test for nf in normalized)
        cut = default_cut_prefixes(known)
        data = [(oracle_features(nf, known, cut), nf.base.label) for nf in normalized]
        if oversampled:
            balanced = oversample(data, seed)
            if drew is not None:
                drew.append(len(balanced) > len(data))
            data = balanced
        model = fit(data)
        return lambda nf: model.predict(oracle_features(nf, known, cut))

    return train


# --- known-test universes ---------------------------------------------------


def known_variants(corpus: Corpus, project: str):
    """The project's tests, plus the universes that stress the name lookup."""
    tests = corpus.tests(project)
    yield tests
    yield []
    yield tests[1:]  # the first test's own records lack their test
    # another project's tests with the same full names
    yield tests + [TestId("elsewhere", t.class_fqn, t.method) for t in tests[:2]]
    # names that are prefixes of one another
    yield tests + [TestId(project, t.class_fqn, t.method + "X") for t in tests]


# --- features and cross-test signatures ---------------------------------------


def with_framework_frames(corpus: Corpus) -> Corpus:
    """The corpus with its Lib1 classes moved under ``org.junit.``.

    random_corpus draws no test-framework frames, so without this the
    framework feature would be false for every record.
    """
    moved = Corpus()
    for r in corpus.records():
        frames = tuple(
            dataclasses.replace(
                f,
                class_fqn=f"org.junit.{f.class_fqn}",
                raw=f"org.junit.{f.raw}",
            )
            if f.class_fqn.endswith(".Lib1")
            else f
            for f in r.frames
        )
        moved.add(dataclasses.replace(r, frames=frames))
    return moved


@pytest.mark.parametrize("seed", SEEDS)
def test_features_and_cross_test_signatures_match_the_oracles(seed):
    corpus = random_corpus(seed, max_records=120)
    framework = with_framework_frames(corpus)
    for project in corpus.project_names():
        index = ProjectIndex(map(normalize, corpus.records(project)))
        nfs = index.normalized
        for nf, cross_key in zip(nfs, index.keys(MatchMode.FULL, MatchScope.CROSS_TEST)):
            want = oracle_cross_test_signature(nf, corpus.tests(project))
            assert cross_key == (want.exception_type, want.frame_keys)
        framework_nfs = [normalize(r) for r in framework.records(project)]
        for known in known_variants(corpus, project):
            for nf in nfs:
                want = oracle_cross_test_signature(nf, known)
                assert signature(nf, MatchMode.FULL, MatchScope.CROSS_TEST, set(known)) == want
                assert signature(
                    nf, MatchMode.FULL, MatchScope.CROSS_TEST, KnownTests(known)
                ) == want
            for nf in (*nfs, *framework_nfs):
                assert extract_features(nf, known) == oracle_features(nf, known)
                for cut in ({"com."}, default_cut_prefixes(known), ()):
                    assert extract_features(nf, known, cut) == oracle_features(nf, known, cut)


def test_oracles_cover_each_feature_both_ways():
    seen = {name: set() for name in FeatureVector._fields}
    for seed in SEEDS:
        corpus = random_corpus(seed, max_records=120)
        framework = with_framework_frames(corpus)
        for project in corpus.project_names():
            records = [*corpus.records(project), *framework.records(project)]
            for known in known_variants(corpus, project):
                for r in records:
                    fv = oracle_features(normalize(r), known)
                    for name in seen:
                        seen[name].add(getattr(fv, name))
    del seen["exception_type"]
    assert all(values == {False, True} for values in seen.values()), seen


def _edge_case_features(frames, known, test):
    nf = normalize(record(test, frames=tuple(frames)))
    return extract_features(nf, known, {"a."}), oracle_features(nf, known, {"a."})


def test_same_full_name_in_another_project_counts_as_another_test():
    test = TestId("p", "a.B", "test")
    twin = TestId("q", "a.B", "test")
    frames = [frame("lib.X", "run", "X.java", 1), frame("a.B", "test", "B.java", 5)]
    got, want = _edge_case_features(frames, {test, twin}, test)
    assert got == want
    assert got.other_tests_in_trace
    got, want = _edge_case_features(frames, {test}, test)
    assert got == want
    assert not got.other_tests_in_trace


def test_own_test_missing_from_known_tests():
    test = TestId("p", "a.B", "test")
    frames = [frame("a.B", "test", "B.java", 5)]
    got, want = _edge_case_features(frames, {TestId("p", "a.C", "other")}, test)
    assert got == want and not got.other_tests_in_trace
    # a known test sharing the name of the (unknown) own test is "other"
    got, want = _edge_case_features(frames, {TestId("q", "a.B", "test")}, test)
    assert got == want and got.other_tests_in_trace


def test_empty_known_tests():
    test = TestId("p", "a.B", "test")
    frames = [frame("a.Lib", "go", "Lib.java", 2), frame("a.B", "test", "B.java", 5)]
    got, want = _edge_case_features(frames, set(), test)
    assert got == want
    assert (got.other_tests_in_trace, got.cut_in_trace) == (False, True)
    nf = normalize(record(test, frames=tuple(frames)))
    assert signature(nf, MatchMode.FULL, MatchScope.CROSS_TEST) == (
        oracle_cross_test_signature(nf, ())
    )


def test_test_names_that_prefix_one_another():
    short = TestId("p", "a.B", "test")
    long = TestId("p", "a.B", "testX")
    in_long = [frame("a.Lib", "go", "Lib.java", 2), frame("a.B", "testX", "B.java", 9)]
    in_short = [frame("a.Lib", "go", "Lib.java", 2), frame("a.B", "test", "B.java", 9)]
    for test, frames in itertools.product((short, long), (in_long, in_short)):
        got, want = _edge_case_features(frames, {short, long}, test)
        assert got == want
    # "a.B.testX(...)" starts with the short test's name: another test's frame
    got, _ = _edge_case_features(in_long, {short, long}, long)
    assert got.other_tests_in_trace
    got, _ = _edge_case_features(in_short, {short, long}, short)
    assert not got.other_tests_in_trace
    helper = TestId("p", "a.Helper", "run")
    nf = normalize(record(helper, frames=tuple(in_long)))
    for known in ({short}, {long}, {short, long}):
        assert signature(nf, MatchMode.FULL, MatchScope.CROSS_TEST, known) == (
            oracle_cross_test_signature(nf, known)
        )
        assert signature(nf, MatchMode.FULL, MatchScope.CROSS_TEST, known).frame_keys == (
            "a.Lib.go(Lib.java:2)",
        )


# --- match keys and the reports summed over their groups ----------------------


def with_padded_lines(corpus: Corpus) -> Corpus:
    """The corpus with the line numbers of every other record's frames
    zero-padded in their text (``B.java:07``).

    A padded frame and its plain twin are different frames with the same
    rendered text, so their records share every match key.
    """
    padded = Corpus()
    for i, r in enumerate(corpus.records()):
        if i % 2:
            r = dataclasses.replace(r, frames=tuple(
                dataclasses.replace(f, raw=f"{f.class_fqn}.{f.method}({f.file}:0{f.line})")
                if f.line is not None else f
                for f in r.frames
            ))
        padded.add(r)
    return padded


def seeded_corpora(seed: int):
    """A random corpus as built, with padded lines, and both read back from XML."""
    corpus = random_corpus(seed, max_records=120)
    for built in (corpus, with_padded_lines(corpus)):
        yield built
        yield read_corpus_xml(write_corpus_xml(built))


def signature_key(index: ProjectIndex, nf, mode, scope):
    """A record's match key as the index built it from :func:`signature`."""
    if scope is MatchScope.PER_TEST:
        return (nf.base.test, signature(nf, mode, scope))
    return signature(nf, mode, scope, index.known)


def oracle_key(nf, known_tests, mode, scope):
    if mode is MatchMode.EXCEPTION_ONLY:
        frame_keys = ()
    elif scope is MatchScope.CROSS_TEST:
        frame_keys = oracle_cross_test_signature(nf, known_tests).frame_keys
    else:
        frame_keys = tuple(render_from_fields(f) for f in nf.kept_frames)
    if scope is MatchScope.PER_TEST:
        return (nf.base.test, nf.base.exception_type, frame_keys)
    return (nf.base.exception_type, frame_keys)


def partition(keys) -> list[list[int]]:
    groups: dict[object, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_groups_partition_the_records_as_the_signature_keys_did(seed):
    shared = 0
    for corpus in seeded_corpora(seed):
        for project in corpus.project_names():
            index = ProjectIndex(map(normalize, corpus.records(project)))
            nfs = index.normalized
            for mode, scope in itertools.product(MatchMode, MatchScope):
                assert index.keys(mode, scope) == [
                    oracle_key(nf, corpus.tests(project), mode, scope) for nf in nfs
                ]
                groups = list(index.groups(mode, scope).values())
                assert groups == partition(signature_key(index, nf, mode, scope) for nf in nfs)
                shared += sum(len(g) > 1 for g in groups)
            # One format: a signature is the index's key as it stands.
            for mode, nf in itertools.product(MatchMode, nfs):
                assert index.key(nf, mode, MatchScope.CROSS_TEST) == signature(
                    nf, mode, MatchScope.CROSS_TEST, index.known
                )
                assert index.key(nf, mode, MatchScope.PER_TEST) == (
                    nf.base.test, *signature(nf, mode, MatchScope.PER_TEST)
                )
    assert shared


def oracle_score_project(corpus, project, mode, scope):
    index = matching.project_index(corpus, project)
    per_test: dict[TestId, Counter[tuple[Label, TriageBasis]]] = defaultdict(Counter)
    for record, basis in zip(index.records, index.bases(mode, scope)):
        per_test[record.test][record.label, basis] += 1
    matrices = [evaluation._confusion(counts) for counts in per_test.values()]
    return evaluation.ScoreResult(
        sum(matrices, evaluation.ConfusionMatrix()),
        sum(m.tp > 0 for m in matrices),
        sum(m.fn > 0 for m in matrices),
    )


def oracle_exception_frequency(corpus, mode):
    projects: dict[str, set[str]] = {}
    tests: dict[str, set[TestId]] = {}
    counters: dict[str, Counter[tuple[Label, TriageBasis]]] = {}
    for project in corpus.project_names():
        index = matching.project_index(corpus, project)
        bases = index.bases(mode, MatchScope.PER_TEST)
        for record, basis in zip(index.records, bases):
            exception_type = record.exception_type
            projects.setdefault(exception_type, set()).add(project)
            tests.setdefault(exception_type, set()).add(record.test)
            counter = counters.setdefault(exception_type, Counter())
            counter[record.label, basis] += 1
    rows = []
    for name, counter in counters.items():
        cm = evaluation._confusion(counter)
        flaky, true = cm.tp + cm.fn, cm.fp + cm.tn
        rows.append(evaluation.ExceptionRow(
            name, len(projects[name]), len(tests[name]), flaky + true, true, flaky,
            cm.tp, cm.fn, cm.fp, cm.tn,
        ))
    rows.sort(key=lambda row: (-row.failures, row.exception))
    return rows


def test_group_sums_equal_the_per_record_reports():
    outcomes = set()
    for seed in range(0, 50, 5):
        for corpus in seeded_corpora(seed):
            for mode in MatchMode:
                assert evaluation.exception_frequency(corpus, mode) == (
                    oracle_exception_frequency(corpus, mode)
                )
                for scope, project in itertools.product(MatchScope, corpus.project_names()):
                    assert evaluation.score_project(corpus, project, mode, scope) == (
                        oracle_score_project(corpus, project, mode, scope)
                    )
                    index = matching.project_index(corpus, project)
                    outcomes.update(
                        (r.label, basis) for r, basis in zip(index.records, index.bases(mode, scope))
                    )
    # Records of both labels under every basis.
    assert outcomes == set(itertools.product(Label, TriageBasis))


# --- consumers of the index ---------------------------------------------------


def variant_queries(corpus: Corpus):
    """Each record, and copies with its exception or its frames swapped.

    The swapped exceptions include the record's own name in swapped case,
    which matches nothing; the swapped frames come from the next record of
    the same test, so its same-exception records hold both hits and misses.
    """
    exceptions = sorted({r.exception_type for r in corpus.records()})
    for test in (t for p in corpus.project_names() for t in corpus.tests(p)):
        own = [r for label in Label for r in corpus.bucket(test, label)]
        for r, neighbour in zip(own, own[1:] + own[:1]):
            yield r
            for exception in [*exceptions, r.exception_type.swapcase()]:
                if exception != r.exception_type:
                    yield dataclasses.replace(r, exception_type=exception)
            yield dataclasses.replace(r, frames=neighbour.frames)


@pytest.mark.parametrize("seed", SEEDS)
def test_triage_matches_the_whole_project_walk(seed):
    corpus = random_corpus(seed, max_records=80)
    records = list(corpus.records())
    for query in records[:: max(1, len(records) // 6)]:
        nf = normalize(query)
        for mode, scope in itertools.product(MatchMode, MatchScope):
            assert triage(nf, corpus, mode, scope) == oracle_triage(nf, corpus, mode, scope)
    strangers = [record(TestId("p0", "com.p0.New", "m"), frames=records[0].frames)]
    strangers += [
        dataclasses.replace(q, test=TestId(q.test.project, f"com.{q.test.project}.New", "m"))
        for q in itertools.islice(variant_queries(corpus), 0, None, 4)
    ]
    for stranger in map(normalize, strangers):
        for mode, scope in itertools.product(MatchMode, MatchScope):
            assert triage(stranger, corpus, mode, scope) == (
                oracle_triage(stranger, corpus, mode, scope)
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_bases_are_triage_against_the_corpus_without_the_record(seed):
    corpus = random_corpus(seed, max_records=60)
    # The only record of its test: without it the history does not know the
    # test, so cross-test triage takes its stranger-test path.
    lone = next(corpus.records("p0"))
    corpus.add(dataclasses.replace(lone, test=TestId("p0", "com.p0.LoneTest", "m")))
    checked = 0
    for project in corpus.project_names():
        index = matching.project_index(corpus, project)
        others = [r for r in corpus.records() if r.test.project != project]
        for i, r in enumerate(index.records):
            rest = Corpus()
            rest.add_all([*others, *index.records[:i], *index.records[i + 1:]])
            for mode, scope in itertools.product(MatchMode, MatchScope):
                want = triage(normalize(r), rest, mode, scope).basis
                assert index.bases(mode, scope)[i] is want, (seed, project, i, mode, scope)
            checked += 1
    assert checked == corpus.count()


def assert_per_test_triage_matches_the_bucket_walk(corpus):
    for query in variant_queries(corpus):
        nf = normalize(query)
        for mode in MatchMode:
            assert triage(nf, corpus, mode, MatchScope.PER_TEST) == (
                oracle_per_test_triage(nf, corpus, mode)
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_per_test_triage_matches_the_bucket_walk(seed):
    assert_per_test_triage_matches_the_bucket_walk(random_corpus(seed, max_records=80))


@pytest.mark.parametrize("seed", SEEDS)
def test_per_test_triage_matches_the_bucket_walk_on_read_corpora(seed):
    # The reader shares equal frames between records, as in a read history.
    corpus = read_corpus_xml(write_corpus_xml(random_corpus(seed, max_records=80)))
    assert_per_test_triage_matches_the_bucket_walk(corpus)


def test_per_test_triage_normalizes_only_same_exception_records(monkeypatch):
    calls = []

    def counted(rec, *args):
        calls.append(rec)
        return normalize(rec, *args)

    monkeypatch.setattr(matching, "normalize", counted)
    skipped = shared = 0
    for seed in range(10):
        corpus = random_corpus(seed, max_records=80)
        for query in corpus.records():
            nf = normalize(query)
            bucketed = [r for label in Label for r in corpus.bucket(query.test, label)]
            same = [r for r in bucketed if r.exception_type == query.exception_type]
            firsts = {}
            for r in same:
                firsts.setdefault(tuple(map(id, r.frames)), r)
            skipped += len(bucketed) - len(same)
            shared += len(same) - len(firsts)
            calls.clear()
            triage(nf, corpus, MatchMode.FULL, MatchScope.PER_TEST)
            assert list(map(id, calls)) == list(map(id, firsts.values()))
            calls.clear()
            triage(nf, corpus, MatchMode.EXCEPTION_ONLY, MatchScope.PER_TEST)
            assert calls == []
    assert skipped  # a whole-bucket walk would have normalized these
    assert shared  # and these were signed once for several records


def _per_test(query, *history):
    corpus = Corpus()
    corpus.add_all(history)
    nf = normalize(query)
    verdict = triage(nf, corpus, MatchMode.FULL, MatchScope.PER_TEST)
    assert verdict == oracle_per_test_triage(nf, corpus, MatchMode.FULL)
    return verdict


def test_per_test_triage_same_frame_objects_under_both_labels():
    test = TestId("p", "a.T", "m")
    frames = (frame("a.Lib", "go", "Lib.java", 2), frame("a.T", "m", "T.java", 5))
    verdict = _per_test(
        record(test, frames=frames),
        record(test, frames=frames, label=Label.FLAKY),
        record(test, frames=frames, label=Label.TRUE),
    )
    assert verdict.basis is TriageBasis.MATCHED_BOTH
    assert verdict.evidence == ("p/a.T.m/flaky[0]", "p/a.T.m/true[0]")


def test_per_test_triage_shared_leading_frames_different_tails():
    test = TestId("p", "a.T", "m")
    head = frame("a.Lib", "go", "Lib.java", 2)
    tails = [frame("a.T", "m", "T.java", line) for line in (5, 6)]
    verdict = _per_test(
        record(test, frames=(head, tails[1])),
        record(test, frames=(head, tails[0]), label=Label.TRUE),
        record(test, frames=(head, tails[1]), label=Label.FLAKY),
        record(test, frames=(head,), label=Label.TRUE),
    )
    assert verdict.basis is TriageBasis.MATCHED_FLAKY_ONLY
    assert verdict.evidence == ("p/a.T.m/flaky[0]",)


def test_per_test_triage_equal_frames_that_are_distinct_objects():
    test = TestId("p", "a.T", "m")

    def frames():
        return (frame("a.Lib", "go", "Lib.java", 2), frame("a.T", "m", "T.java", 5))

    first, second = frames(), frames()
    assert first == second and first[0] is not second[0]
    verdict = _per_test(
        record(test, frames=frames()),
        record(test, frames=first, label=Label.FLAKY),
        record(test, frames=second, label=Label.TRUE),
    )
    assert verdict.basis is TriageBasis.MATCHED_BOTH
    assert verdict.evidence == ("p/a.T.m/flaky[0]", "p/a.T.m/true[0]")


@pytest.mark.parametrize("seed", range(0, 50, 5))
@pytest.mark.parametrize(
    "trainer, fit",
    [(tree_trainer, train_decision_tree), (bayes_trainer, train_naive_bayes)],
    ids=["tree", "bayes"],
)
def test_cv_with_feature_reuse_matches_per_fold_extraction(seed, trainer, fit):
    # Plain and oversampled. The projects are about balanced, so each is also
    # cut to k failures of one label, which oversampling then draws from.
    corpus = random_corpus(seed, max_records=250)
    for oversampled in (False, True):
        shared = trainer(oversampled, seed)  # one trainer across projects and cuts
        drew = []
        oracle = oracle_trainer(fit, oversampled, seed, drew)
        compared = 0
        for project in corpus.project_names():
            flaky, true = evaluation.labeled_failures(corpus, project)
            if min(len(flaky), len(true)) < 3:
                continue
            for cut in ((flaky, true), (flaky[:3], true), (flaky, true[:3])):
                got = cross_validate_project(*cut, 3, shared, seed)
                assert got == cross_validate_project(*cut, 3, oracle, seed)
                compared += 1
        assert compared and any(drew) == oversampled


@pytest.mark.parametrize("oversampled", [False, True], ids=["plain", "oversampled"])
@pytest.mark.parametrize(
    "trainer, model",
    [(tree_trainer, classifier.DecisionTreeModel),
     (bayes_trainer, classifier.NaiveBayesModel)],
    ids=["tree", "bayes"],
)
def test_cv_extracts_once_per_failure_and_predicts_once_per_vector(
    monkeypatch, trainer, model, oversampled
):
    # Each test has many failures, so every fold's training failures span
    # all tests and one set of known tests serves every fold.
    config = GeneratorConfig.from_dict({
        "seed": 3,
        "projects": 1,
        "tests_per_project": {"constant": 6},
        "flaky_signatures_per_test": {"uniform": [2, 3]},
        "flaky_occurrences_per_signature": {"geometric": 0.3},
        "true_failures_per_test": {"uniform": [8, 12]},
        "exception_pool": [
            {"name": "UnknownHostException", "weight": 3},
            {"name": "AssertionError", "weight": 2, "shared_across_labels": True},
            {"name": "NullPointerException", "weight": 2, "only_label": "true"},
        ],
    })
    flaky, true = evaluation.labeled_failures(generate(config), "proj00")
    extracted: Counter[int] = Counter()
    features = classifier.FeatureContext.features

    def counted_features(self, nf):
        extracted[id(nf)] += 1
        return features(self, nf)

    predicted: Counter[tuple[int, FeatureVector]] = Counter()
    models = []  # kept alive, so that their ids stay distinct
    predict = model.predict

    def counted_predict(self, fv):
        models.append(self)
        predicted[id(self), fv] += 1
        return predict(self, fv)

    monkeypatch.setattr(classifier.FeatureContext, "features", counted_features)
    monkeypatch.setattr(model, "predict", counted_predict)
    k = 5
    cross_validate_project(flaky, true, k, trainer(oversampled, 1), 1)
    failures = len(flaky) + len(true)
    assert len(extracted) == failures and set(extracted.values()) == {1}
    assert len({id(m) for m in models}) == k
    assert set(predicted.values()) == {1}
    # Held-out failures share vectors, so fewer predictions than failures.
    assert len(predicted) < failures


# --- classifier fit on distinct feature vectors ------------------------------
# The fits on distinct feature vectors must give models with equal fitted
# state, equal predictions and equal Bayes scores.

_BOOLEAN_FEATURES = (
    "test_name_in_trace",
    "test_class_in_trace",
    "other_tests_in_trace",
    "junit_in_trace",
    "cut_in_trace",
)


def _leaf(samples):
    n_flaky = sum(1 for _, y in samples if y is Label.FLAKY)
    n_true = len(samples) - n_flaky
    label = Label.FLAKY if n_flaky > n_true else Label.TRUE
    return classifier._Leaf(label, n_flaky, n_true)


def _matches_split(fv, feature, category):
    if category is not None:
        return fv.exception_type == category
    return bool(getattr(fv, feature))


def _candidates(samples):
    out = [
        ("exception_type", value)
        for value in sorted({fv.exception_type for fv, _ in samples})
    ]
    out.extend((name, None) for name in _BOOLEAN_FEATURES)
    return out


def _grow(samples):
    leaf = _leaf(samples)
    if leaf.n_flaky == 0 or leaf.n_true == 0:
        return leaf

    parent = classifier._gini(leaf.n_flaky, leaf.n_true)
    n = len(samples)
    best = None
    best_gain = -1.0
    for feature, category in _candidates(samples):
        match = [s for s in samples if _matches_split(s[0], feature, category)]
        if not match or len(match) == n:
            continue
        other = [s for s in samples if not _matches_split(s[0], feature, category)]
        weighted = (
            len(match) * classifier._gini(*_label_counts(match))
            + len(other) * classifier._gini(*_label_counts(other))
        ) / n
        gain = parent - weighted
        # Strict > keeps the earliest candidate on ties: exception values in
        # lexicographic order first, then the boolean features in field order.
        if gain > best_gain:
            best_gain = gain
            best = (feature, category, match, other)
    if best is None:
        return leaf  # all vectors identical
    feature, category, match, other = best
    # The model names a split by vector position and the value it tests.
    position = FeatureVector._fields.index(feature)
    value = True if category is None else category
    return classifier._Split(position, value, _grow(match), _grow(other))


def _label_counts(samples):
    n_flaky = sum(1 for _, y in samples if y is Label.FLAKY)
    return n_flaky, len(samples) - n_flaky


def oracle_train_decision_tree(data):
    return classifier.DecisionTreeModel(_grow(list(data)))


def oracle_bayes_counts(data):
    class_counts = {Label.FLAKY: 0, Label.TRUE: 0}
    value_counts = {
        feature: {Label.FLAKY: {}, Label.TRUE: {}}
        for feature in ("exception_type",) + _BOOLEAN_FEATURES
    }
    observed = {
        feature: set() for feature in ("exception_type",) + _BOOLEAN_FEATURES
    }
    for fv, label in data:
        class_counts[label] += 1
        for feature in ("exception_type",) + _BOOLEAN_FEATURES:
            value = getattr(fv, feature)
            counts = value_counts[feature][label]
            counts[value] = counts.get(value, 0) + 1
            observed[feature].add(value)
    categories = {
        feature: tuple(sorted(values)) for feature, values in observed.items()
    }
    return class_counts, value_counts, categories


def oracle_bayes_tables(class_counts, value_counts, categories):
    """The fitted tables the model should hold: per label with samples, its
    log prior and, per feature in field order, the log likelihood of each
    value seen under the label and that of any other value."""
    smoothing = 1.0
    total = sum(class_counts.values())
    tables = {}
    for label, n_label in class_counts.items():
        if n_label:
            likelihoods = []
            for feature in ("exception_type",) + _BOOLEAN_FEATURES:
                denominator = n_label + smoothing * len(categories[feature])
                seen = {
                    value: math.log((count + smoothing) / denominator)
                    for value, count in value_counts[feature][label].items()
                }
                likelihoods.append((seen, math.log(smoothing / denominator)))
            tables[label] = (math.log(n_label / total), likelihoods)
    return tables


def oracle_bayes_score(class_counts, value_counts, categories, label, fv):
    smoothing = 1.0
    n_label = class_counts[label]
    total = sum(class_counts.values())
    score = math.log(n_label / total)
    for feature in ("exception_type",) + _BOOLEAN_FEATURES:
        value = getattr(fv, feature)
        count = value_counts[feature][label].get(value, 0)
        k = len(categories[feature])
        score += math.log(
            (count + smoothing) / (n_label + smoothing * k)
        )
    return score


def random_samples(seed, skewed=False):
    """A seeded sample set: 1-6 exception types, 1-400 samples, labels that
    lean on the features with noise, and booleans that sometimes copy one
    another so that distinct candidates tie.

    ``skewed`` sets draw 60-400 samples with a twentieth of the flaky share,
    so that flaky samples are a minority under the 10% oversampling
    threshold (at least one is drawn).
    """
    rng = random.Random(seed)
    exceptions = [f"E{i}" for i in rng.sample(range(9), rng.randint(1, 6))]
    weights = [rng.random() for _ in exceptions]
    if skewed:
        size = rng.randint(60, 400)
    else:
        size = rng.choice((1, 2, rng.randint(3, 60), rng.randint(60, 400), rng.randint(300, 400)))
    copied = rng.random() < 0.3
    lean = {e: rng.random() for e in exceptions}
    data = []
    for _ in range(size):
        flags = [rng.random() < 0.4 for _ in _BOOLEAN_FEATURES]
        if copied:
            flags[3] = flags[1]
        exception = rng.choices(exceptions, weights)[0]
        p = lean[exception] + (0.3 if flags[0] else 0.0) - (0.2 if flags[4] else 0.0)
        label = Label.FLAKY if rng.random() < (p / 20 if skewed else p) else Label.TRUE
        data.append((FeatureVector(exception, *flags), label))
    if skewed and all(label is Label.TRUE for _, label in data):
        data[0] = (data[0][0], Label.FLAKY)
    probes = [fv for fv, _ in data] + [
        FeatureVector(rng.choice(exceptions + ["Unseen"]), *(rng.random() < 0.5 for _ in range(5)))
        for _ in range(20)
    ]
    return data, probes


FIT_SEEDS = range(72)


@pytest.mark.parametrize("seed", FIT_SEEDS)
def test_fits_on_distinct_vectors_match_the_per_sample_oracles(seed):
    # Every other block of 12 seeds fits oversampled, skewed sample sets.
    oversampled = seed // 12 % 2
    data, probes = random_samples(seed, skewed=oversampled)
    if oversampled:
        balanced = oversample(data, seed)
        assert len(balanced) > len(data)  # copies of flaky samples were added
        data = balanced

    tree = train_decision_tree(data)
    want = oracle_train_decision_tree(data)
    assert tree._root == want._root
    assert [tree.predict(fv) for fv in probes] == [want.predict(fv) for fv in probes]

    bayes = train_naive_bayes(data)
    counts = oracle_bayes_counts(data)
    assert bayes._tables == oracle_bayes_tables(*counts)
    class_counts = counts[0]
    for fv in probes:
        if all(class_counts.values()):
            for label in Label:
                assert bayes._score(label, fv) == oracle_bayes_score(*counts, label, fv)
        present = [label for label, n in class_counts.items() if n]
        if len(present) == 1:
            assert bayes.predict(fv) is present[0]
        else:
            assert bayes.predict(fv) is (
                Label.FLAKY
                if oracle_bayes_score(*counts, Label.FLAKY, fv)
                > oracle_bayes_score(*counts, Label.TRUE, fv)
                else Label.TRUE
            )


def test_fit_sample_sets_reach_the_cases_that_matter():
    splits = repeats = 0
    sizes = set()
    for seed in FIT_SEEDS:
        data, _ = random_samples(seed)
        splits += isinstance(train_decision_tree(data)._root, classifier._Split)
        repeats += len(set(data)) < len(data)  # groups hold several samples
        sizes.add(len(data))
    assert splits >= len(FIT_SEEDS) // 2
    assert repeats >= len(FIT_SEEDS) // 2
    assert min(sizes) == 1 and max(sizes) >= 300


@pytest.mark.parametrize("method", ["tree", "bayes"])
def test_evaluate_normalizes_each_record_once(tmp_path, monkeypatch, capsys, method):
    config = GeneratorConfig.from_dict({
        "seed": 3,
        "projects": 2,
        "tests_per_project": {"constant": 4},
        "flaky_signatures_per_test": {"uniform": [1, 3]},
        "flaky_occurrences_per_signature": {"geometric": 0.4},
        "true_failures_per_test": {"uniform": [2, 6]},
        "exception_pool": [
            {"name": "UnknownHostException", "weight": 3},
            {"name": "AssertionError", "weight": 2, "shared_across_labels": True},
            {"name": "NullPointerException", "weight": 2, "only_label": "true"},
        ],
    })
    path = tmp_path / "corpus.xml"
    path.write_bytes(write_corpus_xml(generate(config)))
    n_records = len(read_corpus_xml(path.read_bytes()))

    calls = []

    def counted(rec, *args):
        calls.append(rec)
        return normalize(rec, *args)

    for module in (ingest, matching, cli):
        monkeypatch.setattr(module, "normalize", counted)
    assert cli.main(["evaluate", "--corpus", str(path), "--method", method]) == 0
    out = capsys.readouterr().out
    assert "skipped" not in out and "proj01" in out  # both projects ran CV
    assert len(calls) == n_records
    assert len(set(map(id, calls))) == n_records


def _count_normalize(monkeypatch):
    """Every ``normalize`` call through the package, from now on."""
    calls = []

    def counted(rec, *args):
        calls.append(rec)
        return normalize(rec, *args)

    for module in (ingest, matching, evaluation, classifier, tfidf, cli):
        if hasattr(module, "normalize"):
            monkeypatch.setattr(module, "normalize", counted)
    return calls


every_trainer = pytest.mark.parametrize(
    "make_trainer",
    [
        evaluation.match_trainer,
        lambda: evaluation.match_trainer(MatchMode.FULL, MatchScope.CROSS_TEST),
        tree_trainer,
        bayes_trainer,
        lambda: bayes_trainer(True, 2),
        evaluation.tfidf_trainer,
    ],
    ids=["match", "match-cross-test", "tree", "bayes", "bayes-oversample", "tfidf"],
)


@every_trainer
def test_cross_validation_normalizes_nothing(monkeypatch, make_trainer):
    corpus = random_corpus(7, max_records=120)
    projects = [evaluation.labeled_failures(corpus, p) for p in corpus.project_names()]
    calls = _count_normalize(monkeypatch)
    for flaky, true in projects:
        cross_validate_project(flaky, true, 3, make_trainer(), 5)
    assert calls == []


@every_trainer
def test_cross_validation_builds_no_corpus(monkeypatch, make_trainer):
    # A trainer indexes the fold's failures it is given; a fold Corpus would
    # only hand the same records back.
    corpus = random_corpus(7, max_records=120)
    projects = [evaluation.labeled_failures(corpus, p) for p in corpus.project_names()]
    built = []
    init = Corpus.__init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(Corpus, "__init__", counted)
    for flaky, true in projects:
        cross_validate_project(flaky, true, 3, make_trainer(), 5)
    assert built == []


def test_cv_and_exception_table_normalize_each_record_once(monkeypatch):
    corpus = random_corpus(7, max_records=120)
    calls = _count_normalize(monkeypatch)
    result = evaluation.stratified_cv(corpus, 3, tree_trainer())
    evaluation.exception_frequency(corpus, MatchMode.FULL)
    assert result.per_project and not result.skipped
    assert sorted(map(id, calls)) == sorted(map(id, corpus.records()))
