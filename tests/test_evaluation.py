"""Metrics arithmetic, matching scores, cross-validation, exception tables."""
import dataclasses
import itertools

import pytest

from flaketriage.errors import InsufficientFlaky, InsufficientTrue
from flaketriage.evaluation import (
    ConfusionMatrix,
    CorpusCvResult,
    cross_validate_project,
    match_trainer,
    bayes_trainer,
    distinct_signature_counts,
    exception_frequency,
    format_metric,
    metrics,
    score_matching,
    stratified_cv,
    tfidf_trainer,
    tree_trainer,
)
from flaketriage.ingest import normalize, read_corpus_xml
from flaketriage.matching import MatchMode, MatchScope, signature, triage
from flaketriage.model import Corpus, Label, TestId
from flaketriage.synth import (
    CountDistribution,
    ExceptionSpec,
    GeneratorConfig,
    generate,
)

from conftest import frame, random_corpus, record


# --- metrics ---------------------------------------------------------------


def test_metrics_large_project_row():
    m = metrics(ConfusionMatrix(tp=9173, fn=7685, fp=1933, tn=30862))
    assert m.precision == pytest.approx(0.8260, abs=5e-4)
    assert m.recall == pytest.approx(0.5441, abs=5e-4)
    assert m.specificity == pytest.approx(0.9411, abs=5e-4)


def test_metrics_perfect_row():
    m = metrics(ConfusionMatrix(tp=322, fn=0, fp=0, tn=76))
    assert (m.precision, m.recall, m.specificity, m.f1) == (1.0, 1.0, 1.0, 1.0)


def test_metrics_undefined_denominators():
    m = metrics(ConfusionMatrix())
    assert m.precision is None and m.recall is None
    assert m.specificity is None and m.f1 is None
    assert format_metric(m.precision) == "n/a"
    assert format_metric(0.8259) == "82.6%"


def test_metrics_f1_undefined_when_precision_and_recall_are_zero():
    # F1's denominator is P+R, so it follows the same undefined rule.
    m = metrics(ConfusionMatrix(tp=0, fn=3, fp=2, tn=5))
    assert m.precision == 0.0 and m.recall == 0.0
    assert m.f1 is None


# --- matching scores ---------------------------------------------------------


def test_score_matching_two_equivalent_flaky(alluxio_xml):
    corpus = read_corpus_xml(alluxio_xml)
    result = score_matching(corpus)
    assert result.matrix == ConfusionMatrix(tp=2, fn=0, fp=0, tn=0)
    assert result.tests_with_tp == 1 and result.tests_with_fn == 0


def test_score_matching_lone_flaky_is_fn():
    corpus = Corpus()
    corpus.add(record(TestId("p", "a.T", "m"), "E", label=Label.FLAKY))
    result = score_matching(corpus)
    assert result.matrix == ConfusionMatrix(tp=0, fn=1, fp=0, tn=0)
    assert result.tests_with_fn == 1


def test_score_matching_cross_label_signature():
    corpus = Corpus()
    test = TestId("p", "a.T", "m")
    shared = (frame("a.X", "f", "X.java", 1),)
    corpus.add(record(test, "E", "a", shared, Label.FLAKY))
    corpus.add(record(test, "E", "b", shared, Label.TRUE))
    result = score_matching(corpus)
    assert result.matrix == ConfusionMatrix(tp=0, fn=1, fp=1, tn=0)


def test_score_matching_four_outcome_enumeration():
    # Every combination of (matches flaky: 0/>=1) x (matches true: 0/>=1).
    test = TestId("p", "a.T", "m")
    flaky_sig = (frame("a.X", "f", "X.java", 1),)
    true_sig = (frame("a.Y", "g", "Y.java", 2),)
    both_sig = (frame("a.Z", "h", "Z.java", 3),)
    lone_sig = (frame("a.W", "w", "W.java", 4),)
    corpus = Corpus()
    # flaky probe matching only flaky history -> TP
    corpus.add(record(test, "E", "1", flaky_sig, Label.FLAKY))
    corpus.add(record(test, "E", "2", flaky_sig, Label.FLAKY))
    # flaky probe matching flaky and true -> FN; its true twin -> FP
    corpus.add(record(test, "E", "3", both_sig, Label.FLAKY))
    corpus.add(record(test, "E", "4", both_sig, Label.FLAKY))
    corpus.add(record(test, "E", "5", both_sig, Label.TRUE))
    # flaky probe matching only true -> FN; that true record -> FP
    corpus.add(record(test, "E", "6", true_sig, Label.FLAKY))
    corpus.add(record(test, "E", "7", true_sig, Label.TRUE))
    # flaky probe matching nothing -> FN
    corpus.add(record(test, "E", "8", lone_sig, Label.FLAKY))
    # true record matching no flaky -> TN
    corpus.add(record(test, "E", "9", (frame("a.V", "v", "V.java", 5),), Label.TRUE))
    result = score_matching(corpus)
    assert result.matrix == ConfusionMatrix(tp=2, fn=4, fp=2, tn=1)


def test_score_matching_cross_test_scope_merges_tests():
    corpus = Corpus()
    shared = (frame("a.Lib", "call", "Lib.java", 3),)
    a = TestId("p", "a.T", "m")
    b = TestId("p", "a.U", "n")
    corpus.add(record(a, "E", "1", shared, Label.FLAKY))
    corpus.add(record(b, "E", "2", shared, Label.FLAKY))
    per_test = score_matching(corpus, scope=MatchScope.PER_TEST)
    cross = score_matching(corpus, scope=MatchScope.CROSS_TEST)
    assert per_test.matrix == ConfusionMatrix(tp=0, fn=2, fp=0, tn=0)
    assert cross.matrix == ConfusionMatrix(tp=2, fn=0, fp=0, tn=0)


def _brute_force_score(corpus, mode, scope):
    """Independent O(n^2) comparator over every project's records."""
    tp = fn = fp = tn = 0
    for project in corpus.project_names():
        known = frozenset(corpus.tests(project))
        entries = []
        for test in corpus.tests(project):
            for label in (Label.FLAKY, Label.TRUE):
                for rec in corpus.bucket(test, label):
                    entries.append(
                        (test, label, signature(normalize(rec), mode, scope, known))
                    )
        for i, (test_i, label_i, sig_i) in enumerate(entries):
            hit_flaky = hit_true = False
            for j, (test_j, label_j, sig_j) in enumerate(entries):
                if i == j:
                    continue
                if scope is MatchScope.PER_TEST and test_i != test_j:
                    continue
                if sig_i == sig_j:
                    if label_j is Label.FLAKY:
                        hit_flaky = True
                    else:
                        hit_true = True
            if label_i is Label.FLAKY:
                if hit_flaky and not hit_true:
                    tp += 1
                else:
                    fn += 1
            else:
                if hit_flaky:
                    fp += 1
                else:
                    tn += 1
    return ConfusionMatrix(tp, fn, fp, tn)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mode", [MatchMode.FULL, MatchMode.EXCEPTION_ONLY])
@pytest.mark.parametrize("scope", [MatchScope.PER_TEST, MatchScope.CROSS_TEST])
def test_score_matching_agrees_with_brute_force(seed, mode, scope):
    corpus = random_corpus(seed, max_records=70)
    assert score_matching(corpus, mode, scope).matrix == _brute_force_score(
        corpus, mode, scope
    )


@pytest.mark.parametrize("seed", range(6))
def test_score_matching_marginals(seed):
    corpus = random_corpus(seed + 50, max_records=90)
    result = score_matching(corpus)
    assert result.matrix.tp + result.matrix.fn == corpus.count(label=Label.FLAKY)
    assert result.matrix.fp + result.matrix.tn == corpus.count(label=Label.TRUE)


def test_distinct_signature_counts(alluxio_xml):
    corpus = read_corpus_xml(alluxio_xml)
    assert distinct_signature_counts(corpus, "alluxio") == (1, 0)


# --- exception frequency -------------------------------------------------------


def test_exception_frequency_flaky_only_exception():
    corpus = Corpus()
    test = TestId("p", "a.T", "m")
    sig = (frame("a.X", "f", "X.java", 1),)
    corpus.add(record(test, "FlakyOnly", "1", sig, Label.FLAKY))
    corpus.add(record(test, "FlakyOnly", "2", sig, Label.FLAKY))
    corpus.add(record(test, "Common", "3", (), Label.TRUE))
    rows = {row.exception: row for row in exception_frequency(corpus, MatchMode.FULL)}
    assert rows["FlakyOnly"].fp == 0
    assert rows["FlakyOnly"].fn <= rows["FlakyOnly"].flaky
    assert rows["FlakyOnly"].tp == 2


def test_exception_frequency_empty_corpus():
    assert exception_frequency(Corpus(), MatchMode.FULL) == []


def test_exception_frequency_exception_only_forces_cross_label_matches():
    corpus = Corpus()
    test = TestId("p", "a.T", "m")
    corpus.add(record(test, "Shared", "1", (frame("a.X", "f", "X.java", 1),), Label.FLAKY))
    corpus.add(record(test, "Shared", "2", (frame("a.Y", "g", "Y.java", 2),), Label.TRUE))
    rows = {r.exception: r for r in exception_frequency(corpus, MatchMode.EXCEPTION_ONLY)}
    assert rows["Shared"].fn == rows["Shared"].flaky == 1
    assert rows["Shared"].fp == rows["Shared"].true == 1


def test_exception_frequency_sorted_by_failures():
    corpus = Corpus()
    test = TestId("p", "a.T", "m")
    for i in range(3):
        corpus.add(record(test, "Frequent", str(i), (), Label.FLAKY))
    corpus.add(record(test, "Rare", "x", (), Label.TRUE))
    rows = exception_frequency(corpus, MatchMode.FULL)
    assert [row.exception for row in rows] == ["Frequent", "Rare"]
    assert rows[0].projects == rows[0].tests == 1
    assert rows[0].failures == 3


# --- cross-validation ------------------------------------------------------------


def _labeled(test, exception, n, label, frames=()):
    return [
        record(test, exception, f"{label.value}{i}", frames, label) for i in range(n)
    ]


def _normalized(test, exception, n, label):
    return [normalize(r) for r in _labeled(test, exception, n, label)]


def test_cv_round_robin_fold_sizes():
    test = TestId("p", "a.T", "m")
    flaky = _normalized(test, "E", 10, Label.FLAKY)
    true = _normalized(test, "F", 10, Label.TRUE)
    result = cross_validate_project(flaky, true, 5, match_trainer(), seed=3)
    assert all(sizes == (2, 2) for sizes in result.fold_sizes)
    assert len(result.folds) == 5


def test_cv_fold_sizes_differ_by_at_most_one():
    test = TestId("p", "a.T", "m")
    flaky = _normalized(test, "E", 13, Label.FLAKY)
    true = _normalized(test, "F", 7, Label.TRUE)
    result = cross_validate_project(flaky, true, 5, match_trainer(), seed=3)
    flaky_sizes = {s[0] for s in result.fold_sizes}
    true_sizes = {s[1] for s in result.fold_sizes}
    assert max(flaky_sizes) - min(flaky_sizes) <= 1
    assert max(true_sizes) - min(true_sizes) <= 1
    assert all(s[0] >= 1 for s in result.fold_sizes)


def test_cv_insufficient_classes():
    test = TestId("p", "a.T", "m")
    with pytest.raises(InsufficientFlaky):
        cross_validate_project(
            _normalized(test, "E", 3, Label.FLAKY),
            _normalized(test, "F", 9, Label.TRUE),
            5,
            match_trainer(),
        )
    with pytest.raises(InsufficientTrue):
        cross_validate_project(
            _normalized(test, "E", 9, Label.FLAKY),
            _normalized(test, "F", 3, Label.TRUE),
            5,
            match_trainer(),
        )


def test_cv_error_names_the_project_of_its_failures():
    test = TestId("p", "a.T", "m")
    with pytest.raises(InsufficientTrue) as info:
        cross_validate_project(
            _normalized(test, "E", 9, Label.FLAKY),
            _normalized(test, "F", 3, Label.TRUE),
            5,
            match_trainer(),
        )
    assert str(info.value) == "project 'p': 3 true failures but k=5"
    with pytest.raises(InsufficientFlaky) as info:
        cross_validate_project([], _normalized(test, "F", 3, Label.TRUE), 5, match_trainer())
    assert str(info.value) == "project 'p': 0 flaky failures but k=5"
    with pytest.raises(InsufficientFlaky) as info:
        cross_validate_project([], [], 5, match_trainer())
    assert str(info.value) == "0 flaky failures but k=5"


def test_stratified_cv_names_the_project_lacking_failures():
    corpus = Corpus()
    corpus.add_all(_labeled(TestId("a", "a.T", "m"), "E", 12, Label.FLAKY))
    corpus.add_all(_labeled(TestId("a", "a.T", "m"), "F", 12, Label.TRUE))
    corpus.add_all(_labeled(TestId("b", "b.T", "m"), "E", 12, Label.FLAKY))
    with pytest.raises(InsufficientTrue) as info:
        stratified_cv(corpus, 5, match_trainer())
    assert str(info.value) == "project 'b': 0 true failures but k=5"


def test_cv_deterministic_for_equal_seeds():
    corpus = random_corpus(7, max_records=120)  # two projects, 20+ flaky each
    a = stratified_cv(corpus, 3, match_trainer(), seed=11)
    b = stratified_cv(corpus, 3, match_trainer(), seed=11)
    assert a.skipped == {} and len(a.per_project) == 2
    assert a.per_project == b.per_project
    c = stratified_cv(corpus, 3, match_trainer(), seed=12)
    assert c.per_project.keys() == a.per_project.keys()


def _separable_config(seed=5):
    return GeneratorConfig(
        seed=seed,
        projects=2,
        tests_per_project=CountDistribution.constant(3),
        flaky_signatures_per_test=CountDistribution.constant(2),
        flaky_occurrences_per_signature=CountDistribution.constant(10),
        true_failures_per_test=CountDistribution.constant(8),
        exception_pool=(
            ExceptionSpec("UnknownHostException", 2.0),
            ExceptionSpec("SocketTimeoutException", 1.0),
            ExceptionSpec("MutationAssertionError", 1.0, only_label=Label.TRUE),
            ExceptionSpec("MutationStateError", 1.0, only_label=Label.TRUE),
        ),
        volatile_message_tokens=True,
    )


def test_cv_perfect_on_separable_corpus_with_tree():
    corpus = generate(_separable_config())
    result = stratified_cv(corpus, 5, tree_trainer(), seed=0)
    assert result.skipped == {}
    cm = result.aggregate
    assert cm.fp == 0 and cm.fn == 0
    assert cm.tp + cm.tn == corpus.count()


def test_cv_perfect_on_separable_corpus_with_matching():
    corpus = generate(_separable_config(seed=6))
    result = stratified_cv(corpus, 5, match_trainer(), seed=0)
    cm = result.aggregate
    assert cm.fp == 0 and cm.fn == 0


def test_cv_skips_projects_with_few_flaky_failures():
    corpus = Corpus()
    test = TestId("tiny", "a.T", "m")
    corpus.add_all(_labeled(test, "E", 4, Label.FLAKY))
    corpus.add_all(_labeled(test, "F", 20, Label.TRUE))
    result = stratified_cv(corpus, 2, match_trainer(), seed=0)
    assert result.per_project == {}
    assert "tiny" in result.skipped
    assert "fewer than 10" in result.skipped["tiny"]


def test_cv_trainers_run_end_to_end():
    corpus = generate(_separable_config(seed=9))
    for trainer in (bayes_trainer(), tfidf_trainer()):
        result = stratified_cv(corpus, 3, trainer, seed=1)
        total = result.aggregate
        assert total.tp + total.fn == sum(
            r.total.tp + r.total.fn for r in result.per_project.values()
        )
        assert total.tp + total.fn + total.fp + total.tn == corpus.count()


def test_match_trainer_agrees_with_triage():
    for seed in range(4):
        corpus = random_corpus(seed + 300, max_records=60)
        for project in corpus.project_names():
            normalized = [normalize(r) for r in corpus.records(project)]
            if len(normalized) < 4:
                continue
            held_out, rest = normalized[0], normalized[1:]
            history = Corpus()
            history.add_all(nf.base for nf in rest)
            for mode, scope in itertools.product(MatchMode, MatchScope):
                predictor = match_trainer(mode, scope)(rest)
                expected = triage(held_out, history, mode, scope)
                assert predictor(held_out) is expected.predicted


def test_oversampled_trainers_stay_deterministic():
    # 3 true failures to 60 flaky per project: under the 10% threshold.
    config = dataclasses.replace(
        _separable_config(seed=12), true_failures_per_test=CountDistribution.constant(1)
    )
    corpus = generate(config)
    for trainer in (tree_trainer, bayes_trainer):
        a = stratified_cv(corpus, 3, trainer(True, 4), seed=4)
        b = stratified_cv(corpus, 3, trainer(True, 4), seed=4)
        assert len(a.per_project) == 2
        assert a.per_project == b.per_project


def test_corpus_cv_result_aggregate():
    result = CorpusCvResult(
        per_project={
            "a": cross_validate_project(
                _normalized(TestId("a", "x.T", "m"), "E", 4, Label.FLAKY),
                _normalized(TestId("a", "x.T", "m"), "F", 4, Label.TRUE),
                2,
                match_trainer(),
            )
        },
        skipped={},
    )
    cm = result.aggregate
    assert cm.tp + cm.fn == 4 and cm.fp + cm.tn == 4
