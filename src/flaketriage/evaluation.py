"""Confusion-matrix accounting, metrics, cross-validation, and report tables.

Matching is scored as leave-one-out triage: each failure gets the basis
:func:`~flaketriage.matching.triage` would give it against every other failure
of its scope (``ProjectIndex.bases``), never against itself. A flaky failure
is a true positive when its basis is MATCHED_FLAKY_ONLY and a false negative
otherwise; a true failure is a false positive when its basis is
MATCHED_FLAKY_ONLY or MATCHED_BOTH and a true negative otherwise.
"""
from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .classifier import (
    FeatureContext,
    FeatureVector,
    Sample,
    TrainedModel,
    default_cut_prefixes,
    oversample,
    train_decision_tree,
    train_naive_bayes,
)
from .errors import InsufficientFlaky, InsufficientTrue
from .ingest import NormalizedFailure
from .matching import (
    MatchMode,
    MatchScope,
    ProjectIndex,
    ProjectRepetitiveness,
    RepetitivenessReport,
    TriageBasis,
    project_index,
)
from .model import Corpus, FailureRecord, KnownTests, Label, TestId
from .tfidf import TfidfIndex

MIN_FLAKY_FOR_CV = 10
DEFAULT_FOLDS = 5

Predictor = Callable[[NormalizedFailure], Label]
Trainer = Callable[[Sequence[NormalizedFailure]], Predictor]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int = 0
    fn: int = 0
    fp: int = 0
    tn: int = 0

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp,
            self.fn + other.fn,
            self.fp + other.fp,
            self.tn + other.tn,
        )


@dataclass(frozen=True)
class MetricSet:
    """Precision, recall, specificity, and F1; None when the ratio is 0/0."""

    precision: float | None
    recall: float | None
    specificity: float | None
    f1: float | None


def _ratio(numerator: int, denominator: int) -> float | None:
    if denominator == 0:
        return None
    return numerator / denominator


def metrics(cm: ConfusionMatrix) -> MetricSet:
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    specificity = _ratio(cm.tn, cm.tn + cm.fp)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return MetricSet(precision, recall, specificity, f1)


def format_metric(value: float | None) -> str:
    """One-decimal percentage, or "n/a" for an undefined metric."""
    if value is None:
        return "n/a"
    return f"{100 * value:.1f}%"


# --- matching-based scoring -------------------------------------------------


@dataclass(frozen=True)
class ScoreResult:
    """Confusion matrix plus the numbers of tests with a TP and with an FN."""

    matrix: ConfusionMatrix
    tests_with_tp: int
    tests_with_fn: int


def _confusion(counts: Counter[tuple[Label, TriageBasis]]) -> ConfusionMatrix:
    """Score failures from the number of them per label and leave-one-out basis."""
    tp = fn = fp = tn = 0
    for (label, basis), n in counts.items():
        if label is Label.FLAKY:
            if basis is TriageBasis.MATCHED_FLAKY_ONLY:
                tp += n
            else:
                fn += n
        elif basis in (TriageBasis.MATCHED_FLAKY_ONLY, TriageBasis.MATCHED_BOTH):
            fp += n
        else:
            tn += n
    return ConfusionMatrix(tp, fn, fp, tn)


def _outcomes(
    index: ProjectIndex, mode: MatchMode, scope: MatchScope
) -> Iterator[tuple[FailureRecord, Label, TriageBasis, int]]:
    """``(record, label, basis, n)``: ``n`` failures like ``record`` but
    labeled ``label`` whose leave-one-out basis is ``basis``.

    Under PER_TEST, a match group's records share their test and exception,
    so each group gives one entry per label it holds: its flaky records have
    the basis of its counts with one flaky taken out, its true records that
    with one true taken out. A CROSS_TEST group spans tests, so it gives one
    entry per record.
    """
    records = index.records
    if scope is MatchScope.CROSS_TEST:
        for record, basis in zip(records, index.bases(mode, scope)):
            yield record, record.label, basis, 1
        return
    groups = index.groups(mode, scope).values()
    for positions, (flaky, true) in zip(groups, index.counts(mode, scope)):
        record = records[positions[0]]
        if flaky:
            yield record, Label.FLAKY, TriageBasis.of(flaky - 1, true), flaky
        if true:
            yield record, Label.TRUE, TriageBasis.of(flaky, true - 1), true


def score_project(
    corpus: Corpus,
    project: str,
    mode: MatchMode = MatchMode.FULL,
    scope: MatchScope = MatchScope.PER_TEST,
) -> ScoreResult:
    """Score every labeled failure of one project against the rest of its scope."""
    index = project_index(corpus, project)
    per_test: dict[TestId, Counter[tuple[Label, TriageBasis]]] = defaultdict(Counter)
    for record, label, basis, n in _outcomes(index, mode, scope):
        per_test[record.test][label, basis] += n
    matrices = [_confusion(counts) for counts in per_test.values()]
    return ScoreResult(
        sum(matrices, ConfusionMatrix()),
        sum(m.tp > 0 for m in matrices),
        sum(m.fn > 0 for m in matrices),
    )


def score_matching(
    corpus: Corpus,
    mode: MatchMode = MatchMode.FULL,
    scope: MatchScope = MatchScope.PER_TEST,
) -> ScoreResult:
    """Score every labeled failure against the rest of its scope."""
    results = [score_project(corpus, p, mode, scope) for p in corpus.project_names()]
    return ScoreResult(
        sum((r.matrix for r in results), ConfusionMatrix()),
        sum(r.tests_with_tp for r in results),
        sum(r.tests_with_fn for r in results),
    )


def distinct_signature_counts(corpus: Corpus, project: str) -> tuple[int, int]:
    """Distinct per-test full signatures in the flaky and true buckets."""
    counts = project_index(corpus, project).counts(MatchMode.FULL, MatchScope.PER_TEST)
    return sum(flaky > 0 for flaky, _ in counts), sum(true > 0 for _, true in counts)


# --- exception frequency table ----------------------------------------------


@dataclass(frozen=True)
class ExceptionRow:
    exception: str
    projects: int
    tests: int
    failures: int
    true: int
    flaky: int
    tp: int
    fn: int
    fp: int
    tn: int


def exception_frequency(corpus: Corpus, mode: MatchMode) -> list[ExceptionRow]:
    """Per-exception aggregation of per-test matching outcomes.

    Rows are sorted by total failure count descending (exception name breaks
    ties). Run once with FULL and once with EXCEPTION_ONLY mode to see how
    much the stack frames contribute beyond the exception type.
    """
    projects: dict[str, set[str]] = {}
    tests: dict[str, set[TestId]] = {}
    counters: dict[str, Counter[tuple[Label, TriageBasis]]] = {}
    for project in corpus.project_names():
        index = project_index(corpus, project)
        for record, label, basis, n in _outcomes(index, mode, MatchScope.PER_TEST):
            exception_type = record.exception_type
            projects.setdefault(exception_type, set()).add(project)
            tests.setdefault(exception_type, set()).add(record.test)
            counter = counters.setdefault(exception_type, Counter())
            counter[label, basis] += n
    rows = []
    for name, counter in counters.items():
        cm = _confusion(counter)
        flaky, true = cm.tp + cm.fn, cm.fp + cm.tn
        rows.append(ExceptionRow(
            name, len(projects[name]), len(tests[name]), flaky + true, true, flaky,
            cm.tp, cm.fn, cm.fp, cm.tn,
        ))
    rows.sort(key=lambda row: (-row.failures, row.exception))
    return rows


# --- stratified cross-validation ---------------------------------------------


@dataclass(frozen=True)
class CvResult:
    """Per-fold confusion matrices for one project, plus held-out sizes."""

    folds: tuple[ConfusionMatrix, ...]
    fold_sizes: tuple[tuple[int, int], ...]  # (flaky, true) held out per fold

    @property
    def total(self) -> ConfusionMatrix:
        out = ConfusionMatrix()
        for fold in self.folds:
            out = out + fold
        return out

    @property
    def metrics(self) -> MetricSet:
        return metrics(self.total)


def cross_validate_project(
    flaky: Sequence[NormalizedFailure],
    true: Sequence[NormalizedFailure],
    k: int,
    trainer: Trainer,
    seed: int = 0,
) -> CvResult:
    """Seeded stratified k-fold evaluation of one project.

    Each label class is shuffled once and dealt round-robin to the k folds,
    so fold sizes within a class differ by at most one and every fold holds
    at least one flaky failure whenever there are at least k of them.
    """
    if len(flaky) < k:
        raise InsufficientFlaky(f"{len(flaky)} flaky failures but k={k}")
    if len(true) < k:
        raise InsufficientTrue(f"{len(true)} true failures but k={k}")
    rng = random.Random(seed)
    shuffled_flaky = list(flaky)
    shuffled_true = list(true)
    rng.shuffle(shuffled_flaky)
    rng.shuffle(shuffled_true)
    flaky_folds = [shuffled_flaky[i::k] for i in range(k)]
    true_folds = [shuffled_true[i::k] for i in range(k)]

    fold_matrices = []
    fold_sizes = []
    for held_out in range(k):
        training = [
            nf
            for i in range(k)
            if i != held_out
            for nf in flaky_folds[i] + true_folds[i]
        ]
        predictor = trainer(training)
        tp = fn = fp = tn = 0
        for nf in flaky_folds[held_out] + true_folds[held_out]:
            predicted = predictor(nf)
            if nf.base.label is Label.FLAKY:
                if predicted is Label.FLAKY:
                    tp += 1
                else:
                    fn += 1
            else:
                if predicted is Label.FLAKY:
                    fp += 1
                else:
                    tn += 1
        fold_matrices.append(ConfusionMatrix(tp, fn, fp, tn))
        fold_sizes.append(
            (len(flaky_folds[held_out]), len(true_folds[held_out]))
        )
    return CvResult(tuple(fold_matrices), tuple(fold_sizes))


@dataclass(frozen=True)
class CorpusCvResult:
    per_project: dict[str, CvResult]
    skipped: dict[str, str]

    @property
    def aggregate(self) -> ConfusionMatrix:
        out = ConfusionMatrix()
        for result in self.per_project.values():
            out = out + result.total
        return out

    @property
    def aggregate_metrics(self) -> MetricSet:
        return metrics(self.aggregate)


def labeled_failures(corpus: Corpus, project: str) -> tuple[list[NormalizedFailure], ...]:
    """A project's flaky and true normalized failures, in its index's order."""
    normalized = project_index(corpus, project).normalized
    labels = (Label.FLAKY, Label.TRUE)
    return tuple([nf for nf in normalized if nf.base.label is label] for label in labels)


def stratified_cv(
    corpus: Corpus,
    k: int,
    trainer: Trainer,
    seed: int = 0,
) -> CorpusCvResult:
    """Cross-validate every project of a corpus independently.

    Projects with fewer than :data:`MIN_FLAKY_FOR_CV` flaky failures are
    skipped with a diagnostic instead of being evaluated. Each project is
    seeded with the same ``seed``, so per-project results do not depend on
    evaluation order.
    """
    per_project: dict[str, CvResult] = {}
    skipped: dict[str, str] = {}
    for project in corpus.project_names():
        flaky, true = labeled_failures(corpus, project)
        if len(flaky) < MIN_FLAKY_FOR_CV:
            skipped[project] = (
                f"fewer than {MIN_FLAKY_FOR_CV} flaky failures ({len(flaky)})"
            )
            continue
        try:
            per_project[project] = cross_validate_project(
                flaky, true, k, trainer, seed
            )
        except (InsufficientFlaky, InsufficientTrue) as exc:
            raise type(exc)(f"project {project!r}: {exc}") from None
    return CorpusCvResult(per_project, skipped)


# --- training strategies -----------------------------------------------------


def match_trainer(
    mode: MatchMode = MatchMode.FULL, scope: MatchScope = MatchScope.PER_TEST
) -> Trainer:
    """Exact-matching strategy: predict flaky iff only flaky failures match.

    Equivalent to running triage() against the training failures, but the
    training signatures are indexed once per fold, from the normalized
    failures given; nothing is normalized again.
    """

    def train(normalized: Sequence[NormalizedFailure]) -> Predictor:
        index = ProjectIndex(normalized)
        flaky_only = {
            key
            for key, counts in zip(index.groups(mode, scope), index.counts(mode, scope))
            if TriageBasis.of(*counts) is TriageBasis.MATCHED_FLAKY_ONLY
        }

        def predictor(nf: NormalizedFailure) -> Label:
            key = index.key(nf, mode, scope)
            return Label.FLAKY if key in flaky_only else Label.TRUE

        return predictor

    return train


def feature_trainer(
    fit: Callable[[list[Sample]], TrainedModel],
    oversampled: bool = False,
    seed: int = 0,
) -> Trainer:
    """Strategy of the six-feature classifiers: ``fit`` a model to the
    training failures' features, with :func:`oversample` under ``seed`` when
    ``oversampled`` is set, and predict with it.

    Features depend only on the normalized failure, the known tests and the
    CUT prefixes, and the prefixes follow from the known tests; so the
    trainer extracts a failure's features at most once per set of known
    tests it is trained on. In k-fold that is once per failure whenever every
    fold's training failures span all tests.
    """
    # Per set of known tests, its context and the features extracted under
    # it, by failure identity (hashing a failure by value costs more than the
    # lookup saves). Each entry keeps its failure alive, so ids stay unique.
    contexts: dict[
        frozenset[TestId],
        tuple[FeatureContext, dict[int, tuple[NormalizedFailure, FeatureVector]]],
    ] = {}

    def train(normalized: Sequence[NormalizedFailure]) -> Predictor:
        known = frozenset(nf.base.test for nf in normalized)
        if known not in contexts:
            context = FeatureContext(KnownTests(known), default_cut_prefixes(known))
            contexts[known] = (context, {})
        context, extracted = contexts[known]

        def features(nf: NormalizedFailure) -> FeatureVector:
            entry = extracted.get(id(nf))
            if entry is None:
                entry = extracted[id(nf)] = (nf, context.features(nf))
            return entry[1]

        data = [(features(nf), nf.base.label) for nf in normalized]
        if oversampled:
            data = oversample(data, seed)
        model = fit(data)
        return lambda nf: model.predict(features(nf))

    return train


def tree_trainer(oversampled: bool = False, seed: int = 0) -> Trainer:
    return feature_trainer(train_decision_tree, oversampled, seed)


def bayes_trainer(oversampled: bool = False, seed: int = 0) -> Trainer:
    return feature_trainer(train_naive_bayes, oversampled, seed)


def tfidf_trainer() -> Trainer:
    """Nearest-neighbour strategy: predict the label that
    :func:`~flaketriage.tfidf.classify_nn` gives against the training failures.

    Each fold's :class:`TfidfIndex` is built straight from its failures, under
    the record ids a corpus of them would give (:attr:`ProjectIndex.ids`).
    """

    def train(normalized: Sequence[NormalizedFailure]) -> Predictor:
        fold = ProjectIndex(normalized)
        index = TfidfIndex(zip(fold.ids, fold.records))
        return lambda nf: index.classify(nf.base).predicted

    return train


# --- report rendering ---------------------------------------------------------

MATCHING_COLUMNS = (
    "project", "tests", "true", "flaky", "set_true", "set_flaky",
    "tp", "fn", "fp", "tn",
    "precision", "recall", "specificity", "f1", "tests_tp", "tests_fn",
)
CV_COLUMNS = (
    "project", "tests", "flaky", "true",
    "tp", "fn", "fp", "tn",
    "precision", "recall", "specificity", "f1",
)
EXCEPTION_COLUMNS = (
    "exception", "projects", "tests", "failures", "true", "flaky",
    "tp", "fn", "fp", "tn",
)
REPETITIVENESS_COLUMNS = (
    "project", "tests", "flaky", "set",
    "uniq_per_test", "repet_per_test", "uniq_cross", "repet_cross",
)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width table: first column left-aligned, the rest right-aligned."""
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt(cells: Sequence[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts.extend(cell.rjust(width) for cell, width in zip(cells[1:], widths[1:]))
        return "  ".join(parts).rstrip()

    lines = [fmt(headers)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _metric_cells(metric_set: MetricSet) -> list[str]:
    return [
        format_metric(metric_set.precision),
        format_metric(metric_set.recall),
        format_metric(metric_set.specificity),
        format_metric(metric_set.f1),
    ]


def render_matching_table(
    per_project: dict[str, tuple[ScoreResult, int, int, int, int, int]]
) -> str:
    """Table of per-project matching results plus a total row.

    Each project maps to (score, tests, true, flaky, set_true, set_flaky),
    where the set counts are distinct per-test full signatures per label.
    """
    rows = []
    total = ConfusionMatrix()
    sums = Counter()
    for project in sorted(per_project):
        score, tests, n_true, n_flaky, set_true, set_flaky = per_project[project]
        cm = score.matrix
        total = total + cm
        sums.update(
            tests=tests, true=n_true, flaky=n_flaky,
            set_true=set_true, set_flaky=set_flaky,
            tests_tp=score.tests_with_tp, tests_fn=score.tests_with_fn,
        )
        rows.append(
            [project, str(tests), str(n_true), str(n_flaky),
             str(set_true), str(set_flaky),
             str(cm.tp), str(cm.fn), str(cm.fp), str(cm.tn)]
            + _metric_cells(metrics(cm))
            + [str(score.tests_with_tp), str(score.tests_with_fn)]
        )
    if rows:
        rows.append(
            ["total", str(sums["tests"]), str(sums["true"]), str(sums["flaky"]),
             str(sums["set_true"]), str(sums["set_flaky"]),
             str(total.tp), str(total.fn), str(total.fp), str(total.tn)]
            + _metric_cells(metrics(total))
            + [str(sums["tests_tp"]), str(sums["tests_fn"])]
        )
    return render_table(MATCHING_COLUMNS, rows)


def render_cv_table(
    result: CorpusCvResult, test_counts: dict[str, tuple[int, int, int]]
) -> str:
    """Table of per-project cross-validation totals plus an aggregate row.

    ``test_counts`` maps project name to (tests, flaky, true).
    """
    rows = []
    sums = Counter()
    for project in sorted(result.per_project):
        cv = result.per_project[project]
        tests, flaky, true = test_counts[project]
        sums.update(tests=tests, flaky=flaky, true=true)
        cm = cv.total
        rows.append(
            [project, str(tests), str(flaky), str(true),
             str(cm.tp), str(cm.fn), str(cm.fp), str(cm.tn)]
            + _metric_cells(cv.metrics)
        )
    if rows:
        cm = result.aggregate
        rows.append(
            ["total", str(sums["tests"]), str(sums["flaky"]), str(sums["true"]),
             str(cm.tp), str(cm.fn), str(cm.fp), str(cm.tn)]
            + _metric_cells(result.aggregate_metrics)
        )
    return render_table(CV_COLUMNS, rows)


def render_exceptions_table(rows: Sequence[ExceptionRow]) -> str:
    return render_table(
        EXCEPTION_COLUMNS,
        [
            [row.exception, str(row.projects), str(row.tests), str(row.failures),
             str(row.true), str(row.flaky),
             str(row.tp), str(row.fn), str(row.fp), str(row.tn)]
            for row in rows
        ],
    )


def render_repetitiveness_table(report: RepetitivenessReport) -> str:
    rows = []
    for project in sorted(report.per_project):
        stats = report.per_project[project]
        rows.append([project] + _repetitiveness_cells(stats))
    if rows:
        rows.append(["total"] + _repetitiveness_cells(report.total()))
    return render_table(REPETITIVENESS_COLUMNS, rows)


def _repetitiveness_cells(stats: ProjectRepetitiveness) -> list[str]:
    return [
        str(stats.tests), str(stats.flaky), str(stats.distinct),
        str(stats.uniq_per_test), str(stats.repet_per_test),
        str(stats.uniq_cross), str(stats.repet_cross),
    ]


def matching_record_json(project: str, score: ScoreResult) -> str:
    """One machine-readable line for a project's matching evaluation."""
    cm = score.matrix
    metric_set = metrics(cm)
    return json.dumps(
        {
            "project": project,
            "tp": cm.tp, "fn": cm.fn, "fp": cm.fp, "tn": cm.tn,
            "precision": metric_set.precision,
            "recall": metric_set.recall,
            "specificity": metric_set.specificity,
            "f1": metric_set.f1,
            "tests_tp": score.tests_with_tp,
            "tests_fn": score.tests_with_fn,
        },
        sort_keys=True,
    )


def cv_record_json(project: str, result: CvResult) -> list[str]:
    """Machine-readable lines for a project: one per fold plus a total."""
    lines = []
    for fold, cm in enumerate(result.folds):
        lines.append(
            json.dumps(
                {
                    "project": project, "fold": fold,
                    "held_out_flaky": result.fold_sizes[fold][0],
                    "held_out_true": result.fold_sizes[fold][1],
                    "tp": cm.tp, "fn": cm.fn, "fp": cm.fp, "tn": cm.tn,
                },
                sort_keys=True,
            )
        )
    cm = result.total
    metric_set = result.metrics
    lines.append(
        json.dumps(
            {
                "project": project, "fold": "total",
                "tp": cm.tp, "fn": cm.fn, "fp": cm.fp, "tn": cm.tn,
                "precision": metric_set.precision,
                "recall": metric_set.recall,
                "specificity": metric_set.specificity,
                "f1": metric_set.f1,
            },
            sort_keys=True,
        )
    )
    return lines
