"""Confusion-matrix accounting, metrics, cross-validation, and report tables.

Scoring follows the conservative triage rule throughout: a flaky failure
counts as a true positive only when it matches at least one other flaky
failure and no true failure; everything else makes it a false negative. A
failure is never compared against itself.
"""
from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

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
from .ingest import normalize
from .matching import (
    MatchMode,
    MatchScope,
    ProjectIndex,
    ProjectRepetitiveness,
    RepetitivenessReport,
    project_index,
)
from .model import Corpus, FailureRecord, KnownTests, Label, TestId
from .tfidf import classify_nn

MIN_FLAKY_FOR_CV = 10
DEFAULT_FOLDS = 5

Predictor = Callable[[FailureRecord], Label]
Trainer = Callable[[Sequence[FailureRecord]], Predictor]


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


def _record_outcomes(
    index: ProjectIndex, mode: MatchMode, scope: MatchScope
) -> list[str]:
    """The outcome of each of the index's records, in record order.

    Outcome is "tp"/"fn" for flaky records and "fp"/"tn" for true records,
    scored against all other records in scope with the record itself
    excluded.
    """
    outcomes = [""] * len(index.records)
    groups = index.groups(mode, scope).values()
    for positions, flaky in zip(groups, index.flaky_counts(mode, scope)):
        true = len(positions) - flaky
        for i in positions:
            if index.records[i].label is Label.FLAKY:
                outcomes[i] = "tp" if flaky > 1 and not true else "fn"
            else:
                outcomes[i] = "fp" if flaky else "tn"
    return outcomes


def score_project(
    corpus: Corpus,
    project: str,
    mode: MatchMode = MatchMode.FULL,
    scope: MatchScope = MatchScope.PER_TEST,
) -> ScoreResult:
    """Score every labeled failure of one project against the rest of its scope."""
    index = project_index(corpus, project)
    outcomes = _record_outcomes(index, mode, scope)
    counts = Counter(outcomes)
    # Per outcome, the number of tests with at least one record of it.
    tests = Counter(o for _, o in set(zip((r.test for r in index.records), outcomes)))
    matrix = ConfusionMatrix(
        counts["tp"], counts["fn"], counts["fp"], counts["tn"]
    )
    return ScoreResult(matrix, tests["tp"], tests["fn"])


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
    index = project_index(corpus, project)
    groups = index.groups(MatchMode.FULL, MatchScope.PER_TEST).values()
    flaky = index.flaky_counts(MatchMode.FULL, MatchScope.PER_TEST)
    return sum(map(bool, flaky)), sum(n < len(g) for n, g in zip(flaky, groups))


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
    counters: dict[str, Counter[str]] = {}
    for project in corpus.project_names():
        index = project_index(corpus, project)
        outcomes = _record_outcomes(index, mode, MatchScope.PER_TEST)
        for record, outcome in zip(index.records, outcomes):
            exception_type = record.exception_type
            projects.setdefault(exception_type, set()).add(project)
            tests.setdefault(exception_type, set()).add(record.test)
            counter = counters.setdefault(exception_type, Counter())
            counter[record.label.value] += 1
            counter[outcome] += 1
    rows = [
        ExceptionRow(
            exception=name,
            projects=len(projects[name]),
            tests=len(tests[name]),
            failures=counter["flaky"] + counter["true"],
            true=counter["true"],
            flaky=counter["flaky"],
            tp=counter["tp"],
            fn=counter["fn"],
            fp=counter["fp"],
            tn=counter["tn"],
        )
        for name, counter in counters.items()
    ]
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
    flaky: Sequence[FailureRecord],
    true: Sequence[FailureRecord],
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
            record
            for i in range(k)
            if i != held_out
            for record in flaky_folds[i] + true_folds[i]
        ]
        predictor = trainer(training)
        tp = fn = fp = tn = 0
        for record in flaky_folds[held_out] + true_folds[held_out]:
            predicted = predictor(record)
            if record.label is Label.FLAKY:
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
        flaky = list(corpus.records(project, Label.FLAKY))
        true = list(corpus.records(project, Label.TRUE))
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
    """Exact-matching strategy: predict flaky iff only flaky records match.

    Equivalent to running triage() against the training records, but the
    training signatures are indexed once per fold.
    """

    def train(records: Sequence[FailureRecord]) -> Predictor:
        index = ProjectIndex(records)
        flaky_only = {
            key
            for key, positions in index.groups(mode, scope).items()
            if all(index.records[i].label is Label.FLAKY for i in positions)
        }

        def predictor(record: FailureRecord) -> Label:
            key = index.key(normalize(record), mode, scope)
            return Label.FLAKY if key in flaky_only else Label.TRUE

        return predictor

    return train


def feature_trainer(
    fit: Callable[[list[Sample]], TrainedModel],
    oversampled: bool = False,
    seed: int = 0,
    index: ProjectIndex | None = None,
) -> Trainer:
    """Strategy of the six-feature classifiers: ``fit`` a model to the
    training records' features, with :func:`oversample` under ``seed`` when
    ``oversampled`` is set, and predict with it.

    Features depend only on the record, the known tests and the CUT
    prefixes, and the prefixes follow from the known tests; so the trainer
    extracts a record's features at most once per set of known tests it is
    trained on. In k-fold that is once per record whenever every fold's
    training records span all tests. A record of ``index`` is not
    normalized again: its normalized failure is read from the index.
    """
    # By record identity (hashing a record by value costs more than the
    # lookup saves): the index's normalized failures, and per set of known
    # tests its context and the features extracted under it. Each entry
    # keeps its record alive, so ids stay unique.
    normalized = {} if index is None else {id(nf.base): nf for nf in index.normalized}
    contexts: dict[
        frozenset[TestId],
        tuple[FeatureContext, dict[int, tuple[FailureRecord, FeatureVector]]],
    ] = {}

    def train(records: Sequence[FailureRecord]) -> Predictor:
        known = frozenset(r.test for r in records)
        if known not in contexts:
            context = FeatureContext(KnownTests(known), default_cut_prefixes(known))
            contexts[known] = (context, {})
        context, extracted = contexts[known]

        def features(record: FailureRecord) -> FeatureVector:
            entry = extracted.get(id(record))
            if entry is None:
                nf = normalized.get(id(record)) or normalize(record)
                entry = extracted[id(record)] = (record, context.features(nf))
            return entry[1]

        data = [(features(r), r.label) for r in records]
        if oversampled:
            data = oversample(data, seed)
        model = fit(data)
        return lambda record: model.predict(features(record))

    return train


def tree_trainer(
    oversampled: bool = False, seed: int = 0, index: ProjectIndex | None = None
) -> Trainer:
    return feature_trainer(train_decision_tree, oversampled, seed, index)


def bayes_trainer(
    oversampled: bool = False, seed: int = 0, index: ProjectIndex | None = None
) -> Trainer:
    return feature_trainer(train_naive_bayes, oversampled, seed, index)


def tfidf_trainer() -> Trainer:
    def train(records: Sequence[FailureRecord]) -> Predictor:
        history = Corpus()
        history.add_all(records)

        def predictor(record: FailureRecord) -> Label:
            return classify_nn(record, history).predicted

        return predictor

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
