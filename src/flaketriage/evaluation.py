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
from dataclasses import asdict, astuple, dataclass, fields
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
    RepetitivenessReport,
    TriageBasis,
    project_index,
)
from .model import Corpus, FailureRecord, KnownTests, Label, TestId
from .tfidf import TfidfIndex, tokenize

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
        cells = astuple(_confusion(counter))
        flaky, true = sum(cells[:2]), sum(cells[2:])  # tp + fn, fp + tn
        rows.append(ExceptionRow(
            name, len(projects[name]), len(tests[name]), flaky + true, true, flaky, *cells
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
        return sum(self.folds, ConfusionMatrix())

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
    """Seeded stratified k-fold evaluation of one project's flaky and true
    failures.

    Each label class is shuffled once and dealt round-robin to the k folds,
    so fold sizes within a class differ by at most one and every fold holds
    at least one flaky failure whenever there are at least k of them. A class
    of fewer than k failures is an error that names the failures' project.
    """
    first = [*flaky[:1], *true[:1]]
    where = f"project {first[0].base.test.project!r}: " if first else ""
    if len(flaky) < k:
        raise InsufficientFlaky(f"{where}{len(flaky)} flaky failures but k={k}")
    if len(true) < k:
        raise InsufficientTrue(f"{where}{len(true)} true failures but k={k}")
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
        held_flaky, held_true = flaky_folds[held_out], true_folds[held_out]
        flaky_flagged = sum(predictor(nf) is Label.FLAKY for nf in held_flaky)
        true_flagged = sum(predictor(nf) is Label.FLAKY for nf in held_true)
        fold_matrices.append(ConfusionMatrix(
            flaky_flagged, len(held_flaky) - flaky_flagged,
            true_flagged, len(held_true) - true_flagged,
        ))
        fold_sizes.append((len(held_flaky), len(held_true)))
    return CvResult(tuple(fold_matrices), tuple(fold_sizes))


@dataclass(frozen=True)
class CorpusCvResult:
    per_project: dict[str, CvResult]
    skipped: dict[str, str]

    @property
    def aggregate(self) -> ConfusionMatrix:
        totals = (result.total for result in self.per_project.values())
        return sum(totals, ConfusionMatrix())

    @property
    def aggregate_metrics(self) -> MetricSet:
        return metrics(self.aggregate)


def labeled_failures(corpus: Corpus, project: str) -> tuple[list[NormalizedFailure], ...]:
    """A project's flaky and true normalized failures, in its index's order."""
    normalized = project_index(corpus, project).normalized
    labels = (Label.FLAKY, Label.TRUE)
    return tuple([nf for nf in normalized if nf.base.label is label] for label in labels)


def cv_failures(
    corpus: Corpus, project: str, skipped: dict[str, str]
) -> tuple[list[NormalizedFailure], ...] | None:
    """A project's flaky and true failures to cross-validate, as
    :func:`labeled_failures` gives them.

    A project with fewer than :data:`MIN_FLAKY_FOR_CV` flaky failures is not
    cross-validated: it gets None, and ``skipped`` says why under its name.
    """
    flaky, true = labeled_failures(corpus, project)
    if len(flaky) < MIN_FLAKY_FOR_CV:
        skipped[project] = f"fewer than {MIN_FLAKY_FOR_CV} flaky failures ({len(flaky)})"
        return None
    return flaky, true


def stratified_cv(
    corpus: Corpus,
    k: int,
    trainer: Trainer,
    seed: int = 0,
) -> CorpusCvResult:
    """Cross-validate every project of a corpus independently.

    Projects :func:`cv_failures` skips get a diagnostic instead of being
    evaluated. Each project is seeded with the same ``seed``, so per-project
    results do not depend on evaluation order.
    """
    per_project: dict[str, CvResult] = {}
    skipped: dict[str, str] = {}
    for project in corpus.project_names():
        if failures := cv_failures(corpus, project, skipped):
            per_project[project] = cross_validate_project(*failures, k, trainer, seed)
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
    train_model: Callable[[Sequence[Sample]], TrainedModel],
    oversampled: bool = False,
    seed: int = 0,
) -> Trainer:
    """Strategy of the six-feature classifiers: ``train_model`` on the
    training failures' features and labels, with :func:`oversample` under
    ``seed`` when ``oversampled`` is set, and predict with it.

    Features depend only on the normalized failure, the known tests and the
    CUT prefixes, and the prefixes follow from the known tests; so the
    trainer extracts a failure's features at most once per set of known
    tests it is trained on. In k-fold that is once per failure whenever every
    fold's training failures span all tests. A predictor predicts each
    distinct vector once.
    """
    # Per set of known tests: its context, and each failure's (failure,
    # vector) by the failure's identity (hashing a failure by value costs
    # more than the lookup saves). Each entry keeps its failure alive, so
    # ids stay unique.
    known_sets: dict[frozenset[TestId], tuple[FeatureContext, dict]] = {}

    def train(normalized: Sequence[NormalizedFailure]) -> Predictor:
        known = frozenset(nf.base.test for nf in normalized)
        if known not in known_sets:
            context = FeatureContext(KnownTests(known), default_cut_prefixes(known))
            known_sets[known] = (context, {})
        context, extracted = known_sets[known]

        def features(nf: NormalizedFailure) -> FeatureVector:
            entry = extracted.get(id(nf))
            if entry is None:
                entry = extracted[id(nf)] = (nf, context.features(nf))
            return entry[1]

        data = [(features(nf), nf.base.label) for nf in normalized]
        model = train_model(oversample(data, seed) if oversampled else data)
        predictions: dict[FeatureVector, Label] = {}

        def predictor(nf: NormalizedFailure) -> Label:
            fv = features(nf)
            if fv not in predictions:
                predictions[fv] = model.predict(fv)
            return predictions[fv]

        return predictor

    return train


def tree_trainer(oversampled: bool = False, seed: int = 0) -> Trainer:
    return feature_trainer(train_decision_tree, oversampled, seed)


def bayes_trainer(oversampled: bool = False, seed: int = 0) -> Trainer:
    return feature_trainer(train_naive_bayes, oversampled, seed)


def tfidf_trainer() -> Trainer:
    """Nearest-neighbour strategy: predict the label that
    :func:`~flaketriage.tfidf.classify_nn` gives against the training failures.

    Each fold's :class:`TfidfIndex` is built straight from its failures, under
    the record ids a corpus of them would give (:attr:`ProjectIndex.ids`). A
    predictor answers each distinct token document once, since a query's
    tokens alone decide its verdict.
    """

    def train(normalized: Sequence[NormalizedFailure]) -> Predictor:
        fold = ProjectIndex(normalized)
        index = TfidfIndex(zip(fold.ids, fold.records))
        predictions: dict[tuple[str, ...], Label] = {}

        def predictor(nf: NormalizedFailure) -> Label:
            document = tokenize(nf.base, "query")
            if document.tokens not in predictions:
                predictions[document.tokens] = index.classify_document(document).predicted
            return predictions[document.tokens]

        return predictor

    return train


# --- report rendering ---------------------------------------------------------

_CELLS = tuple(f.name for f in fields(ConfusionMatrix))
_METRICS = tuple(f.name for f in fields(MetricSet))
MATCHING_COLUMNS = (
    "project", "tests", "true", "flaky", "set_true", "set_flaky",
    *_CELLS, *_METRICS, "tests_tp", "tests_fn",
)
CV_COLUMNS = ("project", "tests", "flaky", "true", *_CELLS, *_METRICS)
EXCEPTION_COLUMNS = (
    "exception", "projects", "tests", "failures", "true", "flaky", *_CELLS,
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


def _report_table(
    headers: Sequence[str],
    per_project: dict[str, tuple[tuple[int, ...], ConfusionMatrix, tuple[int, ...]]],
) -> str:
    """Rows of projects in name order and, under any, a total row that sums
    each column. A project's ``(counts, matrix, more_counts)`` fill its row:
    the counts, the matrix's cells and metrics, then the more counts.
    """
    rows = [(project, *per_project[project]) for project in sorted(per_project)]
    if rows:
        _, counts, matrices, more_counts = zip(*rows)
        rows.append((
            "total", tuple(map(sum, zip(*counts))), sum(matrices, ConfusionMatrix()),
            tuple(map(sum, zip(*more_counts))),
        ))
    return render_table(headers, [
        [name, *map(str, counts + astuple(cm)),
         *map(format_metric, astuple(metrics(cm))), *map(str, more_counts)]
        for name, counts, cm, more_counts in rows
    ])


def render_matching_table(
    per_project: dict[str, tuple[ScoreResult, int, int, int, int, int]]
) -> str:
    """Table of per-project matching results plus a total row.

    Each project maps to (score, tests, true, flaky, set_true, set_flaky),
    where the set counts are distinct per-test full signatures per label.
    """
    return _report_table(MATCHING_COLUMNS, {
        project: (tuple(counts), score.matrix, (score.tests_with_tp, score.tests_with_fn))
        for project, (score, *counts) in per_project.items()
    })


def render_cv_table(
    per_project: dict[str, CvResult], test_counts: dict[str, tuple[int, int, int]]
) -> str:
    """Table of per-project cross-validation totals plus an aggregate row.

    ``test_counts`` maps project name to (tests, flaky, true).
    """
    return _report_table(CV_COLUMNS, {
        project: (tuple(test_counts[project]), cv.total, ())
        for project, cv in per_project.items()
    })


def render_exceptions_table(rows: Sequence[ExceptionRow]) -> str:
    return render_table(
        EXCEPTION_COLUMNS, [[row.exception, *map(str, astuple(row)[1:])] for row in rows]
    )


def render_repetitiveness_table(report: RepetitivenessReport) -> str:
    rows = sorted(report.per_project.items())
    if rows:
        rows.append(("total", report.total()))
    return render_table(
        REPETITIVENESS_COLUMNS, [[name, *map(str, astuple(stats))] for name, stats in rows]
    )


def matching_record_json(project: str, score: ScoreResult) -> str:
    """One machine-readable line for a project's matching evaluation."""
    return json.dumps(
        {
            "project": project, **asdict(score.matrix), **asdict(metrics(score.matrix)),
            "tests_tp": score.tests_with_tp, "tests_fn": score.tests_with_fn,
        },
        sort_keys=True,
    )


def cv_record_json(project: str, result: CvResult) -> list[str]:
    """Machine-readable lines for a project: one per fold plus a total."""
    lines = [
        json.dumps(
            {"project": project, "fold": fold, "held_out_flaky": flaky,
             "held_out_true": true, **asdict(cm)},
            sort_keys=True,
        )
        for fold, (cm, (flaky, true)) in enumerate(zip(result.folds, result.fold_sizes))
    ]
    total = {"project": project, "fold": "total", **asdict(result.total)}
    lines.append(json.dumps({**total, **asdict(result.metrics)}, sort_keys=True))
    return lines
