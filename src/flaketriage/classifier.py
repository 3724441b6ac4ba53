"""Log-feature extraction and the two small classifiers trained on it.

Six features are read off a failure log: the exception type plus five
booleans about what the stack trace references (the test itself, its class,
other tests, the test framework, and production code). Both classifiers
break every prediction tie toward "true", because predicting flaky
suppresses a failure and a tie must never suppress.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence, TypeVar, Union

from .errors import EmptyDataset
from .ingest import NormalizedFailure
from .model import KnownTests, Label, TestId

# A frame of one of these packages references the test framework.
FRAMEWORK_PREFIXES = ("org.junit.", "junit.")
# The additive smoothing of naive Bayes likelihoods (Laplace).
SMOOTHING = 1.0

# Field order doubles as the split tie-breaking order in the decision tree.
_FEATURES = (
    "exception_type",
    "test_name_in_trace",
    "test_class_in_trace",
    "other_tests_in_trace",
    "junit_in_trace",
    "cut_in_trace",
)

Sample = tuple["FeatureVector", Label]
_K = TypeVar("_K", bound=Hashable)


@dataclass(frozen=True)
class FeatureVector:
    """The six log features of one failure."""

    exception_type: str
    test_name_in_trace: bool
    test_class_in_trace: bool
    other_tests_in_trace: bool
    junit_in_trace: bool
    cut_in_trace: bool


def default_cut_prefixes(tests: Iterable[TestId]) -> frozenset[str]:
    """Longest common package prefix of the given test classes.

    Used when no explicit code-under-test prefixes are configured; the test
    classes themselves are excluded from the CUT check separately.
    """
    packages = [t.class_fqn.split(".")[:-1] for t in tests]
    if not packages:
        return frozenset()
    common: list[str] = packages[0]
    for package in packages[1:]:
        limit = 0
        for a, b in zip(common, package):
            if a != b:
                break
            limit += 1
        common = common[:limit]
    if not common:
        return frozenset()
    return frozenset({".".join(common) + "."})


class FeatureContext:
    """Everything feature extraction needs besides the failure itself.

    Built once per set of known tests and code-under-test prefixes, then
    applied to any number of failures; see :func:`extract_features` for the
    meaning of each part. :meth:`features` walks a failure's kept frames
    once, setting the five booleans together.
    """

    def __init__(self, known: KnownTests, cut_prefixes: Iterable[str]) -> None:
        self.known = known
        self.cut_prefixes = tuple(cut_prefixes)

    def features(self, nf: NormalizedFailure) -> FeatureVector:
        test = nf.base.test
        full_name, test_class = test.full_name(), test.class_fqn
        excluded = self.known.name_to_exclude(test)
        prefixes, known_classes = self.known.prefixes, self.known.classes
        cut_prefixes = self.cut_prefixes
        name = klass = others = junit = cut = False
        for frame in nf.kept_frames:
            line, class_fqn = frame.rendered, frame.class_fqn
            # Each test stops being evaluated once it is true, as any() would.
            name = name or line.startswith(full_name)
            klass = klass or test_class in line
            others = others or prefixes(line, excluded)
            junit = junit or class_fqn.startswith(FRAMEWORK_PREFIXES)
            cut = cut or (
                class_fqn not in known_classes
                and class_fqn != test_class
                and class_fqn.startswith(cut_prefixes)
            )
        return FeatureVector(nf.base.exception_type, name, klass, others, junit, cut)


def extract_features(
    nf: NormalizedFailure,
    known_tests: Iterable[TestId],
    cut_prefixes: Iterable[str] | None = None,
) -> FeatureVector:
    """Read the six features off a normalized failure.

    ``known_tests`` is the universe of test names of the same project (it
    feeds the other-tests feature and excludes test classes from the CUT
    check). ``cut_prefixes`` defaults to the longest common package prefix of
    the known test classes. To extract many failures against the same tests,
    build one :class:`FeatureContext` instead.
    """
    known = KnownTests(known_tests)
    if cut_prefixes is None:
        cut_prefixes = default_cut_prefixes(known.tests | {nf.base.test})
    return FeatureContext(known, cut_prefixes).features(nf)


# --- decision tree ---------------------------------------------------------


@dataclass(frozen=True)
class _Leaf:
    label: Label
    n_flaky: int
    n_true: int


@dataclass(frozen=True)
class _Split:
    # category is the equality-tested exception value, or None when the
    # split is on the boolean feature named by `feature`.
    feature: str
    category: str | None
    match: Union["_Split", _Leaf]
    other: Union["_Split", _Leaf]


def _gini(n_flaky: int, n_true: int) -> float:
    n = n_flaky + n_true
    if n == 0:
        return 0.0
    pf = n_flaky / n
    pt = n_true / n
    return 1.0 - pf * pf - pt * pt


def _matches_split(fv: FeatureVector, feature: str, category: str | None) -> bool:
    if category is not None:
        return fv.exception_type == category
    return bool(getattr(fv, feature))


def tally(data: Iterable[tuple[_K, Label]]) -> dict[_K, list[int]]:
    """Per distinct key of the samples, in first-seen order, its numbers of
    flaky and true samples."""
    counts: dict[_K, list[int]] = {}
    for key, label in data:
        counts.setdefault(key, [0, 0])[label is not Label.FLAKY] += 1
    return counts


def _groups(tallies: dict[FeatureVector, list[int]]) -> list[tuple[tuple, int, int]]:
    """Per distinct feature vector: its values in _FEATURES order, and its
    numbers of flaky and true samples."""
    return [
        (tuple(getattr(fv, f) for f in _FEATURES), *pair)
        for fv, pair in tallies.items()
    ]


def _grow(groups: list[tuple[tuple, int, int]]) -> _Split | _Leaf:
    n_flaky = sum(g[1] for g in groups)
    n_true = sum(g[2] for g in groups)
    leaf = _Leaf(Label.FLAKY if n_flaky > n_true else Label.TRUE, n_flaky, n_true)
    if n_flaky == 0 or n_true == 0:
        return leaf

    parent = _gini(n_flaky, n_true)
    n = n_flaky + n_true
    # A candidate sends the groups whose value at `position` equals `value`
    # to the match branch: exception values in lexicographic order first,
    # then the boolean features in field order. Strict > keeps the earliest
    # candidate on ties; one that leaves a side without samples is skipped.
    candidates = [(0, value) for value in sorted({key[0] for key, _, _ in groups})]
    candidates += [(position, True) for position in range(1, len(_FEATURES))]
    best: tuple[int, object] | None = None
    best_gain = -1.0
    for position, value in candidates:
        m_flaky = sum(f for key, f, _ in groups if key[position] == value)
        m_true = sum(t for key, _, t in groups if key[position] == value)
        m = m_flaky + m_true
        if m == 0 or m == n:
            continue
        weighted = (
            m * _gini(m_flaky, m_true)
            + (n - m) * _gini(n_flaky - m_flaky, n_true - m_true)
        ) / n
        gain = parent - weighted
        if gain > best_gain:
            best_gain = gain
            best = (position, value)
    if best is None:
        return leaf  # all vectors identical
    position, value = best
    match = [g for g in groups if g[0][position] == value]
    other = [g for g in groups if g[0][position] != value]
    return _Split(
        _FEATURES[position],
        value if position == 0 else None,
        _grow(match),
        _grow(other),
    )


class DecisionTreeModel:
    """Greedy binary tree over the six features, split by Gini reduction.

    An impure node whose vectors still differ is always split (even at zero
    gain) and depth is unlimited, so a consistent training set is classified
    perfectly. Unseen exception values follow the not-equal branches.
    """

    def __init__(self, root: _Split | _Leaf) -> None:
        self._root = root

    def predict(self, fv: FeatureVector) -> Label:
        node = self._root
        while isinstance(node, _Split):
            node = (
                node.match
                if _matches_split(fv, node.feature, node.category)
                else node.other
            )
        return node.label


def train_decision_tree(data: Sequence[Sample]) -> DecisionTreeModel:
    """Train a decision tree; leaves predict the majority label, ties true."""
    if not data:
        raise EmptyDataset("cannot train a decision tree on no samples")
    return fit_decision_tree(tally(data))


def fit_decision_tree(tallies: dict[FeatureVector, list[int]]) -> DecisionTreeModel:
    """:func:`train_decision_tree` on the samples that :func:`tally` gave
    ``tallies``."""
    return DecisionTreeModel(_grow(_groups(tallies)))


# --- naive bayes -----------------------------------------------------------


class NaiveBayesModel:
    """Categorical naive Bayes with additive smoothing (:data:`SMOOTHING`)
    over the six features.

    Likelihoods use the categories observed in training; a value never seen
    for a feature contributes the smoothed zero-count likelihood. The log
    prior and log likelihoods are tabled once, per label with samples.
    """

    def __init__(
        self,
        class_counts: dict[Label, int],
        value_counts: dict[str, dict[Label, dict[str, int]]],
        categories: dict[str, tuple[str, ...]],
    ) -> None:
        total = sum(class_counts.values())
        # Per label: its log prior, and per feature the log likelihood of
        # each value seen under the label and that of any other value.
        self._tables: dict[Label, tuple[float, list]] = {}
        for label, n_label in class_counts.items():
            if n_label:
                likelihoods = []
                for feature in _FEATURES:
                    denominator = n_label + SMOOTHING * len(categories[feature])
                    seen = value_counts[feature][label].items()
                    likelihoods.append((feature, {
                        value: math.log((count + SMOOTHING) / denominator)
                        for value, count in seen
                    }, math.log(SMOOTHING / denominator)))
                self._tables[label] = (math.log(n_label / total), likelihoods)

    def _score(self, label: Label, fv: FeatureVector) -> float:
        score, likelihoods = self._tables[label]
        for feature, seen, unseen in likelihoods:
            score += seen.get(str(getattr(fv, feature)), unseen)
        return score

    def predict(self, fv: FeatureVector) -> Label:
        if len(self._tables) == 1:
            return next(iter(self._tables))
        flaky = self._score(Label.FLAKY, fv)
        true = self._score(Label.TRUE, fv)
        return Label.FLAKY if flaky > true else Label.TRUE


def train_naive_bayes(data: Sequence[Sample]) -> NaiveBayesModel:
    if not data:
        raise EmptyDataset("cannot train naive Bayes on no samples")
    return fit_naive_bayes(tally(data))


def fit_naive_bayes(tallies: dict[FeatureVector, list[int]]) -> NaiveBayesModel:
    """:func:`train_naive_bayes` on the samples that :func:`tally` gave
    ``tallies``."""
    class_counts = {Label.FLAKY: 0, Label.TRUE: 0}
    value_counts: dict[str, dict[Label, dict[str, int]]] = {
        feature: {Label.FLAKY: {}, Label.TRUE: {}} for feature in _FEATURES
    }
    for key, *pair in _groups(tallies):
        for label, n in zip((Label.FLAKY, Label.TRUE), pair):
            if n:
                class_counts[label] += n
                for feature, value in zip(_FEATURES, map(str, key)):
                    counts = value_counts[feature][label]
                    counts[value] = counts.get(value, 0) + n
    categories = {
        feature: tuple(sorted({v for counts in per_label.values() for v in counts}))
        for feature, per_label in value_counts.items()
    }
    return NaiveBayesModel(class_counts, value_counts, categories)


TrainedModel = Union[DecisionTreeModel, NaiveBayesModel]


# The minority/majority ratio that oversampling raises the data to.
OVERSAMPLE_THRESHOLD = 0.10


def oversample(
    data: Sequence[tuple[_K, Label]], seed: int = 0
) -> list[tuple[_K, Label]]:
    """Duplicate minority samples until minority/majority reaches
    :data:`OVERSAMPLE_THRESHOLD`.

    Resampling is uniform over the original minority samples and seeded, so
    the result is deterministic; the original samples are never removed or
    changed. Data already above the threshold comes back unchanged.
    """
    out = list(data)
    counts = Counter(label for _, label in data)
    if len(counts) < 2:
        return out
    minority, n_minority = min(counts.items(), key=lambda kv: (kv[1], kv[0].value))
    n_majority = max(counts.values())
    if n_minority / n_majority >= OVERSAMPLE_THRESHOLD:
        return out
    pool = [sample for sample in data if sample[1] is minority]
    needed = math.ceil(OVERSAMPLE_THRESHOLD * n_majority) - n_minority
    rng = random.Random(seed)
    out.extend(pool[rng.randrange(len(pool))] for _ in range(needed))
    return out
