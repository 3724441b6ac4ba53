"""Log-feature extraction and the two small classifiers trained on it.

Six features are read off a failure log: the exception type plus five
booleans about what the stack trace references (the test itself, its class,
other tests, the test framework, and production code). Both classifiers
break every prediction tie toward "true", because predicting flaky
suppresses a failure and a tie must never suppress.
"""
from __future__ import annotations

import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple, Sequence, TypeVar, Union

from .errors import EmptyDataset
from .ingest import NormalizedFailure
from .model import KnownTests, Label, TestId

# A frame of one of these packages references the test framework.
FRAMEWORK_PREFIXES = ("org.junit.", "junit.")
# The additive smoothing of naive Bayes likelihoods (Laplace).
SMOOTHING = 1.0

Sample = tuple["FeatureVector", Label]
_K = TypeVar("_K", bound=Hashable)


class FeatureVector(NamedTuple):
    """The six log features of one failure.

    A vector equals and hashes as the plain tuple of its values, so models
    key on it as it stands.
    """

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
    common = os.path.commonprefix([t.class_fqn.split(".")[:-1] for t in tests])
    return frozenset({".".join(common) + "."}) if common else frozenset()


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
    check). ``cut_prefixes`` defaults to :func:`default_cut_prefixes` of the
    known tests plus the failure's own test. To extract many failures
    against the same tests, build one :class:`FeatureContext` instead; the
    per-fold context of cross-validation takes its prefixes from the fold's
    training tests alone.
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
    # A vector goes to `match` when its value at `position` equals `value`.
    position: int
    value: str | bool
    match: Union["_Split", _Leaf]
    other: Union["_Split", _Leaf]


def _gini(n_flaky: int, n_true: int) -> float:
    n = n_flaky + n_true
    if n == 0:
        return 0.0
    pf = n_flaky / n
    pt = n_true / n
    return 1.0 - pf * pf - pt * pt


def tally(data: Iterable[tuple[_K, Label]]) -> dict[_K, list[int]]:
    """Per distinct key of the samples, in first-seen order, its numbers of
    flaky and true samples."""
    counts: dict[_K, list[int]] = {}
    for key, label in data:
        counts.setdefault(key, [0, 0])[label is not Label.FLAKY] += 1
    return counts


def _grow(tallies: dict[FeatureVector, list[int]]) -> _Split | _Leaf:
    n_flaky = sum(f for f, _ in tallies.values())
    n_true = sum(t for _, t in tallies.values())
    leaf = _Leaf(Label.FLAKY if n_flaky > n_true else Label.TRUE, n_flaky, n_true)
    if n_flaky == 0 or n_true == 0:
        return leaf

    parent = _gini(n_flaky, n_true)
    n = n_flaky + n_true
    # A candidate sends the vectors whose value at `position` equals `value`
    # to the match branch: exception values in lexicographic order first,
    # then the boolean features in field order. Strict > keeps the earliest
    # candidate on ties; one that leaves a side without samples is skipped.
    candidates = [(0, value) for value in sorted({fv[0] for fv in tallies})]
    candidates += [(position, True) for position in range(1, len(FeatureVector._fields))]
    best: tuple[int, str | bool] | None = None
    best_gain = -1.0
    for position, value in candidates:
        m_flaky = sum(f for fv, (f, _) in tallies.items() if fv[position] == value)
        m_true = sum(t for fv, (_, t) in tallies.items() if fv[position] == value)
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
    match = {fv: pair for fv, pair in tallies.items() if fv[position] == value}
    other = {fv: pair for fv, pair in tallies.items() if fv[position] != value}
    return _Split(position, value, _grow(match), _grow(other))


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
            node = node.match if fv[node.position] == node.value else node.other
        return node.label


def train_decision_tree(data: Sequence[Sample]) -> DecisionTreeModel:
    """Train a decision tree; leaves predict the majority label, ties true."""
    if not data:
        raise EmptyDataset("cannot train a decision tree on no samples")
    return DecisionTreeModel(_grow(tally(data)))


# --- naive bayes -----------------------------------------------------------


class NaiveBayesModel:
    """Categorical naive Bayes with additive smoothing (:data:`SMOOTHING`)
    over the six features, built from the :func:`tally` of its samples.

    Likelihoods use the values observed at each vector position in
    training; a value never seen under a label contributes the smoothed
    zero-count likelihood. The log prior and log likelihoods are tabled
    once, per label with samples.
    """

    def __init__(self, tallies: dict[FeatureVector, list[int]]) -> None:
        n_values = [len(set(column)) for column in zip(*tallies)]
        total = sum(map(sum, tallies.values()))
        # Per label: its log prior, and per position the log likelihood of
        # each value seen under the label and that of any other value.
        self._tables: dict[Label, tuple[float, list]] = {}
        for side, label in enumerate((Label.FLAKY, Label.TRUE)):
            n_label = sum(pair[side] for pair in tallies.values())
            if not n_label:
                continue
            counts: list[Counter] = [Counter() for _ in n_values]
            for fv, pair in tallies.items():
                if pair[side]:
                    for seen, value in zip(counts, fv):
                        seen[value] += pair[side]
            likelihoods = []
            for seen, k in zip(counts, n_values):
                denominator = n_label + SMOOTHING * k
                likelihoods.append(({
                    value: math.log((count + SMOOTHING) / denominator)
                    for value, count in seen.items()
                }, math.log(SMOOTHING / denominator)))
            self._tables[label] = (math.log(n_label / total), likelihoods)

    def _score(self, label: Label, fv: FeatureVector) -> float:
        score, likelihoods = self._tables[label]
        for value, (seen, unseen) in zip(fv, likelihoods):
            score += seen.get(value, unseen)
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
    return NaiveBayesModel(tally(data))


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
