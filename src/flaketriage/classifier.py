"""Log-feature extraction and the two small classifiers trained on it.

Six features are read off a failure log: the exception type plus five
booleans about what the stack trace references (the test itself, its class,
other tests, the test framework, and production code). Both classifiers
break every prediction tie toward "true", because predicting flaky
suppresses a failure and a tie must never suppress.
"""
from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import EmptyDataset, ModelFormatError
from .ingest import NormalizedFailure
from .model import KnownTests, Label, TestId

DEFAULT_FRAMEWORK_PREFIXES = frozenset({"org.junit.", "junit."})

# Field order doubles as the split tie-breaking order in the decision tree.
_BOOLEAN_FEATURES = (
    "test_name_in_trace",
    "test_class_in_trace",
    "other_tests_in_trace",
    "junit_in_trace",
    "cut_in_trace",
)

Sample = tuple["FeatureVector", Label]


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
    meaning of each part.
    """

    def __init__(
        self,
        known: KnownTests,
        cut_prefixes: Iterable[str],
        framework_prefixes: Iterable[str] = DEFAULT_FRAMEWORK_PREFIXES,
    ) -> None:
        self.known = known
        self.cut_prefixes = tuple(cut_prefixes)
        self.framework_prefixes = tuple(framework_prefixes)

    def features(self, nf: NormalizedFailure) -> FeatureVector:
        test = nf.base.test
        full_name = test.full_name()
        excluded = self.known.name_to_exclude(test)
        known_classes = self.known.classes
        frames = nf.kept_frames
        lines = [f.render() for f in frames]
        return FeatureVector(
            exception_type=nf.base.exception_type,
            test_name_in_trace=any(line.startswith(full_name) for line in lines),
            test_class_in_trace=any(test.class_fqn in line for line in lines),
            other_tests_in_trace=any(
                self.known.prefixes(line, excluded) for line in lines
            ),
            junit_in_trace=any(
                f.class_fqn.startswith(self.framework_prefixes) for f in frames
            ),
            cut_in_trace=any(
                f.class_fqn not in known_classes
                and f.class_fqn != test.class_fqn
                and f.class_fqn.startswith(self.cut_prefixes)
                for f in frames
            ),
        )


def extract_features(
    nf: NormalizedFailure,
    known_tests: Iterable[TestId],
    cut_prefixes: Iterable[str] | None = None,
    framework_prefixes: Iterable[str] = DEFAULT_FRAMEWORK_PREFIXES,
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
    return FeatureContext(known, cut_prefixes, framework_prefixes).features(nf)


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


def _leaf(samples: Sequence[Sample]) -> _Leaf:
    n_flaky = sum(1 for _, y in samples if y is Label.FLAKY)
    n_true = len(samples) - n_flaky
    label = Label.FLAKY if n_flaky > n_true else Label.TRUE
    return _Leaf(label, n_flaky, n_true)


def _matches_split(fv: FeatureVector, feature: str, category: str | None) -> bool:
    if category is not None:
        return fv.exception_type == category
    return bool(getattr(fv, feature))


def _candidates(samples: Sequence[Sample]) -> list[tuple[str, str | None]]:
    out: list[tuple[str, str | None]] = [
        ("exception_type", value)
        for value in sorted({fv.exception_type for fv, _ in samples})
    ]
    out.extend((name, None) for name in _BOOLEAN_FEATURES)
    return out


def _grow(
    samples: list[Sample], depth: int, max_depth: int | None, min_leaf: int
) -> _Split | _Leaf:
    leaf = _leaf(samples)
    if leaf.n_flaky == 0 or leaf.n_true == 0:
        return leaf
    if max_depth is not None and depth >= max_depth:
        return leaf

    parent = _gini(leaf.n_flaky, leaf.n_true)
    n = len(samples)
    best: tuple[str, str | None, list[Sample], list[Sample]] | None = None
    best_gain = -1.0
    for feature, category in _candidates(samples):
        match = [s for s in samples if _matches_split(s[0], feature, category)]
        if len(match) < min_leaf or n - len(match) < min_leaf:
            continue
        other = [s for s in samples if not _matches_split(s[0], feature, category)]
        weighted = (
            len(match) * _gini(*_label_counts(match))
            + len(other) * _gini(*_label_counts(other))
        ) / n
        gain = parent - weighted
        # Strict > keeps the earliest candidate on ties: exception values in
        # lexicographic order first, then the boolean features in field order.
        if gain > best_gain:
            best_gain = gain
            best = (feature, category, match, other)
    if best is None:
        return leaf  # all vectors identical (or min_leaf forbids any split)
    feature, category, match, other = best
    return _Split(
        feature,
        category,
        _grow(match, depth + 1, max_depth, min_leaf),
        _grow(other, depth + 1, max_depth, min_leaf),
    )


def _label_counts(samples: Sequence[Sample]) -> tuple[int, int]:
    n_flaky = sum(1 for _, y in samples if y is Label.FLAKY)
    return n_flaky, len(samples) - n_flaky


def _depth(node: _Split | _Leaf) -> int:
    if isinstance(node, _Leaf):
        return 0
    return 1 + max(_depth(node.match), _depth(node.other))


class DecisionTreeModel:
    """Greedy binary tree over the six features, split by Gini reduction.

    An impure node whose vectors still differ is always split (even at zero
    gain), so a consistent training set is classified perfectly when depth is
    unlimited. Unseen exception values follow the not-equal branches.
    """

    kind = "decision_tree"

    def __init__(self, root: _Split | _Leaf, training_summary: dict) -> None:
        self._root = root
        self.training_summary = training_summary

    def predict(self, fv: FeatureVector) -> Label:
        node = self._root
        while isinstance(node, _Split):
            node = (
                node.match
                if _matches_split(fv, node.feature, node.category)
                else node.other
            )
        return node.label


def train_decision_tree(
    data: Sequence[Sample],
    max_depth: int | None = None,
    min_leaf: int = 1,
) -> DecisionTreeModel:
    """Train a decision tree; leaves predict the majority label, ties true."""
    if not data:
        raise EmptyDataset("cannot train a decision tree on no samples")
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    root = _grow(list(data), 0, max_depth, min_leaf)
    n_flaky, n_true = _label_counts(data)
    summary = {
        "n_samples": len(data),
        "n_flaky": n_flaky,
        "n_true": n_true,
        "depth": _depth(root),
    }
    return DecisionTreeModel(root, summary)


# --- naive bayes -----------------------------------------------------------


class NaiveBayesModel:
    """Categorical naive Bayes with additive smoothing over the six features.

    Likelihoods use the categories observed in training; a value never seen
    for a feature contributes the smoothed zero-count likelihood.
    """

    kind = "naive_bayes"

    def __init__(
        self,
        class_counts: dict[Label, int],
        value_counts: dict[str, dict[Label, dict[str, int]]],
        categories: dict[str, tuple[str, ...]],
        smoothing: float,
    ) -> None:
        self._class_counts = class_counts
        self._value_counts = value_counts
        self._categories = categories
        self._smoothing = smoothing
        total = sum(class_counts.values())
        self.training_summary = {
            "n_samples": total,
            "n_flaky": class_counts.get(Label.FLAKY, 0),
            "n_true": class_counts.get(Label.TRUE, 0),
            "smoothing": smoothing,
        }

    def _score(self, label: Label, fv: FeatureVector) -> float:
        n_label = self._class_counts[label]
        total = sum(self._class_counts.values())
        score = math.log(n_label / total)
        for feature in ("exception_type",) + _BOOLEAN_FEATURES:
            value = str(getattr(fv, feature))
            count = self._value_counts[feature][label].get(value, 0)
            k = len(self._categories[feature])
            score += math.log(
                (count + self._smoothing) / (n_label + self._smoothing * k)
            )
        return score

    def predict(self, fv: FeatureVector) -> Label:
        present = [label for label, n in self._class_counts.items() if n > 0]
        if len(present) == 1:
            return present[0]
        flaky = self._score(Label.FLAKY, fv)
        true = self._score(Label.TRUE, fv)
        return Label.FLAKY if flaky > true else Label.TRUE


def train_naive_bayes(
    data: Sequence[Sample], smoothing: float = 1.0
) -> NaiveBayesModel:
    if not data:
        raise EmptyDataset("cannot train naive Bayes on no samples")
    if smoothing <= 0:
        raise ValueError("smoothing must be positive")
    class_counts = {Label.FLAKY: 0, Label.TRUE: 0}
    value_counts: dict[str, dict[Label, dict[str, int]]] = {
        feature: {Label.FLAKY: {}, Label.TRUE: {}}
        for feature in ("exception_type",) + _BOOLEAN_FEATURES
    }
    observed: dict[str, set[str]] = {
        feature: set() for feature in ("exception_type",) + _BOOLEAN_FEATURES
    }
    for fv, label in data:
        class_counts[label] += 1
        for feature in ("exception_type",) + _BOOLEAN_FEATURES:
            value = str(getattr(fv, feature))
            counts = value_counts[feature][label]
            counts[value] = counts.get(value, 0) + 1
            observed[feature].add(value)
    categories = {
        feature: tuple(sorted(values)) for feature, values in observed.items()
    }
    return NaiveBayesModel(class_counts, value_counts, categories, smoothing)


TrainedModel = Union[DecisionTreeModel, NaiveBayesModel]


def predict(model: TrainedModel, fv: FeatureVector) -> Label:
    return model.predict(fv)


def oversample(
    data: Sequence[Sample], threshold: float = 0.10, seed: int = 0
) -> list[Sample]:
    """Duplicate minority samples until minority/majority reaches the threshold.

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
    if n_majority == 0 or n_minority / n_majority >= threshold:
        return out
    pool = [sample for sample in data if sample[1] is minority]
    needed = math.ceil(threshold * n_majority) - n_minority
    rng = random.Random(seed)
    out.extend(pool[rng.randrange(len(pool))] for _ in range(needed))
    return out


# --- model serialization ----------------------------------------------------

_MODEL_FORMAT = "failure-log-classifier"
_MODEL_VERSION = 1


def _node_to_dict(node: _Split | _Leaf) -> dict:
    if isinstance(node, _Leaf):
        return {
            "leaf": {
                "label": node.label.value,
                "n_flaky": node.n_flaky,
                "n_true": node.n_true,
            }
        }
    return {
        "split": {
            "feature": node.feature,
            "category": node.category,
            "match": _node_to_dict(node.match),
            "other": _node_to_dict(node.other),
        }
    }


def _node_from_dict(data: dict) -> _Split | _Leaf:
    if "leaf" in data:
        leaf = data["leaf"]
        return _Leaf(Label(leaf["label"]), leaf["n_flaky"], leaf["n_true"])
    split = data["split"]
    return _Split(
        split["feature"],
        split["category"],
        _node_from_dict(split["match"]),
        _node_from_dict(split["other"]),
    )


def save_model(model: TrainedModel) -> str:
    """Serialise a trained model to a versioned, self-describing JSON text."""
    payload: dict = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "kind": model.kind,
        "training_summary": dict(model.training_summary),
    }
    if isinstance(model, DecisionTreeModel):
        payload["tree"] = _node_to_dict(model._root)
    else:
        payload["class_counts"] = {
            label.value: n for label, n in model._class_counts.items()
        }
        payload["value_counts"] = {
            feature: {label.value: dict(counts) for label, counts in per_label.items()}
            for feature, per_label in model._value_counts.items()
        }
        payload["categories"] = {
            feature: list(values) for feature, values in model._categories.items()
        }
        payload["smoothing"] = model._smoothing
    return json.dumps(payload, indent=2, sort_keys=True)


def load_model(text: str) -> TrainedModel:
    """Read a model written by :func:`save_model`.

    Raises :class:`ModelFormatError` for any text that is not such a model.
    """
    try:
        return _model_from_payload(json.loads(text))
    except ModelFormatError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ModelFormatError(f"not a valid model document: {exc!r}") from exc


def _model_from_payload(payload: dict) -> TrainedModel:
    if payload.get("format") != _MODEL_FORMAT:
        raise ModelFormatError(f"not a {_MODEL_FORMAT} document")
    if payload.get("version") != _MODEL_VERSION:
        raise ModelFormatError(
            f"unsupported model version {payload.get('version')!r}"
        )
    if payload["kind"] == "decision_tree":
        return DecisionTreeModel(
            _node_from_dict(payload["tree"]), payload["training_summary"]
        )
    if payload["kind"] == "naive_bayes":
        class_counts = {
            Label(name): n for name, n in payload["class_counts"].items()
        }
        value_counts = {
            feature: {Label(name): dict(counts) for name, counts in per_label.items()}
            for feature, per_label in payload["value_counts"].items()
        }
        categories = {
            feature: tuple(values)
            for feature, values in payload["categories"].items()
        }
        return NaiveBayesModel(
            class_counts, value_counts, categories, payload["smoothing"]
        )
    raise ModelFormatError(f"unknown model kind {payload['kind']!r}")
