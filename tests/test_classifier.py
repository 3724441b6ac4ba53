"""Feature extraction, decision tree, naive Bayes, and oversampling."""
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaketriage.classifier import (
    FeatureVector,
    default_cut_prefixes,
    extract_features,
    load_model,
    oversample,
    predict,
    save_model,
    train_decision_tree,
    train_naive_bayes,
)
from flaketriage.errors import EmptyDataset, FlakeTriageError, ModelFormatError
from flaketriage.ingest import normalize, parse_failure_text
from flaketriage.model import Label, TestId

from conftest import frame, record


def fv(exception="E", **flags):
    defaults = dict(
        test_name_in_trace=False,
        test_class_in_trace=False,
        other_tests_in_trace=False,
        junit_in_trace=False,
        cut_in_trace=False,
    )
    defaults.update(flags)
    return FeatureVector(exception, **defaults)


# --- feature extraction -------------------------------------------------------


def test_extract_features_alluxio(alluxio_logs, alluxio_test):
    rec = parse_failure_text(alluxio_logs[0], alluxio_test)
    features = extract_features(
        normalize(rec), {alluxio_test}, cut_prefixes={"tachyon."}
    )
    assert features == FeatureVector(
        exception_type="UnknownHostException",
        test_name_in_trace=False,
        test_class_in_trace=True,
        other_tests_in_trace=False,
        junit_in_trace=False,
        cut_in_trace=True,
    )


def test_extract_features_empty_trace_is_all_false():
    test = TestId("p", "a.MyTest", "m")
    features = extract_features(normalize(record(test)), {test}, cut_prefixes={"a."})
    assert features == fv("AssertionError")


def test_extract_features_own_test_frame():
    test = TestId("p", "a.b.MyTest", "testFoo")
    rec = record(test, frames=(frame("a.b.MyTest", "testFoo", "MyTest.java", 5),))
    features = extract_features(normalize(rec), {test}, cut_prefixes={"a.b."})
    assert features.test_name_in_trace
    assert features.test_class_in_trace
    assert not features.cut_in_trace  # test classes are excluded from CUT


def test_extract_features_other_tests_and_junit():
    test = TestId("p", "a.MyTest", "m")
    other = TestId("p", "a.OtherTest", "n")
    rec = record(
        test,
        frames=(
            frame("org.junit.Assert", "assertTrue", "Assert.java", 9),
            frame("a.OtherTest", "n", "OtherTest.java", 4),
        ),
    )
    features = extract_features(normalize(rec), {test, other}, cut_prefixes={"a."})
    assert features.other_tests_in_trace
    assert features.junit_in_trace


def test_default_cut_prefixes_is_common_test_package():
    tests = {
        TestId("p", "org.app.core.ATest", "m"),
        TestId("p", "org.app.io.BTest", "m"),
    }
    assert default_cut_prefixes(tests) == frozenset({"org.app."})
    assert default_cut_prefixes(set()) == frozenset()
    disjoint = {TestId("p", "x.ATest", "m"), TestId("p", "y.BTest", "m")}
    assert default_cut_prefixes(disjoint) == frozenset()


@given(st.data())
@settings(max_examples=150)
def test_test_name_implies_test_class(data):
    test = TestId("p", "a.b.MyTest", "testFoo")
    frames = []
    for _ in range(data.draw(st.integers(0, 4))):
        cls = data.draw(
            st.sampled_from(["a.b.MyTest", "a.b.Lib", "org.junit.Assert", "a.b.MyTest$Inner"])
        )
        method = data.draw(st.sampled_from(["testFoo", "call", "setUp"]))
        frames.append(frame(cls, method, "F.java", data.draw(st.integers(1, 9))))
    features = extract_features(
        normalize(record(test, frames=tuple(frames))), {test}, cut_prefixes={"a.b."}
    )
    if features.test_name_in_trace:
        assert features.test_class_in_trace


# --- decision tree --------------------------------------------------------------


def _separable_data():
    return [
        (fv("UnknownHostException"), Label.FLAKY),
        (fv("UnknownHostException", cut_in_trace=True), Label.FLAKY),
        (fv("AssertionError"), Label.TRUE),
        (fv("NullPointerException", test_class_in_trace=True), Label.TRUE),
    ]


def test_tree_single_split_on_separating_exception():
    model = train_decision_tree(_separable_data())
    assert model.training_summary["depth"] == 1
    for features, label in _separable_data():
        assert model.predict(features) is label


def test_tree_unseen_category_follows_not_equal_branch():
    model = train_decision_tree(_separable_data())
    assert model.predict(fv("NeverSeenError")) is Label.TRUE


def test_tree_identical_vectors_mixed_labels_is_constant():
    data = [(fv(), Label.FLAKY), (fv(), Label.TRUE), (fv(), Label.TRUE)]
    model = train_decision_tree(data)
    assert model.training_summary["depth"] == 0
    assert model.predict(fv()) is Label.TRUE
    assert model.predict(fv("Other")) is Label.TRUE


def test_tree_tie_in_leaf_predicts_true():
    data = [(fv(), Label.FLAKY), (fv(), Label.TRUE)]
    assert train_decision_tree(data).predict(fv()) is Label.TRUE


def test_tree_respects_max_depth_and_min_leaf():
    data = _separable_data()
    stump = train_decision_tree(data, max_depth=0)
    assert stump.training_summary["depth"] == 0
    wide = train_decision_tree(data, min_leaf=3)
    assert wide.training_summary["depth"] == 0  # no split can keep 3 per side


def test_tree_learns_xor_shape_exactly():
    # No single split reduces impurity here; the tree must still separate.
    data = [
        (fv("A"), Label.FLAKY),
        (fv("A", junit_in_trace=True), Label.TRUE),
        (fv("B"), Label.TRUE),
        (fv("B", junit_in_trace=True), Label.FLAKY),
    ]
    model = train_decision_tree(data)
    for features, label in data:
        assert model.predict(features) is label


def _random_consistent_dataset(rng):
    exceptions = ["E0", "E1", "E2"]
    rule_bits = [rng.random() < 0.5 for _ in range(8)]

    def label_of(features):
        index = (
            exceptions.index(features.exception_type) % 2 * 4
            + features.junit_in_trace * 2
            + features.cut_in_trace
        )
        return Label.FLAKY if rule_bits[index] else Label.TRUE

    data = []
    for _ in range(rng.randint(1, 64)):
        features = fv(
            rng.choice(exceptions),
            test_name_in_trace=False,
            test_class_in_trace=rng.random() < 0.5,
            other_tests_in_trace=rng.random() < 0.5,
            junit_in_trace=rng.random() < 0.5,
            cut_in_trace=rng.random() < 0.5,
        )
        data.append((features, label_of(features)))
    return data


@pytest.mark.parametrize("seed", range(25))
def test_tree_reaches_full_training_accuracy_on_consistent_data(seed):
    data = _random_consistent_dataset(random.Random(seed))
    model = train_decision_tree(data)
    assert all(model.predict(features) is label for features, label in data)


def test_tree_predictions_are_order_invariant():
    rng = random.Random(7)
    data = _random_consistent_dataset(rng)
    model_a = train_decision_tree(data)
    shuffled = list(data)
    rng.shuffle(shuffled)
    model_b = train_decision_tree(shuffled)
    probes = [features for features, _ in data] + [fv("Unseen"), fv("E0", cut_in_trace=True)]
    for features in probes:
        assert model_a.predict(features) is model_b.predict(features)


def test_tree_rejects_empty_dataset():
    with pytest.raises(EmptyDataset):
        train_decision_tree([])


# --- naive bayes -----------------------------------------------------------------


def test_bayes_single_class_predicts_that_class():
    model = train_naive_bayes([(fv(), Label.FLAKY), (fv("X"), Label.FLAKY)])
    assert model.predict(fv("anything")) is Label.FLAKY


def test_bayes_hand_computed_four_samples():
    # Two flaky UnknownHostException and two true NullPointerException
    # samples, booleans all false, smoothing 1. For the flaky class the
    # exception likelihood is (2+1)/(2+2) vs (0+1)/(2+2) for true; every
    # boolean contributes (2+1)/(2+2) to both classes, and priors are equal,
    # so the exception term decides both predictions.
    data = [
        (fv("UnknownHostException"), Label.FLAKY),
        (fv("UnknownHostException"), Label.FLAKY),
        (fv("NullPointerException"), Label.TRUE),
        (fv("NullPointerException"), Label.TRUE),
    ]
    model = train_naive_bayes(data, smoothing=1.0)
    assert model.predict(fv("UnknownHostException")) is Label.FLAKY
    assert model.predict(fv("NullPointerException")) is Label.TRUE
    expected_gap = math.log(3 / 4) - math.log(1 / 4)
    flaky = model._score(Label.FLAKY, fv("UnknownHostException"))
    true = model._score(Label.TRUE, fv("UnknownHostException"))
    assert flaky - true == pytest.approx(expected_gap, abs=1e-12)


def test_bayes_tie_predicts_true():
    data = [(fv(), Label.FLAKY), (fv(), Label.TRUE)]
    model = train_naive_bayes(data)
    assert model.predict(fv()) is Label.TRUE


def test_bayes_unseen_category_gets_smoothed_likelihood():
    model = train_naive_bayes(_separable_data())
    assert model.predict(fv("NeverSeenError")) in (Label.FLAKY, Label.TRUE)


def test_bayes_rejects_empty_and_bad_smoothing():
    with pytest.raises(EmptyDataset):
        train_naive_bayes([])
    with pytest.raises(ValueError):
        train_naive_bayes([(fv(), Label.FLAKY)], smoothing=0)


# --- oversampling ----------------------------------------------------------------


def test_oversample_scales_minority_to_threshold():
    data = [(fv(str(i)), Label.FLAKY) for i in range(5)]
    data += [(fv(f"t{i}"), Label.TRUE) for i in range(1000)]
    balanced = oversample(data, threshold=0.10, seed=1)
    flaky = [s for s in balanced if s[1] is Label.FLAKY]
    true = [s for s in balanced if s[1] is Label.TRUE]
    assert len(true) == 1000
    assert len(flaky) >= 100
    assert len(flaky) / len(true) >= 0.10


def test_oversample_leaves_balanced_data_unchanged():
    data = [(fv(str(i)), Label.FLAKY) for i in range(400)]
    data += [(fv(f"t{i}"), Label.TRUE) for i in range(600)]
    assert oversample(data, threshold=0.10, seed=1) == data


def test_oversample_is_deterministic():
    data = [(fv("a"), Label.FLAKY)] + [(fv(f"t{i}"), Label.TRUE) for i in range(50)]
    assert oversample(data, seed=9) == oversample(data, seed=9)


def test_oversample_preserves_originals_and_adds_only_copies():
    data = [(fv("a"), Label.FLAKY), (fv("b"), Label.FLAKY)]
    data += [(fv(f"t{i}"), Label.TRUE) for i in range(60)]
    balanced = oversample(data, threshold=0.25, seed=3)
    assert balanced[: len(data)] == data
    originals = {s for s in data if s[1] is Label.FLAKY}
    assert all(extra in originals for extra in balanced[len(data):])


def test_oversample_single_class_is_a_no_op():
    data = [(fv("a"), Label.FLAKY)]
    assert oversample(data) == data


# --- shared prediction surface -----------------------------------------------------


def test_predict_delegates_to_models():
    tree = train_decision_tree(_separable_data())
    bayes = train_naive_bayes(_separable_data())
    sample = fv("UnknownHostException")
    assert predict(tree, sample) is tree.predict(sample)
    assert predict(bayes, sample) is bayes.predict(sample)


def test_models_have_training_summaries():
    tree = train_decision_tree(_separable_data())
    bayes = train_naive_bayes(_separable_data(), smoothing=0.5)
    assert tree.training_summary["n_samples"] == 4
    assert tree.training_summary["n_flaky"] == 2
    assert "depth" in tree.training_summary
    assert bayes.training_summary["smoothing"] == 0.5


@pytest.mark.parametrize("kind", ["tree", "bayes"])
def test_model_serialization_round_trips_predictions(kind):
    data = _random_consistent_dataset(random.Random(11))
    model = (
        train_decision_tree(data) if kind == "tree" else train_naive_bayes(data)
    )
    restored = load_model(save_model(model))
    assert restored.kind == model.kind
    probes = [features for features, _ in data]
    probes += [
        fv(e, junit_in_trace=j, cut_in_trace=c)
        for e, j, c in itertools.product(["E0", "E9"], [False, True], [False, True])
    ]
    for features in probes:
        assert restored.predict(features) is model.predict(features)


def test_load_model_rejects_foreign_documents():
    with pytest.raises(ValueError):
        load_model('{"format": "something-else", "version": 1}')


_HEADER = '"format": "failure-log-classifier", "version": 1'


@pytest.mark.parametrize(
    "text",
    [
        "{",  # not JSON
        "[]",  # JSON, but not an object
        '"tree"',
        "{" + _HEADER + "}",  # no kind
        "{" + _HEADER + ', "kind": "decision_tree"}',  # no tree
        "{" + _HEADER + ', "kind": "decision_tree", "training_summary": {},'
        ' "tree": {"leaf": {"label": "maybe", "n_flaky": 0, "n_true": 0}}}',
        "{" + _HEADER + ', "kind": "decision_tree", "training_summary": {},'
        ' "tree": 3}',
        "{" + _HEADER + ', "kind": "naive_bayes", "class_counts": []}',
        "{" + _HEADER + ', "kind": "random_forest"}',
        '{"format": "failure-log-classifier", "version": 2, "kind": "naive_bayes"}',
        '{"format": "something-else", "version": 1}',
    ],
)
def test_load_model_raises_only_model_format_errors(text):
    with pytest.raises(ModelFormatError) as info:
        load_model(text)
    assert isinstance(info.value, FlakeTriageError)


def _mutated(kind, change):
    data = _random_consistent_dataset(random.Random(11))
    model = train_decision_tree(data) if kind == "tree" else train_naive_bayes(data)
    document = json.loads(save_model(model))
    change(document)
    return json.dumps(document)


@pytest.mark.parametrize(
    "kind, change",
    [
        pytest.param(
            "bayes", lambda d: d["value_counts"].pop("cut_in_trace"),
            id="bayes-feature-missing",
        ),
        pytest.param(
            "bayes", lambda d: d["categories"].pop("exception_type"),
            id="bayes-categories-missing",
        ),
        pytest.param(
            "bayes", lambda d: d.update(class_counts={"flaky": 0, "true": 0}),
            id="bayes-no-samples",
        ),
        pytest.param(
            "bayes", lambda d: d.update(class_counts={"flaky": 5, "true": -5}),
            id="bayes-negative-count",
        ),
        pytest.param("bayes", lambda d: d.update(smoothing=0), id="bayes-smoothing-0"),
        pytest.param(
            "bayes", lambda d: d.update(smoothing="1"), id="bayes-smoothing-string"
        ),
        pytest.param(
            "tree", lambda d: d["tree"]["split"].update(feature="colour"),
            id="tree-unknown-feature",
        ),
        pytest.param(
            "tree",
            lambda d: d["tree"]["split"].update(feature="junit_in_trace", category="E1"),
            id="tree-boolean-with-category",
        ),
        pytest.param(
            "tree",
            lambda d: d["tree"]["split"].update(feature="exception_type", category=None),
            id="tree-exception-without-category",
        ),
    ],
)
def test_load_model_rejects_incomplete_documents(kind, change):
    with pytest.raises(ModelFormatError):
        load_model(_mutated(kind, change))


def test_load_model_keeps_a_one_label_bayes_model():
    text = _mutated("bayes", lambda d: d.update(class_counts={"flaky": 3, "true": 0}))
    assert load_model(text).predict(fv("anything")) is Label.FLAKY
