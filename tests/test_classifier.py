"""Feature extraction, decision tree, naive Bayes, and oversampling."""
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaketriage.classifier import (
    FeatureVector,
    NaiveBayesModel,
    _Leaf,
    _Split,
    default_cut_prefixes,
    extract_features,
    oversample,
    tally,
    train_decision_tree,
    train_naive_bayes,
)
from flaketriage.errors import EmptyDataset
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


def test_feature_vector_is_the_plain_tuple_of_its_values():
    assert FeatureVector._fields == (
        "exception_type",
        "test_name_in_trace",
        "test_class_in_trace",
        "other_tests_in_trace",
        "junit_in_trace",
        "cut_in_trace",
    )
    vector = fv("E", test_class_in_trace=True, cut_in_trace=True)
    plain = ("E", False, True, False, False, True)
    assert vector == plain and hash(vector) == hash(plain)
    assert {plain: "seen"}[vector] == "seen"
    assert tuple(getattr(vector, name) for name in FeatureVector._fields) == plain


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


def oracle_default_cut_prefixes(tests):
    """The pairwise loop ``default_cut_prefixes`` replaced: shrink the first
    package to its common prefix with each further one."""
    packages = [t.class_fqn.split(".")[:-1] for t in tests]
    if not packages:
        return frozenset()
    common = packages[0]
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


def _random_tests(rng):
    """0-6 tests whose classes sit 0-4 packages deep, drawn from components
    that share string prefixes ("a", "ab"), so that packages of many shapes
    meet: the default package, nested, equal and disjoint ones."""
    tests = set()
    root = rng.choice(("org", "a", ""))
    for _ in range(rng.choice((0, 1, rng.randint(2, 6)))):
        depth = rng.randint(0, 4)
        package = [rng.choice(("a", "ab", "b", "org")) for _ in range(depth)]
        if package and root and rng.random() < 0.7:
            package[0] = root
        tests.add(TestId("p", ".".join(package + [rng.choice(("ATest", "BTest"))]), "m"))
    return tests


def test_default_cut_prefixes_matches_the_pairwise_oracle():
    cases = [
        set(),
        {TestId("p", "org.app.ATest", "m")},
        {TestId("p", "ATest", "m")},
        {TestId("p", "ATest", "m"), TestId("p", "org.app.BTest", "m")},
        {TestId("p", "x.ATest", "m"), TestId("p", "y.BTest", "m")},
        {TestId("p", "org.a.ATest", "m"), TestId("p", "org.ab.BTest", "m")},
    ]
    rng = random.Random(29)
    cases += [_random_tests(rng) for _ in range(20_000)]
    outcomes = Counter()
    for tests in cases:
        want = oracle_default_cut_prefixes(tests)
        # Iteration order must not matter: try the tests in two orders.
        ordered = sorted(tests, key=lambda t: t.class_fqn)
        assert default_cut_prefixes(ordered) == want
        assert default_cut_prefixes(ordered[::-1]) == want
        outcomes[len(tests) > 1, bool(want)] += 1
    # Sets of several tests both share a package and share none.
    assert outcomes[True, True] > 500 and outcomes[True, False] > 500


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
    assert model._root == _Split(
        0,
        "UnknownHostException",
        _Leaf(Label.FLAKY, 2, 0),
        _Leaf(Label.TRUE, 0, 2),
    )
    for features, label in _separable_data():
        assert model.predict(features) is label


def test_tree_unseen_category_follows_not_equal_branch():
    model = train_decision_tree(_separable_data())
    assert model.predict(fv("NeverSeenError")) is Label.TRUE


def test_tree_identical_vectors_mixed_labels_is_constant():
    data = [(fv(), Label.FLAKY), (fv(), Label.TRUE), (fv(), Label.TRUE)]
    model = train_decision_tree(data)
    assert model._root == _Leaf(Label.TRUE, 1, 2)
    assert model.predict(fv()) is Label.TRUE
    assert model.predict(fv("Other")) is Label.TRUE


def test_tree_tie_in_leaf_predicts_true():
    data = [(fv(), Label.FLAKY), (fv(), Label.TRUE)]
    assert train_decision_tree(data).predict(fv()) is Label.TRUE


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
    model = train_naive_bayes(data)
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


def test_bayes_rejects_empty_data():
    with pytest.raises(EmptyDataset):
        train_naive_bayes([])


@pytest.mark.parametrize("label", [Label.FLAKY, Label.TRUE])
def test_bayes_model_with_samples_of_one_label_predicts_that_label(label):
    exceptions = ("UnknownHostException", "UnknownHostException", "AssertionError")
    model = NaiveBayesModel(tally((fv(exception), label) for exception in exceptions))
    assert list(model._tables) == [label]
    for exception in ("UnknownHostException", "AssertionError", "anything"):
        assert model.predict(fv(exception)) is label


# --- oversampling ----------------------------------------------------------------


def test_oversample_scales_minority_to_threshold():
    data = [(fv(str(i)), Label.FLAKY) for i in range(5)]
    data += [(fv(f"t{i}"), Label.TRUE) for i in range(1000)]
    balanced = oversample(data, seed=1)
    flaky = [s for s in balanced if s[1] is Label.FLAKY]
    true = [s for s in balanced if s[1] is Label.TRUE]
    assert len(true) == 1000
    assert len(flaky) == 100  # the fewest that reach 10%


def test_oversample_leaves_balanced_data_unchanged():
    data = [(fv(str(i)), Label.FLAKY) for i in range(400)]
    data += [(fv(f"t{i}"), Label.TRUE) for i in range(600)]
    assert oversample(data, seed=1) == data


def test_oversample_is_deterministic():
    data = [(fv("a"), Label.FLAKY), (fv("b"), Label.FLAKY)]
    data += [(fv(f"t{i}"), Label.TRUE) for i in range(50)]
    assert oversample(data, seed=9) == oversample(data, seed=9) != data


def test_oversample_preserves_originals_and_adds_only_copies():
    data = [(fv("a"), Label.FLAKY), (fv("b"), Label.FLAKY)]
    data += [(fv(f"t{i}"), Label.TRUE) for i in range(60)]
    balanced = oversample(data, seed=3)
    assert len(balanced) == len(data) + 4
    assert balanced[: len(data)] == data
    originals = {s for s in data if s[1] is Label.FLAKY}
    assert all(extra in originals for extra in balanced[len(data):])


def test_oversample_single_class_is_a_no_op():
    data = [(fv("a"), Label.FLAKY)]
    assert oversample(data) == data


# --- tree shape ------------------------------------------------------------------


def _leaves(node):
    if isinstance(node, _Leaf):
        return [node]
    return _leaves(node.match) + _leaves(node.other)


@pytest.mark.parametrize("seed", range(5))
def test_tree_leaves_count_every_training_sample_once(seed):
    data = _random_consistent_dataset(random.Random(seed))
    leaves = _leaves(train_decision_tree(data)._root)
    n_flaky = sum(1 for _, label in data if label is Label.FLAKY)
    assert sum(leaf.n_flaky for leaf in leaves) == n_flaky
    assert sum(leaf.n_true for leaf in leaves) == len(data) - n_flaky
    # Consistent data ends in pure leaves, each predicting its own samples.
    assert all(not (leaf.n_flaky and leaf.n_true) for leaf in leaves)
