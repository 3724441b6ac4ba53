"""Acceptance suite: one test per acceptance criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import dataclasses
import functools
import json
import random
import time

from flaketriage.classifier import FeatureVector, train_decision_tree
from flaketriage.cli import main
from flaketriage.evaluation import (
    ConfusionMatrix,
    cross_validate_project,
    match_trainer,
    metrics,
    score_matching,
    stratified_cv,
    tree_trainer,
)
from flaketriage.ingest import normalize, parse_failure_text, read_corpus_xml, write_corpus_xml
from flaketriage.matching import (
    MatchMode,
    MatchScope,
    TriageBasis,
    matches,
    repetitiveness,
    signature,
    triage,
)
from flaketriage.model import Corpus, Label, TestId
from flaketriage.synth import CountDistribution, ExceptionSpec, GeneratorConfig, generate
from flaketriage.tfidf import TokenDocument, classify_nn, cosine, idf, tf, tokenize_line

from conftest import (
    ALLUXIO_MESSAGE_1,
    ALLUXIO_MESSAGE_2,
    alluxio_raw_log,
    frame,
    random_corpus,
    record,
    reverse_project_order,
)

ALLUXIO_TEST = TestId("alluxio", "tachyon.JournalTest", "TableTest")


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL — {description}")
                raise
            print(f"criterion {number} PASS — {description}")

        return wrapper

    return decorate


# --- criterion 1: metric arithmetic on 22 reference project rows ----------------

# (project, tp, fn, fp, tn, precision%, recall%, specificity%): reference
# per-project matching results; percentages reproduced within +/-1 point.
REFERENCE_ROWS = [
    ("Alluxio-alluxio", 9173, 7685, 1933, 30862, 82, 54, 94),
    ("square-okhttp", 16517, 9969, 107, 33842, 99, 62, 99),
    ("apache-ambari", 4003, 60, 5, 11040, 99, 98, 99),
    ("hector-client-hector", 1382, 5147, 12, 3591, 99, 21, 99),
    ("activiti-activiti", 932, 431, 2272, 42665, 29, 68, 94),
    ("tootallnate-java-websocket", 596, 1547, 531, 585, 52, 27, 52),
    ("apache-httpcore", 0, 354, 2096, 5925, 0, 0, 73),
    ("apache-hbase", 1209, 1310, 162, 423, 88, 47, 72),
    ("qos-ch-logback", 56, 382, 368, 2246, 13, 12, 85),
    ("kevinsawicki.http-request", 981, 2520, 40, 347, 96, 28, 89),
    ("wildfly-wildfly", 38, 12, 0, 4364, 100, 76, 100),
    ("wro4j-wro4j", 800, 10033, 29, 511, 96, 7, 94),
    ("spring-projects-spring-boot", 2, 12, 0, 2150, 100, 14, 100),
    ("undertow-io-undertow", 8, 84, 943, 1363, 0, 8, 59),
    ("orbit-orbit", 87, 2856, 57, 755, 60, 2, 92),
    ("elasticjob-elastic-job-lite", 4, 3, 0, 111, 100, 57, 100),
    ("doanduyhai-Achilles", 120, 1, 6, 148, 95, 99, 96),
    ("jknack-handlebars.java", 0, 411, 16, 131, 0, 0, 89),
    ("zxing-zxing", 322, 0, 0, 76, 100, 100, 100),
    ("joel-costigliola-assertj-core", 974, 0, 0, 18, 100, 100, 100),
    ("apache-commons-exec", 0, 33, 2, 57, 0, 0, 96),
    ("ninjaframework-ninja", 0, 476, 8, 112, 0, 0, 93),
]


@criterion(1, "metric arithmetic matches all 22 reference rows within 1 point")
def test_criterion_1_metric_arithmetic():
    assert len(REFERENCE_ROWS) == 22
    started = time.perf_counter()
    for project, tp, fn, fp, tn, p_pct, r_pct, sp_pct in REFERENCE_ROWS:
        m = metrics(ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn))
        for value, expected in ((m.precision, p_pct), (m.recall, r_pct), (m.specificity, sp_pct)):
            assert value is not None, project
            assert abs(100 * value - expected) <= 1.0, (
                f"{project}: got {100 * value:.2f}%, expected {expected}%"
            )
    assert time.perf_counter() - started < 1.0


# --- criterion 2: reference failure pair, exact ---------------------------------


@criterion(2, "reference failure pair: equal signatures, flaky triage, exact tokens")
def test_criterion_2_reference_pair():
    first = parse_failure_text(alluxio_raw_log(ALLUXIO_MESSAGE_1), ALLUXIO_TEST)
    second = parse_failure_text(alluxio_raw_log(ALLUXIO_MESSAGE_2), ALLUXIO_TEST)
    assert first.message != second.message
    sig_first = signature(normalize(first))
    sig_second = signature(normalize(second))
    assert sig_first == sig_second
    assert matches(sig_first, sig_second)

    history = Corpus()
    history.add(dataclasses.replace(first, label=Label.FLAKY))
    verdict = triage(normalize(second), history)
    assert verdict.predicted is Label.FLAKY
    assert verdict.basis is TriageBasis.MATCHED_FLAKY_ONLY

    assert tokenize_line("tachyon.JournalTest.before(JournalTest.java:33)") == [
        "tachyon", "JournalTest", "before", "JournalTest", "java", "33",
    ]


# --- criterion 3: brute-force oracle equivalence on 100 seeded corpora ----------


def _pairwise_score(corpus, mode, scope):
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
                if matches(sig_i, sig_j):
                    if label_j is Label.FLAKY:
                        hit_flaky = True
                    else:
                        hit_true = True
            if label_i is Label.FLAKY:
                if hit_flaky and not hit_true:
                    tp += 1
                else:
                    fn += 1
            elif hit_flaky:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp, fn, fp, tn)


def _pairwise_repetitiveness(corpus, project):
    known = frozenset(corpus.tests(project))
    entries = [
        (test, rec)
        for test in corpus.tests(project)
        for rec in corpus.bucket(test, Label.FLAKY)
    ]
    uniq_per_test = uniq_cross = 0
    per_test_sigs = [signature(normalize(rec)) for _, rec in entries]
    cross_sigs = [
        signature(normalize(rec), MatchMode.FULL, MatchScope.CROSS_TEST, known)
        for _, rec in entries
    ]
    for i, (test_i, _) in enumerate(entries):
        per_test_hit = cross_hit = False
        for j, (test_j, _) in enumerate(entries):
            if i == j:
                continue
            if test_i == test_j and matches(per_test_sigs[i], per_test_sigs[j]):
                per_test_hit = True
            if matches(cross_sigs[i], cross_sigs[j]):
                cross_hit = True
        uniq_per_test += not per_test_hit
        uniq_cross += not cross_hit
    return len(entries), uniq_per_test, uniq_cross


@criterion(3, "matching scores and repetitiveness match an O(n^2) oracle on 100 corpora")
def test_criterion_3_brute_force_equivalence():
    checked = 0
    for seed in range(100):
        size = 500 if seed % 20 == 0 else 60 + (seed * 11) % 380
        corpus = random_corpus(seed, max_records=size)
        assert corpus.count() <= 500
        for scope in (MatchScope.PER_TEST, MatchScope.CROSS_TEST):
            fast = score_matching(corpus, MatchMode.FULL, scope).matrix
            assert fast == _pairwise_score(corpus, MatchMode.FULL, scope), (seed, scope)
        report = repetitiveness(corpus)
        for project in corpus.project_names():
            flaky, uniq_per_test, uniq_cross = _pairwise_repetitiveness(corpus, project)
            if flaky == 0:
                assert project not in report.per_project
                continue
            stats = report.per_project[project]
            assert stats.flaky == flaky
            assert stats.uniq_per_test == uniq_per_test
            assert stats.repet_per_test == flaky - uniq_per_test
            assert stats.uniq_cross == uniq_cross
            assert stats.repet_cross == flaky - uniq_cross
        checked += 1
    assert checked == 100


# --- criterion 4: triage/scoring outcome enumeration -----------------------------


@criterion(4, "all four match-combination outcomes follow the confusion definitions")
def test_criterion_4_outcome_enumeration():
    test = TestId("p", "a.T", "m")
    probe_frames = (frame("a.X", "f", "X.java", 1),)
    probe = record(test, "E", "probe", probe_frames)
    flaky_twin = record(test, "E", "twin-f", probe_frames, Label.FLAKY)
    true_twin = record(test, "E", "twin-t", probe_frames, Label.TRUE)
    filler_flaky = record(test, "Other", "filler", (), Label.FLAKY)

    expected = {
        (False, False): (Label.TRUE, TriageBasis.MATCHED_NONE),
        (True, False): (Label.FLAKY, TriageBasis.MATCHED_FLAKY_ONLY),
        (False, True): (Label.TRUE, TriageBasis.MATCHED_TRUE),
        (True, True): (Label.TRUE, TriageBasis.MATCHED_BOTH),
    }
    for has_flaky, has_true in expected:
        history = Corpus()
        history.add(filler_flaky)
        if has_flaky:
            history.add(flaky_twin)
        if has_true:
            history.add(true_twin)
        verdict = triage(normalize(probe), history)
        assert (verdict.predicted, verdict.basis) == expected[(has_flaky, has_true)]

    # The same four combinations drive the per-record scoring assignment:
    # a flaky probe is TP only in the flaky-only cell, FN elsewhere; a true
    # probe is FP exactly when some flaky record matches it.
    for has_flaky, has_true in expected:
        corpus = Corpus()
        corpus.add(filler_flaky)
        corpus.add(dataclasses.replace(probe, label=Label.FLAKY))
        if has_flaky:
            corpus.add(flaky_twin)
        if has_true:
            corpus.add(true_twin)
        cm = score_matching(corpus).matrix
        probe_is_tp = has_flaky and not has_true
        assert cm.tp >= 1 if probe_is_tp else cm.fn >= 1

        corpus = Corpus()
        corpus.add(filler_flaky)
        corpus.add(dataclasses.replace(probe, label=Label.TRUE))
        if has_flaky:
            corpus.add(flaky_twin)
        if has_true:
            corpus.add(true_twin)
        cm = score_matching(corpus).matrix
        if has_flaky:
            assert cm.fp >= 1
        else:
            assert cm.fp == 0


# --- criterion 5: term-weighting properties ---------------------------------------


def _random_nn_case(seed):
    rng = random.Random(seed)
    frames_pool = [
        frame(f"a.C{i}", f"m{j}", "C.java", rng.randint(1, 9))
        for i in range(3)
        for j in range(2)
    ]
    exceptions = ["E1", "E2", "E3"]

    def rnd_record(method):
        stack = tuple(rng.choice(frames_pool) for _ in range(rng.randint(0, 3)))
        return record(TestId("p", "a.T", method), rng.choice(exceptions), frames=stack)

    history = Corpus()
    for i in range(rng.randint(1, 6)):
        history.add(
            dataclasses.replace(
                rnd_record(f"h{i}"), label=rng.choice((Label.FLAKY, Label.TRUE))
            )
        )
    return rnd_record("query"), history


@criterion(5, "tf sums to 1, idf floors at 0, cosine self-similarity 1, base-free verdicts")
def test_criterion_5_tfidf_properties():
    rng = random.Random(99)
    for _ in range(200):
        tokens = tuple(rng.choice("abcdef") for _ in range(rng.randint(1, 12)))
        doc = TokenDocument("d", tokens)
        assert abs(sum(tf(t, doc) for t in set(tokens)) - 1.0) <= 1e-12

    corpus_docs = [
        TokenDocument(str(i), ("always", f"w{i % 3}")) for i in range(6)
    ]
    assert idf("always", corpus_docs) == 0.0
    for term in {"w0", "w1", "w2"}:
        assert idf(term, corpus_docs) >= 0.0

    for seed in range(50):
        rng = random.Random(seed)
        vector = {
            f"t{i}": rng.uniform(0.01, 5.0) for i in range(rng.randint(1, 8))
        }
        assert abs(cosine(vector, vector) - 1.0) <= 1e-12

    flipped = 0
    for seed in range(1000):
        query, history = _random_nn_case(seed)
        natural = classify_nn(query, history)
        for base in (2.0, 10.0):
            other = classify_nn(query, history, log_base=base)
            if (other.predicted, other.basis) != (natural.predicted, natural.basis):
                flipped += 1
    assert flipped == 0


# --- criterion 6: classifier properties --------------------------------------------


def _consistent_dataset(rng):
    exceptions = ["E0", "E1", "E2", "E3"]
    bits = [rng.random() < 0.5 for _ in range(16)]

    def label_of(fv):
        index = (
            exceptions.index(fv.exception_type) % 2 * 8
            + fv.test_class_in_trace * 4
            + fv.junit_in_trace * 2
            + fv.cut_in_trace
        )
        return Label.FLAKY if bits[index] else Label.TRUE

    data = []
    for _ in range(rng.randint(1, 256)):
        fv = FeatureVector(
            exception_type=rng.choice(exceptions),
            test_name_in_trace=False,
            test_class_in_trace=rng.random() < 0.5,
            other_tests_in_trace=rng.random() < 0.5,
            junit_in_trace=rng.random() < 0.5,
            cut_in_trace=rng.random() < 0.5,
        )
        data.append((fv, label_of(fv)))
    return data


def _disjoint_pool_config(seed):
    return GeneratorConfig(
        seed=seed,
        projects=3,
        tests_per_project=CountDistribution.constant(3),
        flaky_signatures_per_test=CountDistribution.constant(2),
        flaky_occurrences_per_signature=CountDistribution.constant(12),
        true_failures_per_test=CountDistribution.constant(8),
        exception_pool=(
            ExceptionSpec("UnknownHostException", 2.0),
            ExceptionSpec("SocketTimeoutException", 1.0),
            ExceptionSpec("MutationAssertionError", 1.0, only_label=Label.TRUE),
            ExceptionSpec("MutationStateError", 1.0, only_label=Label.TRUE),
        ),
        volatile_message_tokens=True,
    )


@criterion(6, "tree fits consistent data exactly; separable CV reaches F1 >= 0.99")
def test_criterion_6_classifier_properties():
    for seed in range(1000):
        data = _consistent_dataset(random.Random(seed))
        assert len(data) <= 256
        model = train_decision_tree(data)
        assert all(model.predict(fv) is label for fv, label in data), seed

    for seed in (1, 2):
        corpus = generate(_disjoint_pool_config(seed))
        for trainer in (tree_trainer(), match_trainer()):
            result = stratified_cv(corpus, 5, trainer, seed=seed)
            assert result.skipped == {}
            f1 = result.aggregate_metrics.f1
            assert f1 is not None and f1 >= 0.99
            for cv in result.per_project.values():
                assert all(n_flaky >= 1 for n_flaky, _ in cv.fold_sizes)

    # Exactly k flaky failures still puts one in every fold.
    test = TestId("p", "a.T", "m")
    flaky = [record(test, "E", str(i), (), Label.FLAKY) for i in range(5)]
    true = [record(test, "F", str(i), (), Label.TRUE) for i in range(9)]
    result = cross_validate_project(flaky, true, 5, match_trainer(), seed=0)
    assert all(n_flaky == 1 for n_flaky, _ in result.fold_sizes)


# --- criterion 7: round-trip and idempotence ----------------------------------------


@criterion(7, "XML round-trip identity and idempotent normalization on 100 corpora")
def test_criterion_7_round_trip():
    for seed in range(100):
        config = GeneratorConfig(
            seed=seed,
            projects=1 + seed % 3,
            tests_per_project=CountDistribution.uniform(1, 3),
            flaky_signatures_per_test=CountDistribution.uniform(0, 2),
            flaky_occurrences_per_signature=CountDistribution.geometric(0.5),
            true_failures_per_test=CountDistribution.uniform(0, 3),
            exception_pool=(
                ExceptionSpec("UnknownHostException", 1.0),
                ExceptionSpec("AssertionError", 1.0, shared_across_labels=True),
                ExceptionSpec("MutantError", 1.0, only_label=Label.TRUE),
            ),
            volatile_message_tokens=bool(seed % 2),
            frame_depth=(0, 6),
        )
        corpus = generate(config)
        assert read_corpus_xml(write_corpus_xml(corpus)) == corpus
        for rec in corpus.records():
            once = normalize(rec)
            again = normalize(
                record(rec.test, rec.exception_type, rec.message, once.kept_frames)
            )
            assert again.kept_frames == once.kept_frames
            assert again.truncation_basis in type(once.truncation_basis)


# --- criterion 8: CLI determinism -----------------------------------------------------


@criterion(8, "evaluate and generate are byte-identical across runs and project orders")
def test_criterion_8_determinism(tmp_path, capsys):
    config = {
        "seed": 11,
        "projects": 2,
        "tests_per_project": {"constant": 3},
        "flaky_signatures_per_test": {"constant": 2},
        "flaky_occurrences_per_signature": {"constant": 7},
        "true_failures_per_test": {"constant": 5},
        "exception_pool": [
            {"name": "UnknownHostException", "weight": 2.0},
            {"name": "AssertionError", "weight": 1.0, "shared_across_labels": True},
            {"name": "MutantError", "weight": 1.0, "only_label": "true"},
        ],
        "volatile_message_tokens": True,
        "frame_depth": [2, 6],
    }
    config_path = tmp_path / "gen.json"
    config_path.write_text(json.dumps(config))

    outputs = []
    for name in ("a.xml", "b.xml"):
        out_path = tmp_path / name
        assert main(["generate", "--config", str(config_path), "--out", str(out_path)]) == 0
        capsys.readouterr()
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]

    corpus_path = tmp_path / "a.xml"
    reversed_path = tmp_path / "reversed.xml"
    reversed_path.write_bytes(reverse_project_order(outputs[0]))
    assert reversed_path.read_bytes() != outputs[0]
    for method in (
        ("match",),
        ("match", "--scope", "cross-test"),
        ("tree",),
        ("bayes",),
        ("tfidf",),
    ):
        texts = []
        for path in (corpus_path, corpus_path, reversed_path):
            cv_flags = () if method[0] == "match" else ("--k", "3", "--seed", "5")
            assert main([
                "evaluate", "--corpus", str(path), "--method", *method, *cv_flags,
            ]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == texts[2], method
