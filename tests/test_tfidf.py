"""Tokenization, term weighting, cosine, and nearest-neighbour triage."""
import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaketriage.errors import EmptyDocument, EmptyHistory, UnknownTerm
from flaketriage.matching import TriageBasis
from flaketriage.model import Corpus, Label, TestId
from flaketriage.synth import GeneratorConfig, generate
from flaketriage.tfidf import (
    TokenDocument,
    classify_nn,
    cosine,
    idf,
    tf,
    tokenize,
    tokenize_line,
    vectorize,
)

from conftest import frame, random_corpus, record


def doc(*tokens, failure_id="d"):
    return TokenDocument(failure_id, tokens)


# --- tokenization ---------------------------------------------------------------


def test_tokenize_line_reference_frame():
    assert tokenize_line("tachyon.JournalTest.before(JournalTest.java:33)") == [
        "tachyon", "JournalTest", "before", "JournalTest", "java", "33",
    ]


def test_tokenize_line_native_method():
    assert tokenize_line("a.B.c(Native Method)") == ["a", "B", "c", "Native", "Method"]


def test_tokenize_line_strips_symbols():
    assert tokenize_line("a.B$1.<run>(B.java:9);") == ["a", "B", "1", "run", "B", "java", "9"]


def two_level_split(text: str) -> list[str]:
    """The earlier tokenizer: strip symbols, split on whitespace, then on dots."""
    tokens: list[str] = []
    for chunk in text.translate(str.maketrans({c: " " for c in "():<>$,;"})).split():
        tokens.extend(part for part in chunk.split(".") if part)
    return tokens


@given(
    st.text(
        alphabet=st.one_of(
            st.sampled_from("....():<>$,;"),
            st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2000\u2028\u3000"),
            st.characters(),
        ),
        max_size=60,
    )
)
@settings(max_examples=500)
def test_tokenize_line_agrees_with_the_two_level_split(text):
    assert tokenize_line(text) == two_level_split(text)


@pytest.mark.parametrize("seed", range(100))
def test_tokenize_line_agrees_with_the_two_level_split_on_seeded_corpora(seed):
    corpus = random_corpus(seed)
    corpus.add_all(generate(GeneratorConfig.from_dict({
        "seed": seed,
        "projects": 1,
        "tests_per_project": {"constant": 2},
        "flaky_signatures_per_test": {"constant": 2},
        "flaky_occurrences_per_signature": {"constant": 2},
        "true_failures_per_test": {"constant": 2},
        "exception_pool": [
            {"name": "UnknownHostException", "weight": 1.0},
            {"name": "AssertionError", "weight": 1.0, "shared_across_labels": True},
        ],
    })).records())
    lines = {r.exception_type for r in corpus.records()}
    lines.update(f.raw for r in corpus.records() for f in r.frames)
    assert lines
    for line in lines:
        assert tokenize_line(line) == two_level_split(line)


def test_tokenize_record_exception_only():
    td = tokenize(record(TestId("p", "a.T", "m"), "AssertionError"))
    assert td.tokens == ("AssertionError",)


def test_tokenize_record_ignores_message():
    a = record(TestId("p", "a.T", "m"), "E", "message one")
    b = record(TestId("p", "a.T", "m"), "E", "completely different")
    assert tokenize(a).tokens == tokenize(b).tokens


def test_tokenize_record_orders_exception_then_frames():
    rec = record(
        TestId("p", "a.T", "m"),
        "IOException",
        frames=(frame("a.B", "c", "B.java", 7),),
    )
    assert tokenize(rec).tokens == ("IOException", "a", "B", "c", "B", "java", "7")


# --- tf / idf --------------------------------------------------------------------


def test_tf_reference_counts():
    line = doc("tachyon", "JournalTest", "before", "JournalTest", "java", "33")
    assert tf("JournalTest", line) == pytest.approx(2 / 6)
    assert tf("absent", line) == 0
    assert tf("x", doc("x")) == 1


def test_tf_rejects_empty_document():
    with pytest.raises(EmptyDocument):
        tf("x", doc())


def test_idf_reference_values():
    everywhere = [doc("a", failure_id=str(i)) for i in range(5)]
    assert idf("a", everywhere) == 0
    ten = [doc("rare" if i == 0 else f"w{i}", failure_id=str(i)) for i in range(10)]
    assert idf("rare", ten) == pytest.approx(2.302585, abs=1e-6)
    four = [doc("t" if i < 2 else f"w{i}", failure_id=str(i)) for i in range(4)]
    assert idf("t", four) == pytest.approx(0.693147, abs=1e-6)


def test_idf_unknown_term():
    with pytest.raises(UnknownTerm):
        idf("ghost", [doc("a")])


def test_idf_log_base_rescales():
    corpus = [doc("t"), doc("w")]
    assert idf("t", corpus, log_base=2) == pytest.approx(1.0)
    assert idf("t", corpus) == pytest.approx(math.log(2))


# --- vectorize / cosine ------------------------------------------------------------


def test_vectorize_ubiquitous_terms_zero_vector():
    corpus = [doc("a", "b", failure_id=str(i)) for i in range(3)]
    assert set(vectorize(doc("a", "b"), corpus).values()) == {0.0}


def test_vectorize_identical_docs_get_equal_vectors():
    a = doc("x", "y", "x", failure_id="a")
    b = doc("x", "y", "x", failure_id="b")
    corpus = [a, b, doc("other", failure_id="c")]
    assert vectorize(a, corpus) == vectorize(b, corpus)


def test_vectorize_single_doc_corpus_is_zero():
    d = doc("x", "y")
    assert all(w == 0.0 for w in vectorize(d, [d]).values())


def test_vectorize_query_only_terms_get_zero_weight():
    corpus = [doc("a"), doc("b")]
    weights = vectorize(doc("a", "ghost"), corpus)
    assert weights["ghost"] == 0.0
    assert weights["a"] > 0.0


def test_cosine_reference_properties():
    v = {"a": 0.5, "b": 0.25}
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)
    u = {"a": 1.0}
    assert cosine(u, v) == cosine(v, u)
    assert cosine({"a": 1.0}, {"b": 1.0}) == 0.0
    assert cosine({}, v) == 0.0


@given(
    st.dictionaries(st.sampled_from("abcdef"), st.floats(0, 10), max_size=6),
    st.dictionaries(st.sampled_from("abcdef"), st.floats(0, 10), max_size=6),
)
@settings(max_examples=200)
def test_cosine_bounds_for_nonnegative_vectors(u, v):
    value = cosine(u, v)
    assert 0.0 <= value <= 1.0 + 1e-12
    assert cosine(u, v) == cosine(v, u)


@given(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=5), min_size=1, max_size=6))
@settings(max_examples=150)
def test_tf_sums_to_one_and_idf_nonnegative(token_lists):
    corpus = [doc(*tokens, failure_id=str(i)) for i, tokens in enumerate(token_lists)]
    for d in corpus:
        assert sum(tf(t, d) for t in set(d.tokens)) == pytest.approx(1.0, abs=1e-12)
        for t in set(d.tokens):
            value = idf(t, corpus)
            assert value >= 0.0
            in_every = all(t in other.tokens for other in corpus)
            assert (value == 0.0) == in_every


@given(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4), min_size=1, max_size=5))
@settings(max_examples=150)
def test_duplicating_corpus_preserves_idf(token_lists):
    corpus = [doc(*tokens, failure_id=str(i)) for i, tokens in enumerate(token_lists)]
    doubled = corpus + [
        TokenDocument(f"copy-{d.failure_id}", d.tokens) for d in corpus
    ]
    for t in {t for d in corpus for t in d.tokens}:
        assert idf(t, corpus) == pytest.approx(idf(t, doubled), abs=1e-12)


# --- nearest-neighbour classification -----------------------------------------------


def _history(*records_with_labels):
    corpus = Corpus()
    for rec, label in records_with_labels:
        corpus.add(dataclasses.replace(rec, label=label))
    return corpus


def _rec(exception, frames=(), method="m"):
    return record(TestId("p", "a.T", method), exception, frames=frames)


def test_classify_nn_identical_tokens_win(alluxio_test):
    shared = (frame("a.Lib", "call", "Lib.java", 3),)
    query = _rec("E", shared)
    history = _history(
        (_rec("E", shared, method="m2"), Label.FLAKY),
        (_rec("Zzz", (frame("z.Z", "zz", "Z.java", 1),), method="m3"), Label.TRUE),
    )
    verdict = classify_nn(query, history)
    assert verdict.predicted is Label.FLAKY
    assert verdict.basis is TriageBasis.MATCHED_FLAKY_ONLY
    assert len(verdict.evidence) == 1


def test_classify_nn_disjoint_query_is_true():
    query = _rec("Unrelated", (frame("q.Q", "q", "Q.java", 1),))
    history = _history(
        (_rec("E", (frame("a.Lib", "call", "Lib.java", 3),)), Label.FLAKY),
        (_rec("F", (frame("b.Lib", "call", "Lib.java", 4),)), Label.TRUE),
    )
    verdict = classify_nn(query, history)
    assert verdict.predicted is Label.TRUE
    assert verdict.basis is TriageBasis.MATCHED_NONE


def test_classify_nn_equidistant_tie_is_true():
    shared = (frame("a.Lib", "call", "Lib.java", 3),)
    query = _rec("E", shared)
    history = _history(
        (_rec("E", shared, method="m2"), Label.FLAKY),
        (_rec("E", shared, method="m3"), Label.TRUE),
        (_rec("Zzz", (frame("z.Z", "zz", "Z.java", 1),), method="m4"), Label.TRUE),
    )
    verdict = classify_nn(query, history)
    assert verdict.predicted is Label.TRUE
    assert verdict.basis is TriageBasis.MATCHED_BOTH
    assert len(verdict.evidence) == 2


def test_classify_nn_all_ubiquitous_query_is_true():
    # Every query term appears in every document, so the query vector is all
    # zeros and nothing can be matched.
    shared = (frame("a.Lib", "call", "Lib.java", 3),)
    query = _rec("E", shared)
    history = _history(
        (_rec("E", shared, method="m2"), Label.FLAKY),
        (_rec("E", shared, method="m3"), Label.TRUE),
    )
    verdict = classify_nn(query, history)
    assert verdict.predicted is Label.TRUE
    assert verdict.basis is TriageBasis.MATCHED_NONE


def test_classify_nn_requires_history_in_project():
    with pytest.raises(EmptyHistory):
        classify_nn(_rec("E"), Corpus())
    other_project_history = _history(
        (record(TestId("q", "a.T", "m"), "E"), Label.FLAKY)
    )
    with pytest.raises(EmptyHistory):
        classify_nn(_rec("E"), other_project_history)


def _random_case(seed):
    rng = random.Random(seed)
    vocab_frames = [
        frame(f"a.C{i}", f"m{j}", "C.java", rng.randint(1, 9))
        for i in range(3)
        for j in range(2)
    ]
    exceptions = ["E1", "E2", "E3"]

    def rnd_record(method):
        stack = tuple(
            rng.choice(vocab_frames) for _ in range(rng.randint(0, 3))
        )
        return record(TestId("p", "a.T", method), rng.choice(exceptions), frames=stack)

    history = Corpus()
    for i in range(rng.randint(1, 6)):
        history.add(
            dataclasses.replace(
                rnd_record(f"h{i}"),
                label=rng.choice((Label.FLAKY, Label.TRUE)),
            )
        )
    return rnd_record("query"), history


@pytest.mark.parametrize("seed", range(40))
def test_classify_nn_verdict_invariant_under_log_base(seed):
    query, history = _random_case(seed)
    natural = classify_nn(query, history)
    base2 = classify_nn(query, history, log_base=2)
    base10 = classify_nn(query, history, log_base=10)
    assert natural.predicted is base2.predicted is base10.predicted
    assert natural.basis is base2.basis is base10.basis


@pytest.mark.parametrize("seed", range(15))
def test_classify_nn_invariant_under_history_permutation(seed):
    query, history = _random_case(seed + 1000)
    records = list(history.records())
    rng = random.Random(seed)
    rng.shuffle(records)
    permuted = Corpus()
    permuted.add_all(records)
    a = classify_nn(query, history)
    b = classify_nn(query, permuted)
    assert a.predicted is b.predicted
    assert a.basis is b.basis
    assert set(a.evidence) == set(b.evidence)
