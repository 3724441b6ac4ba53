"""The per-project TF-IDF index against the per-query code it replaced.

``oracle_classify_nn`` is the earlier ``classify_nn`` body, kept verbatim: it
re-tokenizes the project's history, recounts document frequencies and
rebuilds every history vector for each query. The indexed ``classify_nn``
must give the same verdict, basis and evidence, and raise the same errors.
"""
from __future__ import annotations

import bisect
import dataclasses
import math
import random
import sys
import threading

import pytest

from conftest import frame, random_corpus, record
from flaketriage import tfidf
from flaketriage.errors import (
    EmptyDocument,
    EmptyHistory,
    FlakeTriageError,
    InvalidLogBase,
)
from flaketriage.evaluation import cross_validate_project, labeled_failures, tfidf_trainer
from flaketriage.matching import TriageBasis, TriageVerdict
from flaketriage.model import Corpus, FailureRecord, Label, TestId
from flaketriage.synth import GeneratorConfig, generate
from flaketriage.tfidf import (
    _MARGIN,
    TfidfIndex,
    TokenDocument,
    _document_frequencies,
    _log,
    _weights,
    classify_nn,
    cosine,
    tokenize,
)

# --- oracle ------------------------------------------------------------------


def oracle_classify_nn(
    query: FailureRecord, history: Corpus, log_base: float | None = None
) -> TriageVerdict:
    project = query.test.project
    entries = list(history.identified_records(project))
    if not entries:
        raise EmptyHistory(f"no labeled failures for project {project!r}")

    docs = [tokenize(record, record_id) for record_id, record in entries]
    query_doc = tokenize(query, "query")
    corpus_docs = docs + [query_doc]
    frequencies = _document_frequencies(corpus_docs)
    size = len(corpus_docs)

    query_vector = _weights(query_doc, frequencies, size, log_base)
    if all(weight == 0.0 for weight in query_vector.values()):
        return TriageVerdict(Label.TRUE, TriageBasis.MATCHED_NONE)

    similarities: list[tuple[float, str, Label]] = []
    for (record_id, record), doc in zip(entries, docs):
        vector = _weights(doc, frequencies, size, log_base)
        similarities.append(
            (cosine(query_vector, vector), record_id, record.label)
        )
    best = max(score for score, _, _ in similarities)
    if best == 0.0:
        return TriageVerdict(Label.TRUE, TriageBasis.MATCHED_NONE)

    top_labels = {label for score, _, label in similarities if score == best}
    evidence = tuple(
        sorted(record_id for score, record_id, _ in similarities if score == best)
    )
    if top_labels == {Label.FLAKY}:
        return TriageVerdict(
            Label.FLAKY, TriageBasis.MATCHED_FLAKY_ONLY, evidence
        )
    basis = (
        TriageBasis.MATCHED_BOTH
        if len(top_labels) == 2
        else TriageBasis.MATCHED_TRUE
    )
    return TriageVerdict(Label.TRUE, basis, evidence)


def project_of(records: list[tuple[str, FailureRecord]]) -> str:
    """The project of indexed records, read from the first record id."""
    return records[0][0].split("/")[0]


def outcome(classify, query, history, log_base=None):
    """The verdict, or the type and text of the error raised instead."""
    try:
        return classify(query, history, log_base)
    except FlakeTriageError as exc:
        return type(exc), str(exc)


def assert_agrees(query, history, log_base=None):
    want = outcome(oracle_classify_nn, query, history, log_base)
    assert outcome(classify_nn, query, history, log_base) == want
    return want


def queries_for(corpus: Corpus, rng: random.Random) -> list[FailureRecord]:
    """History records as queries, plus variants that tie, overlap or miss."""
    records = list(corpus.records())
    queries = []
    for base in rng.sample(records, min(6, len(records))):
        base = dataclasses.replace(base, label=None)
        queries.append(base)
        queries.append(dataclasses.replace(base, frames=base.frames[1:]))
        queries.append(dataclasses.replace(base, exception_type="Unseen"))
        other = rng.choice(records)
        if other.test.project == base.test.project:
            queries.append(dataclasses.replace(base, frames=base.frames + other.frames))
    return queries


# --- seeded corpora ----------------------------------------------------------


@pytest.mark.parametrize("seed", range(100))
def test_index_matches_oracle_on_seeded_corpora(seed):
    corpus = random_corpus(seed, max_records=120)
    bases = set()
    for query in queries_for(corpus, random.Random(seed)):
        verdict = assert_agrees(query, corpus)
        bases.add(verdict.basis)
    assert bases - {TriageBasis.MATCHED_NONE}


@pytest.mark.parametrize("log_base", [0.1, 0.5, 2, 10])
@pytest.mark.parametrize("seed", range(0, 100, 4))
def test_index_matches_oracle_under_log_bases(seed, log_base):
    corpus = random_corpus(seed, max_records=120)
    for query in queries_for(corpus, random.Random(seed)):
        assert_agrees(query, corpus, log_base)
    # One history serves every base, each from its own index.
    assert_agrees(query, corpus)


@pytest.mark.parametrize("seed", range(0, 100, 5))
def test_index_matches_oracle_on_permuted_history(seed):
    corpus = random_corpus(seed, max_records=120)
    records = list(corpus.records())
    random.Random(seed).shuffle(records)
    permuted = Corpus()
    permuted.add_all(records)
    for query in queries_for(corpus, random.Random(seed)):
        assert_agrees(query, permuted)


# --- edge cases --------------------------------------------------------------

TEST = TestId("p", "a.T", "m")
SHARED = (frame("a.Lib", "call", "Lib.java", 3), frame("a.T", "m", "T.java", 7))


def _history(*entries: tuple[str, tuple, Label, str]) -> Corpus:
    corpus = Corpus()
    for exception, frames, label, method in entries:
        corpus.add(record(TestId("p", "a.T", method), exception, frames=frames, label=label))
    return corpus


def test_identical_documents_tied_across_labels_give_every_member():
    history = _history(
        ("E", SHARED, Label.FLAKY, "m2"),
        ("E", SHARED, Label.FLAKY, "m2"),
        ("E", SHARED, Label.TRUE, "m3"),
        ("Z", (frame("z.Z", "zz", "Z.java", 1),), Label.TRUE, "m4"),
    )
    verdict = assert_agrees(record(TEST, "E", frames=SHARED), history)
    assert verdict == TriageVerdict(
        Label.TRUE,
        TriageBasis.MATCHED_BOTH,
        ("p/a.T.m2/flaky[0]", "p/a.T.m2/flaky[1]", "p/a.T.m3/true[0]"),
    )


def test_near_tie_follows_the_sorted_term_summation_order():
    # Both candidates' squared weights are one multiset in two term orders;
    # summed in sorted-term order, the flaky record's norm is smaller in the
    # last bit, so it wins alone rather than tying with the true one.
    history = Corpus()
    for method, tokens, label in (
        ("m1", "a.b.b.b.b.c.c.x", Label.FLAKY),
        ("m2", "a.b.b.b.b.d.e.e", Label.TRUE),
        ("m3", "x.x.x.x.d.d.d", Label.TRUE),
    ):
        history.add(record(TestId("p", "a.T", method), tokens, label=label))
    verdict = assert_agrees(record(TEST, "a.b"), history)
    assert verdict == TriageVerdict(
        Label.FLAKY, TriageBasis.MATCHED_FLAKY_ONLY, ("p/a.T.m1/flaky[0]",)
    )


def test_term_in_every_record_weighs_nothing_in_any_document():
    # With the query, "u" is in every document: its weight is 0 in every
    # vector, so the flaky record matches the query's direction exactly.
    history = Corpus()
    for method, tokens, label in (
        ("m1", "u.u.u.a", Label.FLAKY),
        ("m2", "u.u.a.a.a.a.d", Label.TRUE),
        ("m3", "u.z", Label.TRUE),
    ):
        history.add(record(TestId("p", "a.T", method), tokens, label=label))
    verdict = assert_agrees(record(TEST, "u.u.u.a.a.a.a"), history)
    assert verdict == TriageVerdict(
        Label.FLAKY, TriageBasis.MATCHED_FLAKY_ONLY, ("p/a.T.m1/flaky[0]",)
    )


def test_query_of_ubiquitous_terms_only():
    history = _history(
        ("E", SHARED, Label.FLAKY, "m2"),
        ("E", SHARED + (frame("b.X", "x", "X.java", 5),), Label.TRUE, "m3"),
    )
    verdict = assert_agrees(record(TEST, "E", frames=SHARED), history)
    assert verdict.basis is TriageBasis.MATCHED_NONE


def test_query_of_query_only_terms():
    history = _history(("E", SHARED, Label.FLAKY, "m2"), ("F", SHARED, Label.TRUE, "m3"))
    query = record(TEST, "Unseen", frames=(frame("q.Q", "q", "Q.py", 1),))
    assert assert_agrees(query, history).basis is TriageBasis.MATCHED_NONE


@pytest.mark.parametrize(
    "history_entries, query_exception",
    [
        ((("E", SHARED, Label.FLAKY, "m2"), ("$", (), Label.TRUE, "m3")), "E"),
        ((("$", (), Label.FLAKY, "m2"), ("$", (), Label.TRUE, "m3")), "E"),
        ((("E", SHARED, Label.FLAKY, "m2"),), "$"),
        ((("$", (), Label.TRUE, "m3"),), "()"),
    ],
    ids=["one-empty-record", "all-empty-records", "empty-query", "both-empty"],
)
def test_documents_without_tokens_raise_as_before(history_entries, query_exception):
    history = _history(*history_entries)
    frames = SHARED if query_exception == "E" else ()
    got = assert_agrees(record(TEST, query_exception, frames=frames), history)
    assert got[0] is EmptyDocument


def test_project_without_history_raises_as_before():
    history = _history(("E", SHARED, Label.FLAKY, "m2"))
    stranger = record(TestId("q", "a.T", "m"), "E", frames=SHARED)
    assert assert_agrees(stranger, history)[0] is EmptyHistory
    assert assert_agrees(stranger, Corpus())[0] is EmptyHistory


def test_query_of_an_unknown_project_builds_no_index(monkeypatch):
    corpus = random_corpus(6, max_records=120)
    builds = []
    build = TfidfIndex.__init__

    def counted(self, records, log_base=None):
        records = list(records)
        build(self, records, log_base)
        builds.append(project_of(records))

    monkeypatch.setattr(TfidfIndex, "__init__", counted)
    for i in range(5):
        stranger = record(TestId(f"elsewhere{i}", "a.B", "m"), frames=SHARED)
        assert assert_agrees(stranger, corpus)[0] is EmptyHistory
    assert builds == [] and corpus._derived == {}


def test_records_added_after_a_query_are_seen_by_the_next():
    history = _history(
        ("E", SHARED, Label.TRUE, "m3"),
        ("Z", (frame("z.Z", "zz", "Z.java", 1),), Label.FLAKY, "m4"),
    )
    query = record(TEST, "E", frames=SHARED)
    assert assert_agrees(query, history).basis is TriageBasis.MATCHED_TRUE
    history.add(record(TestId("p", "a.T", "m2"), "E", frames=SHARED, label=Label.FLAKY))
    assert assert_agrees(query, history).basis is TriageBasis.MATCHED_BOTH
    stranger = record(TestId("q", "a.T", "m"), "E", frames=SHARED)
    assert outcome(classify_nn, stranger, history)[0] is EmptyHistory
    history.add(dataclasses.replace(stranger, label=Label.FLAKY))
    # Its one history record holds every query term: no term has any weight.
    assert assert_agrees(stranger, history).basis is TriageBasis.MATCHED_NONE


def test_one_index_per_history_and_log_base(monkeypatch):
    builds = []
    build = TfidfIndex.__init__

    def counted(self, records, log_base=None):
        records = list(records)
        builds.append((project_of(records), log_base))
        build(self, records, log_base)

    monkeypatch.setattr(TfidfIndex, "__init__", counted)
    corpus = random_corpus(7, max_records=120)
    queries = queries_for(corpus, random.Random(7))
    for log_base in (None, 2, None, 2):
        for query in queries:
            classify_nn(query, corpus, log_base)
    projects = {query.test.project for query in queries}
    assert sorted(builds, key=str) == sorted(
        ((p, b) for p in projects for b in (None, 2)), key=str
    )


def test_threads_sharing_one_history_agree():
    corpus = random_corpus(11, max_records=250)
    queries = queries_for(corpus, random.Random(11)) * 3
    expected = [oracle_classify_nn(q, corpus) for q in queries]
    shared = Corpus()  # fresh, so the threads race to build the index
    shared.add_all(corpus.records())
    results: dict[int, list] = {}

    def work(slot: int) -> None:
        results[slot] = [classify_nn(q, shared) for q in queries]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {i: expected for i in range(4)}


# --- cross-validation --------------------------------------------------------


def oracle_tfidf_trainer():
    def train(normalized):
        history = Corpus()
        history.add_all(nf.base for nf in normalized)
        return lambda nf: oracle_classify_nn(nf.base, history).predicted

    return train


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_tfidf_cv_matches_the_oracle_trainer(seed, monkeypatch):
    builds = []
    build = TfidfIndex.__init__

    def counted(self, records, *args):
        records = list(records)
        builds.append(project_of(records))
        build(self, records, *args)

    monkeypatch.setattr(TfidfIndex, "__init__", counted)
    corpus = random_corpus(seed, max_records=150)
    compared = 0
    for project in corpus.project_names():
        flaky, true = labeled_failures(corpus, project)
        if min(len(flaky), len(true)) < 3:
            continue
        builds.clear()
        got = cross_validate_project(flaky, true, 3, tfidf_trainer(), seed)
        assert got == cross_validate_project(flaky, true, 3, oracle_tfidf_trainer(), seed)
        assert builds == [project] * 3  # one index per fold
        compared += 1
    assert compared


def index_facts(index: TfidfIndex) -> tuple:
    """What an index holds, free of the order it met its records in."""
    return (
        {d.tokens: sorted(d.members) for d in index.documents},
        {d.tokens: floor for d, floor in zip(index.documents, index.floors)},
        index.frequencies,
        {t: (p.idf, p.peak) for t, p in index.postings.items()},
    )


def classify_outcome(index: TfidfIndex, query: FailureRecord):
    """The verdict, or the type of the error raised instead."""
    try:
        return index.classify(query)
    except FlakeTriageError as exc:
        return type(exc)


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_fold_index_agrees_with_an_index_over_a_fold_corpus(seed, monkeypatch):
    # The trainer indexes a fold's failures in fold order, a fold Corpus
    # hands them back in test order: the two indexes hold the same facts
    # and give every held-out record the same verdict.
    built = []
    build = TfidfIndex.__init__

    def kept(self, *args):
        build(self, *args)
        built.append(self)

    monkeypatch.setattr(TfidfIndex, "__init__", kept)
    trainer = tfidf_trainer()
    folds = []

    def train(normalized):
        predictor, held_out = trainer(normalized), []
        folds.append((normalized, built[-1], held_out))
        return lambda nf: held_out.append(nf) or predictor(nf)

    corpus = random_corpus(seed, max_records=150)
    compared = 0
    for project in corpus.project_names():
        flaky, true = labeled_failures(corpus, project)
        if min(len(flaky), len(true)) < 3:
            continue
        folds.clear()
        cross_validate_project(flaky, true, 3, train, seed)
        for normalized, index, held_out in folds:
            history = Corpus()
            history.add_all(nf.base for nf in normalized)
            expected = TfidfIndex(history.identified_records(project))
            assert index_facts(index) == index_facts(expected)
            assert held_out
            for nf in held_out:
                assert classify_outcome(index, nf.base) == classify_outcome(expected, nf.base)
            compared += 1
    assert compared


# --- bound, then rescore -----------------------------------------------------


def scored_positions(monkeypatch) -> list[int]:
    """Collects the position of every document the index scores exactly."""
    scored: list[int] = []
    similarity = TfidfIndex._similarity

    def counted(self, position, *args):
        scored.append(position)
        return similarity(self, position, *args)

    monkeypatch.setattr(TfidfIndex, "_similarity", counted)
    return scored


def candidates(index: TfidfIndex, query: FailureRecord) -> set[int]:
    """Documents sharing a term of non-zero weight with the query."""
    return {
        position
        for term in set(tokenize(query).tokens)
        if term in index.postings and index.frequencies[term] < index.size
        for position in index.postings[term].documents
    }


def _token_history(*entries: tuple[str, str, Label]) -> Corpus:
    history = Corpus()
    for method, tokens, label in entries:
        history.add(record(TestId("p", "a.T", method), tokens, label=label))
    return history


@pytest.mark.parametrize("log_base", [None, 2, 0.5])
def test_exact_duplicates_in_two_token_orders_tie_and_one_more_count_loses(log_base):
    # m1 and m2 hold the query's tokens in two orders: two documents of one
    # vector, both at the top. m3 holds the same terms with one more "c", so
    # it passes every required term's test and must lose when scored.
    history = _token_history(
        ("m1", "a.b.c.b", Label.FLAKY),
        ("m2", "b.c.b.a", Label.TRUE),
        ("m3", "a.b.c.b.c", Label.FLAKY),
        ("m4", "a.x", Label.TRUE),
        ("m5", "c.y.y", Label.FLAKY),
        ("m6", "z", Label.TRUE),
    )
    verdict = assert_agrees(record(TEST, "a.b.c.b"), history, log_base)
    assert verdict == TriageVerdict(
        Label.TRUE,
        TriageBasis.MATCHED_BOTH,
        ("p/a.T.m1/flaky[0]", "p/a.T.m2/true[0]"),
    )


def test_distinct_documents_tied_at_the_top_are_both_scored(monkeypatch):
    # Different terms, equal weights: the two similarities are one float.
    scored = scored_positions(monkeypatch)
    history = _token_history(
        ("m1", "a.x", Label.FLAKY), ("m2", "b.y", Label.TRUE), ("m3", "z", Label.TRUE)
    )
    verdict = assert_agrees(record(TEST, "a.b"), history)
    assert verdict == TriageVerdict(
        Label.TRUE,
        TriageBasis.MATCHED_BOTH,
        ("p/a.T.m1/flaky[0]", "p/a.T.m2/true[0]"),
    )
    assert sorted(scored) == [0, 1]


@pytest.mark.parametrize("winner", [Label.FLAKY, Label.TRUE])
def test_runner_up_within_the_margin_is_scored_and_loses(winner, monkeypatch):
    # Found by search: the runner-up's similarity is one ulp (1.4e-16
    # relatively) below the winner's, far inside the bound's margin, so
    # both must be scored exactly, and only the winner is evidence.
    scored = scored_positions(monkeypatch)
    loser = Label.TRUE if winner is Label.FLAKY else Label.FLAKY
    history = _token_history(
        ("m1", "e.x.e.x.e.a.d.a.a.c", winner),
        ("m2", "x.b.y.b.x", loser),
        ("m3", "e.e.e.d.d.e", Label.TRUE),
    )
    verdict = assert_agrees(record(TEST, "a.b"), history)
    assert verdict.predicted is winner
    assert verdict.evidence == (f"p/a.T.m1/{winner.value}[0]",)
    assert sorted(scored) == [0, 1]


def test_cancelled_norm_is_scored_exactly_and_wins():
    # "u" is in every record, so the query zeroes its weight, and m1's squared
    # norm under the query is about 1e-9 of its norm without it. An index that
    # kept that norm and subtracted the query's correction from it lost m1 to
    # rounding and needed a guard (found by search). A plus-one norm is a sum
    # of squares, with "u" already at weight 0, so it has nothing to cancel:
    # m1 points exactly along the query and must beat m2, whose similarity is
    # about 1 - 1e-7.
    history = _token_history(
        ("m1", ".".join(["u"] * 29250 + ["a"]), Label.FLAKY),
        ("m2", ".".join(["u"] + ["a"] * 10000 + ["z"]), Label.TRUE),
        ("m3", "u.w", Label.TRUE),
    )
    verdict = assert_agrees(record(TEST, "u.a"), history)
    assert verdict == TriageVerdict(
        Label.FLAKY, TriageBasis.MATCHED_FLAKY_ONLY, ("p/a.T.m1/flaky[0]",)
    )


def test_bound_scores_few_candidates_on_seeded_corpora(monkeypatch):
    scored = scored_positions(monkeypatch)
    total_scored = total_candidates = answered = 0
    for seed in range(20):
        corpus = random_corpus(seed, max_records=250)
        indexes = {
            p: TfidfIndex(corpus.identified_records(p)) for p in corpus.project_names()
        }
        for query in queries_for(corpus, random.Random(seed)):
            index = indexes[query.test.project]
            scored.clear()
            try:
                index.classify(query)
            except FlakeTriageError:
                continue
            assert set(scored) <= candidates(index, query)
            total_scored += len(scored)
            total_candidates += len(candidates(index, query))
            answered += 1
    assert total_scored * 10 <= total_candidates, (total_scored, total_candidates)
    # A looser bound scores more documents well before it changes a verdict.
    assert total_scored <= 1.05 * answered, (total_scored, answered)


def query_weights(index: TfidfIndex, query: FailureRecord, log_base) -> dict:
    doc = tokenize(query, "query")
    frequencies = {t: index.frequencies[t] + 1 for t in doc.tokens}
    return _weights(doc, frequencies, index.size + 1, log_base)


@pytest.mark.parametrize("log_base", [None, 2, 0.5])
@pytest.mark.parametrize("seed", range(0, 100, 10))
def test_query_weights_from_the_postings_are_the_reference_weights(seed, log_base):
    # Each known term's idf comes from its postings and a query-only term's
    # from the index: the very floats _weights computes, in the same order.
    corpus = random_corpus(seed, max_records=120)
    unseen = 0
    for query in queries_for(corpus, random.Random(seed)):
        index = TfidfIndex(corpus.identified_records(query.test.project), log_base)
        got = index._query_weights(tokenize(query, "query"))
        assert list(got.items()) == list(query_weights(index, query, log_base).items())
        unseen += any(t not in index.postings for t in got)
    assert unseen


def squared_norm(index: TfidfIndex, tokens: tuple[str, ...], held, log_base) -> float:
    """A document's squared norm, its terms in ``held`` at their plus-one idf."""
    n = index.size
    return math.fsum(
        (tokens.count(t) / len(tokens)
         * _log((n + 1) / (index.frequencies[t] + (t in held)), log_base)) ** 2
        for t in set(tokens)
    )


@pytest.mark.parametrize("log_base", [None, 2, 0.5])
@pytest.mark.parametrize("seed", range(0, 100, 10))
def test_peaks_bound_every_share_and_shares_every_cosine(seed, log_base):
    corpus = random_corpus(seed, max_records=120)
    indexes = {
        p: TfidfIndex(corpus.identified_records(p), log_base)
        for p in corpus.project_names()
    }
    for index in indexes.values():
        for term, postings in index.postings.items():
            assert postings.documents == sorted(postings.documents)
            for position, share in zip(postings.documents, postings.shares):
                tokens = index.documents[position].tokens
                norm = squared_norm(index, tokens, tokens, log_base)
                tf = tokens.count(term) / len(tokens)
                assert postings.peak >= share
                if not norm:  # every term in every record: weight 0 in any query
                    assert share == 0.0
                    continue
                # Equal up to rounding, which _MARGIN covers.
                assert share == pytest.approx(tf / math.sqrt(norm), rel=1e-12)
                assert postings.peak >= tf / math.sqrt(norm) * (1 - 1e-12)
    checked = 0
    for query in queries_for(corpus, random.Random(seed)):
        index = indexes[query.test.project]
        weights = query_weights(index, query, log_base)
        if not any(weights.values()):
            continue
        query_norm = math.sqrt(math.fsum(w * w for w in weights.values()))
        for position, document in enumerate(index.documents):
            dot = math.fsum(
                weights[t] * index.postings[t].idf
                * index.postings[t].shares[index.postings[t].documents.index(position)]
                for t in set(document.tokens) if weights.get(t)
            )
            similarity = index._similarity(position, weights)
            # The shares' dot product bounds the cosine from above, and times
            # the floor from below; the floor is what the plus-zero norm
            # (every term at log((n + 1) / df)) keeps of the plus-one norm.
            assert dot * (1 + _MARGIN) / query_norm >= similarity
            assert dot * index.floors[position] * (1 - _MARGIN) / query_norm <= similarity
            exact = squared_norm(index, document.tokens, weights, log_base)
            plus_zero = squared_norm(index, document.tokens, (), log_base)
            assert squared_norm(index, document.tokens, document.tokens, log_base) <= exact
            assert exact <= plus_zero
            checked += 1
    assert checked


@pytest.mark.parametrize("log_base", [None, 2, 0.5])
@pytest.mark.parametrize("seed", range(0, 100, 10))
def test_every_document_not_scored_is_below_the_best_score(seed, log_base, monkeypatch):
    corpus = random_corpus(seed, max_records=120)
    indexes = {
        p: TfidfIndex(corpus.identified_records(p), log_base)
        for p in corpus.project_names()
    }
    similarity = TfidfIndex._similarity
    scored = scored_positions(monkeypatch)
    checked = 0
    for query in queries_for(corpus, random.Random(seed)):
        index = indexes[query.test.project]
        scored.clear()
        try:
            verdict = index.classify(query)
        except FlakeTriageError:
            continue
        weights = query_weights(index, query, log_base)
        scores = [similarity(index, p, weights) for p in range(len(index.documents))]
        best = max(scores)
        if best == 0.0:
            assert verdict.basis is TriageBasis.MATCHED_NONE
            continue
        unscored = set(range(len(scores))) - set(scored)
        assert all(scores[p] < best for p in unscored)
        checked += len(unscored)
    assert checked


def gate_nn_history(seed: int) -> tuple[Corpus, list[FailureRecord]]:
    """One project in the gate-nn shape: many duplicate traces, and package
    terms in most records but not all. Every eighth record is a query."""
    config = GeneratorConfig.from_dict({
        "seed": seed,
        "projects": 1,
        "tests_per_project": {"constant": 6},
        "flaky_signatures_per_test": {"uniform": [1, 4]},
        "flaky_occurrences_per_signature": {"geometric": 0.1},
        "true_failures_per_test": {"uniform": [5, 30]},
        "frame_depth": [3, 12],
        "exception_pool": [
            {"name": "UnknownHostException", "weight": 3},
            {"name": "AssertionError", "weight": 2, "shared_across_labels": True},
            {"name": "NullPointerException", "weight": 2, "only_label": "true"},
        ],
    })
    records = list(generate(config).records())
    history = Corpus()
    history.add_all(r for i, r in enumerate(records) if i % 8)
    queries = [dataclasses.replace(r, label=None) for r in records[::8]]
    return history, queries


class CountedList(list):
    """Postings documents that count the entries each walk visits."""

    visits = 0

    def __iter__(self):
        CountedList.visits += len(self)
        return super().__iter__()


@pytest.mark.parametrize("seed", range(6))
def test_walk_skips_postings_on_a_gate_nn_shaped_history(seed, monkeypatch):
    history, queries = gate_nn_history(seed)
    index = TfidfIndex(history.identified_records("proj00"))
    for term, postings in index.postings.items():
        index.postings[term] = dataclasses.replace(
            postings, documents=CountedList(postings.documents)
        )
    lookups = []
    monkeypatch.setattr(
        tfidf, "bisect_left", lambda a, x: lookups.append(x) or bisect.bisect_left(a, x)
    )
    fewer = duplicates = 0
    for query in queries:
        weights = query_weights(index, query, None)
        lengths = [
            len(index.postings[t].documents) for t, w in weights.items()
            if w and t in index.postings
        ]
        CountedList.visits = 0
        lookups.clear()
        assert index.classify(query) == oracle_classify_nn(query, history)
        work = CountedList.visits + len(lookups)
        fewer += work < sum(lengths)
        if tokenize(query).tokens in index.positions:
            # An exact duplicate starts from the postings of a term every
            # document that may tie with it holds, not from the longest.
            assert work <= 2 * min(lengths) * (len(lengths) + 1), (work, lengths)
            duplicates += 1
    assert len(queries) >= 20 and duplicates >= 10, (len(queries), duplicates)
    assert 2 * fewer >= len(queries), (fewer, len(queries))


@pytest.mark.parametrize("seed", range(0, 100, 10))
def test_index_counts_the_same_tokens_as_tokenize(seed):
    corpus = random_corpus(seed)
    for project in corpus.project_names():
        docs = [tokenize(r) for _, r in corpus.identified_records(project)]
        index = TfidfIndex(corpus.identified_records(project))
        assert index.frequencies == _document_frequencies(docs)
        assert len(index.documents) == len({d.tokens for d in docs if d.tokens})


@pytest.mark.parametrize("seed", range(0, 100, 10))
def test_documents_hold_the_postings_key_of_each_term(seed):
    # One string object per term, however many lines and documents hold it:
    # the tokens as built would keep a copy of each term per distinct line.
    corpus = random_corpus(seed)
    for project in corpus.project_names():
        index = TfidfIndex(corpus.identified_records(project))
        keys = {term: term for term in index.postings}
        for document in index.documents:
            assert all(keys[token] is token for token in document.tokens)


# --- log base ----------------------------------------------------------------


@pytest.mark.parametrize(
    "log_base", [1, 1.0, True, 0, 0.0, -2, -0.5, math.nan, math.inf, -math.inf]
)
def test_invalid_log_base_is_rejected_before_any_index(log_base, monkeypatch):
    derived = []
    monkeypatch.setattr(Corpus, "derived", lambda *args: derived.append(args))
    history = _history(("E", SHARED, Label.FLAKY, "m2"), ("F", SHARED, Label.TRUE, "m3"))
    with pytest.raises(InvalidLogBase) as excinfo:
        classify_nn(record(TEST, "E", frames=SHARED), history, log_base)
    assert isinstance(excinfo.value, FlakeTriageError)
    assert isinstance(excinfo.value, ValueError)
    assert repr(log_base) in str(excinfo.value)
    assert derived == []
    with pytest.raises(InvalidLogBase):
        TfidfIndex(history.identified_records("p"), log_base)
