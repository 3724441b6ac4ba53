"""Failure tokenization, TF-IDF weighting, and nearest-neighbour triage."""
from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .errors import EmptyDocument, EmptyHistory, UnknownTerm
from .matching import TriageBasis, TriageVerdict
from .model import Corpus, FailureRecord, Label

# Symbols removed before dot-splitting; each becomes a token boundary.
_SYMBOL_TABLE = str.maketrans({c: " " for c in "():<>$,;"})

WeightedVector = dict[str, float]


@dataclass(frozen=True)
class TokenDocument:
    """One failure viewed as an ordered bag of tokens."""

    failure_id: str
    tokens: tuple[str, ...]


def tokenize_line(text: str) -> list[str]:
    """Split one stack line into tokens: strip symbols, then split on dots.

    ``tachyon.JournalTest.before(JournalTest.java:33)`` becomes
    ``[tachyon, JournalTest, before, JournalTest, java, 33]``.
    """
    tokens: list[str] = []
    for chunk in text.translate(_SYMBOL_TABLE).split():
        tokens.extend(part for part in chunk.split(".") if part)
    return tokens


def tokenize(record: FailureRecord, failure_id: str = "") -> TokenDocument:
    """Token document of a failure: exception tokens plus per-frame tokens.

    The message text contributes nothing; line numbers are kept as tokens.
    """
    tokens = tokenize_line(record.exception_type)
    for frame in record.frames:
        tokens.extend(tokenize_line(frame.raw))
    return TokenDocument(failure_id, tuple(tokens))


def tf(term: str, doc: TokenDocument) -> float:
    """Term frequency: occurrences of the term over the document length."""
    if not doc.tokens:
        raise EmptyDocument(f"document {doc.failure_id!r} has no tokens")
    return doc.tokens.count(term) / len(doc.tokens)


def _log(value: float, base: float | None) -> float:
    return math.log(value) if base is None else math.log(value, base)


def idf(
    term: str, corpus: list[TokenDocument], log_base: float | None = None
) -> float:
    """Inverse document frequency: log of corpus size over containing docs.

    Natural logarithm by default; the base only rescales every weight by the
    same positive factor, so cosine verdicts do not depend on it.
    """
    if not corpus:
        raise ValueError("idf needs a non-empty corpus")
    containing = sum(1 for doc in corpus if term in doc.tokens)
    if containing == 0:
        raise UnknownTerm(f"term {term!r} occurs in no document")
    return _log(len(corpus) / containing, log_base)


def _document_frequencies(corpus: list[TokenDocument]) -> Counter[str]:
    frequencies: Counter[str] = Counter()
    for doc in corpus:
        frequencies.update(set(doc.tokens))
    return frequencies


def _weights(
    doc: TokenDocument,
    frequencies: Counter[str],
    corpus_size: int,
    log_base: float | None,
) -> WeightedVector:
    if not doc.tokens:
        raise EmptyDocument(f"document {doc.failure_id!r} has no tokens")
    counts = Counter(doc.tokens)
    total = len(doc.tokens)
    vector: WeightedVector = {}
    for term, count in counts.items():
        containing = frequencies.get(term, 0)
        if containing == 0:
            vector[term] = 0.0  # query-only term: no corpus evidence
        else:
            vector[term] = (count / total) * _log(
                corpus_size / containing, log_base
            )
    return vector


def vectorize(
    doc: TokenDocument,
    corpus: list[TokenDocument],
    log_base: float | None = None,
) -> WeightedVector:
    """TF-IDF weights of every distinct term of the document."""
    if not corpus:
        raise ValueError("vectorize needs a non-empty corpus")
    return _weights(doc, _document_frequencies(corpus), len(corpus), log_base)


def cosine(u: WeightedVector, v: WeightedVector) -> float:
    """Cosine similarity; zero vectors have similarity 0 to everything."""
    norm_u = math.sqrt(sum(u[t] * u[t] for t in sorted(u)))
    norm_v = math.sqrt(sum(v[t] * v[t] for t in sorted(v)))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    dot = sum(u[t] * v[t] for t in sorted(u.keys() & v.keys()))
    return dot / (norm_u * norm_v)


@dataclass(frozen=True, slots=True)
class _Document:
    """One distinct token document of a project's history.

    ``squares`` holds the squared weight of each of its terms, in sorted-term
    order, as they are when the query lacks the term.
    """

    members: tuple[tuple[str, Label], ...]
    squares: array  # of doubles, which take less memory than float objects


@dataclass(frozen=True, slots=True)
class _Postings:
    """The documents holding one term, with the term's place and tf in each."""

    documents: list[int] = field(default_factory=list)
    places: list[int] = field(default_factory=list)  # indexes into squares
    tfs: list[float] = field(default_factory=list)

    def __iter__(self) -> Iterator[tuple[int, int, float]]:
        return zip(self.documents, self.places, self.tfs)


class TfidfIndex:
    """One project's history, prepared once for many nearest-neighbour queries.

    Records with identical token documents share one document, since they get
    identical vectors and so identical similarities; its members are kept in
    history order. Every query joins the corpus, so the corpus holds ``n + 1``
    documents and the query raises the document frequency of its own terms
    by one. Each document therefore stores its squared weights under the
    query-free idf ``log((n + 1) / df)``, and a query corrects only its own
    terms.

    Scoring is term-at-a-time over postings: only documents sharing a term of
    non-zero query weight can have a non-zero similarity. Each sum runs in
    sorted-term order, as :func:`cosine` does, so every similarity is the
    same float :func:`cosine` gives and ties are exact float equality.
    """

    def __init__(
        self, history: Corpus, project: str, log_base: float | None = None
    ) -> None:
        self.project = project
        self.log_base = log_base
        self.size = 0  # history records, duplicates included
        self.empty_id: str | None = None  # first record without tokens
        groups: dict[tuple[str, ...], list[tuple[str, Label]]] = {}
        for record_id, record in history.identified_records(project):
            self.size += 1
            tokens = tokenize(record, record_id).tokens
            if tokens:
                groups.setdefault(tokens, []).append((record_id, record.label))
            elif self.empty_id is None:
                self.empty_id = record_id

        counted = [(members, Counter(tokens), len(tokens))
                   for tokens, members in groups.items()]
        self.frequencies: Counter[str] = Counter()
        for members, counts, _ in counted:
            for term in counts:
                self.frequencies[term] += len(members)
        idfs = {
            term: _log((self.size + 1) / containing, log_base)
            for term, containing in self.frequencies.items()
        }

        self.documents: list[_Document] = []
        self.postings: dict[str, _Postings] = {}
        # Equal term frequencies recur across documents; they share a float.
        shared: dict[tuple[int, int], float] = {}
        for position, (members, counts, total) in enumerate(counted):
            squares = []
            for place, term in enumerate(sorted(counts)):
                count = counts[term]
                tf = shared.setdefault((count, total), count / total)
                weight = tf * idfs[term]
                squares.append(weight * weight)
                postings = self.postings.get(term)
                if postings is None:
                    postings = self.postings[term] = _Postings()
                postings.documents.append(position)
                postings.places.append(place)
                postings.tfs.append(tf)
            self.documents.append(_Document(tuple(members), array("d", squares)))

    def classify(self, query: FailureRecord) -> TriageVerdict:
        """The verdict :func:`classify_nn` gives ``query`` against this history."""
        if not self.size:
            raise EmptyHistory(f"no labeled failures for project {self.project!r}")
        tokens = tokenize(query, "query").tokens
        if not tokens:
            raise EmptyDocument("document 'query' has no tokens")
        counts = Counter(tokens)
        size = self.size + 1
        idfs = {
            term: _log(size / (self.frequencies[term] + 1), self.log_base)
            for term in counts
        }
        weights = {
            term: (count / len(tokens)) * idfs[term]
            for term, count in counts.items()
        }
        if all(weight == 0.0 for weight in weights.values()):
            return TriageVerdict(Label.TRUE, TriageBasis.MATCHED_NONE)
        if self.empty_id is not None:
            raise EmptyDocument(f"document {self.empty_id!r} has no tokens")
        query_norm = math.sqrt(sum(weights[t] * weights[t] for t in sorted(weights)))

        # Per candidate document: its squared weights with the query's terms
        # corrected, and the terms of its dot product in sorted-term order.
        hits: dict[int, tuple[array, list[float]]] = {}
        for term in sorted(weights):
            weight = weights[term]
            postings = self.postings.get(term)
            if weight == 0.0 or postings is None:
                continue
            idf = idfs[term]
            for position, place, tf in postings:
                doc_weight = tf * idf
                hit = hits.get(position)
                if hit is None:
                    squares = self.documents[position].squares[:]
                    hit = hits[position] = (squares, [])
                hit[0][place] = doc_weight * doc_weight
                hit[1].append(weight * doc_weight)
        # A zero-weight query term is in every document: it adds exactly 0.0
        # to each dot product, but its weight in each document drops to 0.
        for term, weight in weights.items():
            if weight == 0.0:
                postings = self.postings[term]
                idf = idfs[term]
                for position, place, tf in postings:
                    hit = hits.get(position)
                    if hit is not None:
                        doc_weight = tf * idf
                        hit[0][place] = doc_weight * doc_weight

        # Both norms are positive: each candidate shares a term of non-zero
        # weight with the query.
        scores = {
            position: sum(products) / (query_norm * math.sqrt(sum(squares)))
            for position, (squares, products) in hits.items()
        }
        best = max(scores.values(), default=0.0)
        if best == 0.0:
            return TriageVerdict(Label.TRUE, TriageBasis.MATCHED_NONE)

        top = [
            member
            for position, score in scores.items()
            if score == best
            for member in self.documents[position].members
        ]
        top_labels = {label for _, label in top}
        evidence = tuple(sorted(record_id for record_id, _ in top))
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


def classify_nn(
    query: FailureRecord, history: Corpus, log_base: float | None = None
) -> TriageVerdict:
    """Predict a failure's label from its most similar labeled history record.

    Vectors are built against the combined history-plus-query corpus of the
    query's project. The verdict takes the label of the highest-similarity
    record; a tie at the top between flaky and true records, and a query with
    no usable terms, resolve to a true failure. Permuting the history cannot
    change the verdict.

    The project's :class:`TfidfIndex` is built on the first query and kept
    on ``history`` until a record is added to it.
    """
    project = query.test.project
    index = history.derived(
        (TfidfIndex, project, log_base),
        lambda: TfidfIndex(history, project, log_base),
    )
    return index.classify(query)
