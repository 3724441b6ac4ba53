"""Failure tokenization, TF-IDF weighting, and nearest-neighbour triage."""
from __future__ import annotations

import functools
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .errors import EmptyDocument, EmptyHistory, InvalidLogBase, UnknownTerm
from .matching import TriageBasis, TriageVerdict
from .model import Corpus, FailureRecord, Label

# Symbols removed before dot-splitting; each becomes a token boundary.
_SYMBOL_TABLE = str.maketrans({c: " " for c in "():<>$,;"})

WeightedVector = dict[str, float]

# Relative widening of each document's cosine bound in TfidfIndex.classify.
_MARGIN = 1e-9


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
    return TokenDocument(failure_id, _tokens(record, tokenize_line))


def _tokens(
    record: FailureRecord, split: Callable[[str], list[str]]
) -> tuple[str, ...]:
    # split may hand out one cached list per line: copy it, never extend it.
    tokens = list(split(record.exception_type))
    for frame in record.frames:
        tokens += split(frame.raw)
    return tuple(tokens)


def tf(term: str, doc: TokenDocument) -> float:
    """Term frequency: occurrences of the term over the document length."""
    if not doc.tokens:
        raise EmptyDocument(f"document {doc.failure_id!r} has no tokens")
    return doc.tokens.count(term) / len(doc.tokens)


def _log(value: float, base: float | None) -> float:
    return math.log(value) if base is None else math.log(value, base)


def _check_log_base(base: float | None) -> None:
    """Reject a base no logarithm has: one not positive, finite and other than 1.

    A base in (0, 1) is valid: it turns every weight negative and leaves
    every cosine as it is.
    """
    if base is not None and not (0 < base < math.inf and base != 1):
        raise InvalidLogBase(
            f"log base {base!r} is invalid: it must be positive, finite and not 1"
        )


def idf(
    term: str, corpus: list[TokenDocument], log_base: float | None = None
) -> float:
    """Inverse document frequency: log of corpus size over containing docs.

    Natural logarithm by default; the base only rescales every weight by the
    same non-zero factor (negative below 1), so cosine verdicts do not depend
    on it.
    """
    if not corpus:
        raise ValueError("idf needs a non-empty corpus")
    _check_log_base(log_base)
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
    frequencies: dict[str, int],
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
    _check_log_base(log_base)
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
    """One distinct token document of a project's history."""

    members: tuple[tuple[str, Label], ...]
    tokens: tuple[str, ...]  # one object per term, the index's postings key


@dataclass(frozen=True, slots=True)
class _Postings:
    """The documents holding one term, with the term's tf in each."""

    documents: list[int] = field(default_factory=list)
    tfs: list[float] = field(default_factory=list)


class TfidfIndex:
    """One project's history, prepared once for many nearest-neighbour queries.

    Records with identical token documents share one document, since they get
    identical vectors and so identical similarities; its members are kept in
    history order, and its tokens. Every query joins the corpus, so the corpus
    holds ``n + 1`` documents and the query raises the document frequency of
    its own terms by one. Each document therefore keeps its squared norm under
    the query-free idf ``log((n + 1) / df)``, and a query corrects only its
    own terms.

    Scoring walks the postings of the query's terms: only documents sharing
    a term of non-zero query weight can have a non-zero similarity. That walk
    gives each such document an upper bound on its similarity, from its
    query-free squared norm, and only documents whose bound can reach the
    best score so far are scored exactly. An exact score is :func:`cosine` of
    the query's and the document's :func:`_weights` vectors, the float the
    unindexed computation gives, so ties are exact float equality.
    """

    def __init__(
        self, history: Corpus, project: str, log_base: float | None = None
    ) -> None:
        _check_log_base(log_base)
        self.project = project
        self.log_base = log_base
        self.size = 0  # history records, duplicates included
        self.empty_id: str | None = None  # first record without tokens
        groups: dict[tuple[str, ...], list[tuple[str, Label]]] = {}
        # Tokenizes each distinct line once; freed with this build.
        split = functools.cache(tokenize_line)
        for record_id, record in history.identified_records(project):
            self.size += 1
            tokens = _tokens(record, split)
            if tokens:
                groups.setdefault(tokens, []).append((record_id, record.label))
            elif self.empty_id is None:
                self.empty_id = record_id

        counted = [(tokens, members, Counter(tokens))
                   for tokens, members in groups.items()]
        self.frequencies: Counter[str] = Counter()
        for _, members, counts in counted:
            for term in counts:
                self.frequencies[term] += len(members)
        idfs = {
            term: _log((self.size + 1) / containing, log_base)
            for term, containing in self.frequencies.items()
        }
        canonical = {term: term for term in self.frequencies}

        self.documents: list[_Document] = []
        self.postings: dict[str, _Postings] = {}
        self._norms = array("d")  # each document's query-free squared norm
        self._widest = 0  # the most distinct terms of any document
        # Equal term frequencies recur across documents; they share a float.
        shared: dict[tuple[int, int], float] = {}
        for position, (tokens, members, counts) in enumerate(counted):
            squares = []
            for term in sorted(counts):
                count = counts[term]
                tf = shared.setdefault((count, len(tokens)), count / len(tokens))
                weight = tf * idfs[term]
                squares.append(weight * weight)
                postings = self.postings.get(term)
                if postings is None:
                    postings = self.postings[term] = _Postings()
                postings.documents.append(position)
                postings.tfs.append(tf)
            tokens = tuple(canonical[term] for term in tokens)
            self.documents.append(_Document(tuple(members), tokens))
            self._norms.append(sum(squares))
            self._widest = max(self._widest, len(squares))

    def _similarity(self, position: int, query: WeightedVector) -> float:
        """The :func:`cosine` of the document's vector with the query's."""
        document = TokenDocument("", self.documents[position].tokens)
        frequencies = {t: self.frequencies[t] + (t in query) for t in document.tokens}
        return cosine(query, _weights(document, frequencies, self.size + 1, self.log_base))

    def classify(self, query: FailureRecord) -> TriageVerdict:
        """The verdict :func:`classify_nn` gives ``query`` against this history."""
        if not self.size:
            raise EmptyHistory(f"no labeled failures for project {self.project!r}")
        document = tokenize(query, "query")
        size = self.size + 1
        frequencies = {term: self.frequencies[term] + 1 for term in document.tokens}
        weights = _weights(document, frequencies, size, self.log_base)
        if all(weight == 0.0 for weight in weights.values()):
            return TriageVerdict(Label.TRUE, TriageBasis.MATCHED_NONE)
        if self.empty_id is not None:
            raise EmptyDocument(f"document {self.empty_id!r} has no tokens")
        query_norm = math.sqrt(sum(weights[t] * weights[t] for t in sorted(weights)))

        # Bound, then rescore exactly. One walk over the query terms' postings
        # sums each document's dot product with the query and the change the
        # query makes to its squared norm; a zero-weight term (one in every
        # document) adds 0.0 to each dot product and only corrects the norm.
        terms = sorted(weights)
        dots = [0.0] * len(self.documents)
        cuts = [0.0] * len(self.documents)
        for term in terms:
            postings = self.postings.get(term)
            if postings is None:
                continue
            idf = _log(size / frequencies[term], self.log_base)
            old = _log(size / self.frequencies[term], self.log_base)
            scale, cut = weights[term] * idf, idf * idf - old * old
            for position, tf in zip(postings.documents, postings.tfs):
                dots[position] += scale * tf
                cuts[position] += cut * tf * tf
        # Each candidate's cosine is at most its bound. The sums above differ
        # from the exact sorted-order sums by rounding alone: the dot product
        # by under terms * 2**-53 relatively, the corrected squared norm by
        # under terms * 2**-53 * norm absolutely, where terms counts the
        # document's and the query's. So the bound is widened by _MARGIN; a
        # corrected norm at or below floor * norm, where that error could
        # exceed half the margin, may have cancelled (a document made mostly
        # of the query's ubiquitous terms) and gets an infinite bound.
        # Non-candidates (dot product 0) get -1 and are never scored.
        widen = (1.0 + _MARGIN) / query_norm
        floor = (self._widest + 8 * len(terms) + 32) * 2.0**-52 / _MARGIN
        bounds = [
            -1.0 if not dot
            else math.inf if (left := norm + cut) <= floor * norm
            else dot * widen / math.sqrt(left)
            for dot, cut, norm in zip(dots, cuts, self._norms)
        ]
        # Score exactly in descending bound, until no bound can reach the best
        # score; a bound equal to it may still tie, so it is scored too.
        best, tops = 0.0, []
        order = sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True)
        for position in order:
            if bounds[position] < best:
                break
            score = self._similarity(position, weights)
            if score > best:
                best, tops = score, [position]
            elif score == best:
                tops.append(position)
        if best == 0.0:
            return TriageVerdict(Label.TRUE, TriageBasis.MATCHED_NONE)

        top = [
            member for position in tops for member in self.documents[position].members
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
    _check_log_base(log_base)
    project = query.test.project
    index = history.derived(
        (TfidfIndex, project, log_base),
        lambda: TfidfIndex(history, project, log_base),
    )
    return index.classify(query)
