"""Failure tokenization, TF-IDF weighting, and nearest-neighbour triage."""
from __future__ import annotations

import functools
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .errors import EmptyDocument, EmptyHistory, InvalidLogBase, UnknownTerm
from .matching import TriageVerdict
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

    idf: float  # log((n + 1) / (df + 1)), the term's idf in any query holding it
    documents: list[int] = field(default_factory=list)
    tfs: list[float] = field(default_factory=list)


class TfidfIndex:
    """One project's history, prepared once for many nearest-neighbour queries.

    Records with identical token documents share one document, since they get
    identical vectors and so identical similarities; its members are kept in
    history order, and its tokens. Every query joins the corpus, so the corpus
    holds ``n + 1`` documents and the query raises the document frequency of
    its own terms by one: they get their plus-one idf ``log((n + 1) / (df + 1))``.
    Each document keeps its plus-one squared norm, every term at that idf.

    Scoring walks the postings of the query's terms: only documents sharing
    a term of non-zero query weight can have a non-zero similarity. That walk
    gives each such document an upper bound on its similarity, from its
    plus-one norm (at most its norm under any query), and only documents
    whose bound can reach the best score so far are scored exactly. An exact
    score is :func:`cosine` of the query's and the document's :func:`_weights`
    vectors, the float the unindexed computation gives, so ties are exact
    float equality.
    """

    def __init__(
        self, history: Corpus, project: str, log_base: float | None = None
    ) -> None:
        _check_log_base(log_base)
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
        idfs = {  # plus-one idfs, one float per document frequency
            containing: _log((self.size + 1) / (containing + 1), log_base)
            for containing in set(self.frequencies.values())
        }
        canonical = {term: term for term in self.frequencies}

        self.documents: list[_Document] = []
        self.postings: dict[str, _Postings] = {}
        self.norms = array("d")  # each document's plus-one squared norm
        # Equal term frequencies recur across documents; they share a float.
        shared: dict[tuple[int, int], float] = {}
        for position, (tokens, members, counts) in enumerate(counted):
            squares = []
            for term in sorted(counts):
                count = counts[term]
                tf = shared.setdefault((count, len(tokens)), count / len(tokens))
                postings = self.postings.get(term)
                if postings is None:
                    postings = _Postings(idfs[self.frequencies[term]])
                    self.postings[term] = postings
                weight = tf * postings.idf
                squares.append(weight * weight)
                postings.documents.append(position)
                postings.tfs.append(tf)
            tokens = tuple(canonical[term] for term in tokens)
            self.documents.append(_Document(tuple(members), tokens))
            self.norms.append(sum(squares))

    def _similarity(self, position: int, query: WeightedVector) -> float:
        """The :func:`cosine` of the document's vector with the query's."""
        document = TokenDocument("", self.documents[position].tokens)
        frequencies = {t: self.frequencies[t] + (t in query) for t in document.tokens}
        return cosine(query, _weights(document, frequencies, self.size + 1, self.log_base))

    def _bounds(self, weights: WeightedVector) -> list[float]:
        """Upper bound on each document's cosine with ``weights``; -1 where it is 0."""
        # Sum each document's dot product with the query over the postings of
        # the query's terms, skipping those of weight 0 (in every record).
        dots = [0.0] * len(self.documents)
        for term, weight in weights.items():
            postings = self.postings.get(term)
            if postings is None or not weight:
                continue
            scale = weight * postings.idf
            for position, tf in zip(postings.documents, postings.tfs):
                dots[position] += scale * tf
        # A document term of history frequency df has idf
        # log_b((n + 1) / (df + 1)) if the query holds it and log_b((n + 1) / df)
        # if not. Both arguments are >= 1 and the first is the smaller, so under
        # any base (below 1 both logs are <= 0) the first is the smaller in
        # magnitude: the plus-one norm is at most the exact squared norm. The
        # sums here round differently from cosine's sorted sum() (compensated
        # from Python 3.12), by under terms * 2**-53 relatively as every addend
        # is >= 0, so the bound is widened by _MARGIN. A plus-one norm of 0
        # has a dot product of 0.
        query_norm = math.sqrt(sum(weights[t] * weights[t] for t in sorted(weights)))
        widen = (1.0 + _MARGIN) / query_norm
        return [
            dot * widen / math.sqrt(norm) if dot else -1.0
            for dot, norm in zip(dots, self.norms)
        ]

    def classify(self, query: FailureRecord) -> TriageVerdict:
        """The verdict :func:`classify_nn` gives ``query`` against this history."""
        document = tokenize(query, "query")
        frequencies = {term: self.frequencies[term] + 1 for term in document.tokens}
        weights = _weights(document, frequencies, self.size + 1, self.log_base)
        if all(weight == 0.0 for weight in weights.values()):
            return TriageVerdict.of(0, 0)
        if self.empty_id is not None:
            raise EmptyDocument(f"document {self.empty_id!r} has no tokens")

        bounds = self._bounds(weights)
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
            return TriageVerdict.of(0, 0)

        top = [
            member for position in tops for member in self.documents[position].members
        ]
        flaky = sum(label is Label.FLAKY for _, label in top)
        evidence = tuple(sorted(record_id for record_id, _ in top))
        return TriageVerdict.of(flaky, len(top) - flaky, evidence)


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
    if project not in history.project_names():
        raise EmptyHistory(f"no labeled failures for project {project!r}")
    index = history.derived(
        (TfidfIndex, project, log_base),
        lambda: TfidfIndex(history, project, log_base),
    )
    return index.classify(query)
