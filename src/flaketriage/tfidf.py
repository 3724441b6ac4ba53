"""Failure tokenization, TF-IDF weighting, and nearest-neighbour triage."""
from __future__ import annotations

import functools
import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Callable

from .errors import EmptyDocument, EmptyHistory, InvalidLogBase, UnknownTerm
from .matching import TriageVerdict
from .model import Corpus, FailureRecord, Label

# Dots and symbols, each a token boundary like whitespace.
_SYMBOL_TABLE = str.maketrans({c: " " for c in "():<>$,;."})

WeightedVector = dict[str, float]

# Relative widening of every upper bound on a cosine in TfidfIndex.classify.
_MARGIN = 1e-9
# Postings a walk takes in the time of one binary-search lookup.
_LOOKUP_COST = 4


@dataclass(frozen=True)
class TokenDocument:
    """One failure viewed as an ordered bag of tokens."""

    failure_id: str
    tokens: tuple[str, ...]


def tokenize_line(text: str) -> list[str]:
    """Split one stack line into tokens at whitespace, dots and symbols.

    ``tachyon.JournalTest.before(JournalTest.java:33)`` becomes
    ``[tachyon, JournalTest, before, JournalTest, java, 33]``.
    """
    return text.translate(_SYMBOL_TABLE).split()


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
    """The documents holding one term, with the term's share of each."""

    idf: float  # log((n + 1) / (df + 1)), the term's idf in any query holding it
    documents: list[int]  # ascending
    shares: list[float]  # tf / sqrt(plus-one norm) in each document
    peak: float  # the largest share


class TfidfIndex:
    """One project's history, prepared once for many nearest-neighbour queries.

    Records with identical token documents share one document, since they get
    identical vectors and so identical similarities; its members are kept in
    history order, and its tokens. Every query joins the corpus, so the corpus
    holds ``n + 1`` documents and the query raises the document frequency of
    its own terms by one: they get their plus-one idf ``log((n + 1) / (df + 1))``.
    A document's squared norm under any query lies between its plus-one norm,
    every term at that idf, and its plus-zero norm, every term at
    ``log((n + 1) / df)``. Each posting holds the term's share of its document,
    ``tf / sqrt(plus-one norm)``, each term its peak share, and each document
    its floor ``sqrt(plus-one norm / plus-zero norm)``; no query changes them.

    Under a query ``q``, a term of weight ``w`` adds ``w·idf·share / |q|`` to
    an upper bound on a document's cosine, and ``w·idf·peak / |q|`` bounds that
    in every document; the bound times the document's floor is at most the
    cosine. Scoring walks the postings of the query's terms, highest peak
    contribution first, while the peak contributions of the terms left can
    still reach a threshold at most the best cosine: 1 if a document has the
    query's tokens, and raised to the lower bounds of the documents walked.
    It completes the bounds of the documents walked from the terms left,
    dropping those that cannot reach the threshold, and scores exactly, in
    descending bound, only the documents whose bound can reach the best score
    so far. An exact score is :func:`cosine` of the query's and the document's
    :func:`_weights` vectors, the float the unindexed computation gives, so
    ties are exact float equality.
    """

    def __init__(
        self, history: Corpus, project: str, log_base: float | None = None
    ) -> None:
        _check_log_base(log_base)
        self.log_base = log_base
        self.size = 0  # history records, duplicates included
        self.empty_id: str | None = None  # first record without tokens
        groups: dict[tuple[str, ...], list[tuple[str, Label]]] = {}
        # Tokenizes each distinct line once, into one string object per term;
        # both caches are freed with this build.
        strings: dict[str, str] = {}

        @functools.cache
        def split(line: str) -> list[str]:
            return [strings.setdefault(token, token) for token in tokenize_line(line)]

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
        idfs = {  # plus-one and plus-zero idfs, one pair per document frequency
            containing: (_log((self.size + 1) / (containing + 1), log_base),
                         _log((self.size + 1) / containing, log_base))
            for containing in set(self.frequencies.values())
        }

        self.documents: list[_Document] = []
        # Each document's position, by its tokens.
        self.positions = {tokens: position for position, tokens in enumerate(groups)}
        # Each document's sqrt(plus-one norm / plus-zero norm): its cosine is
        # at least its dot product over the plus-one norm, times this, over |q|.
        self.floors = array("d")
        columns: dict[str, tuple[list[int], list[float]]] = {}
        for position, (tokens, members, counts) in enumerate(counted):
            plus_one = plus_zero = 0.0
            for term, count in counts.items():
                one, zero = idfs[self.frequencies[term]]
                tf = count / len(tokens)
                plus_one += (tf * one) ** 2
                plus_zero += (tf * zero) ** 2
            # A plus-one norm of 0 has only terms of weight 0 in every query.
            scale = 1.0 / (len(tokens) * math.sqrt(plus_one)) if plus_one else 0.0
            # Terms of equal count in a document share one float.
            shares = {count: count * scale for count in set(counts.values())}
            for term, count in counts.items():
                column = columns.get(term)
                if column is None:
                    column = columns[term] = ([], [])
                column[0].append(position)
                column[1].append(shares[count])
            self.documents.append(_Document(tuple(members), tokens))
            self.floors.append(math.sqrt(plus_one / plus_zero))
        self.postings = {
            term: _Postings(idfs[self.frequencies[term]][0], documents, shares, max(shares))
            for term, (documents, shares) in columns.items()
        }

    def _similarity(self, position: int, query: WeightedVector) -> float:
        """The :func:`cosine` of the document's vector with the query's."""
        document = TokenDocument("", self.documents[position].tokens)
        frequencies = {t: self.frequencies[t] + (t in query) for t in document.tokens}
        return cosine(query, _weights(document, frequencies, self.size + 1, self.log_base))

    def _candidates(
        self, tokens: tuple[str, ...], weights: WeightedVector
    ) -> list[tuple[float, int]]:
        """``(bound, position)``, highest bound first, of the documents whose
        upper bound on their cosine with ``weights`` reaches a threshold at
        most the best cosine; every other document's cosine is below it."""
        # A term's scale w·idf is >= 0 (below base 1 both factors are < 0),
        # so each term adds scale·share >= 0 to a document's dot product over
        # its plus-one norm, and at most its peak contribution scale·peak.
        terms = []
        for term, weight in weights.items():
            postings = self.postings.get(term)
            if postings is not None and weight:
                scale = weight * postings.idf
                terms.append((scale * postings.peak, scale, postings))
        terms.sort(key=itemgetter(0), reverse=True)
        # reach[i]: what the terms from i on can add to any dot product,
        # summed from the end so that no subtraction rounds it low.
        reach = [0.0] * (len(terms) + 1)
        for i in range(len(terms) - 1, -1, -1):
            reach[i] = terms[i][0] + reach[i + 1]
        query_norm = math.sqrt(sum(weights[t] * weights[t] for t in sorted(weights)))
        # threshold is at most the best cosine, up to rounding: a document
        # with the query's tokens has the query's vector, so its cosine is 1.
        # Every sum here rounds differently from cosine's sorted sum()
        # (compensated from Python 3.12), by under terms * 2**-53 relatively
        # as every addend is >= 0, so each upper bound compared with the
        # threshold or the best score is widened by _MARGIN.
        threshold = 1.0 if tokens in self.positions else 0.0
        widen = (1.0 + _MARGIN) / query_norm

        dots = [0.0] * len(self.documents)  # each document's dot product so far
        ceiling = 0.0  # at least the largest of them
        alive = None  # once no other can, the documents that may reach threshold
        work = 0  # postings and lookups since alive was last pruned
        for i, (limit, scale, postings) in enumerate(terms):
            documents, shares = postings.documents, postings.shares
            if alive is None:
                if threshold <= reach[i] * widen <= ceiling / query_norm:
                    # A dot product times its document's floor is at most that
                    # document's cosine. The largest is looked for only when
                    # the ceiling lets it end the walk.
                    ceiling = max(dots)
                    floor = self.floors[dots.index(ceiling)]
                    threshold = max(threshold, ceiling * floor / query_norm)
                if reach[i] * widen < threshold:
                    # No document outside the terms walked can reach it.
                    alive = [position for position in compress(range(len(dots)), dots)
                             if (dots[position] + reach[i]) * widen >= threshold]
            if alive is not None and len(alive) * _LOOKUP_COST < len(documents):
                for position in alive:
                    k = bisect_left(documents, position)
                    if k < len(documents) and documents[k] == position:
                        dots[position] += scale * shares[k]
                work += len(alive) * _LOOKUP_COST
            else:
                for position, share in zip(documents, shares):
                    dots[position] += scale * share
                work += len(documents)
            ceiling += limit
            if alive is not None and work >= len(alive):
                # Raise threshold and prune: a pass costs about len(alive),
                # so no more than the work since the last one.
                top = max(alive, key=dots.__getitem__)
                threshold = max(threshold, dots[top] * self.floors[top] / query_norm)
                alive = [position for position in alive
                         if (dots[position] + reach[i + 1]) * widen >= threshold]
                work = 0
        if alive is None:  # every term walked
            alive = compress(range(len(dots)), dots)
        return sorted(((dots[position] * widen, position) for position in alive
                       if dots[position] * widen >= threshold), reverse=True)

    def classify(self, query: FailureRecord) -> TriageVerdict:
        """The verdict :func:`classify_nn` gives ``query`` against this history."""
        document = tokenize(query, "query")
        frequencies = {term: self.frequencies[term] + 1 for term in document.tokens}
        weights = _weights(document, frequencies, self.size + 1, self.log_base)
        if all(weight == 0.0 for weight in weights.values()):
            return TriageVerdict.of(0, 0)
        if self.empty_id is not None:
            raise EmptyDocument(f"document {self.empty_id!r} has no tokens")

        # Score exactly in descending bound, until no bound can reach the best
        # score; a bound equal to it may still tie, so it is scored too.
        best, tops = 0.0, []
        for bound, position in self._candidates(document.tokens, weights):
            if bound < best:
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
