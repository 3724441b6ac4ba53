"""Straightforward reference implementations the benchmark checks outputs against.

They read the history XML with ElementTree and work on plain strings, so a
defect in flaketriage's reader, parser or matcher cannot hide itself by also
corrupting the reference:

* ``GateReference`` recomputes every per-test exact-matching verdict (label,
  basis and evidence ids) by the paper's rule: flaky exactly when the failure
  matches at least one flaky and no true record of its test.
* ``nn_verdict`` is a plain TF-IDF nearest neighbour over one project. It
  sums in sorted-term order like the library does, so exact float ties agree.
* ``audit_expectations`` gives the confusion counts and repetitiveness counts
  the ``total`` rows of the audit reports must show.
"""
from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict

_NOISE = re.compile(r"(?:GeneratedMethodAccessor|GeneratedConstructorAccessor)\d+")
_SYMBOLS = str.maketrans({c: " " for c in "():<>$,;"})


class Record:
    """One history failure as plain strings, with its record id."""

    __slots__ = ("project", "class_fqn", "test", "label", "exception", "frames", "rid")

    def __init__(self, project, class_fqn, test, label, exception, frames, rid=""):
        self.project = project
        self.class_fqn = class_fqn
        self.test = test  # full name, class.method
        self.label = label  # "flaky" or "true"
        self.exception = exception
        self.frames = frames  # raw frame texts, topmost first
        self.rid = rid


def read_history(xml: bytes) -> list[Record]:
    """Records in the order and with the ids ``Corpus.identified_records`` uses."""
    buckets: dict[tuple[str, str, str], dict[str, list[Record]]] = {}
    for failure in ET.fromstring(xml).iter("Failure"):
        t = failure.find("T")
        project, test = t.get("project"), t.text.strip()
        class_fqn, method = test.rsplit(".", 1)
        record = Record(
            project,
            class_fqn,
            test,
            failure.get("label", "flaky"),
            failure.find("E").text.strip(),
            tuple(line.text.strip() for line in failure.find("S")),
        )
        key = (project, class_fqn, method)
        buckets.setdefault(key, {"flaky": [], "true": []})[record.label].append(record)
    records = []
    for project, class_fqn, method in sorted(buckets):
        for label in ("flaky", "true"):
            for i, record in enumerate(buckets[project, class_fqn, method][label]):
                record.rid = f"{project}/{class_fqn}.{method}/{label}[{i}]"
                records.append(record)
    return records


def _location(frame: str) -> tuple[str, str]:
    """(class.method, class) of a raw frame text."""
    loc = frame[: frame.index("(")]
    return loc, loc.rsplit(".", 1)[0]


def kept_frames(test: str, class_fqn: str, frames) -> tuple[str, ...]:
    """Drop reflection noise, then cut the trace at the test boundary."""
    survivors = [f for f in frames if not _NOISE.search(_location(f)[1])]
    for i, frame in enumerate(survivors):
        if _location(frame)[0].startswith(test):
            return tuple(survivors[: i + 1])
    for i in range(len(survivors) - 1, -1, -1):
        if _location(survivors[i])[1] == class_fqn:
            return tuple(survivors[: i + 1])
    return tuple(survivors)


def cross_frames(record: Record, known_tests) -> tuple[str, ...]:
    """Kept frames minus those pointing at the own test class or any known test."""
    out = []
    for frame in kept_frames(record.test, record.class_fqn, record.frames):
        loc, cls = _location(frame)
        if cls != record.class_fqn and not any(loc.startswith(t) for t in known_tests):
            out.append(frame)
    return tuple(out)


def verdict(flaky_hits: list[str], true_hits: list[str]) -> tuple[str, str, tuple[str, ...]]:
    """(predicted label, basis, evidence) under the conservative rule."""
    if flaky_hits and true_hits:
        basis = "matched_both"
    elif flaky_hits:
        basis = "matched_flaky_only"
    elif true_hits:
        basis = "matched_true"
    else:
        basis = "matched_none"
    label = "flaky" if basis == "matched_flaky_only" else "true"
    return label, basis, tuple(flaky_hits + true_hits)


class GateReference:
    """Per-test full-signature verdicts by brute force over the test's records."""

    def __init__(self, records: list[Record]) -> None:
        self._by_test: dict[tuple[str, str], list[Record]] = defaultdict(list)
        for record in records:
            self._by_test[record.project, record.test].append(record)

    def verdict(self, query: dict) -> tuple[str, str, tuple[str, ...]]:
        test = f"{query['class_fqn']}.{query['method']}"
        target = (
            query["exception_type"],
            kept_frames(test, query["class_fqn"], query["frames"]),
        )
        hits: dict[str, list[str]] = {"flaky": [], "true": []}
        for record in self._by_test[query["project"], test]:
            key = (record.exception, kept_frames(record.test, record.class_fqn, record.frames))
            if key == target:
                hits[record.label].append(record.rid)
        return verdict(hits["flaky"], hits["true"])


# --- TF-IDF nearest neighbour ------------------------------------------------


def tokens(exception: str, frames) -> list[str]:
    out = []
    for text in (exception, *frames):
        for chunk in text.translate(_SYMBOLS).split():
            out.extend(part for part in chunk.split(".") if part)
    return out


def _weights(doc: list[str], df: Counter, n_docs: int) -> dict[str, float]:
    counts = Counter(doc)
    return {t: (c / len(doc)) * math.log(n_docs / df[t]) for t, c in counts.items()}


def _norm(vector: dict[str, float]) -> float:
    return math.sqrt(sum(vector[t] * vector[t] for t in sorted(vector)))


def nn_verdict(query: dict, records: list[Record]) -> tuple[str, str, tuple[str, ...]]:
    """Verdict of the most similar record of the query's project; ties are true."""
    history = [r for r in records if r.project == query["project"]]
    docs = [tokens(r.exception, r.frames) for r in history]
    query_doc = tokens(query["exception_type"], query["frames"])
    df: Counter = Counter()
    for doc in docs + [query_doc]:
        df.update(set(doc))
    n_docs = len(docs) + 1
    q = _weights(query_doc, df, n_docs)
    q_norm = _norm(q)
    if q_norm == 0.0:
        return "true", "matched_none", ()
    scored = []
    for record, doc in zip(history, docs):
        v = _weights(doc, df, n_docs)
        v_norm = _norm(v)
        dot = sum(q[t] * v[t] for t in sorted(q.keys() & v.keys()))
        score = 0.0 if v_norm == 0.0 else dot / (q_norm * v_norm)
        scored.append((score, record))
    best = max(score for score, _ in scored)
    if best == 0.0:
        return "true", "matched_none", ()
    top = [record for score, record in scored if score == best]
    labels = {record.label for record in top}
    evidence = tuple(sorted(record.rid for record in top))
    if labels == {"flaky"}:
        return "flaky", "matched_flaky_only", evidence
    return "true", "matched_both" if len(labels) == 2 else "matched_true", evidence


# --- audit report totals -----------------------------------------------------


def _confusion(records: list[Record], key_of) -> Counter:
    groups: dict[object, Counter] = defaultdict(Counter)
    keys = [key_of(r) for r in records]
    for record, key in zip(records, keys):
        groups[key][record.label] += 1
    out: Counter = Counter()
    for record, key in zip(records, keys):
        group = groups[key]
        if record.label == "flaky":
            out["tp" if group["flaky"] >= 2 and group["true"] == 0 else "fn"] += 1
        else:
            out["fp" if group["flaky"] >= 1 else "tn"] += 1
    return out


def audit_expectations(records: list[Record], min_flaky_for_cv: int = 10) -> dict:
    """Totals every audit report must show for this history."""
    by_project: dict[str, list[Record]] = defaultdict(list)
    for record in records:
        by_project[record.project].append(record)
    per_test, cross, exc_only = Counter(), Counter(), Counter()
    stats: Counter = Counter()
    cv: Counter = Counter()
    for project_records in by_project.values():
        known = sorted({r.test for r in project_records})
        full = {id(r): (r.test, r.exception, kept_frames(r.test, r.class_fqn, r.frames))
                for r in project_records}
        xkey = {id(r): (r.exception, cross_frames(r, known)) for r in project_records}
        per_test += _confusion(project_records, lambda r: full[id(r)])
        cross += _confusion(project_records, lambda r: xkey[id(r)])
        exc_only += _confusion(project_records, lambda r: (r.test, r.exception))

        flaky = [r for r in project_records if r.label == "flaky"]
        full_groups = Counter(full[id(r)] for r in flaky)
        cross_groups = Counter(xkey[id(r)] for r in flaky)
        uniq = sum(1 for r in flaky if full_groups[full[id(r)]] == 1)
        uniq_x = sum(1 for r in flaky if cross_groups[xkey[id(r)]] == 1)
        stats.update(
            tests=len({r.test for r in flaky}), flaky=len(flaky), set=len(full_groups),
            uniq_per_test=uniq, repet_per_test=len(flaky) - uniq,
            uniq_cross=uniq_x, repet_cross=len(flaky) - uniq_x,
        )
        if len(flaky) >= min_flaky_for_cv:
            cv.update(tests=len(known), flaky=len(flaky), true=len(project_records) - len(flaky))
    return {
        "failures": len(records),
        "per_test": per_test,
        "cross_test": cross,
        "exceptions_full": per_test,
        "exceptions_only": exc_only,
        "stats": stats,
        "cv": cv,
    }


def _tables(stdout: str) -> dict[str, list[list[str]]]:
    """Rows of each ``== title ==`` section; the untitled head is under ''."""
    sections: dict[str, list[list[str]]] = {"": []}
    current = ""
    for line in stdout.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            current = line[3:-3]
            sections[current] = []
        elif line.strip():
            sections[current].append(line.split())
    return sections


def _row(rows: list[list[str]], first: str) -> dict[str, str] | None:
    for row in rows[1:]:
        if row[0] == first:
            return dict(zip(rows[0], row))
    return None


def _column_sums(rows: list[list[str]], columns) -> Counter:
    header = rows[0]
    out: Counter = Counter()
    for row in rows[1:]:
        cells = dict(zip(header, row))
        for column in columns:
            out[column] += int(cells[column])
    return out


def check_report(command: str, stdout: str, expected: dict) -> list[str]:
    """Problems found in one audit command's stdout; empty when it is right."""
    problems = []
    sections = _tables(stdout)
    cm = ("tp", "fn", "fp", "tn")

    def compare(what: str, got, want: dict) -> None:
        if got is None:
            problems.append(f"{command}: no {what} row")
            return
        for column, value in want.items():
            if int(got[column]) != value:
                problems.append(
                    f"{command}: {what} {column} is {got[column]}, expected {value}"
                )

    if command == "corpus-stats":
        compare("total", _row(sections[""], "total"), dict(expected["stats"]))
        return problems
    main = next((rows for title, rows in sections.items()
                 if title.startswith(("text matching", "cross-validation"))), None)
    if main is None:
        return [f"{command}: no main table"]
    total = _row(main, "total")
    if command in ("evaluate-match", "evaluate-xmatch"):
        counts = expected["per_test" if command == "evaluate-match" else "cross_test"]
        compare("total", total, {c: counts[c] for c in cm})
    else:
        cv = expected["cv"]
        compare("total", total, {c: cv[c] for c in ("tests", "flaky", "true")})
        if total is not None:
            if int(total["tp"]) + int(total["fn"]) != cv["flaky"]:
                problems.append(f"{command}: tp + fn differs from the flaky count")
            if int(total["fp"]) + int(total["tn"]) != cv["true"]:
                problems.append(f"{command}: fp + tn differs from the true count")
    for title, key in (
        ("exceptions (full matching)", "exceptions_full"),
        ("exceptions (exception-only matching)", "exceptions_only"),
    ):
        rows = sections.get(title)
        if not rows or not {"failures", *cm} <= set(rows[0]):
            problems.append(f"{command}: no {title} table")
            continue
        sums = _column_sums(rows, ("failures",) + cm)
        want = {c: expected[key][c] for c in cm}
        want["failures"] = expected["failures"]
        for column, value in want.items():
            if sums[column] != value:
                problems.append(
                    f"{command}: {title} {column} sums to {sums[column]}, expected {value}"
                )
    return problems
