"""End-to-end benchmark of flaketriage, with an optional per-layer traced run.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke          # every workload, tiny, traced too

Workloads (committed generator configs in ``perfbench/configs``):

* ``gate``: a CI gate waiting on one verdict at a time (closed loop, one
  client). Each raw log is parsed, normalized and triaged per test with exact
  matching against a paper-shaped history (2 x 40 tests, ~13k failures).
* ``gate-nn``: the same gate with TF-IDF nearest neighbour, on one
  paper-shaped project (~1.8k failures, over half of them duplicates).
* ``audit``: an analyst's batch reports on a wide corpus (2 x 60 tests, few
  repeats): in-process ``cli.main`` calls of ``corpus-stats`` and
  ``evaluate`` with ``--method match``, ``match --scope cross-test``,
  ``tree`` and ``bayes``, other flags at their defaults.

flaketriage receives only XML bytes, raw log text and CLI arguments; the
inputs are generated by ``inputs.py`` in a child process from the config and
``--seed``. Everything else runs in this process on one thread. The loop
cycles through a small pool of distinct operations (queries, or the five
audit calls) until they have taken ``--seconds``, so each one runs many
times, spread through the run. On the gate workloads an operation is one
verdict; on the audit it is a round, one whole pass over the five calls.

A shared host runs this code 1.5-1.9x slower in phases of seconds to
minutes. A median over one run's executions jumps between the slow and the
fast speed as the share of slow phases in the run crosses a half, while a
mean moves with that share smoothly. So ``op_p50_ms`` is the median over
the pool's distinct operations of each one's mean untraced latency (the
audit: the sum of the five calls' means, a mean round), and ``ops_per_s``
is the untraced operations' count over their total time. ``op_tail_ms`` is
taken over every untraced execution (the audit: every round), so it keeps
GC pauses and jitter: the highest percentile, at most p90, with ten samples
beyond it. The uncapped one (p99 on the gate) swung by half between runs of
the same code, so it is only reported. The set-up (XML bytes to a Corpus,
then the first operation) is repeated at points spread evenly through the
loop and ``setup_s`` is its median. Every output is checked outside the
timed window against ``reference.py`` and, for the audit at the committed
seed, ``digests.json``.

The last stdout line is the result: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics from spans around the
benchmark's calls into ``ingest``, ``model``, ``matching``, ``tfidf``,
``classifier``, ``evaluation`` and ``cli``, plus decomposition passes that
call the lower public functions on the same inputs. The line before it is a
report: environment, corpus shape, sample counts, verdict mix and checks.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(ROOT / "src"))

from flaketriage import (  # noqa: E402
    classifier,
    cli,
    evaluation,
    ingest,
    matching,
    model,
    tfidf,
)

import reference  # noqa: E402
from inputs import WORKLOADS, load_config  # noqa: E402
from spans import Tracer, no_span  # noqa: E402

AUDIT_CALLS = (
    ("corpus_stats", "corpus-stats", ["corpus-stats"]),
    ("evaluate_match", "evaluate-match", ["evaluate", "--method", "match"]),
    ("evaluate_xmatch", "evaluate-xmatch",
     ["evaluate", "--method", "match", "--scope", "cross-test"]),
    ("evaluate_tree", "evaluate-tree", ["evaluate", "--method", "tree"]),
    ("evaluate_bayes", "evaluate-bayes", ["evaluate", "--method", "bayes"]),
)
# Every non-smoke gate run must resolve at least one query to each of these.
REQUIRED_BASES = (
    matching.TriageBasis.MATCHED_FLAKY_ONLY,
    matching.TriageBasis.MATCHED_BOTH,
    matching.TriageBasis.MATCHED_NONE,
)
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
TAIL_CAP = 90.0  # ... but at most this one
DECOMPOSE_QUERIES = 200
DECOMPOSE_NN_BUDGET_S = 3.0


# --- statistics ----------------------------------------------------------------


def tail(samples: list[float], cap: float = 100.0) -> tuple[float, float]:
    """(value, percentile) of the highest percentile, at most ``cap``, with
    ten samples beyond it.

    With fewer than eleven samples no such percentile exists; the maximum is
    reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    beyond = max(TAIL_BEYOND, n - int(n * cap / 100))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


# --- environment -----------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
    }


def corpus_shape(corpus: model.Corpus, xml: bytes, queries: list) -> dict:
    frames = [f.raw for r in corpus.records() for f in r.frames]
    return {
        "projects": len(corpus.project_names()),
        "tests": sum(len(corpus.tests(p)) for p in corpus.project_names()),
        "failures": len(corpus),
        "flaky": corpus.count(label=model.Label.FLAKY),
        "frames": len(frames),
        "distinct_frames": len(set(frames)),
        "xml_bytes": len(xml),
        "queries": len(queries),
    }


# --- inputs ------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, smoke: bool, workdir: Path) -> tuple[bytes, list]:
    """Generate the inputs in a child process, so generation leaves no trace
    in this process's peak RSS."""
    command = [sys.executable, str(BENCH_DIR / "inputs.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(workdir)]
    if smoke:
        command.append("--smoke")
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    xml = (workdir / "history.xml").read_bytes()
    queries = json.loads((workdir / "queries.json").read_text(encoding="utf-8"))
    return xml, queries


# --- operations ----------------------------------------------------------------------


def query_test(query: dict) -> model.TestId:
    return model.TestId(query["project"], query["class_fqn"], query["method"])


def gate_op(corpus, query, span):
    """One CI-gate verdict: parse, normalize, per-test exact triage."""
    with span("ingest.parse_failure_text"):
        record = ingest.parse_failure_text(query["raw"], query_test(query))
    with span("ingest.normalize"):
        nf = ingest.normalize(record)
    with span("matching.triage"):
        return matching.triage(nf, corpus)


def gate_nn_op(corpus, query, span):
    """One CI-gate verdict by TF-IDF nearest neighbour."""
    with span("ingest.parse_failure_text"):
        record = ingest.parse_failure_text(query["raw"], query_test(query))
    with span("tfidf.classify_nn"):
        return tfidf.classify_nn(record, corpus)


def verdict_key(verdict) -> tuple[str, str, tuple[str, ...]]:
    return verdict.predicted.value, verdict.basis.value, tuple(verdict.evidence)


def _spanned(name: str, function, span):
    @functools.wraps(function)
    def call(*args, **kwargs):
        with span(name):
            return function(*args, **kwargs)
    return call


class _SpannedModule:
    """Stands in for a module inside ``cli``: each function it hands out runs
    in a span named ``<module>.<function>[cli]``."""

    def __init__(self, module, span):
        self._module = module
        self._span = span

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if not isinstance(value, types.FunctionType):
            return value
        return _spanned(f"{self._module.__name__.rsplit('.', 1)[-1]}.{name}[cli]", value, self._span)


@contextlib.contextmanager
def attributed_cli(span):
    """While active, the report commands' calls from ``cli`` into ``ingest``,
    ``matching`` and ``evaluation`` run in child spans, so a ``cli.main_*``
    span's self time is the CLI's own work: argument parsing, its per-project
    counts and record lists, and joining the output. Does nothing untraced."""
    if span is no_span:
        yield
        return
    saved = {name: getattr(cli, name)
             for name in ("evaluation", "read_corpus_xml", "repetitiveness")}
    cli.evaluation = _SpannedModule(evaluation, span)
    cli.read_corpus_xml = _spanned("ingest.read_corpus_xml[cli]", ingest.read_corpus_xml, span)
    cli.repetitiveness = _spanned("matching.repetitiveness[cli]", matching.repetitiveness, span)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(cli, name, value)


def cli_call(path: Path, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], "--corpus", str(path), *argv[1:]])
    return code, out.getvalue(), err.getvalue()


class Run:
    """State of one benchmark run: inputs, samples, failures and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.config = load_config(workload, smoke)
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report: dict = {}
        self.setup_times: list[float] = []
        self._expected = None

    def span(self, name):
        return self.tracer.span(name) if self.trace else no_span(name)

    def expected(self, records) -> dict:
        if self._expected is None:
            self._expected = reference.audit_expectations(records, evaluation.MIN_FLAKY_FOR_CV)
        return self._expected

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    # -- set-up -------------------------------------------------------------

    def setup_once(self, xml: bytes, first_op) -> model.Corpus:
        """One set-up: history XML bytes to a ready Corpus, then the first
        operation. Its time is one sample of ``setup_s``."""
        gc.collect()
        start = time.perf_counter()
        with self.span("ingest.read_corpus_xml"):
            corpus = ingest.read_corpus_xml(xml)
        if first_op is not None:
            first_op(corpus)
        self.setup_times.append(time.perf_counter() - start)
        return corpus

    # -- measured closed loop ------------------------------------------------

    def closed_loop(self, pool: list, do_op, setup, whole_passes: bool = False):
        """Run the pool's operations back to back, in passes, until they have
        taken ``seconds`` (and at least one pass, two when traced). With
        ``whole_passes`` the last pass is completed too.

        ``setup()`` returns a fresh Corpus and ``do_op(corpus, item, span)``
        runs one operation. The set-up runs ``setup_reps`` times (twice in a
        traced run), spread evenly over the operations' time so that the
        host's speed drift reaches set-up and operations alike. Each set-up
        drops the previous Corpus first, and the operations after it use the
        new one. CPU time and GC pauses count only inside operations.

        Every execution is recorded as (pass, index, traced, seconds). In a
        traced run every other execution is traced, and each pass swaps which,
        so the untraced half measures the tracing overhead on the same
        operations at the same time. Returns each operation's first result,
        each operation's execution count and the last Corpus.
        """
        reps = 2 if self.trace else self.config["setup_reps"]
        executions: list[tuple[int, int, bool, float]] = []
        results: dict[int, object] = {}
        gc_pauses: list[float] = []
        gc_start = [0.0]
        in_op = [False]

        def on_gc(phase, _info):
            if phase == "start":
                gc_start[0] = time.perf_counter()
            elif in_op[0]:
                gc_pauses.append(time.perf_counter() - gc_start[0])

        corpus = setup()
        gc.callbacks.append(on_gc)
        op_time = cpu_time = 0.0
        minimum = (2 if self.trace else 1) * len(pool)
        i = 0
        try:
            while i < minimum or op_time < self.seconds or (whole_passes and i % len(pool)):
                while (len(self.setup_times) < reps
                       and op_time >= self.seconds * len(self.setup_times) / reps):
                    corpus = None
                    corpus = setup()
                index = i % len(pool)
                traced = self.trace and (index + i // len(pool)) % 2 == 1
                span = self.tracer.span if traced else no_span
                self.attempted += 1
                in_op[0] = True
                cpu0 = time.process_time()
                start = time.perf_counter()
                try:
                    with span("bench.op"):
                        result = do_op(corpus, pool[index], span)
                except Exception:
                    self.fail(f"op {index} raised: {traceback.format_exc(limit=3)}")
                    result = None
                seconds = time.perf_counter() - start
                cpu_time += time.process_time() - cpu0
                in_op[0] = False
                op_time += seconds
                executions.append((i // len(pool), index, traced, seconds))
                if index not in results:
                    results[index] = result
                elif result != results[index]:
                    self.fail(f"op {index} gave a different result on a repeat")
                i += 1
            while len(self.setup_times) < reps:
                corpus = None
                corpus = setup()
        finally:
            gc.callbacks.remove(on_gc)
        # Read before the checks run, so reference data does not count.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.loop = {
            "executions": executions,
            "cpu_s": cpu_time,
            "gc_pause_s": sum(gc_pauses),
            "gc_max_pause_ms": 1000 * max(gc_pauses, default=0.0),
            "passes": i / len(pool),
        }
        return results, Counter(index for _, index, _, _ in executions), corpus

    # -- workloads ----------------------------------------------------------

    def run_gate(self, xml: bytes, queries: list, workdir: Path) -> None:
        op = gate_op if self.workload == "gate" else gate_nn_op
        pool = queries[: self.config["pool"]]
        results, executions, corpus = self.closed_loop(
            pool, op, lambda: self.setup_once(xml, lambda c: op(c, queries[0], no_span)))
        self.report["shape"] = corpus_shape(corpus, xml, queries)
        verdicts = {i: verdict_key(v) for i, v in results.items() if v is not None}
        self.report["bases"] = dict(sorted(Counter(v[1] for v in verdicts.values()).items()))
        if self.workload == "gate" and not self.smoke:
            for basis in REQUIRED_BASES:
                if basis.value not in self.report["bases"]:
                    self.fail(f"no gate query resolved to {basis.value}")

        records = reference.read_history(xml)
        if self.workload == "gate":
            ref = reference.GateReference(records)
            for index, got in verdicts.items():
                want = ref.verdict(queries[index])
                if got != want:
                    self.fail(f"gate query {index}: got {got[:2]}, expected {want[:2]}",
                              executions[index])
            self.report["checked"] = {"gate_verdicts": len(verdicts)}
        else:
            sample = self.nn_sample(sorted(verdicts))
            self.check_nn({i: verdicts[i] for i in sample}, queries, records, executions)
            self.report["checked"] = {"nn_verdicts": len(sample)}
        if self.trace:
            self.decompose(corpus, queries, records, workdir, results)

    def nn_sample(self, indexes: list[int]) -> list[int]:
        size = min(len(indexes), self.config.get("nn_check_sample", 2))
        return sorted(random.Random(f"nn-check/{self.seed}").sample(indexes, size))

    def check_nn(self, verdicts: dict, queries, records, executions=None) -> None:
        for index, got in verdicts.items():
            want = reference.nn_verdict(queries[index], records)
            if got != want:
                count = executions[index] if executions else 1
                self.fail(f"nn query {index}: got {got[:2]}, expected {want[:2]}", count)

    def run_audit(self, xml: bytes, queries: list, workdir: Path) -> None:
        path = workdir / "history.xml"

        def call_op(_corpus, call, span):
            name, label, argv = call
            with span(f"cli.main_{name}"), attributed_cli(span):
                code, out, err = cli_call(path, argv)
            if code != 0:
                raise RuntimeError(f"{label} exited {code}: {err.strip()[:200]}")
            return out

        results, executions, corpus = self.closed_loop(
            AUDIT_CALLS, call_op, lambda: self.setup_once(xml, None), whole_passes=True)
        self.report["shape"] = corpus_shape(corpus, xml, queries)
        self.report["call_s"] = {
            AUDIT_CALLS[i][0]: seconds for i, seconds in sorted(self.op_means().items())}
        outputs = {AUDIT_CALLS[i][1]: out for i, out in results.items() if out is not None}
        records = reference.read_history(xml)
        self.check_audit_outputs(outputs, records, executions)
        if self.trace:
            self.decompose(corpus, queries, records, workdir, None)

    def check_audit_outputs(self, outputs: dict, records, executions: dict) -> None:
        expected = self.expected(records)
        digests = {label: hashlib.sha256(out.encode("utf-8")).hexdigest()
                   for label, out in outputs.items()}
        self.report["stdout_sha256"] = digests
        committed = json.loads((BENCH_DIR / "digests.json").read_text("utf-8"))
        pinned = committed.get("audit-smoke" if self.smoke else "audit", {})
        use_digest = self.seed == committed["seed"]
        for label, out in outputs.items():
            problems = reference.check_report(label, out, expected)
            if use_digest and pinned.get(label) != digests[label]:
                problems.append(f"{label}: stdout differs from the committed digest")
            if problems:
                index = [call[1] for call in AUDIT_CALLS].index(label)
                self.fail("; ".join(problems), executions[index])
        self.report["checked"] = {
            "audit_reports": len(outputs), "digest": use_digest,
        }

    # -- traced decomposition ---------------------------------------------------

    def decompose(self, corpus, queries, records, workdir, loop_results):
        """Call the lower public functions on the same inputs, one span each."""
        span = self.tracer.span
        counts: dict[str, float] = {}
        history = list(corpus.records())
        projects = corpus.project_names()
        known = {p: frozenset(corpus.tests(p)) for p in projects}

        with span("ingest.normalize[history]"):
            nfs = [ingest.normalize(r) for r in history]
        frames = [f for r in history for f in r.frames]
        counts["ingest.frames"] = len(frames)
        counts["ingest.frames_distinct"] = len({f.raw for f in frames})
        counts["ingest.noise_frames"] = sum(
            1 for f in frames if ingest.DEFAULT_NOISE_PATTERN.search(f.class_fqn))

        with span("matching.signature[per_test]"):
            signatures = [matching.signature(nf) for nf in nfs]
        counts["matching.distinct_signatures"] = len(
            {(nf.base.test, sig) for nf, sig in zip(nfs, signatures)})
        with span("matching.signature[cross_test]"):
            for nf in nfs:
                matching.signature(nf, matching.MatchMode.FULL,
                                   matching.MatchScope.CROSS_TEST, known[nf.base.test.project])
        with span("matching.repetitiveness"):
            repetition = matching.repetitiveness(corpus)

        with span("tfidf.tokenize[history]"):
            docs = [tfidf.tokenize(r) for r in history]
        counts["tfidf.documents"] = len(docs)
        counts["tfidf.distinct_documents"] = len({d.tokens for d in docs})
        counts["tfidf.tokens"] = sum(len(d.tokens) for d in docs)

        cut = {p: classifier.default_cut_prefixes(known[p]) for p in projects}
        with span("classifier.extract_features[history]"):
            data = [
                (classifier.extract_features(nf, known[p], cut[p]), nf.base.label)
                for nf in nfs
                for p in (nf.base.test.project,)
            ]
        with span("classifier.train_decision_tree"):
            classifier.train_decision_tree(data)
        with span("classifier.train_naive_bayes"):
            classifier.train_naive_bayes(data)

        with span("model.subset"):
            subsets = {p: corpus.subset(p) for p in projects}
        scores = {}
        for scope, label in ((matching.MatchScope.PER_TEST, "per_test"),
                             (matching.MatchScope.CROSS_TEST, "cross_test")):
            with span(f"evaluation.score_matching[{label}]"):
                scores[label] = {
                    p: evaluation.score_matching(sub, matching.MatchMode.FULL, scope)
                    for p, sub in subsets.items()
                }
        with span("evaluation.distinct_signature_counts"):
            distinct = {p: evaluation.distinct_signature_counts(corpus, p) for p in projects}
        with span("evaluation.exception_frequency"):
            exception_rows = [evaluation.exception_frequency(corpus, mode)
                              for mode in (matching.MatchMode.FULL,
                                           matching.MatchMode.EXCEPTION_ONLY)]
        # Cross-validation is timed inside the CLI's evaluate calls, which run
        # it project by project through ``cross_validate_project``.
        project_counts = {
            p: (len(corpus.tests(p)), corpus.count(p, model.Label.FLAKY),
                corpus.count(p, model.Label.TRUE))
            for p in projects
        }
        with span("evaluation.render[matching]"):
            evaluation.render_matching_table({
                p: (scores["per_test"][p], t, n_true, n_flaky, distinct[p][1], distinct[p][0])
                for p, (t, n_flaky, n_true) in project_counts.items()
            })
        with span("evaluation.render[exceptions]"):
            for rows in exception_rows:
                evaluation.render_exceptions_table(rows)
        with span("evaluation.render[repetitiveness]"):
            evaluation.render_repetitiveness_table(repetition)
        self.check_decomposition(records, scores, repetition)

        self.decompose_queries(corpus, queries, records, counts, loop_results)

        if self.workload != "audit":  # the audit's own loop already timed the CLI
            path = workdir / "history.xml"
            outputs = {}
            for name, label, argv in AUDIT_CALLS:
                self.attempted += 1
                with span(f"cli.main_{name}"), attributed_cli(span):
                    code, out, err = cli_call(path, argv)
                if code != 0:
                    self.fail(f"{label} exited {code}: {err.strip()[:200]}")
                outputs[label] = out
            expected = self.expected(records)
            for label, out in outputs.items():
                for problem in reference.check_report(label, out, expected):
                    self.fail(problem)
        self.counts = counts

    def check_decomposition(self, records, scores, repetition) -> None:
        expected = self.expected(records)
        for label in ("per_test", "cross_test"):
            total = evaluation.ConfusionMatrix()
            for score in scores[label].values():
                total = total + score.matrix
            want = expected[label]
            if (total.tp, total.fn, total.fp, total.tn) != tuple(
                    want[c] for c in ("tp", "fn", "fp", "tn")):
                self.fail(f"score_matching[{label}] total {total} differs from the reference")
        got = repetition.total()
        stats = expected["stats"]
        if (got.flaky, got.distinct, got.uniq_per_test, got.uniq_cross) != (
                stats["flaky"], stats["set"], stats["uniq_per_test"], stats["uniq_cross"]):
            self.fail("repetitiveness total differs from the reference")

    def decompose_queries(self, corpus, queries, records, counts, loop_results) -> None:
        """Per-query layer work for the queries this workload's loop does not time."""
        span = self.tracer.span
        compared, hits, nn_verdicts = [], [], {}
        ref = reference.GateReference(records)
        for index, query in enumerate(queries[:DECOMPOSE_QUERIES]):
            test = query_test(query)
            with span("model.identified_records"):
                for _ in corpus.identified_records(test.project):
                    pass
            compared.append(len(corpus.bucket(test, model.Label.FLAKY))
                            + len(corpus.bucket(test, model.Label.TRUE)))
            if self.workload == "gate" and index in loop_results:
                verdict = loop_results[index]
            else:
                self.attempted += 1
                verdict = gate_op(corpus, query, span)
                if verdict_key(verdict) != ref.verdict(query):
                    self.fail(f"decomposition triage of query {index} differs from the reference")
            hits.append(verdict.basis is not matching.TriageBasis.MATCHED_NONE)
        if self.workload != "gate-nn":
            deadline = time.perf_counter() + DECOMPOSE_NN_BUDGET_S
            for index, query in enumerate(queries):
                if index >= 2 and time.perf_counter() > deadline:
                    break
                self.attempted += 1
                nn_verdicts[index] = verdict_key(gate_nn_op(corpus, query, span))
            sample = self.nn_sample(sorted(nn_verdicts))
            self.check_nn({i: nn_verdicts[i] for i in sample}, queries, records)
        counts["matching.records_per_query"] = statistics.fmean(compared) if compared else 0.0
        counts["matching.hit_ratio"] = statistics.fmean(hits) if hits else 0.0

    # -- metrics ------------------------------------------------------------

    def op_medians(self, traced: bool) -> dict[int, float]:
        """Median latency of each distinct operation over its executions."""
        by_op = defaultdict(list)
        for _, index, was_traced, seconds in self.loop["executions"]:
            if was_traced == traced:
                by_op[index].append(seconds)
        return {index: statistics.median(v) for index, v in by_op.items()}

    def op_means(self) -> dict[int, float]:
        """Mean latency of each distinct operation over its untraced executions."""
        by_op = defaultdict(list)
        for _, index, traced, seconds in self.loop["executions"]:
            if not traced:
                by_op[index].append(seconds)
        return {index: statistics.fmean(v) for index, v in by_op.items()}

    def op_samples(self) -> list[float]:
        """Latency of every untraced operation: one verdict on the gate
        workloads, one pass over the five calls (a round) on the audit."""
        plain = [e for e in self.loop["executions"] if not e[2]]
        if self.workload != "audit":
            return [seconds for *_, seconds in plain]
        rounds = defaultdict(list)
        for pass_no, _, _, seconds in plain:
            rounds[pass_no].append(seconds)
        return [sum(r) for r in rounds.values() if len(r) == len(AUDIT_CALLS)]

    def operations(self) -> float:
        """Operations run in the loop, traced or not (audit: rounds)."""
        calls = len(self.loop["executions"])
        return calls / len(AUDIT_CALLS) if self.workload == "audit" else calls

    def end_to_end(self) -> dict:
        samples = self.op_samples()
        tail_value, tail_pct = tail(samples, TAIL_CAP)
        uncapped_value, uncapped_pct = tail(samples)
        means = self.op_means()
        typical = (sum(means.values()) if self.workload == "audit"
                   else statistics.median(means.values()))
        self.report["samples"] = {
            "operations": len(samples), "distinct": len(means), "passes": self.loop["passes"],
            "tail_percentile": tail_pct, "setup_reps": len(self.setup_times),
            "uncapped_tail_ms": 1000 * uncapped_value, "uncapped_tail_percentile": uncapped_pct,
        }
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "op_p50_ms": (1000 * typical, "ms"),
            "op_tail_ms": (1000 * tail_value, "ms"),
            "ops_per_s": (len(samples) / sum(samples), "1/s"),
        }

    def per_layer(self) -> dict:
        t = self.tracer

        def med(name, scale=1.0):
            values = t.durations(name)
            return scale * statistics.median(values) if values else 0.0

        def total(name):
            return sum(t.durations(name))

        metrics = {
            "ingest.read_corpus_xml_s": (med("ingest.read_corpus_xml"), "s"),
            "ingest.parse_failure_text_ms": (med("ingest.parse_failure_text", 1000), "ms"),
            "ingest.normalize_s": (total("ingest.normalize[history]"), "s"),
            "model.identified_records_ms": (med("model.identified_records", 1000), "ms"),
            "matching.triage_ms": (med("matching.triage", 1000), "ms"),
            "matching.signature_per_test_s": (total("matching.signature[per_test]"), "s"),
            "matching.signature_cross_test_s": (total("matching.signature[cross_test]"), "s"),
            "matching.repetitiveness_s": (total("matching.repetitiveness"), "s"),
            "tfidf.classify_nn_ms": (med("tfidf.classify_nn", 1000), "ms"),
            "tfidf.tokenize_s": (total("tfidf.tokenize[history]"), "s"),
            "classifier.extract_features_s": (total("classifier.extract_features[history]"), "s"),
            "classifier.train_decision_tree_s": (total("classifier.train_decision_tree"), "s"),
            "classifier.train_naive_bayes_s": (total("classifier.train_naive_bayes"), "s"),
            "evaluation.score_matching_per_test_s": (
                total("evaluation.score_matching[per_test]"), "s"),
            "evaluation.score_matching_cross_test_s": (
                total("evaluation.score_matching[cross_test]"), "s"),
            "evaluation.distinct_signature_counts_s": (
                total("evaluation.distinct_signature_counts"), "s"),
            "evaluation.exception_frequency_s": (total("evaluation.exception_frequency"), "s"),
            "evaluation.render_s": (sum(
                total(f"evaluation.render[{k}]")
                for k in ("matching", "exceptions", "repetitiveness"))
                + med("evaluation.render_cv_table[cli]"), "s"),
        }
        for method in ("tree", "bayes"):
            cv = t.child_totals(f"cli.main_evaluate_{method}",
                                "evaluation.cross_validate_project[cli]")
            metrics[f"evaluation.cross_validate_{method}_s"] = (statistics.median(cv), "s")
        for name, _, _ in AUDIT_CALLS:
            metrics[f"cli.main_{name}_s"] = (med(f"cli.main_{name}"), "s")
            own = t.self_durations(f"cli.main_{name}")
            metrics[f"cli.self_{name}_s"] = (statistics.median(own) if own else 0.0, "s")
        operations = self.operations()
        metrics["proc.cpu_ms_per_op"] = (1000 * self.loop["cpu_s"] / operations, "ms")
        metrics["proc.gc_pause_ms_per_op"] = (1000 * self.loop["gc_pause_s"] / operations, "ms")
        plain, traced = self.op_medians(False), self.op_medians(True)
        both = sorted(plain.keys() & traced.keys())
        ratio = (statistics.median([traced[i] for i in both])
                 / statistics.median([plain[i] for i in both]))
        metrics["trace.overhead_pct"] = (100 * (ratio - 1), "%")
        for name, value in self.counts.items():
            metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
        self.report["layer_self_s"] = {
            k: round(v, 6) for k, v in sorted(self.tracer.layer_self_times().items())}
        self.report["gc_max_pause_ms"] = self.loop["gc_max_pause_ms"]
        return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run one workload; returns (report, result line)."""
    run = Run(workload, seed, seconds, trace, smoke)
    workdir = WORK_DIR / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        xml, queries = make_inputs(workload, seed, smoke, workdir)
        if workload == "audit":
            run.run_audit(xml, queries, workdir)
        else:
            run.run_gate(xml, queries, workdir)
        metrics = run.per_layer() if trace else run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        trace_path = WORK_DIR / "traces" / f"{workload}-seed{seed}{'-smoke' if smoke else ''}.json"
        run.tracer.write(trace_path)
        run.report["trace_file"] = str(trace_path.relative_to(ROOT))
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, **environment(), **run.report,
        "failed_ops_ratio": run.failed / max(run.attempted, 1),
        "problems": run.problems,
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="flaketriage benchmark", epilog="See the module docstring.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; without --workload runs every workload, "
                             "untraced and traced")
    args = parser.parse_args(argv)
    if args.smoke:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        traces = [bool(args.trace)] if args.trace is not None else [False, True]
        seed = 7 if args.seed is None else args.seed
        seconds = 0.5 if args.seconds is None else args.seconds
        ok = True
        for workload in workloads:
            for trace in traces:
                report, result = run_workload(workload, seed, seconds, trace, True)
                print(json.dumps({"report": report}))
                print(json.dumps(result))
                ok = ok and result["correct"]
        return 0 if ok else 1
    missing = [name for name in ("workload", "seed", "seconds", "trace")
               if getattr(args, name) is None]
    if missing:
        parser.error("missing " + ", ".join(f"--{m}" for m in missing))
    report, result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), False)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
