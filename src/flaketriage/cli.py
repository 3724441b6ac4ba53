"""Command-line surface: parse, corpus-stats, classify, evaluate, generate.

Exit codes: 0 success (classify: verdict flaky), 1 usage error, 2 data or
schema error, 3 classify verdict "true failure" (distinct from tool errors so
CI can gate on it). All output is deterministic for fixed inputs and seeds.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import evaluation
from .errors import FlakeTriageError
from .ingest import (
    normalize,
    parse_failure_file,
    read_corpus_xml,
    write_corpus_xml,
)
from .matching import (
    MatchMode,
    MatchScope,
    repetitiveness,
    signature,
    triage,
)
from .model import Corpus, FailureRecord, Label, TestId
from .synth import GeneratorConfig, generate
from .tfidf import classify_nn

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRUE_FAILURE = 3

_METHODS = ("match", "tree", "bayes", "tfidf")
_MODES = {"full": MatchMode.FULL, "exception-only": MatchMode.EXCEPTION_ONLY}
_SCOPES = {"per-test": MatchScope.PER_TEST, "cross-test": MatchScope.CROSS_TEST}
# Each trained classifier's trainer, and the detail classify prints with it.
_CLASSIFIERS = {
    "tree": (evaluation.tree_trainer, "decision_tree"),
    "bayes": (evaluation.bayes_trainer, "naive_bayes"),
}
# The flags only some methods read: each one's value when unset, and the
# methods that read it. Any other method given the flag is a usage error.
_METHOD_FLAGS = {
    "k": (evaluation.DEFAULT_FOLDS, ("tree", "bayes", "tfidf")),
    "seed": (0, ("tree", "bayes", "tfidf")),
    "oversample": (False, ("tree", "bayes")),
    "scope": ("per-test", ("match",)),
    "mode": ("full", ("match",)),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # data errors, so force usage problems onto exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flaketriage",
        description=(
            "Parse test-failure logs and decide, against a labeled history, "
            "whether a new failure is flaky."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("parse", help="parse one raw failure log")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--test", required=True, help="full test name (class.method)")
    p.add_argument("--project", required=True)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("corpus-stats", help="repetitiveness statistics of a corpus")
    p.add_argument("--corpus", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_corpus_stats)

    p = sub.add_parser("classify", help="triage one failure against a corpus")
    p.add_argument("--corpus", required=True, metavar="FILE")
    p.add_argument("--failure", required=True, metavar="FILE")
    p.add_argument("--test", required=True, help="full test name (class.method)")
    p.add_argument("--method", required=True, choices=_METHODS)
    p.add_argument("--scope", choices=sorted(_SCOPES))
    p.add_argument("--mode", choices=sorted(_MODES))
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("evaluate", help="evaluate a method over a labeled corpus")
    p.add_argument("--corpus", required=True, metavar="FILE")
    p.add_argument("--method", required=True, choices=_METHODS)
    p.add_argument(
        "--k", type=_int_at_least(2), help="cross-validation folds (at least 2)"
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--oversample", action="store_true", default=None)
    p.add_argument("--scope", choices=sorted(_SCOPES))
    p.add_argument("--mode", choices=sorted(_MODES))
    p.add_argument(
        "--report-dir", metavar="DIR", help="also write per-project report files"
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("generate", help="generate a synthetic labeled corpus")
    p.add_argument("--config", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_generate)

    return parser


def _split_test_name(name: str) -> tuple[str, str]:
    class_fqn, _, method = name.rpartition(".")
    if not class_fqn or not method:
        raise FlakeTriageError(
            f"test name must be class.method, got {name!r}"
        )
    return class_fqn, method


def _parse_failure(path: str, test: TestId) -> FailureRecord:
    """Parse a failure log, warning on stderr about each malformed frame."""
    diagnostics: list[str] = []
    record = parse_failure_file(path, test, diagnostics)
    for note in diagnostics:
        print(f"warning: {note}", file=sys.stderr)
    return record


def _load_corpus(path: str) -> Corpus:
    with open(path, "rb") as handle:
        return read_corpus_xml(handle)


def _cmd_parse(args) -> int:
    class_fqn, method = _split_test_name(args.test)
    if not args.project:
        raise FlakeTriageError("project must be non-empty")
    test = TestId(args.project, class_fqn, method)
    record = _parse_failure(args.infile, test)
    nf = normalize(record)
    sig = signature(nf)

    print(f"project: {test.project}")
    print(f"test: {test.full_name()}")
    print(f"exception: {record.exception_type}")
    if record.exception_fqn:
        print(f"exception_fqn: {record.exception_fqn}")
    print(f"message: {record.message}")
    print(f"frames ({len(record.frames)}):")
    for frame in record.frames:
        print(f"  {frame.raw}")
    print(
        f"kept after normalization ({len(nf.kept_frames)}, "
        f"basis={nf.truncation_basis}):"
    )
    for frame in nf.kept_frames:
        print(f"  {frame.raw}")
    print("signature (full, per_test):")
    print(f"  {sig.exception_type}")
    for key in sig.frame_keys:
        print(f"  {key}")
    return EXIT_OK


def _cmd_corpus_stats(args) -> int:
    corpus = _load_corpus(args.corpus)
    report = repetitiveness(corpus)
    print(evaluation.render_repetitiveness_table(report))
    return EXIT_OK


def _infer_project(corpus: Corpus, test_name: str) -> str:
    projects = corpus.project_names()
    if len(projects) == 1:
        return projects[0]
    owners = [
        project
        for project in projects
        if any(t.full_name() == test_name for t in corpus.tests(project))
    ]
    if len(owners) == 1:
        return owners[0]
    raise FlakeTriageError(
        f"cannot infer the project for {test_name!r}: corpus has "
        f"{len(projects)} projects and {len(owners)} contain the test"
    )


def _cmd_classify(args) -> int:
    corpus = _load_corpus(args.corpus)
    class_fqn, method = _split_test_name(args.test)
    project = _infer_project(corpus, args.test)
    test = TestId(project, class_fqn, method)
    record = _parse_failure(args.failure, test)

    if args.method in _CLASSIFIERS:
        make_trainer, detail = _CLASSIFIERS[args.method]
        predictor = make_trainer()(evaluation.project_index(corpus, project).normalized)
        predicted, evidence = predictor(normalize(record)), ()
    else:
        if args.method == "match":
            verdict = triage(
                normalize(record), corpus, _MODES[args.mode], _SCOPES[args.scope]
            )
        else:
            verdict = classify_nn(record, corpus)
        predicted, detail, evidence = (
            verdict.predicted, verdict.basis.value, verdict.evidence
        )

    print(f"{predicted} ({detail})")
    for record_id in evidence:
        print(f"evidence: {record_id}")
    return EXIT_OK if predicted is Label.FLAKY else EXIT_TRUE_FAILURE


def _project_counts(corpus: Corpus, project: str) -> tuple[int, int, int]:
    tests = len(corpus.tests(project))
    flaky = corpus.count(project, Label.FLAKY)
    true = corpus.count(project, Label.TRUE)
    return tests, flaky, true


def _cmd_evaluate(args) -> int:
    corpus = _load_corpus(args.corpus)
    projects = corpus.project_names()
    report_dir = Path(args.report_dir) if args.report_dir else None
    if report_dir is not None:
        stems = _report_stems(projects)
        report_dir.mkdir(parents=True, exist_ok=True)

    # Each evaluated project's result, and the projects skipped with why.
    results: dict = {}
    skipped: dict[str, str] = {}
    if args.method == "match":
        mode = _MODES[args.mode]
        scope = _SCOPES[args.scope]
        for project in projects:
            score = evaluation.score_project(corpus, project, mode, scope)
            tests, flaky, true = _project_counts(corpus, project)
            set_flaky, set_true = evaluation.distinct_signature_counts(
                corpus, project
            )
            results[project] = (score, tests, true, flaky, set_true, set_flaky)
        heading = f"== text matching (mode={mode}, scope={scope}) =="
        table = evaluation.render_matching_table

        def records(name: str, result: tuple) -> list[str]:
            return [evaluation.matching_record_json(name, result[0])]
    else:
        for project in projects:
            if failures := evaluation.cv_failures(corpus, project, skipped):
                results[project] = evaluation.cross_validate_project(
                    *failures, args.k, _make_trainer(args), args.seed
                )
        balancing = "on" if args.oversample else "off"
        heading = (
            f"== cross-validation (method={args.method}, k={args.k}, "
            f"seed={args.seed}, oversample={balancing}) =="
        )
        counts = {name: _project_counts(corpus, name) for name in results}

        def table(per_project: dict) -> str:
            return evaluation.render_cv_table(per_project, counts)

        records = evaluation.cv_record_json

    sections = [heading, table(results)]
    sections.extend(f"skipped {name}: {skipped[name]}" for name in sorted(skipped))
    if report_dir is not None:
        for name, result in results.items():
            for suffix, lines in (
                ("txt", [table({name: result})]), ("jsonl", records(name, result))
            ):
                path = report_dir / f"{stems[name]}.{suffix}"
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    for table_mode, title in (
        (MatchMode.FULL, "exceptions (full matching)"),
        (MatchMode.EXCEPTION_ONLY, "exceptions (exception-only matching)"),
    ):
        sections.append(f"== {title} ==")
        sections.append(
            evaluation.render_exceptions_table(
                evaluation.exception_frequency(corpus, table_mode)
            )
        )

    print("\n\n".join(sections))
    return EXIT_OK


def _make_trainer(args) -> evaluation.Trainer:
    if args.method in _CLASSIFIERS:
        return _CLASSIFIERS[args.method][0](args.oversample, args.seed)
    return evaluation.tfidf_trainer()


def _safe_filename(project: str) -> str:
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in project)


def _report_stems(projects: list[str]) -> dict[str, str]:
    """Each project's report file stem; two projects may not share one."""
    stems: dict[str, str] = {}
    owners: dict[str, str] = {}
    for project in projects:
        stem = stems[project] = _safe_filename(project)
        if stem in owners:
            raise FlakeTriageError(
                f"projects {owners[stem]!r} and {project!r} would both write "
                f"the report {stem}.txt"
            )
        owners[stem] = project
    return stems


def _cmd_generate(args) -> int:
    config = GeneratorConfig.from_json_file(args.config)
    corpus = generate(config)
    Path(args.out).write_bytes(write_corpus_xml(corpus))
    tests = sum(len(corpus.tests(p)) for p in corpus.project_names())
    print(
        f"wrote {args.out}: {len(corpus.project_names())} projects, "
        f"{tests} tests, {corpus.count(label=Label.FLAKY)} flaky + "
        f"{corpus.count(label=Label.TRUE)} true failures"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag, (default, methods) in _METHOD_FLAGS.items():
            if not hasattr(args, flag):
                continue
            if getattr(args, flag) is None:
                setattr(args, flag, default)
            elif args.method not in methods:
                parser.error(
                    f"--{flag} applies only to --method {' or '.join(methods)}, "
                    f"not {args.method}"
                )
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FlakeTriageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
