"""Command-line behaviour: flags, output, exit codes, determinism."""
import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flaketriage
from flaketriage import evaluation
from flaketriage.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_TRUE_FAILURE,
    EXIT_USAGE,
    build_parser,
    main,
)
from flaketriage.errors import InsufficientTrue
from flaketriage.evaluation import DEFAULT_FOLDS
from flaketriage.ingest import read_corpus_xml, write_corpus_xml
from flaketriage.model import Corpus, Label
from flaketriage.synth import GeneratorConfig, generate

from conftest import (
    ALLUXIO_MESSAGE_2,
    alluxio_corpus_xml,
    alluxio_raw_log,
    reverse_project_order,
)

GENERATOR_CONFIG = {
    "seed": 7,
    "projects": 2,
    "tests_per_project": {"constant": 3},
    "flaky_signatures_per_test": {"constant": 2},
    "flaky_occurrences_per_signature": {"constant": 8},
    "true_failures_per_test": {"constant": 6},
    "exception_pool": [
        {"name": "UnknownHostException", "weight": 3.0, "shared_across_labels": False},
        {"name": "AssertionError", "weight": 1.0, "shared_across_labels": True},
        {
            "name": "NullPointerException",
            "weight": 2.0,
            "shared_across_labels": False,
            "only_label": "true",
        },
    ],
    "volatile_message_tokens": True,
    "frame_depth": [3, 8],
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "corpus.xml").write_bytes(alluxio_corpus_xml())
    (tmp_path / "failure.log").write_text(alluxio_raw_log(ALLUXIO_MESSAGE_2))
    (tmp_path / "gen.json").write_text(json.dumps(GENERATOR_CONFIG))
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_prints_record_and_signature(workdir, capsys):
    code, out, _ = run(
        capsys,
        "parse",
        "--in", workdir / "failure.log",
        "--test", "tachyon.JournalTest.TableTest",
        "--project", "alluxio",
    )
    assert code == EXIT_OK
    assert "exception: UnknownHostException" in out
    assert "basis=test_class_frame" in out
    assert "tachyon.JournalTest.before(JournalTest.java:33)" in out


def test_corpus_stats_table(workdir, capsys):
    code, out, _ = run(capsys, "corpus-stats", "--corpus", workdir / "corpus.xml")
    assert code == EXIT_OK
    assert out.splitlines()[0].split() == [
        "project", "tests", "flaky", "set",
        "uniq_per_test", "repet_per_test", "uniq_cross", "repet_cross",
    ]
    assert "alluxio" in out and "total" in out


def test_corpus_stats_empty_corpus_is_header_only(tmp_path, capsys):
    empty = tmp_path / "empty.xml"
    empty.write_bytes(b"<Corpus/>")
    code, out, _ = run(capsys, "corpus-stats", "--corpus", empty)
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 1  # header, no rows, no total


def test_classify_match_flaky_exit_zero(workdir, capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--corpus", workdir / "corpus.xml",
        "--failure", workdir / "failure.log",
        "--test", "tachyon.JournalTest.TableTest",
        "--method", "match",
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "flaky (matched_flaky_only)"
    assert "evidence: alluxio/tachyon.JournalTest.TableTest/flaky[0]" in out


def test_classify_true_verdict_exits_three(workdir, tmp_path, capsys):
    (tmp_path / "other.log").write_text("java.lang.AssertionError: nope\n")
    code, out, _ = run(
        capsys,
        "classify",
        "--corpus", workdir / "corpus.xml",
        "--failure", tmp_path / "other.log",
        "--test", "tachyon.JournalTest.TableTest",
        "--method", "match",
    )
    assert code == EXIT_TRUE_FAILURE
    assert out.startswith("true (matched_none)")


@pytest.mark.parametrize("method", ["tree", "bayes", "tfidf"])
def test_classify_other_methods_run(workdir, capsys, method):
    code, out, _ = run(
        capsys,
        "classify",
        "--corpus", workdir / "corpus.xml",
        "--failure", workdir / "failure.log",
        "--test", "tachyon.JournalTest.TableTest",
        "--method", method,
    )
    assert code in (EXIT_OK, EXIT_TRUE_FAILURE)
    assert out.splitlines()[0].split(" ")[0] in ("flaky", "true")


def test_classify_never_exits_zero_on_true_verdict(workdir, tmp_path, capsys):
    (tmp_path / "other.log").write_text("java.lang.IllegalStateException: x\n")
    for method in ("match", "tree", "bayes", "tfidf"):
        code, out, _ = run(
            capsys,
            "classify",
            "--corpus", workdir / "corpus.xml",
            "--failure", tmp_path / "other.log",
            "--test", "tachyon.JournalTest.TableTest",
            "--method", method,
        )
        if out.startswith("true"):
            assert code == EXIT_TRUE_FAILURE
        else:
            assert code == EXIT_OK


def test_usage_error_exit_code(workdir, capsys):
    code, _, err = run(capsys, "corpus-stats")
    assert code == EXIT_USAGE
    assert "error" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_bytes(b"<Wrong/>")
    code, _, err = run(capsys, "corpus-stats", "--corpus", bad)
    assert code == EXIT_DATA
    assert "Corpus" in err


def test_a_line_number_too_long_for_int_is_malformed_not_a_crash(workdir, capsys):
    huge = "1" * 5000
    corpus = workdir / "huge.xml"
    corpus.write_text(
        '<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/>'
        f"<S><line>a.B.m(B.java:{huge})</line></S></Failure></Corpus>"
    )
    code, _, err = run(capsys, "corpus-stats", "--corpus", corpus)
    assert code == EXIT_DATA and "too many digits" in err
    log = workdir / "huge.log"
    log.write_text(alluxio_raw_log(ALLUXIO_MESSAGE_2) + f"\tat a.B.m(B.java:{huge})\n")
    test = ("--test", "tachyon.JournalTest.TableTest")
    for argv in (
        ("parse", "--in", log, *test, "--project", "alluxio"),
        ("classify", "--corpus", workdir / "corpus.xml", "--failure", log, *test,
         "--method", "match"),
        ("classify", "--corpus", corpus, "--failure", log, "--test", "a.T.m",
         "--method", "match"),
    ):
        code, _, err = run(capsys, *argv)
        assert "Traceback" not in err
        if corpus in argv:
            assert code == EXIT_DATA and "too many digits" in err
        else:
            assert code in (EXIT_OK, EXIT_TRUE_FAILURE)
            assert err.startswith("warning: frame line number has too many digits")


def test_missing_file_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "corpus-stats", "--corpus", tmp_path / "nope.xml")
    assert code == EXIT_DATA
    assert "error" in err


def test_bad_test_name_is_usage_style_data_error(workdir, capsys):
    code, _, err = run(
        capsys,
        "classify",
        "--corpus", workdir / "corpus.xml",
        "--failure", workdir / "failure.log",
        "--test", "nodots",
        "--method", "match",
    )
    assert code == EXIT_DATA
    assert "class.method" in err


@pytest.mark.parametrize(
    "command",
    [
        ("parse", "--in", "failure.log", "--project", "alluxio", "--test", "a."),
        ("parse", "--in", "failure.log", "--project", "alluxio", "--test", ".m"),
        ("classify", "--corpus", "corpus.xml", "--failure", "failure.log",
         "--method", "match", "--test", "tachyon.JournalTest."),
        ("classify", "--corpus", "corpus.xml", "--failure", "failure.log",
         "--method", "match", "--test", ".TableTest"),
    ],
)
def test_empty_class_or_method_is_a_data_error(workdir, capsys, command):
    code, out, err = run(
        capsys, *(workdir / a if a.endswith((".log", ".xml")) else a for a in command)
    )
    assert code == EXIT_DATA
    assert out == ""
    assert "class.method" in err and "Traceback" not in err


def test_empty_project_is_a_data_error(workdir, capsys):
    code, out, err = run(
        capsys, "parse", "--in", workdir / "failure.log",
        "--test", "tachyon.JournalTest.TableTest", "--project", "",
    )
    assert code == EXIT_DATA
    assert out == ""
    assert "error: project must be non-empty" in err


@pytest.mark.parametrize(
    "command",
    [
        ("parse", "--in", "latin1.log", "--project", "alluxio"),
        ("classify", "--corpus", "corpus.xml", "--failure", "latin1.log",
         "--method", "match"),
    ],
)
def test_log_that_is_not_utf8_is_a_data_error(workdir, capsys, command):
    log = workdir / "latin1.log"
    log.write_bytes(b"java.lang.AssertionError: caf\xe9\n\tat a.B.test(B.java:1)\n")
    code, out, err = run(
        capsys,
        *(workdir / a if a.endswith((".log", ".xml")) else a for a in command),
        "--test", "tachyon.JournalTest.TableTest",
    )
    assert code == EXIT_DATA
    assert out == ""
    assert err == f"error: {log}: not UTF-8: byte 0xe9 at offset 29\n"


# Runner output above the trace, as Gradle and Maven Surefire print it. A raw
# log must start at its exception header: a runner's preamble is not parsed.
RUNNER_PREAMBLES = {
    "gradle": (
        "org.foo.BarTest > testX FAILED\n",
        "    java.lang.AssertionError: expected 1\n"
        "        at org.junit.Assert.fail(Assert.java:88)\n"
        "        at org.foo.BarTest.testX(BarTest.java:12)\n",
    ),
    "maven-surefire": (
        "[ERROR] testX(org.foo.BarTest)  Time elapsed: 0.01 s  <<< ERROR!\n",
        "java.lang.AssertionError: expected 1\n"
        "\tat org.junit.Assert.fail(Assert.java:88)\n"
        "\tat org.foo.BarTest.testX(BarTest.java:12)\n",
    ),
}


@pytest.mark.parametrize("runner", sorted(RUNNER_PREAMBLES))
@pytest.mark.parametrize("command", ["parse", "classify"])
def test_runner_preamble_above_the_trace_is_a_data_error(workdir, capsys, command, runner):
    preamble, trace = RUNNER_PREAMBLES[runner]
    (workdir / "runner.log").write_text(preamble + trace)
    (workdir / "trace.log").write_text(trace)
    if command == "parse":
        args = ("parse", "--project", "p", "--test", "org.foo.BarTest.testX", "--in")
    else:
        args = ("classify", "--corpus", workdir / "corpus.xml", "--method", "match",
                "--test", "tachyon.JournalTest.TableTest", "--failure")
    code, out, err = run(capsys, *args, workdir / "runner.log")
    assert (code, out) == (EXIT_DATA, "")
    assert err == f"error: cannot identify an exception header in {preamble[:-1]!r}\n"
    # The same log from its exception header on is read.
    code, out, err = run(capsys, *args, workdir / "trace.log")
    assert code in (EXIT_OK, EXIT_TRUE_FAILURE) and err == ""


def test_parse_reads_frames_with_packaging_suffixes(workdir, capsys):
    plain = "java.lang.IllegalStateException: x\n\tat a.B.go(B.java:3)\n\tat a.B.test(B.java:1)\n"
    (workdir / "plain.log").write_text(plain)
    (workdir / "suffixed.log").write_text(plain.replace(")\n", ") ~[classes/:?]\n"))
    args = ("parse", "--test", "a.B.test", "--project", "p", "--in")
    code, out, err = run(capsys, *args, workdir / "suffixed.log")
    assert (code, err) == (EXIT_OK, "")
    assert "frames (2):" in out
    assert "signature (full, per_test):\n  IllegalStateException\n  a.B.go(B.java:3)\n" in out
    assert (code, out, err) == run(capsys, *args, workdir / "plain.log")


def test_parse_reads_jdk9_frames_as_their_jdk8_form(workdir, capsys):
    jdk11 = (
        "java.net.UnknownHostException: x\n"
        "\tat java.base/java.net.InetAddress.getLocalHost(InetAddress.java:1642)\n"
        "\tat app//tachyon.LocalTachyonCluster.start(LocalTachyonCluster.java:104)\n"
        "\tat app//tachyon.JournalTest.TableTest(JournalTest.java:33)\n"
        "\tat java.base/jdk.internal.reflect.NativeMethodAccessorImpl.invoke0(Native Method)\n"
        "\tat app//org.junit.runners.model.FrameworkMethod$1.runReflectiveCall(FrameworkMethod.java:50)\n"
    )
    (workdir / "jdk11.log").write_text(jdk11)
    (workdir / "jdk8.log").write_text(re.sub(r"at (app/|java\.base)/", "at ", jdk11))
    args = ("parse", "--test", "tachyon.JournalTest.TableTest", "--project", "alluxio", "--in")
    code, out, err = run(capsys, *args, workdir / "jdk11.log")
    assert (code, err) == (EXIT_OK, "")
    assert "kept after normalization (3, basis=test_method_frame):" in out
    assert "/" not in out
    assert (code, out, err) == run(capsys, *args, workdir / "jdk8.log")


def test_classify_warns_about_malformed_frames(workdir, capsys):
    log = (workdir / "failure.log").read_text()
    header, rest = log.split("\n", 1)
    (workdir / "noisy.log").write_text(f"{header}\n\tat nonsense here\n{rest}")
    args = ("classify", "--corpus", workdir / "corpus.xml",
            "--test", "tachyon.JournalTest.TableTest", "--method", "match")
    clean = run(capsys, *args, "--failure", workdir / "failure.log")
    noisy = run(capsys, *args, "--failure", workdir / "noisy.log")
    assert clean[0] == noisy[0] == EXIT_OK
    assert noisy[1] == clean[1]
    assert clean[2] == ""
    assert noisy[2].startswith("warning: ") and "nonsense here" in noisy[2]


def test_generate_writes_corpus_and_round_trips(workdir, capsys):
    out_path = workdir / "synth.xml"
    code, out, _ = run(
        capsys, "generate", "--config", workdir / "gen.json", "--out", out_path
    )
    assert code == EXIT_OK
    assert "wrote" in out
    corpus = read_corpus_xml(out_path.read_bytes())
    assert corpus.count() > 0


def test_generate_is_byte_identical_across_runs(workdir, capsys):
    a, b = workdir / "a.xml", workdir / "b.xml"
    run(capsys, "generate", "--config", workdir / "gen.json", "--out", a)
    run(capsys, "generate", "--config", workdir / "gen.json", "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_invalid_generator_config_is_data_error(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({**GENERATOR_CONFIG, "projects": -2}))
    code, _, err = run(capsys, "generate", "--config", bad, "--out", workdir / "x.xml")
    assert code == EXIT_DATA
    assert "projects" in err


def test_generator_config_of_the_wrong_type_is_one_error_line(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({**GENERATOR_CONFIG, "seed": None}))
    code, out, err = run(capsys, "generate", "--config", bad, "--out", workdir / "x.xml")
    assert code == EXIT_DATA
    assert out == ""
    assert err == "error: seed must be a JSON integer, got null\n"
    assert not (workdir / "x.xml").exists()


@pytest.mark.parametrize(
    "document, message",
    [
        pytest.param(
            json.dumps({**GENERATOR_CONFIG, "frame_dept": [50, 60]}),
            "error: config has unknown keys: 'frame_dept'\n",
            id="unknown-key",
        ),
        pytest.param(
            json.dumps(GENERATOR_CONFIG).replace('"weight": 3.0', '"weight": ' + "9" * 400),
            "error: exception_pool weights eligible for flaky failures "
            "must sum to a finite float\n",
            id="weight-too-large",
        ),
        *(
            pytest.param(
                json.dumps(
                    {**GENERATOR_CONFIG, "exception_pool": [{"name": name, "weight": 1}]}
                ),
                f"error: exception_pool entry {name!r} must not be blank or start "
                "or end with whitespace\n",
                id=f"pool-name-{label}",
            )
            for label, name in (("leading", " E"), ("trailing", "E "), ("blank", " "))
        ),
    ],
)
def test_generator_config_errors_are_one_error_line(workdir, capsys, document, message):
    bad = workdir / "bad.json"
    bad.write_text(document)
    code, out, err = run(capsys, "generate", "--config", bad, "--out", workdir / "x.xml")
    assert (code, out, err) == (EXIT_DATA, "", message)
    assert not (workdir / "x.xml").exists()


def test_generator_config_integer_too_long_to_read_is_one_error_line(workdir, capsys):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter reads integers of any length")
    bad = workdir / "bad.json"
    document = json.dumps(GENERATOR_CONFIG).replace('"seed": 7', '"seed": 1' + "0" * limit)
    bad.write_text(document)
    code, out, err = run(capsys, "generate", "--config", bad, "--out", workdir / "x.xml")
    assert (code, out) == (EXIT_DATA, "")
    assert err.startswith("error: config is not valid JSON: ") and err.count("\n") == 1
    assert not (workdir / "x.xml").exists()


@pytest.fixture
def synth_corpus(workdir, capsys):
    out_path = workdir / "synth.xml"
    run(capsys, "generate", "--config", workdir / "gen.json", "--out", out_path)
    return out_path


def test_evaluate_match_tables(synth_corpus, capsys):
    code, out, _ = run(capsys, "evaluate", "--corpus", synth_corpus, "--method", "match")
    assert code == EXIT_OK
    assert "== text matching (mode=full, scope=per_test) ==" in out
    assert "== exceptions (full matching) ==" in out
    assert "== exceptions (exception-only matching) ==" in out
    header = [l for l in out.splitlines() if l.startswith("project ")][0]
    assert header.split() == [
        "project", "tests", "true", "flaky", "set_true", "set_flaky",
        "tp", "fn", "fp", "tn",
        "precision", "recall", "specificity", "f1", "tests_tp", "tests_fn",
    ]


def test_evaluate_cv_reports_and_files(synth_corpus, tmp_path, capsys):
    reports = tmp_path / "reports"
    code, out, _ = run(
        capsys,
        "evaluate",
        "--corpus", synth_corpus,
        "--method", "tree",
        "--k", "5",
        "--seed", "3",
        "--report-dir", reports,
    )
    assert code == EXIT_OK
    assert "== cross-validation (method=tree, k=5, seed=3, oversample=off) ==" in out
    names = sorted(p.name for p in reports.iterdir())
    assert names == ["proj00.jsonl", "proj00.txt", "proj01.jsonl", "proj01.txt"]
    lines = (reports / "proj00.jsonl").read_text().splitlines()
    folds = [json.loads(line) for line in lines]
    assert [f["fold"] for f in folds] == [0, 1, 2, 3, 4, "total"]
    assert all(f["project"] == "proj00" for f in folds)


@pytest.mark.parametrize("method", ["match", "tree"])
def test_evaluate_refuses_projects_sharing_a_report_file(tmp_path, capsys, method):
    failures = "".join(
        f'<Failure><T project="{project}">a.T.m{i}</T><E>E</E><M/><S/></Failure>'
        for project in ("a/b", "a_b")
        for i in range(2)
    )
    (tmp_path / "corpus.xml").write_text(f"<Corpus>{failures}</Corpus>")
    reports = tmp_path / "reports"
    code, out, err = run(
        capsys, "evaluate", "--corpus", tmp_path / "corpus.xml", "--method", method,
        "--report-dir", reports,
    )
    assert code == EXIT_DATA
    assert out == ""
    assert "'a/b' and 'a_b'" in err and "a_b.txt" in err
    assert not reports.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--k", "1"), ("--k", "0"), ("--k", "-1")],
)
def test_evaluate_rejects_out_of_range_counts_as_usage_errors(
    synth_corpus, capsys, flag, value
):
    code, out, err = run(
        capsys, "evaluate", "--corpus", synth_corpus, "--method", "tree", flag, value
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert f"argument {flag}: must be at least" in err


@pytest.mark.parametrize("method", ["match", "tfidf"])
def test_evaluate_oversample_without_a_feature_method_is_usage_error(
    synth_corpus, capsys, method
):
    code, out, err = run(
        capsys, "evaluate", "--corpus", synth_corpus, "--method", method, "--oversample"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert f"--oversample applies only to --method tree or bayes, not {method}" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--k", "3"), ("--k", "10"), ("--seed", "5"), ("--seed", "0")],
)
def test_evaluate_match_with_a_cv_flag_is_usage_error(synth_corpus, capsys, flag, value):
    # An explicit default is refused too: match reads neither flag.
    code, out, err = run(
        capsys, "evaluate", "--corpus", synth_corpus, "--method", "match", flag, value
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert f"{flag} applies only to --method tree or bayes or tfidf, not match" in err


@pytest.mark.parametrize("method", ["tree", "bayes", "tfidf"])
def test_evaluate_cv_methods_read_k_and_seed(synth_corpus, capsys, method):
    code, out, _ = run(capsys, "evaluate", "--corpus", synth_corpus, "--method", method)
    assert code == EXIT_OK
    assert f"(method={method}, k={DEFAULT_FOLDS}, seed=0, " in out
    code, out, _ = run(
        capsys, "evaluate", "--corpus", synth_corpus, "--method", method,
        "--k", "3", "--seed", "5",
    )
    assert code == EXIT_OK
    assert f"(method={method}, k=3, seed=5, " in out


def test_evaluate_oversample_with_a_feature_method_runs(synth_corpus, capsys):
    code, out, _ = run(
        capsys, "evaluate", "--corpus", synth_corpus, "--method", "bayes", "--oversample"
    )
    assert code == EXIT_OK
    assert "oversample=on) ==" in out


def test_evaluate_cv_data_error_names_the_project(tmp_path, capsys):
    failures = "".join(
        f'<Failure label="{label}"><T project="{project}">a.T.m</T><E>E</E><M/><S/></Failure>'
        for project, label, count in (("a", "flaky", 12), ("a", "true", 12), ("b", "flaky", 12))
        for _ in range(count)
    )
    path = tmp_path / "corpus.xml"
    path.write_text(f"<Corpus>{failures}</Corpus>")
    for method in ("tree", "bayes", "tfidf"):
        code, out, err = run(capsys, "evaluate", "--corpus", path, "--method", method)
        assert code == EXIT_DATA
        assert out == ""
        assert err == "error: project 'b': 0 true failures but k=5\n"


def test_evaluate_non_integer_count_is_usage_error(synth_corpus, capsys):
    code, _, err = run(
        capsys, "evaluate", "--corpus", synth_corpus, "--method", "tree", "--k", "two"
    )
    assert code == EXIT_USAGE
    assert "invalid int value: 'two'" in err


def test_evaluate_smallest_valid_counts_run(synth_corpus, capsys):
    code, out, _ = run(
        capsys, "evaluate", "--corpus", synth_corpus, "--method", "tree",
        "--k", "2",
    )
    assert code == EXIT_OK
    assert "k=2" in out


def test_evaluate_skips_small_projects(workdir, capsys):
    code, out, _ = run(
        capsys, "evaluate", "--corpus", workdir / "corpus.xml", "--method", "tree"
    )
    assert code == EXIT_OK
    assert "skipped alluxio: fewer than 10 flaky failures (2)" in out


# `evaluate` runs the per-project CV step itself; these pin it to
# `evaluation.stratified_cv` with the same trainer, k and seed.
CV_CALLS = [
    pytest.param(("--method", "tree"), evaluation.tree_trainer, (), DEFAULT_FOLDS, 0,
                 id="tree"),
    pytest.param(("--method", "bayes", "--oversample", "--k", "3", "--seed", "4"),
                 evaluation.bayes_trainer, (True, 4), 3, 4, id="bayes-oversample"),
]


def _cv_corpus(path, true_kept=None):
    """The generated corpus with proj01 cut to 4 flaky failures, so CV skips
    it, and proj00's true failures to the first ``true_kept``."""
    generated = generate(GeneratorConfig.from_dict(GENERATOR_CONFIG))
    corpus = Corpus()
    for project, kept in (("proj00", (None, true_kept)), ("proj01", (4, None))):
        for label, n in zip((Label.FLAKY, Label.TRUE), kept):
            corpus.add_all(list(generated.records(project, label))[:n])
    path.write_bytes(write_corpus_xml(corpus))
    return read_corpus_xml(path.read_bytes())


@pytest.mark.parametrize("argv, make_trainer, options, k, seed", CV_CALLS)
def test_evaluate_cv_section_is_stratified_cv(
    tmp_path, capsys, argv, make_trainer, options, k, seed
):
    path = tmp_path / "cv.xml"
    corpus = _cv_corpus(path)
    result = evaluation.stratified_cv(corpus, k, make_trainer(*options), seed)
    assert sorted(result.per_project) == ["proj00"]
    assert result.skipped == {"proj01": "fewer than 10 flaky failures (4)"}
    counts = {
        name: (len(corpus.tests(name)), corpus.count(name, Label.FLAKY),
               corpus.count(name, Label.TRUE))
        for name in result.per_project
    }
    want = "\n\n".join(
        [evaluation.render_cv_table(result.per_project, counts)]
        + [f"skipped {name}: {why}" for name, why in sorted(result.skipped.items())]
    )
    code, out, _ = run(capsys, "evaluate", "--corpus", path, *argv)
    assert code == EXIT_OK
    # Between the CLI's heading and the exception tables.
    assert out.split("\n\n", 1)[1].split("\n\n== exceptions", 1)[0] == want


@pytest.mark.parametrize("argv, make_trainer, options, k, seed", CV_CALLS)
def test_evaluate_cv_error_is_stratified_cvs(
    tmp_path, capsys, argv, make_trainer, options, k, seed
):
    path = tmp_path / "cv.xml"
    corpus = _cv_corpus(path, true_kept=2)
    with pytest.raises(InsufficientTrue) as excinfo:
        evaluation.stratified_cv(corpus, k, make_trainer(*options), seed)
    assert str(excinfo.value).startswith("project 'proj00': ")
    code, out, err = run(capsys, "evaluate", "--corpus", path, *argv)
    assert (code, out, err) == (EXIT_DATA, "", f"error: {excinfo.value}\n")


def test_evaluate_deterministic_output(synth_corpus, capsys):
    args = ("evaluate", "--corpus", synth_corpus, "--method", "bayes", "--seed", "9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize(
    "method",
    [
        ("match",),
        ("match", "--scope", "cross-test"),
        ("tree",),
        ("bayes",),
        ("tfidf",),
    ],
    ids=["match", "match-cross-test", "tree", "bayes", "tfidf"],
)
def test_evaluate_output_is_independent_of_run_and_project_order(
    synth_corpus, tmp_path, capsys, method
):
    """Stdout and every report file."""
    reversed_corpus = synth_corpus.with_name("reversed.xml")
    reversed_corpus.write_bytes(reverse_project_order(synth_corpus.read_bytes()))
    assert reversed_corpus.read_bytes() != synth_corpus.read_bytes()
    outputs = []
    for i, corpus in enumerate((synth_corpus, synth_corpus, reversed_corpus)):
        reports = tmp_path / f"reports{i}"
        code, out, _ = run(capsys, "evaluate", "--corpus", corpus, "--method", *method,
                           "--report-dir", reports)
        assert code == EXIT_OK
        outputs.append((out, {p.name: p.read_bytes() for p in reports.iterdir()}))
    assert sorted(outputs[0][1]) == ["proj00.jsonl", "proj00.txt",
                                     "proj01.jsonl", "proj01.txt"]
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("scope, tp", [("per-test", 0), ("cross-test", 2)])
def test_evaluate_match_scores_in_the_given_scope(tmp_path, capsys, scope, tp):
    # Two tests fail alike once each: a match only across tests.
    failures = "".join(
        f'<Failure><T project="p">a.T.m{i}</T><E>E</E><M/>'
        f"<S><line>x.Lib.call(Lib.java:3)</line></S></Failure>"
        for i in (1, 2)
    )
    (tmp_path / "corpus.xml").write_text(f"<Corpus>{failures}</Corpus>")
    reports = tmp_path / "reports"
    code, _, _ = run(capsys, "evaluate", "--corpus", tmp_path / "corpus.xml",
                     "--method", "match", "--scope", scope, "--report-dir", reports)
    assert code == EXIT_OK
    record = json.loads((reports / "p.jsonl").read_text())
    assert (record["tp"], record["fn"]) == (tp, 2 - tp)


@pytest.mark.parametrize(
    "method, heading, columns",
    [
        ("match", "== text matching (mode=full, scope=per_test) ==",
         evaluation.MATCHING_COLUMNS),
        ("tree", "== cross-validation (method=tree, k=5, seed=0, oversample=off) ==",
         evaluation.CV_COLUMNS),
    ],
)
def test_evaluate_empty_corpus_is_header_only(tmp_path, capsys, method, heading, columns):
    empty = tmp_path / "empty.xml"
    empty.write_bytes(b"<Corpus/>")
    reports = tmp_path / "reports"
    code, out, err = run(capsys, "evaluate", "--corpus", empty, "--method", method,
                         "--report-dir", reports)
    assert (code, err) == (EXIT_OK, "")
    assert out.split("\n\n") == [
        heading, "  ".join(columns),
        "== exceptions (full matching) ==", "  ".join(evaluation.EXCEPTION_COLUMNS),
        "== exceptions (exception-only matching) ==",
        "  ".join(evaluation.EXCEPTION_COLUMNS) + "\n",
    ]
    assert list(reports.iterdir()) == []


def test_evaluate_cv_with_every_project_skipped(tmp_path, capsys):
    failures = "".join(
        f'<Failure label="{label}"><T project="{project}">a.T.m</T>'
        f"<E>E{i}</E><M/><S/></Failure>"
        for project, n_flaky in (("b", 9), ("a", 0))
        for i, label in enumerate(["flaky"] * n_flaky + ["true"] * 6)
    )
    (tmp_path / "corpus.xml").write_text(f"<Corpus>{failures}</Corpus>")
    reports = tmp_path / "reports"
    code, out, err = run(capsys, "evaluate", "--corpus", tmp_path / "corpus.xml",
                         "--method", "tree", "--report-dir", reports)
    assert (code, err) == (EXIT_OK, "")
    assert out.split("\n\n== exceptions", 1)[0].split("\n\n") == [
        "== cross-validation (method=tree, k=5, seed=0, oversample=off) ==",
        "  ".join(evaluation.CV_COLUMNS),
        "skipped a: fewer than 10 flaky failures (0)",
        "skipped b: fewer than 10 flaky failures (9)",
    ]
    assert list(reports.iterdir()) == []


def _on_alluxio_corpus(workdir, command, method):
    """Arguments of a classify or evaluate call on the alluxio corpus."""
    if command == "classify":
        argv = ("classify", "--failure", workdir / "failure.log",
                "--test", "tachyon.JournalTest.TableTest")
    else:
        argv = ("evaluate",)
    return argv + ("--corpus", workdir / "corpus.xml", "--method", method)


@pytest.mark.parametrize("command", ["classify", "evaluate"])
def test_match_flags_default_to_per_test_full(workdir, capsys, command):
    argv = _on_alluxio_corpus(workdir, command, "match")
    implicit = run(capsys, *argv)
    explicit = run(capsys, *argv, "--scope", "per-test", "--mode", "full")
    assert implicit == explicit
    assert implicit[0] in (EXIT_OK, EXIT_TRUE_FAILURE)


@pytest.mark.parametrize("command", ["classify", "evaluate"])
@pytest.mark.parametrize("method", ["tree", "bayes", "tfidf"])
@pytest.mark.parametrize(
    "flag, value",
    [
        ("--scope", "per-test"),
        ("--scope", "cross-test"),
        ("--mode", "full"),
        ("--mode", "exception-only"),
    ],
)
def test_match_only_flags_with_another_method_are_usage_errors(
    workdir, capsys, command, method, flag, value
):
    code, out, err = run(
        capsys, *_on_alluxio_corpus(workdir, command, method), flag, value
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert f"{flag} applies only to --method match, not {method}" in err


def test_evaluate_match_perfect_rows_on_separable_corpus(workdir, capsys):
    config = dict(GENERATOR_CONFIG)
    config["exception_pool"] = [
        {"name": "UnknownHostException", "weight": 1.0},
        {"name": "MutantError", "weight": 1.0, "only_label": "true"},
    ]
    (workdir / "sep.json").write_text(json.dumps(config))
    run(capsys, "generate", "--config", workdir / "sep.json", "--out", workdir / "sep.xml")
    code, out, _ = run(capsys, "evaluate", "--corpus", workdir / "sep.xml", "--method", "match")
    assert code == EXIT_OK
    rows = [
        line
        for line in out.splitlines()
        if line.startswith(("proj0", "total ")) and "set_true" not in line
    ]
    assert len(rows) == 3  # two projects and the total
    for line in rows:
        assert line.count("100.0%") == 4  # P, R, SP, F1


def test_python_dash_m_runs_the_cli_from_a_checkout():
    src = Path(flaketriage.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "flaketriage", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_OK
    assert done.stdout.startswith("usage: flaketriage ")


def test_readme_cli_synopsis_names_every_option():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split()
        if words[:1] == ["flaketriage"]:
            documented[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    defined = {
        name: {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for name, parser in subcommands.choices.items()
    }
    assert documented == defined


def test_readme_python_blocks_run():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})
