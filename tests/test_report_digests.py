"""The classifier and nearest-neighbour reports stay byte-identical.

The benchmark's committed digests cover corpus-stats and evaluate with
match, cross-test match, tree and bayes at their defaults; these digests pin
the reports it does not run: oversampled cross-validation, tf-idf
cross-validation, and a classify verdict of each method, exact matching in
both scopes included. On the last flaky and the last true failure of the
query test, matching in either scope prints the same verdict and evidence
as the nearest-neighbour method, so those digests coincide; each still pins
its own command. A third query log holds another test's failure under the
query test's name: per-test matching finds nothing, cross-test matching
finds that test's records and nearest neighbour the closest of them, so its
three digests differ. The report files that ``evaluate --report-dir``
writes are pinned too, one digest per directory, for match in both scopes,
tree, and oversampled bayes. The corpus is small and generated, and its true
failures are under 10% of its flaky ones in every training fold, so
``--oversample`` adds copies.
"""
import hashlib
import json

import pytest

from flaketriage.cli import main
from flaketriage.ingest import read_corpus_xml
from flaketriage.model import Label

GENERATOR_CONFIG = {
    "seed": 11,
    "projects": 2,
    "tests_per_project": {"constant": 3},
    "flaky_signatures_per_test": {"constant": 2},
    "flaky_occurrences_per_signature": {"constant": 12},
    "true_failures_per_test": {"constant": 2},
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
# The test of every query log: the last flaky and the last true record of
# proj00 belong to it.
QUERY_TEST = "org.proj00.Suite2Test.scenario2"

# Each report's arguments after ``--corpus``, and the sha256 of its exit
# code and stdout, joined by a newline.
REPORTS = {
    "evaluate-tree-oversample": (
        ["--method", "tree", "--oversample"],
        "ad0bcecdb548aa5b569c40e603fe092dcfbd3c95b1aaad1b14afd6b9ee279114",
    ),
    "evaluate-bayes-oversample-k3-seed4": (
        ["--method", "bayes", "--oversample", "--k", "3", "--seed", "4"],
        "d1d0d00cc72aefe507ffbeb85f3e84cf1756f37d5da2c5035ab19c8ebd1d6259",
    ),
    "evaluate-tfidf": (
        ["--method", "tfidf"],
        "3a30903b6ab8d8da84b46d98d9fe288a2ebc48074cd73fb5d73a4930da95528a",
    ),
    "evaluate-tfidf-k3": (
        ["--method", "tfidf", "--k", "3"],
        "ed3336b7be187165aa7a86f0a380d28b6a30b996598f9da159d8d321a7f5aab3",
    ),
    "classify-tree-flaky": (
        ["--method", "tree", "--failure", "flaky.log"],
        "797d8e9c4bb2e472008b5a5847875b001e39644f9460bb96a69d8711949a7042",
    ),
    "classify-tree-true": (
        ["--method", "tree", "--failure", "true.log"],
        "ffa8b78482214440f7cb53056d8407b23f9a4d02461489d225db9e45221b5685",
    ),
    "classify-bayes-flaky": (
        ["--method", "bayes", "--failure", "flaky.log"],
        "af6407a7b46fab263e7022e080b76913d3e7fd7070098e5d402527a3bed0c3c1",
    ),
    "classify-bayes-true": (
        ["--method", "bayes", "--failure", "true.log"],
        "c7f1c38d2c384fa7f2bb188fe31334a93ee719b208bfb847156b34d8f001a898",
    ),
    "classify-match-flaky": (
        ["--method", "match", "--failure", "flaky.log"],
        "41b1a4e6af322c2b01171eed51d51e6acef681ca0b74c8b26e7a9283f49ebf95",
    ),
    "classify-match-true": (
        ["--method", "match", "--failure", "true.log"],
        "ba644027eed977e372c3c64823f0ef7ff6b43a2a996005f05d66c2f11b9342a1",
    ),
    "classify-match-cross-test-flaky": (
        ["--method", "match", "--scope", "cross-test", "--failure", "flaky.log"],
        "41b1a4e6af322c2b01171eed51d51e6acef681ca0b74c8b26e7a9283f49ebf95",
    ),
    "classify-match-cross-test-true": (
        ["--method", "match", "--scope", "cross-test", "--failure", "true.log"],
        "ba644027eed977e372c3c64823f0ef7ff6b43a2a996005f05d66c2f11b9342a1",
    ),
    "classify-match-other": (
        ["--method", "match", "--failure", "other.log"],
        "ce61f3b6314b7bd6bcc7f8b759a2adc0c125aca0185b9af57cadbd5a6565c0dd",
    ),
    "classify-match-cross-test-other": (
        ["--method", "match", "--scope", "cross-test", "--failure", "other.log"],
        "a639aea77ebbea48a0e15f6c8baa675e3e825476f0432f9f567aad175b7b0f15",
    ),
    "classify-tfidf-other": (
        ["--method", "tfidf", "--failure", "other.log"],
        "d386e7257df2b10f370d0c901f5e795593c4467d79b887afbff162ce6cf37217",
    ),
    "classify-tfidf-flaky": (
        ["--method", "tfidf", "--failure", "flaky.log"],
        "41b1a4e6af322c2b01171eed51d51e6acef681ca0b74c8b26e7a9283f49ebf95",
    ),
    "classify-tfidf-true": (
        ["--method", "tfidf", "--failure", "true.log"],
        "ba644027eed977e372c3c64823f0ef7ff6b43a2a996005f05d66c2f11b9342a1",
    ),
}

# Each report directory's ``evaluate`` arguments after ``--corpus``, and the
# sha256 of its files' names and bytes, in name order.
# Matching scores every failure of this corpus alike in both scopes, so the
# two match digests coincide.
REPORT_DIRS = {
    "evaluate-match": (
        ["--method", "match"],
        "9eb9eee7a95ef348d360d79e5672418a20a46ede72b652532eaf7346564bc45b",
    ),
    "evaluate-match-cross-test": (
        ["--method", "match", "--scope", "cross-test"],
        "9eb9eee7a95ef348d360d79e5672418a20a46ede72b652532eaf7346564bc45b",
    ),
    "evaluate-tree": (
        ["--method", "tree"],
        "fb6c8bcda4e7e979e8298c24c7fc87b68e35a6ef87aad3fdc732e8b7f088f588",
    ),
    "evaluate-bayes-oversample-k3-seed4": (
        ["--method", "bayes", "--oversample", "--k", "3", "--seed", "4"],
        "26a5ff7654350904b7724ea1ab995baf22c2017bd582d1b34bdc53649418176e",
    ),
}


def write_log(path, record) -> None:
    lines = [f"{record.exception_type}: {record.message}"]
    lines += [f"\tat {frame.render()}" for frame in record.frames]
    path.write_text("\n".join(lines) + "\n")


def write_inputs(path) -> None:
    """Write the corpus, and as raw logs the last flaky and the last true
    failure of its first project, and its first failure, which belongs to
    another test."""
    (path / "gen.json").write_text(json.dumps(GENERATOR_CONFIG))
    assert main(["generate", "--config", str(path / "gen.json"),
                 "--out", str(path / "corpus.xml")]) == 0
    corpus = read_corpus_xml(path / "corpus.xml")
    for label in (Label.FLAKY, Label.TRUE):
        record = list(corpus.records("proj00", label))[-1]
        assert record.test.full_name() == QUERY_TEST
        write_log(path / f"{label.value}.log", record)
    record = next(corpus.records("proj00"))
    assert record.test.full_name() != QUERY_TEST
    write_log(path / "other.log", record)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("digests")
    write_inputs(path)
    return path


def report_argv(name: str, path) -> list[str]:
    command = name.split("-")[0]
    args = [str(path / a) if a.endswith(".log") else a for a in REPORTS[name][0]]
    if command == "classify":
        args += ["--test", QUERY_TEST]
    return [command, "--corpus", str(path / "corpus.xml"), *args]


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_stdout_is_pinned(inputs, capsys, name):
    code = main(report_argv(name, inputs))
    out = capsys.readouterr().out
    digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert digest == REPORTS[name][1], out


def directory_digest(path) -> str:
    digest = hashlib.sha256()
    for file in sorted(path.iterdir()):
        data = file.read_bytes()
        digest.update(f"{file.name}\n{len(data)}\n".encode())
        digest.update(data)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT_DIRS))
def test_report_files_are_pinned(inputs, tmp_path, capsys, name):
    argv, want = REPORT_DIRS[name]
    reports = tmp_path / "reports"
    code = main(["evaluate", "--corpus", str(inputs / "corpus.xml"), *argv,
                 "--report-dir", str(reports)])
    capsys.readouterr()
    assert code == 0
    assert directory_digest(reports) == want, sorted(p.name for p in reports.iterdir())
