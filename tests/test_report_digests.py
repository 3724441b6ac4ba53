"""The classifier and nearest-neighbour reports stay byte-identical.

The benchmark's committed digests cover corpus-stats and evaluate with
match, cross-test match, tree and bayes at their defaults; these digests pin
the reports it does not run: oversampled cross-validation, tf-idf
cross-validation, and a classify verdict of each trained classifier and of
the nearest-neighbour method. The corpus is small and generated, and its
true failures are under 10% of its flaky ones in every training fold, so
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
# The test of both query logs: the last flaky and the last true record of
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
    "classify-tfidf-flaky": (
        ["--method", "tfidf", "--failure", "flaky.log"],
        "41b1a4e6af322c2b01171eed51d51e6acef681ca0b74c8b26e7a9283f49ebf95",
    ),
    "classify-tfidf-true": (
        ["--method", "tfidf", "--failure", "true.log"],
        "ba644027eed977e372c3c64823f0ef7ff6b43a2a996005f05d66c2f11b9342a1",
    ),
}


def write_inputs(path) -> None:
    """Write the corpus, and as raw logs the last flaky and the last true
    failure of its first project."""
    (path / "gen.json").write_text(json.dumps(GENERATOR_CONFIG))
    assert main(["generate", "--config", str(path / "gen.json"),
                 "--out", str(path / "corpus.xml")]) == 0
    corpus = read_corpus_xml(path / "corpus.xml")
    for label in (Label.FLAKY, Label.TRUE):
        record = list(corpus.records("proj00", label))[-1]
        assert record.test.full_name() == QUERY_TEST
        lines = [f"{record.exception_type}: {record.message}"]
        lines += [f"\tat {frame.render()}" for frame in record.frames]
        (path / f"{label.value}.log").write_text("\n".join(lines) + "\n")


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
