"""Generator determinism, shape control, and config validation."""
import json

import pytest

from flaketriage.errors import InvalidConfig
from flaketriage.evaluation import score_matching
from flaketriage.ingest import (
    normalize,
    parse_failure_text,
    write_corpus_xml,
)
from flaketriage.matching import signature
from flaketriage.model import Label
from flaketriage.synth import (
    CountDistribution,
    ExceptionSpec,
    GeneratorConfig,
    generate,
    generate_with_trace,
)


def config(**overrides) -> GeneratorConfig:
    base = dict(
        seed=7,
        projects=2,
        tests_per_project=CountDistribution.constant(3),
        flaky_signatures_per_test=CountDistribution.uniform(1, 2),
        flaky_occurrences_per_signature=CountDistribution.geometric(0.4),
        true_failures_per_test=CountDistribution.constant(4),
        exception_pool=(
            ExceptionSpec("UnknownHostException", 3.0),
            ExceptionSpec("AssertionError", 1.0, shared_across_labels=True),
            ExceptionSpec("NullPointerException", 2.0, only_label=Label.TRUE),
        ),
        volatile_message_tokens=True,
        frame_depth=(3, 8),
    )
    base.update(overrides)
    return GeneratorConfig(**base)


def test_equal_configs_generate_equal_corpora():
    assert generate(config()) == generate(config())
    assert write_corpus_xml(generate(config())) == write_corpus_xml(generate(config()))


def test_different_seeds_differ():
    assert generate(config()) != generate(config(seed=8))


def test_reference_shape_two_occurrences_one_signature():
    corpus = generate(
        config(
            projects=1,
            tests_per_project=CountDistribution.constant(1),
            flaky_signatures_per_test=CountDistribution.constant(1),
            flaky_occurrences_per_signature=CountDistribution.constant(2),
            true_failures_per_test=CountDistribution.constant(0),
        )
    )
    records = list(corpus.records())
    assert len(records) == 2
    assert all(r.label is Label.FLAKY for r in records)
    first, second = records
    assert first.message != second.message  # volatile tokens differ
    assert first.frames == second.frames
    assert signature(normalize(first)) == signature(normalize(second))


def test_zero_counts_generate_empty_corpus():
    corpus = generate(
        config(
            flaky_signatures_per_test=CountDistribution.constant(0),
            true_failures_per_test=CountDistribution.constant(0),
        )
    )
    assert corpus.count() == 0


def test_disjoint_pools_score_perfectly_leave_one_out():
    corpus = generate(
        config(
            seed=21,
            exception_pool=(
                ExceptionSpec("UnknownHostException", 1.0),
                ExceptionSpec("MutantError", 1.0, only_label=Label.TRUE),
            ),
            flaky_occurrences_per_signature=CountDistribution.constant(3),
        )
    )
    exceptions_by_label = {
        label: {r.exception_type for r in corpus.records(label=label)}
        for label in Label
    }
    assert exceptions_by_label[Label.FLAKY] == {"UnknownHostException"}
    assert exceptions_by_label[Label.TRUE] == {"MutantError"}
    result = score_matching(corpus)
    assert result.matrix.fp == 0 and result.matrix.fn == 0


def test_shared_exceptions_appear_in_both_labels_with_differing_traces():
    corpus = generate(
        config(
            seed=5,
            projects=3,
            exception_pool=(ExceptionSpec("AssertionError", 1.0, shared_across_labels=True),),
            flaky_occurrences_per_signature=CountDistribution.constant(2),
        )
    )
    flaky_sigs = {
        signature(normalize(r)).frame_keys for r in corpus.records(label=Label.FLAKY)
    }
    true_sigs = {
        signature(normalize(r)).frame_keys for r in corpus.records(label=Label.TRUE)
    }
    assert flaky_sigs and true_sigs
    assert not flaky_sigs & true_sigs


def test_trace_counts_match_generated_records():
    corpus, trace = generate_with_trace(config(seed=13))
    assert corpus.count(label=Label.FLAKY) == trace.total_flaky
    assert corpus.count(label=Label.TRUE) == trace.total_true


def test_every_generated_record_parses_and_normalizes_cleanly():
    corpus = generate(config(seed=17))
    for rec in corpus.records():
        raw = f"{rec.exception_type}: {rec.message}\n" + "".join(
            f"\tat {f.raw}\n" for f in rec.frames
        )
        diagnostics = []
        reparsed = parse_failure_text(raw, rec.test, diagnostics)
        assert diagnostics == []
        assert reparsed.exception_type == rec.exception_type
        assert reparsed.frames == rec.frames
        normalize(rec)  # must not raise


def test_generated_corpora_are_nontrivially_shaped():
    corpus = generate(config(seed=23, projects=3))
    assert len(corpus.project_names()) == 3
    flaky = list(corpus.records(label=Label.FLAKY))
    assert any(len(r.frames) > 0 for r in flaky)
    bases = {normalize(r).truncation_basis for r in flaky}
    assert len(bases) >= 2  # anchored and unanchored traces both occur


def test_config_json_round_trip(tmp_path):
    original = config()
    path = tmp_path / "generator.json"
    path.write_text(json.dumps(original.to_dict()), encoding="utf-8")
    assert GeneratorConfig.from_json_file(path) == original


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(projects=-1), "projects"),
        (dict(tests_per_project=CountDistribution.constant(-2)), "tests_per_project"),
        (dict(frame_depth=(5, 2)), "frame_depth"),
        (dict(exception_pool=()), "exception_pool"),
        (
            dict(exception_pool=(ExceptionSpec("E", 0.0),)),
            "weight",
        ),
        (
            dict(exception_pool=(ExceptionSpec("E", 1.0, only_label=Label.TRUE),)),
            "flaky",
        ),
        (
            dict(exception_pool=(ExceptionSpec("E", 1.0),)),
            "true",
        ),
        (
            dict(
                flaky_occurrences_per_signature=CountDistribution.geometric(1.5)
            ),
            "geometric",
        ),
    ],
)
def test_invalid_configs_name_the_violated_bound(overrides, fragment):
    with pytest.raises(InvalidConfig) as excinfo:
        config(**overrides).validate()
    assert fragment in str(excinfo.value)


def test_invalid_shared_plus_only_label():
    with pytest.raises(InvalidConfig):
        config(
            exception_pool=(
                ExceptionSpec("E", 1.0, shared_across_labels=True, only_label=Label.TRUE),
            )
        ).validate()


def test_config_from_dict_reports_missing_fields():
    with pytest.raises(InvalidConfig) as excinfo:
        GeneratorConfig.from_dict({"seed": 1})
    assert "missing config field" in str(excinfo.value)


def config_json(**overrides) -> bytes:
    return json.dumps({**config().to_dict(), **overrides}).encode("utf-8")


@pytest.mark.parametrize(
    "document, fragment",
    [
        pytest.param(b"[]", "config must be a JSON object, got []", id="array"),
        pytest.param(
            config_json(exception_pool=["x"]),
            "exception_pool entry must be a JSON object",
            id="pool-entry-string",
        ),
        pytest.param(
            config_json(projects="3"),
            'projects must be a JSON integer, got "3"',
            id="projects-string",
        ),
        pytest.param(
            config_json(exception_pool=[{"name": "E", "weight": "1"}]),
            "weight must be a JSON number",
            id="weight-string",
        ),
        pytest.param(
            config_json().replace(b'"weight": 3.0', b'"weight": NaN'),
            "weight must be a JSON number, got NaN",
            id="weight-nan",
        ),
        pytest.param(
            config_json(tests_per_project={"constant": "3"}),
            "tests_per_project.constant must be a JSON number",
            id="count-string",
        ),
        pytest.param(
            config_json(frame_depth=5),
            "frame_depth must be a JSON array, got 5",
            id="frame-depth-number",
        ),
        pytest.param(
            config_json(frame_depth=[1, 2, 3]),
            "frame_depth takes [low, high]",
            id="frame-depth-three",
        ),
        pytest.param(
            config_json(seed=None),
            "seed must be a JSON integer, got null",
            id="seed-null",
        ),
        pytest.param(
            config_json(seed=True),
            "seed must be a JSON integer, got true",
            id="seed-true",
        ),
        pytest.param(
            config_json(volatile_message_tokens="no"),
            "volatile_message_tokens must be a JSON boolean",
            id="volatile-string",
        ),
        pytest.param(
            b'{"seed": 7, "note": "caf\xe9"}',
            "not UTF-8: byte 0xe9 at offset 24",
            id="latin-1",
        ),
    ],
)
def test_malformed_config_files_raise_invalid_config(tmp_path, document, fragment):
    path = tmp_path / "generator.json"
    path.write_bytes(document)
    with pytest.raises(InvalidConfig) as excinfo:
        GeneratorConfig.from_json_file(path)
    assert fragment in str(excinfo.value)


def test_distribution_samples_respect_support():
    import random

    rng = random.Random(0)
    assert all(CountDistribution.constant(3).sample(rng) == 3 for _ in range(5))
    uniform = CountDistribution.uniform(1, 4)
    assert all(1 <= uniform.sample(rng) <= 4 for _ in range(50))
    geometric = CountDistribution.geometric(0.5)
    assert all(geometric.sample(rng) >= 1 for _ in range(50))


@pytest.mark.parametrize(
    "document, fragment",
    [
        pytest.param(
            config_json(frame_dept=[50, 60]),
            "config has unknown keys: 'frame_dept'",
            id="top-level",
        ),
        pytest.param(
            config_json(exception_pool=[{"name": "E", "weight": 1, "wieght": 2}]),
            "exception_pool entry has unknown keys: 'wieght'",
            id="pool-entry",
        ),
    ],
)
def test_unknown_config_keys_raise_invalid_config(document, fragment):
    with pytest.raises(InvalidConfig) as excinfo:
        GeneratorConfig.from_json(document.decode("utf-8"))
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize(
    "weights",
    [
        pytest.param(b"1e308, 1e308", id="floats-overflow"),
        pytest.param(b"1" + b"0" * 400 + b", 1", id="integer-too-large"),
        pytest.param(b"1" + b"0" * 400 + b", 1.5", id="integer-plus-float"),
    ],
)
def test_weights_without_a_finite_total_raise_invalid_config(weights):
    first, second = weights.split(b", ")
    document = config_json(
        exception_pool=[
            {"name": "A", "weight": 1.0, "shared_across_labels": True},
            {"name": "B", "weight": 2.0},
            {"name": "C", "weight": 3.0},
        ]
    ).replace(b'"weight": 2.0', b'"weight": ' + first).replace(
        b'"weight": 3.0', b'"weight": ' + second
    )
    with pytest.raises(InvalidConfig) as excinfo:
        GeneratorConfig.from_json(document.decode("utf-8"))
    assert "weights eligible for flaky failures must sum to a finite float" in str(
        excinfo.value
    )


def test_weights_of_a_label_are_totalled_apart():
    # Each label's pool alone has a finite total, so generation can draw.
    pool = (
        ExceptionSpec("A", 1e308),
        ExceptionSpec("B", 1e308, only_label=Label.TRUE),
    )
    config(exception_pool=pool).validate()
