"""The names the package exports, pinned so that adding or dropping one
shows in a diff of this file."""
import types

import flaketriage

PUBLIC_NAMES = [
    "ConfusionMatrix",
    "Corpus",
    "CountDistribution",
    "CvResult",
    "DuplicateProjectMismatch",
    "EmptyDataset",
    "EmptyDocument",
    "EmptyHistory",
    "ExceptionSpec",
    "FailureRecord",
    "FailureSignature",
    "FeatureContext",
    "FeatureVector",
    "FlakeTriageError",
    "GeneratorConfig",
    "InsufficientFlaky",
    "InsufficientTrue",
    "InvalidConfig",
    "InvalidLogBase",
    "KnownTests",
    "Label",
    "MalformedFrame",
    "MalformedLog",
    "MatchMode",
    "MatchScope",
    "MetricSet",
    "NormalizedFailure",
    "ProjectIndex",
    "RepetitivenessReport",
    "SchemaError",
    "ScoreResult",
    "StackFrame",
    "TestId",
    "TokenDocument",
    "TriageBasis",
    "TriageVerdict",
    "TruncationBasis",
    "UnknownTerm",
    "UnlabeledRecord",
    "classify_nn",
    "cosine",
    "cross_validate_project",
    "default_cut_prefixes",
    "exception_frequency",
    "extract_features",
    "generate",
    "idf",
    "metrics",
    "normalize",
    "oversample",
    "parse_failure_file",
    "parse_failure_text",
    "parse_frame",
    "project_index",
    "read_corpus_xml",
    "repetitiveness",
    "score_matching",
    "score_project",
    "signature",
    "stratified_cv",
    "tf",
    "tokenize",
    "train_decision_tree",
    "train_naive_bayes",
    "triage",
    "vectorize",
    "write_corpus_xml",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(flaketriage).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
