"""Failure-log triage: parse test failures into canonical records and decide,
against a labeled history of flaky and true failures, whether a new failure
is flaky — by exact signature matching, a six-feature classifier, or TF-IDF
nearest-neighbour matching — plus an evaluation harness and a deterministic
corpus generator.
"""
from .classifier import (
    FeatureContext,
    FeatureVector,
    default_cut_prefixes,
    extract_features,
    oversample,
    train_decision_tree,
    train_naive_bayes,
)
from .errors import (
    DuplicateProjectMismatch,
    EmptyDataset,
    EmptyDocument,
    EmptyHistory,
    FlakeTriageError,
    InsufficientFlaky,
    InsufficientTrue,
    InvalidConfig,
    InvalidLogBase,
    MalformedFrame,
    MalformedLog,
    SchemaError,
    UnknownTerm,
    UnlabeledRecord,
)
from .evaluation import (
    ConfusionMatrix,
    CvResult,
    MetricSet,
    ScoreResult,
    cross_validate_project,
    exception_frequency,
    metrics,
    score_matching,
    score_project,
    stratified_cv,
)
from .ingest import (
    NormalizedFailure,
    TruncationBasis,
    normalize,
    parse_failure_file,
    parse_failure_text,
    parse_frame,
    read_corpus_xml,
    write_corpus_xml,
)
from .matching import (
    FailureSignature,
    MatchMode,
    MatchScope,
    ProjectIndex,
    RepetitivenessReport,
    TriageBasis,
    TriageVerdict,
    project_index,
    repetitiveness,
    signature,
    triage,
)
from .model import (
    Corpus,
    FailureRecord,
    KnownTests,
    Label,
    StackFrame,
    TestId,
)
from .synth import CountDistribution, ExceptionSpec, GeneratorConfig, generate
from .tfidf import TokenDocument, classify_nn, cosine, idf, tf, tokenize, vectorize

__version__ = "0.1.0"
