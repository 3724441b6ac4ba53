"""Deterministic generator of labeled failure corpora for desk-scale testing.

Every draw flows from a single seeded RNG, so equal configurations produce
structurally equal corpora (and byte-identical XML). Flaky occurrences of the
same synthetic signature share their exception and trace exactly and differ
only in volatile message details; true failures draw their line numbers from
a disjoint range, so a full signature never spans both labels.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path

from .errors import InvalidConfig
from .model import Corpus, FailureRecord, Label, StackFrame, TestId

# Per label: the range its trace line numbers come from (disjoint, so a full
# signature never spans both labels) and the wording of its fixed message.
_LABEL_TRACES = {
    Label.FLAKY: ((10, 500), "while running"),
    Label.TRUE: ((500, 1000), "from mutated"),
}

_CUT_METHODS = ("start", "run", "connect", "flush", "resolve", "submit")
_LIB_FRAMES = (
    ("java.net.InetAddress", "getLocalHost", "InetAddress.java"),
    ("java.util.concurrent.FutureTask", "get", "FutureTask.java"),
    ("java.io.BufferedReader", "readLine", "BufferedReader.java"),
    ("java.lang.Thread", "sleep", None),
)


@dataclass(frozen=True)
class CountDistribution:
    """Constant, uniform-integer-range, or geometric count distribution.

    Geometric draws count the Bernoulli(p) trials up to and including the
    first success, so its support starts at 1; the other two support 0.
    """

    kind: str
    a: float = 0
    b: float = 0

    @classmethod
    def constant(cls, n: int) -> CountDistribution:
        return cls("constant", n)

    @classmethod
    def uniform(cls, low: int, high: int) -> CountDistribution:
        return cls("uniform", low, high)

    @classmethod
    def geometric(cls, p: float) -> CountDistribution:
        return cls("geometric", p)

    def validate(self, name: str) -> None:
        if self.kind == "constant":
            if self.a < 0 or self.a != int(self.a):
                raise InvalidConfig(f"{name}: constant must be an integer >= 0")
        elif self.kind == "uniform":
            if self.a < 0 or self.a > self.b or self.a != int(self.a) or self.b != int(self.b):
                raise InvalidConfig(f"{name}: uniform needs integers 0 <= low <= high")
        elif self.kind == "geometric":
            if not 0 < self.a <= 1:
                raise InvalidConfig(f"{name}: geometric needs 0 < p <= 1")
        else:
            raise InvalidConfig(f"{name}: unknown distribution kind {self.kind!r}")

    def sample(self, rng: random.Random) -> int:
        if self.kind == "constant":
            return int(self.a)
        if self.kind == "uniform":
            return rng.randint(int(self.a), int(self.b))
        draws = 1
        while rng.random() >= self.a:
            draws += 1
        return draws

    def can_be_positive(self) -> bool:
        return self.kind == "geometric" or max(self.a, self.b) > 0

    @classmethod
    def from_dict(cls, data: dict, name: str = "distribution") -> CountDistribution:
        if not isinstance(data, dict) or len(data) != 1:
            raise InvalidConfig(f"{name}: expected one of constant/uniform/geometric")
        kind, value = next(iter(data.items()))
        if kind in ("constant", "geometric"):
            return cls(kind, _json_value(value, f"{name}.{kind}", "number"))
        if kind == "uniform":
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise InvalidConfig(f"{name}: uniform takes [low, high]")
            low, high = (_json_value(v, f"{name}.uniform", "number") for v in value)
            return cls("uniform", low, high)
        raise InvalidConfig(f"{name}: unknown distribution kind {kind!r}")


@dataclass(frozen=True)
class ExceptionSpec:
    """One exception the generator can draw.

    ``shared_across_labels`` makes the name eligible for both the flaky and
    the true population; otherwise the name goes to exactly one population,
    ``only_label`` (flaky when unset). Disjoint flaky/true pools are expressed
    with non-shared entries split across the two labels.
    """

    name: str
    weight: float
    shared_across_labels: bool = False
    only_label: Label | None = None

    def eligible(self, label: Label) -> bool:
        if self.shared_across_labels:
            return True
        return (self.only_label or Label.FLAKY) is label


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    projects: int
    tests_per_project: CountDistribution
    flaky_signatures_per_test: CountDistribution
    flaky_occurrences_per_signature: CountDistribution
    true_failures_per_test: CountDistribution
    exception_pool: tuple[ExceptionSpec, ...]
    volatile_message_tokens: bool = True
    frame_depth: tuple[int, int] = (3, 8)

    def _counts(self, label: Label) -> tuple[CountDistribution, CountDistribution]:
        """Signatures per test and occurrences per signature of ``label``; a
        true failure is a signature of its own that occurs once."""
        if label is Label.FLAKY:
            return self.flaky_signatures_per_test, self.flaky_occurrences_per_signature
        return self.true_failures_per_test, CountDistribution.constant(1)

    def validate(self) -> None:
        if self.projects < 0:
            raise InvalidConfig(f"projects must be >= 0, got {self.projects}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, CountDistribution):
                value.validate(f.name)
        if not self.exception_pool:
            raise InvalidConfig("exception_pool must not be empty")
        for spec in self.exception_pool:
            if not spec.name:
                raise InvalidConfig("exception_pool entries need a name")
            # The corpus XML reader strips the exception name it reads back.
            if spec.name != spec.name.strip():
                raise InvalidConfig(
                    f"exception_pool entry {spec.name!r} must not be blank or "
                    "start or end with whitespace"
                )
            if spec.weight <= 0:
                raise InvalidConfig(
                    f"exception_pool entry {spec.name!r} needs a positive weight"
                )
            if spec.shared_across_labels and spec.only_label is not None:
                raise InvalidConfig(
                    f"exception_pool entry {spec.name!r} is shared and cannot "
                    "also be restricted to one label"
                )
        for label in Label:
            # random.choices needs the total of the weights as a finite float.
            try:
                total = float(sum(s.weight for s in self.exception_pool if s.eligible(label)))
            except OverflowError:
                total = math.inf
            if not math.isfinite(total):
                raise InvalidConfig(
                    f"exception_pool weights eligible for {label} failures "
                    "must sum to a finite float"
                )
        low, high = self.frame_depth
        if low < 0 or low > high:
            raise InvalidConfig(
                f"frame_depth needs 0 <= low <= high, got {self.frame_depth}"
            )
        for label in Label:
            if self._counts(label)[0].can_be_positive() and not any(
                spec.eligible(label) for spec in self.exception_pool
            ):
                raise InvalidConfig(
                    f"no exception_pool entry is eligible for {label} failures"
                )

    @classmethod
    def from_dict(cls, data: dict) -> GeneratorConfig:
        """The configuration a parsed JSON document describes.

        Raises InvalidConfig for a missing or unknown field, a value of the
        wrong JSON type or shape, and a value out of its bounds.
        """
        config = _from_json(cls, data, "config", "")
        config.validate()
        return config

    @classmethod
    def from_json(cls, text: str) -> GeneratorConfig:
        try:
            data = json.loads(text)
        except ValueError as exc:  # also an integer with too many digits for int()
            raise InvalidConfig(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_json_file(cls, path: Path | str) -> GeneratorConfig:
        data = Path(path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidConfig(
                f"{path}: not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}"
            ) from None
        return cls.from_json(text)


# JSON true and false load as bool, a subclass of int, so "integer" and
# "number" exclude them; Python's json also loads NaN and Infinity, which no
# count, weight or probability may be. A "label" is the value of a Label.
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, (list, tuple)),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (
        isinstance(v, int) and not isinstance(v, bool)
        or isinstance(v, float) and math.isfinite(v)
    ),
    "label": lambda v: v in ("flaky", "true"),
}


def _json_value(value, name: str, kind: str):
    """``value`` if it is a JSON value of ``kind``; InvalidConfig otherwise."""
    if not _JSON_TYPES[kind](value):
        what = '"flaky" or "true"' if kind == "label" else f"a JSON {kind}"
        raise InvalidConfig(f"{name} must be {what}, got {json.dumps(value, default=repr)}")
    return value


def _from_json(cls, data, name: str, prefix: str):
    """The ``cls`` that the JSON object ``data`` describes.

    Each field is read through ``_READERS`` under the name ``prefix`` plus the
    field's; an absent field takes its dataclass default, if it has one.
    """
    _json_value(data, name, "object")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise InvalidConfig(f"{name} has unknown keys: {', '.join(map(repr, unknown))}")
    values = {}
    for f in fields(cls):
        if f.name in data:
            values[f.name] = _READERS[f.name](data[f.name], prefix + f.name)
        elif f.default is MISSING:
            raise InvalidConfig(f"missing config field {f.name!r}")
    return cls(**values)


def _frame_depth(value, name: str) -> tuple[int, int]:
    depth = _json_value(value, name, "array")
    if len(depth) != 2:
        raise InvalidConfig(f"{name} takes [low, high], got {json.dumps(depth)}")
    return tuple(_json_value(v, name, "integer") for v in depth)


# How each field of GeneratorConfig and ExceptionSpec is read from its JSON
# value, given the name an error about the value shows.
_READERS = {
    "seed": partial(_json_value, kind="integer"),
    "projects": partial(_json_value, kind="integer"),
    "tests_per_project": CountDistribution.from_dict,
    "flaky_signatures_per_test": CountDistribution.from_dict,
    "flaky_occurrences_per_signature": CountDistribution.from_dict,
    "true_failures_per_test": CountDistribution.from_dict,
    "exception_pool": lambda value, name: tuple(
        _from_json(ExceptionSpec, entry, "exception_pool entry", "exception_pool ")
        for entry in _json_value(value, name, "array")
    ),
    "volatile_message_tokens": partial(_json_value, kind="boolean"),
    "frame_depth": _frame_depth,
    "name": partial(_json_value, kind="string"),
    "weight": partial(_json_value, kind="number"),
    "shared_across_labels": partial(_json_value, kind="boolean"),
    "only_label": lambda value, name: Label(_json_value(value, name, "label")),
}


def _make_stack(
    rng: random.Random,
    package: str,
    test: TestId,
    depth: int,
    line_range: tuple[int, int],
) -> tuple[StackFrame, ...]:
    """Random trace of the requested depth anchored (usually) at the test.

    Upper frames mix JDK calls, code-under-test classes from the project
    package, occasional test-framework frames, and occasional reflection
    noise, so downstream filtering and feature extraction have work to do.
    """
    frames: list[StackFrame] = []
    anchor_roll = rng.random()
    body = depth if anchor_roll >= 0.85 else max(depth - 1, 0)
    for _ in range(body):
        roll = rng.random()
        if roll < 0.30:
            class_fqn, method, file = _LIB_FRAMES[rng.randrange(len(_LIB_FRAMES))]
            if file is None:
                frames.append(StackFrame.from_parts(class_fqn, method))
                continue
        elif roll < 0.40:
            class_fqn, method, file = (
                "org.junit.Assert",
                "assertTrue",
                "Assert.java",
            )
        elif roll < 0.45:
            class_fqn = f"sun.reflect.GeneratedMethodAccessor{rng.randrange(100)}"
            method, file = "invoke", None
            frames.append(
                StackFrame(class_fqn, method, None, None, f"{class_fqn}.{method}(Unknown Source)")
            )
            continue
        else:
            class_fqn = f"{package}.Worker{rng.randrange(6)}"
            method = _CUT_METHODS[rng.randrange(len(_CUT_METHODS))]
            file = f"Worker{class_fqn[-1]}.java"
        frames.append(
            StackFrame.from_parts(
                class_fqn, method, file, rng.randrange(*line_range)
            )
        )
    if anchor_roll < 0.85 and depth > 0:
        file = test.class_fqn.rsplit(".", 1)[-1] + ".java"
        method = test.method if anchor_roll < 0.45 else "setUp"
        frames.append(
            StackFrame.from_parts(
                test.class_fqn, method, file, rng.randrange(*line_range)
            )
        )
    # Keep at least one line-numbered frame per non-empty trace: line ranges
    # are what keeps flaky and true signatures disjoint across labels.
    if frames and all(f.line is None for f in frames):
        frames[-1] = StackFrame.from_parts(
            f"{package}.Worker0", "run", "Worker0.java", rng.randrange(*line_range)
        )
    return tuple(frames)


def _volatile_message(rng: random.Random, exception: str) -> str:
    ip = f"ip-10-{rng.randrange(256)}-{rng.randrange(256)}-{rng.randrange(256)}"
    stamp = (
        f"2021-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
        f"T{rng.randrange(24):02d}:{rng.randrange(60):02d}:{rng.randrange(60):02d}"
    )
    return f"{exception} on {ip} at {stamp}: operation timed out"


def generate(config: GeneratorConfig) -> Corpus:
    """Generate a labeled corpus; equal configs yield equal corpora."""
    config.validate()
    rng = random.Random(config.seed)
    corpus = Corpus()
    draws = []
    for label in Label:
        pool = [s for s in config.exception_pool if s.eligible(label)]
        weights = [spec.weight for spec in pool]
        draws.append((label, pool, weights, *config._counts(label), *_LABEL_TRACES[label]))

    for p in range(config.projects):
        project = f"proj{p:02d}"
        package = f"org.{project}"
        for t in range(config.tests_per_project.sample(rng)):
            test = TestId(project, f"{package}.Suite{t}Test", f"scenario{t}")
            for label, pool, weights, signatures, occurrences, lines, wording in draws:
                for _ in range(signatures.sample(rng)):
                    spec = rng.choices(pool, weights=weights, k=1)[0]
                    depth = rng.randint(*config.frame_depth)
                    frames = _make_stack(rng, package, test, depth, lines)
                    fixed_message = f"{spec.name} {wording} {test.method}"
                    for _ in range(occurrences.sample(rng)):
                        message = (
                            _volatile_message(rng, spec.name)
                            if config.volatile_message_tokens
                            else fixed_message
                        )
                        corpus.add(FailureRecord(test, spec.name, message, frames, label))
    return corpus
