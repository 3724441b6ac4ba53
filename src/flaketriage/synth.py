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
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import InvalidConfig
from .model import Corpus, FailureRecord, Label, StackFrame, TestId

_FLAKY_LINE_RANGE = (10, 500)
_TRUE_LINE_RANGE = (500, 1000)

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
        if self.kind == "constant":
            return self.a > 0
        if self.kind == "uniform":
            return self.b > 0
        return True

    @classmethod
    def from_dict(cls, data: dict, name: str = "distribution") -> CountDistribution:
        if not isinstance(data, dict) or len(data) != 1:
            raise InvalidConfig(f"{name}: expected one of constant/uniform/geometric")
        kind, value = next(iter(data.items()))
        if kind == "constant":
            return cls("constant", _json_value(value, f"{name}.constant", "number"))
        if kind == "uniform":
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise InvalidConfig(f"{name}: uniform takes [low, high]")
            low, high = (_json_value(v, f"{name}.uniform", "number") for v in value)
            return cls("uniform", low, high)
        if kind == "geometric":
            return cls("geometric", _json_value(value, f"{name}.geometric", "number"))
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

    def validate(self) -> None:
        if self.projects < 0:
            raise InvalidConfig(f"projects must be >= 0, got {self.projects}")
        self.tests_per_project.validate("tests_per_project")
        self.flaky_signatures_per_test.validate("flaky_signatures_per_test")
        self.flaky_occurrences_per_signature.validate(
            "flaky_occurrences_per_signature"
        )
        self.true_failures_per_test.validate("true_failures_per_test")
        if not self.exception_pool:
            raise InvalidConfig("exception_pool must not be empty")
        for spec in self.exception_pool:
            if not spec.name:
                raise InvalidConfig("exception_pool entries need a name")
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
        if self.flaky_signatures_per_test.can_be_positive() and not any(
            spec.eligible(Label.FLAKY) for spec in self.exception_pool
        ):
            raise InvalidConfig("no exception_pool entry is eligible for flaky failures")
        if self.true_failures_per_test.can_be_positive() and not any(
            spec.eligible(Label.TRUE) for spec in self.exception_pool
        ):
            raise InvalidConfig("no exception_pool entry is eligible for true failures")

    @classmethod
    def from_dict(cls, data: dict) -> GeneratorConfig:
        """The configuration a parsed JSON document describes.

        Raises InvalidConfig for a missing or unknown field, a value of the
        wrong JSON type or shape, and a value out of its bounds.
        """
        _json_value(data, "config", "object")
        _known_keys(data, cls, "config")
        try:
            pool = tuple(
                _exception_spec(entry)
                for entry in _json_value(
                    data["exception_pool"], "exception_pool", "array"
                )
            )
            depth = _json_value(
                data.get("frame_depth", [3, 8]), "frame_depth", "array"
            )
            if len(depth) != 2:
                raise InvalidConfig(
                    f"frame_depth takes [low, high], got {json.dumps(depth)}"
                )
            config = cls(
                seed=_json_value(data["seed"], "seed", "integer"),
                projects=_json_value(data["projects"], "projects", "integer"),
                tests_per_project=CountDistribution.from_dict(
                    data["tests_per_project"], "tests_per_project"
                ),
                flaky_signatures_per_test=CountDistribution.from_dict(
                    data["flaky_signatures_per_test"], "flaky_signatures_per_test"
                ),
                flaky_occurrences_per_signature=CountDistribution.from_dict(
                    data["flaky_occurrences_per_signature"],
                    "flaky_occurrences_per_signature",
                ),
                true_failures_per_test=CountDistribution.from_dict(
                    data["true_failures_per_test"], "true_failures_per_test"
                ),
                exception_pool=pool,
                volatile_message_tokens=_json_value(
                    data.get("volatile_message_tokens", True),
                    "volatile_message_tokens",
                    "boolean",
                ),
                frame_depth=tuple(
                    _json_value(v, "frame_depth", "integer") for v in depth
                ),
            )
        except KeyError as exc:
            raise InvalidConfig(f"missing config field {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from exc
        config.validate()
        return config

    @classmethod
    def from_json(cls, text: str) -> GeneratorConfig:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
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


def _exception_spec(entry) -> ExceptionSpec:
    _json_value(entry, "exception_pool entry", "object")
    _known_keys(entry, ExceptionSpec, "exception_pool entry")
    return ExceptionSpec(
        name=_json_value(entry["name"], "exception_pool name", "string"),
        weight=_json_value(entry["weight"], "exception_pool weight", "number"),
        shared_across_labels=_json_value(
            entry.get("shared_across_labels", False),
            "exception_pool shared_across_labels",
            "boolean",
        ),
        only_label=(
            Label(_json_value(entry["only_label"], "exception_pool only_label", "label"))
            if "only_label" in entry
            else None
        ),
    )


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


def _known_keys(data: dict, cls, name: str) -> None:
    """InvalidConfig naming the keys of ``data`` that are no field of ``cls``."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise InvalidConfig(f"{name} has unknown keys: {', '.join(map(repr, unknown))}")


def _json_value(value, name: str, kind: str):
    """``value`` if it is a JSON value of ``kind``; InvalidConfig otherwise."""
    if not _JSON_TYPES[kind](value):
        what = '"flaky" or "true"' if kind == "label" else f"a JSON {kind}"
        raise InvalidConfig(f"{name} must be {what}, got {json.dumps(value, default=repr)}")
    return value


def _weighted_choice(
    rng: random.Random, pool: list[ExceptionSpec]
) -> ExceptionSpec:
    return rng.choices(pool, weights=[spec.weight for spec in pool], k=1)[0]


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
    flaky_pool = [s for s in config.exception_pool if s.eligible(Label.FLAKY)]
    true_pool = [s for s in config.exception_pool if s.eligible(Label.TRUE)]

    for p in range(config.projects):
        project = f"proj{p:02d}"
        package = f"org.{project}"
        n_tests = config.tests_per_project.sample(rng)
        tests = [
            TestId(project, f"{package}.Suite{t}Test", f"scenario{t}")
            for t in range(n_tests)
        ]
        for test in tests:
            n_signatures = config.flaky_signatures_per_test.sample(rng)
            for _ in range(n_signatures):
                spec = _weighted_choice(rng, flaky_pool)
                depth = rng.randint(*config.frame_depth)
                frames = _make_stack(rng, package, test, depth, _FLAKY_LINE_RANGE)
                fixed_message = f"{spec.name} while running {test.method}"
                occurrences = config.flaky_occurrences_per_signature.sample(rng)
                for _ in range(occurrences):
                    message = (
                        _volatile_message(rng, spec.name)
                        if config.volatile_message_tokens
                        else fixed_message
                    )
                    corpus.add(
                        FailureRecord(
                            test=test,
                            exception_type=spec.name,
                            message=message,
                            frames=frames,
                            label=Label.FLAKY,
                        )
                    )
            n_true = config.true_failures_per_test.sample(rng)
            for _ in range(n_true):
                spec = _weighted_choice(rng, true_pool)
                depth = rng.randint(*config.frame_depth)
                frames = _make_stack(rng, package, test, depth, _TRUE_LINE_RANGE)
                message = (
                    _volatile_message(rng, spec.name)
                    if config.volatile_message_tokens
                    else f"{spec.name} from mutated {test.method}"
                )
                corpus.add(
                    FailureRecord(
                        test=test,
                        exception_type=spec.name,
                        message=message,
                        frames=frames,
                        label=Label.TRUE,
                    )
                )
    return corpus
