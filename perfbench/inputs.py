"""Input builder: turns a committed generator config and a seed into the bytes
and raw log text a workload feeds to flaketriage.

Run as a script it writes ``history.xml`` and ``queries.json`` into ``--out``;
``run.py`` starts it as a child process so that generation never counts
toward the measured process's peak RSS:

    python3 perfbench/inputs.py --workload gate --seed 7 --out DIR [--smoke]

The builder uses the generator (``flaketriage.synth``) and the public model
types only. The base corpus comes from the generator seed committed in the
workload's config, so its size and per-test shape, and with them the
timings, do not drift with ``--seed``. ``--seed`` drives everything else:

* adds, for a seeded share of tests, a true-labeled copy of one flaky
  signature (the generator keeps label signatures disjoint, so without this
  every synthetic run scores 100% precision and no verdict is MATCHED_BOTH);
* holds out a seeded share of each test's records as the query pool and
  writes the rest as history XML. The queries are ordered so that every
  prefix takes each test in proportion to its records: the pool a workload
  cuts from the front then has the same mix of tests, and so much the same
  cost, whatever the seed;
* renders each query as a realistic raw CI log: package-qualified header with
  a fresh volatile message, ``\\tat`` frames, a ``Caused by:`` block ending in
  ``... N more``, and a malformed ``at`` line in a seeded share of queries.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG_DIR = BENCH_DIR / "configs"
WORKLOADS = ("gate", "gate-nn", "audit")

sys.path.insert(0, str(ROOT / "src"))

from flaketriage.ingest import write_corpus_xml  # noqa: E402
from flaketriage.model import Corpus, FailureRecord, Label  # noqa: E402
from flaketriage.synth import GeneratorConfig, generate  # noqa: E402

# Package of each pool exception, for the qualified header of a raw log.
_PACKAGES = {
    "UnknownHostException": "java.net",
    "SocketTimeoutException": "java.net",
}
_CAUSES = (
    ("java.net.ConnectException", "Connection refused",
     ("java.net.PlainSocketImpl.socketConnect(Native Method)",
      "java.net.AbstractPlainSocketImpl.doConnect(AbstractPlainSocketImpl.java:350)")),
    ("java.io.IOException", "Broken pipe",
     ("sun.nio.ch.FileDispatcherImpl.write0(Native Method)",
      "sun.nio.ch.IOUtil.write(IOUtil.java:65)")),
)
# Shares of tests given a cross-label copy, and of queries whose raw log
# carries a malformed frame line or a ``Caused by:`` block.
CROSS_LABEL_SHARE = 0.25
MALFORMED_SHARE = 0.1
CAUSED_BY_SHARE = 0.5
# Fails the frame grammar (no line number after the file), so the parser
# skips it and the query's signature is unaffected.
_MALFORMED_FRAME = (
    "\tat org.junit.runners.model.FrameworkMethod$1.runReflectiveCall"
    "(FrameworkMethod.java)"
)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(workload: str, smoke: bool) -> dict:
    """The committed config of a workload, with its smoke overrides if asked."""
    config = json.loads((CONFIG_DIR / f"{workload}.json").read_text("utf-8"))
    smoke_overrides = config.pop("smoke", {})
    return _merge(config, smoke_overrides) if smoke else config


def _volatile_message(rng: random.Random, exception: str) -> str:
    host = f"ip-10-{rng.randrange(256)}-{rng.randrange(256)}-{rng.randrange(256)}"
    stamp = (
        f"2024-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
        f"T{rng.randrange(24):02d}:{rng.randrange(60):02d}:{rng.randrange(60):02d}"
    )
    return f"{exception} on {host} at {stamp}: operation timed out"


def render_raw_log(record: FailureRecord, rng: random.Random) -> str:
    """A raw CI log of one failure, with the noise real logs carry."""
    package = _PACKAGES.get(record.exception_type, "java.lang")
    message = _volatile_message(rng, record.exception_type)
    lines = [f"{package}.{record.exception_type}: {message}"]
    lines.extend(f"\tat {frame.raw}" for frame in record.frames)
    if rng.random() < MALFORMED_SHARE:
        lines.insert(rng.randint(1, len(lines)), _MALFORMED_FRAME)
    if rng.random() < CAUSED_BY_SHARE:
        cause, cause_message, cause_frames = _CAUSES[rng.randrange(len(_CAUSES))]
        lines.append(f"Caused by: {cause}: {cause_message}")
        lines.extend(f"\tat {frame}" for frame in cause_frames)
        lines.append(f"\t... {len(record.frames)} more")
    return "\n".join(lines) + "\n"


def add_cross_label_copies(corpus: Corpus, rng: random.Random) -> None:
    """Give a seeded share of tests a true-labeled copy of one flaky signature."""
    for project in corpus.project_names():
        for test in corpus.tests(project):
            flaky = corpus.bucket(test, Label.FLAKY)
            if not flaky or rng.random() >= CROSS_LABEL_SHARE:
                continue
            source = flaky[rng.randrange(len(flaky))]
            corpus.add(
                FailureRecord(
                    test=test,
                    exception_type=source.exception_type,
                    message=_volatile_message(rng, source.exception_type),
                    frames=source.frames,
                    label=Label.TRUE,
                )
            )


def build(workload: str, seed: int, smoke: bool = False) -> tuple[bytes, list[dict]]:
    """History XML and query pool of one workload for one seed."""
    config = load_config(workload, smoke)
    generated = generate(GeneratorConfig.from_dict(config["generator"]))
    rng = random.Random(f"perfbench/{workload}/{seed}")
    add_cross_label_copies(generated, rng)

    records = list(generated.records())
    by_test = defaultdict(list)
    for i, record in enumerate(records):
        by_test[record.test].append(i)
    held_out = {}  # record index -> sort key of its query
    for indexes in by_test.values():
        chosen = rng.sample(indexes, round(config["query_share"] * len(indexes)))
        offset = rng.random()
        for rank, i in enumerate(chosen):
            held_out[i] = (rank + offset) / len(chosen)
    history = Corpus()
    keyed = []
    for i, record in enumerate(records):
        if i not in held_out:
            history.add(record)
            continue
        test = record.test
        query = {
            "project": test.project,
            "class_fqn": test.class_fqn,
            "method": test.method,
            "label": record.label.value,
            "exception_type": record.exception_type,
            "frames": [frame.raw for frame in record.frames],
            "raw": render_raw_log(record, rng),
        }
        keyed.append((held_out[i], i, query))
    queries = [query for *_, query in sorted(keyed, key=lambda k: k[:2])]
    return write_corpus_xml(history), queries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    xml, queries = build(args.workload, args.seed, args.smoke)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "history.xml").write_bytes(xml)
    (args.out / "queries.json").write_text(json.dumps(queries), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
