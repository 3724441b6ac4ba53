"""Shared fixtures: the alluxio reference failure pair and record builders."""
from __future__ import annotations

import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import settings

from flaketriage.model import Corpus, FailureRecord, Label, StackFrame, TestId

# Wall-clock deadlines make property tests timing-sensitive; shrinking and
# example counts stay as configured per test.
settings.register_profile("no_deadline", deadline=None)
settings.load_profile("no_deadline")

# Two equivalent flaky failures of the same alluxio test; they differ only in
# the host details inside the message, never in exception or trace.
ALLUXIO_TEST = TestId("alluxio", "tachyon.JournalTest", "TableTest")
ALLUXIO_FRAMES = (
    "java.net.Inet6AddressImpl.lookupAllHostAddr(Native Method)",
    "java.net.InetAddress$2.lookupAllHostAddr(InetAddress.java:929)",
    "java.net.InetAddress.getAddressesFromNameService(InetAddress.java:1324)",
    "java.net.InetAddress.getLocalHost(InetAddress.java:1501)",
    "tachyon.LocalTachyonCluster.start(LocalTachyonCluster.java:104)",
    "tachyon.JournalTest.before(JournalTest.java:33)",
)
ALLUXIO_MESSAGE_1 = "ip-172-31-48-81: ip-172-31-48-81: Temporary failure in name resolution"
ALLUXIO_MESSAGE_2 = "ip-172-31-58-81: ip-172-31-58-81: Temporary failure in name resolution"


def alluxio_raw_log(message: str) -> str:
    lines = [f"java.net.UnknownHostException: {message}"]
    lines.extend(f"\tat {frame}" for frame in ALLUXIO_FRAMES)
    return "\n".join(lines) + "\n"


def alluxio_corpus_xml() -> bytes:
    def failure(message: str) -> str:
        frame_lines = "".join(f"<line>{f}</line>" for f in ALLUXIO_FRAMES)
        return (
            "<Failure>"
            f'<T project="alluxio">tachyon.JournalTest.TableTest</T>'
            "<E>UnknownHostException</E>"
            f"<M>{message}</M>"
            f"<S>{frame_lines}</S>"
            "</Failure>"
        )

    doc = f"<Corpus>{failure(ALLUXIO_MESSAGE_1)}{failure(ALLUXIO_MESSAGE_2)}</Corpus>"
    return doc.encode("utf-8")


# Documents the corpus reader rejects, each with a fragment of its message.
SCHEMA_ERROR_CASES = [
    (b"<NotCorpus/>", "Corpus"),
    (b"<Corpus><Oops/></Corpus>", "Oops"),
    (b'<Corpus><Failure><E>E</E><M/><S/></Failure></Corpus>', "T"),
    (b'<Corpus><Failure><T>a.T.m</T><E>E</E><M/><S/></Failure></Corpus>', "project"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><M/><S/></Failure></Corpus>', "E"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><S/></Failure></Corpus>', "M"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/></Failure></Corpus>', "S"),
    (b'<Corpus><Failure label="odd"><T project="p">a.T.m</T><E>E</E><M/><S/></Failure></Corpus>', "label"),
    (b'<Corpus><Failure><T project="p">nodots</T><E>E</E><M/><S/></Failure></Corpus>', "class.method"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/><S><line>bad line</line></S></Failure></Corpus>', "line"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/><S><line>a.B.m(B.java:1&#10;)</line></S></Failure></Corpus>', "unrecognised source position"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/><S><line>a.B.m(B&#10;.java:1)</line></S></Failure></Corpus>', "unrecognised source position"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/><S><line>a.B.m( :1)</line></S></Failure></Corpus>', "unrecognised source position"),
    ('<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/><S><line>a.B.m(B.java:\u0663)</line></S></Failure></Corpus>'.encode(), "unrecognised source position"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/><S><foo/></S></Failure></Corpus>', "<foo> under <S>"),
    (b"<Corpus>", "well-formed"),
    (b'<Corpus><Project><Failure><T project="p">a.T.m</T><E>E</E><M/><S/></Failure></Project></Corpus>', "name"),
]

# Documents that older readers took without an error (a stray element or
# text was dropped, a repeated part ignored, or a ValueError escaped).
STRICT_SCHEMA_CASES = [
    (b'<Corpus><Failure><T project="p">a.T<b/>.m</T><E>E</E><M/><S/></Failure></Corpus>', "<T> must not contain the element <b>"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E<b/></E><M/><S/></Failure></Corpus>', "<E> must not contain the element <b>"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M>keep<b/>lost</M><S/></Failure></Corpus>', "<M> must not contain the element <b>"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/><S><line>a.B.c(B.java:1)<i/></line></S></Failure></Corpus>', "<line> must not contain the element <i>"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><T project="q">a.T.m</T><E>E</E><M/><S/></Failure></Corpus>', "more than one <T>"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><E>F</E><M/><S/></Failure></Corpus>', "more than one <E>"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/><M/><S/></Failure></Corpus>', "more than one <M>"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/><S/><S/></Failure></Corpus>', "more than one <S>"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/><S/><Z/></Failure></Corpus>', "unexpected element <Z> under <Failure>"),
    (b'<Corpus>stray<Failure><T project="p">a.T.m</T><E>E</E><M/><S/></Failure></Corpus>', "'stray' directly under <Corpus>"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/><S/></Failure>stray</Corpus>', "'stray' directly under <Corpus>"),
    (b'<Corpus><Project name="p"><Failure><T project="p">a.T.m</T><E>E</E><M/><S/></Failure>stray</Project></Corpus>', "'stray' directly under <Project>"),
    (b'<Corpus><Failure><T project="p">a.T.m</T>stray<E>E</E><M/><S/></Failure></Corpus>', "'stray' directly under <Failure>"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/><S>a.B.c(B.java:1)</S></Failure></Corpus>', "'a.B.c(B.java:1)' directly under <S>"),
    (b'<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/><S><line>a.B.c(B.java:1)</line>a.B.d(B.java:2)</S></Failure></Corpus>', "'a.B.d(B.java:2)' directly under <S>"),
    (b'<Corpus><Failure><T project="p">.m</T><E>E</E><M/><S/></Failure></Corpus>', "class.method"),
    (b'<Corpus><Failure><T project="p">a.T.</T><E>E</E><M/><S/></Failure></Corpus>', "class.method"),
]


@pytest.fixture
def alluxio_test() -> TestId:
    return ALLUXIO_TEST


@pytest.fixture
def alluxio_logs() -> tuple[str, str]:
    return alluxio_raw_log(ALLUXIO_MESSAGE_1), alluxio_raw_log(ALLUXIO_MESSAGE_2)


@pytest.fixture
def alluxio_xml() -> bytes:
    return alluxio_corpus_xml()


def frame(class_fqn: str, method: str, file: str | None = None, line: int | None = None) -> StackFrame:
    return StackFrame.from_parts(class_fqn, method, file, line)


def render_from_fields(f: StackFrame) -> str:
    """A frame's canonical text, computed here from its fields: the oracle
    of the text the frame stores in ``rendered``."""
    if f.file is not None and f.line is not None:
        return f"{f.class_fqn}.{f.method}({f.file}:{f.line})"
    return f.raw


def record(
    test: TestId,
    exception: str = "AssertionError",
    message: str = "",
    frames: tuple[StackFrame, ...] = (),
    label: Label | None = None,
) -> FailureRecord:
    return FailureRecord(
        test=test,
        exception_type=exception,
        message=message,
        frames=tuple(frames),
        label=label,
    )


def random_corpus(seed: int, max_records: int = 250) -> Corpus:
    """Random labeled corpus with genuine signature collisions.

    Frames and exceptions are drawn from small pools so that signatures
    repeat within tests, across tests, and across labels; traces may embed
    frames of the project's own tests to exercise cross-test exclusion.
    """
    rng = random.Random(seed)
    corpus = Corpus()
    exceptions = ("AssertionError", "NullPointerException", "IOException")
    for p in range(rng.randint(1, 3)):
        project = f"p{p}"
        tests = [
            TestId(project, f"com.{project}.T{i}Test", f"m{i}")
            for i in range(rng.randint(1, 5))
        ]
        stack_pool = []
        for s in range(rng.randint(2, 6)):
            depth = rng.randint(0, 4)
            stack = [
                frame(
                    f"com.{project}.Lib{rng.randint(0, 2)}",
                    f"op{rng.randint(0, 2)}",
                    "Lib.java",
                    rng.randint(1, 12),
                )
                for _ in range(depth)
            ]
            stack_pool.append(tuple(stack))
        for test in tests:
            for _ in range(rng.randint(1, max(2, (2 * max_records) // (3 * len(tests))))):
                stack = list(stack_pool[rng.randrange(len(stack_pool))])
                if rng.random() < 0.5:
                    anchor = rng.choice(tests)
                    stack.append(
                        frame(
                            anchor.class_fqn,
                            anchor.method if rng.random() < 0.5 else "setUp",
                            anchor.class_fqn.rsplit(".", 1)[-1] + ".java",
                            rng.randint(1, 8),
                        )
                    )
                corpus.add(
                    record(
                        test,
                        exception=rng.choice(exceptions),
                        message=f"detail {rng.randint(0, 10_000)}",
                        frames=tuple(stack),
                        label=rng.choice((Label.FLAKY, Label.TRUE)),
                    )
                )
                if len(corpus) >= max_records:
                    return corpus
    return corpus


def reverse_project_order(document: bytes) -> bytes:
    """A flat corpus XML with its projects in reverse document order.

    Each project's failures keep their document order, so every bucket of the
    corpus read back holds the same records in the same order.
    """
    root = ET.fromstring(document)
    by_project: dict[str, list[ET.Element]] = {}
    for failure in root:
        by_project.setdefault(failure.find("T").get("project"), []).append(failure)
    reordered = ET.Element(root.tag)
    for failures in reversed(by_project.values()):
        reordered.extend(failures)
    return ET.tostring(reordered, encoding="utf-8")
