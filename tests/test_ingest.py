"""Log parsing, normalization, and the corpus XML format."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaketriage.errors import (
    DuplicateProjectMismatch,
    MalformedFrame,
    MalformedLog,
    SchemaError,
)
from flaketriage.ingest import (
    NormalizedFailure,
    TruncationBasis,
    normalize,
    parse_failure_file,
    parse_failure_text,
    parse_frame,
    read_corpus_xml,
    write_corpus_xml,
)
from flaketriage.model import Corpus, Label, StackFrame, TestId
from flaketriage.synth import CountDistribution, ExceptionSpec, GeneratorConfig, generate

from conftest import (
    ALLUXIO_FRAMES,
    ALLUXIO_MESSAGE_1,
    ALLUXIO_TEST,
    SCHEMA_ERROR_CASES,
    STRICT_SCHEMA_CASES,
    frame,
    record,
)


# --- raw log parsing --------------------------------------------------------


def test_parse_alluxio_log(alluxio_logs, alluxio_test):
    raw, _ = alluxio_logs
    rec = parse_failure_text(raw, alluxio_test)
    assert rec.exception_type == "UnknownHostException"
    assert rec.exception_fqn == "java.net.UnknownHostException"
    assert rec.message == ALLUXIO_MESSAGE_1
    assert len(rec.frames) == 6
    assert rec.frames[0].file is None and rec.frames[0].line is None
    assert [f.raw for f in rec.frames] == list(ALLUXIO_FRAMES)


def test_parse_header_only_log():
    rec = parse_failure_text("java.lang.AssertionError", TestId("p", "A", "m"))
    assert rec.exception_type == "AssertionError"
    assert rec.message == ""
    assert rec.frames == ()


def test_parse_single_frame_grammar():
    rec = parse_failure_text("E: x\n at a.B.c(B.java:7)\n", TestId("p", "A", "m"))
    assert len(rec.frames) == 1
    f = rec.frames[0]
    assert (f.class_fqn, f.method, f.file, f.line) == ("a.B", "c", "B.java", 7)


def test_parse_keeps_message_colons_verbatim():
    rec = parse_failure_text("E: a: b: c", TestId("p", "A", "m"))
    assert rec.message == "a: b: c"


def test_parse_unqualified_exception_keeps_full_text():
    rec = parse_failure_text("Timeout: gave up", TestId("p", "A", "m"))
    assert rec.exception_type == "Timeout"
    assert rec.exception_fqn == ""


def test_parse_rejects_missing_header():
    with pytest.raises(MalformedLog):
        parse_failure_text("   \n\n", TestId("p", "A", "m"))
    with pytest.raises(MalformedLog):
        parse_failure_text("at a.B.c(B.java:7)", TestId("p", "A", "m"))
    with pytest.raises(MalformedLog):
        parse_failure_text("Tests run: 3, Failures: 1", TestId("p", "A", "m"))


@pytest.mark.parametrize("header", ["java.lang.", "java.lang.: boom", ".", ":"])
def test_parse_rejects_a_header_without_exception_name(header):
    with pytest.raises(MalformedLog, match="exception header"):
        parse_failure_text(f"{header}\n\tat a.B.test(B.java:3)", TestId("p", "a.B", "test"))


# Pieces of real logs, so the fuzzer reaches past the header into the frames.
LOG_PIECES = st.sampled_from([
    "at ", "\tat ", "Caused by: ", "Suppressed: ", 'Exception in thread "', '" ',
    ".java:", "(Native Method)", "(Unknown Source)", "(", ")", ".", ":", " ",
    "\n", "\r\n", "\t", "... 3 more", "java.lang.", "Exception", "a.B", "test",
    "12", "-1", "\u00a0", "\u0663", "$",
])


@given(st.one_of(
    st.text(),
    st.lists(st.one_of(LOG_PIECES, st.text(max_size=3)), max_size=40).map("".join),
))
@settings(max_examples=500)
def test_parse_raises_nothing_but_malformed_log(raw):
    try:
        rec = parse_failure_text(raw, TestId("p", "a.B", "test"), [])
    except MalformedLog:
        return
    assert rec.exception_type


def test_parse_skips_malformed_frames_with_diagnostics():
    raw = (
        "E: boom\n at a.B.c(B.java:7)\n at nonsense here\n at a.B.d(B.java:9)\n"
        " at a.B.e(B.java:\u0663)\n at a.B.f(B .java:1)\n at a.B.g( :1)\n"
    )
    diagnostics = []
    rec = parse_failure_text(raw, TestId("p", "A", "m"), diagnostics)
    assert [f.method for f in rec.frames] == ["c", "d"]
    assert len(diagnostics) == 4
    assert all("unrecognised source position" in d for d in diagnostics[1:])


def test_parse_stops_at_caused_by():
    raw = (
        "E: outer\n"
        " at a.B.c(B.java:7)\n"
        "Caused by: java.io.IOException: inner\n"
        " at a.B.d(B.java:9)\n"
    )
    rec = parse_failure_text(raw, TestId("p", "A", "m"))
    assert [f.method for f in rec.frames] == ["c"]


def test_parse_stops_at_suppressed():
    raw = (
        "java.io.IOException: outer\n"
        "\tat a.B.test(B.java:3)\n"
        "\tSuppressed: java.lang.IllegalStateException: close failed\n"
        "\t\tat x.Y.close(Y.java:9)\n"
        "\t\t... 1 more\n"
    )
    rec = parse_failure_text(raw, TestId("p", "a.B", "test"))
    assert [f.raw for f in rec.frames] == ["a.B.test(B.java:3)"]


@pytest.mark.parametrize(
    "header, exception_type, fqn, message",
    [
        ('Exception in thread "main" java.lang.RuntimeException: x',
         "RuntimeException", "java.lang.RuntimeException", "x"),
        ('Exception in thread "pool-1-thread-2: io" a.Boom',
         "Boom", "a.Boom", ""),
        ('Exception in thread "main" Boom: say "hi" there',
         "Boom", "", 'say "hi" there'),
    ],
)
def test_parse_accepts_the_thread_name_header(header, exception_type, fqn, message):
    rec = parse_failure_text(header + "\n\tat a.B.c(B.java:7)\n", TestId("p", "A", "m"))
    assert (rec.exception_type, rec.exception_fqn, rec.message) == (
        exception_type, fqn, message,
    )
    assert [f.method for f in rec.frames] == ["c"]


def test_parse_rejects_a_thread_name_header_without_exception():
    with pytest.raises(MalformedLog):
        parse_failure_text('Exception in thread "main"\n', TestId("p", "A", "m"))


def test_parse_ignores_interleaved_noise_lines():
    raw = "E: boom\n at a.B.c(B.java:7)\n\t... 3 more\n at a.B.d(B.java:9)\n"
    rec = parse_failure_text(raw, TestId("p", "A", "m"))
    assert [f.method for f in rec.frames] == ["c", "d"]


def test_parse_never_reorders_frames(alluxio_logs, alluxio_test):
    rec = parse_failure_text(alluxio_logs[0], alluxio_test)
    positions = [ALLUXIO_FRAMES.index(f.raw) for f in rec.frames]
    assert positions == sorted(positions)


def test_parse_frame_accepts_unknown_source():
    f = parse_frame("a.B.c(Unknown Source)")
    assert f.file is None and f.line is None
    assert f.raw == "a.B.c(Unknown Source)"


def test_parsed_frames_render_back_to_their_raw_text(alluxio_logs, alluxio_test):
    rec = parse_failure_text(alluxio_logs[0], alluxio_test)
    for f in rec.frames:
        assert f.rendered == f.raw
    spaced = parse_frame("  a.B.c(B.java:7)  ")
    assert spaced.rendered == spaced.raw == "a.B.c(B.java:7)"


def test_frames_share_one_object_per_name():
    # Built at run time, so no two texts share a name object to begin with.
    first = parse_frame("".join(["a.B.run(", "B.java:1)"]))
    second = parse_frame("".join(["a.B.run(", "B.java:2)"]))
    assert first.class_fqn is second.class_fqn
    assert first.method is second.method
    assert first.file is second.file


def test_parse_frame_rejects_bad_shapes():
    for text in (
        "noparens", "a.B.c(B.java)", "justamethod(B.java:1)", "a.B.c(B.java:x)",
        "a.B.c(B.java:1) ~[classes/:?", "a.B.c(B.java:1) [x] ~[y]",
        "a.B.c(B.java:1)~[classes/:?]", "a.B.c(B.java:x) ~[classes/:?]",
        "a.B.c(B.java:1\n)", "a.B.c(B.java:\u0663)",
        "a.B.m(B\n.java:1)", "a.B.m( :1)", "a.B.m(B\t.java:1)",
    ):
        with pytest.raises(MalformedFrame):
            parse_frame(text)


@pytest.mark.parametrize("suffix", [
    " ~[classes/:?]", " [junit-4.12.jar:4.12]", "\t~[?:1.8.0_292]", " ~[]",
])
@pytest.mark.parametrize("plain", ["a.B.test(B.java:1)", "a.B.run(Native Method)"])
def test_parse_frame_drops_a_packaging_suffix(plain, suffix):
    assert parse_frame(plain + suffix) == parse_frame(plain)
    assert parse_frame(f"  {plain}{suffix}  ").raw == plain


@pytest.mark.parametrize("prefix", [
    "app//", "java.base/", "java.base@11.0.2/", "com.foo.loader/foo@9.0/",
])
@pytest.mark.parametrize("plain", [
    "a.B.test(B.java:1)", "a.B.run(Native Method)",
    "a.B$$Lambda$14/0x0000000800c8c440.run(Unknown Source)",
])
def test_parse_frame_drops_a_jdk9_loader_and_module_prefix(plain, prefix):
    assert parse_frame(prefix + plain) == parse_frame(plain)
    assert parse_frame(f"  {prefix}{plain} ~[classes/:?]  ").raw == plain


@pytest.mark.parametrize("text", [
    "a.B$$Lambda$1/1831932724.run(Unknown Source)",
    "a.B$$Lambda$14/0x0000000800c8c440.run(Unknown Source)",
])
def test_parse_frame_keeps_the_slash_of_a_hidden_class(text):
    parsed = parse_frame(text)
    assert parsed.raw == text
    assert parsed.class_fqn + ".run" == text.partition("(")[0]


# Frames of shapes the generator does not make, for the constructor oracle.
ODD_FRAMES = [
    "app//a.B.test(B.java:1)",
    "java.base@11.0.2/java.lang.Thread.run(Thread.java:834)",
    "a.B.test(B.java:1) ~[classes/:?]",
    "a.B$$Lambda$1/0x0000000800c8c440.run(Unknown Source)",
    "a.B.run(Native Method)",
    "a.B.run(Unknown Source)",
    "a.B.test(B.java:01)",
]


@pytest.mark.parametrize("seed", range(5))
def test_parsed_frames_equal_what_the_validated_constructor_builds(seed):
    # parse_frame and the reader skip StackFrame's own checks, because the
    # frame grammar has made them already; the checked constructor is the
    # reference for every frame either returns.
    corpus = generate(GeneratorConfig(
        seed=seed,
        projects=2,
        tests_per_project=CountDistribution.constant(5),
        flaky_signatures_per_test=CountDistribution.uniform(1, 3),
        flaky_occurrences_per_signature=CountDistribution.geometric(0.3),
        true_failures_per_test=CountDistribution.uniform(2, 6),
        frame_depth=(3, 12),
        exception_pool=(
            ExceptionSpec("UnknownHostException", 3),
            ExceptionSpec("AssertionError", 2, shared_across_labels=True),
        ),
    ))
    texts = sorted({f.raw for r in corpus.records() for f in r.frames}) + ODD_FRAMES
    lines = "".join(f"<line>{text}</line>" for text in ODD_FRAMES)
    odd_doc = (
        '<Corpus><Failure><T project="p">a.T.m</T><E>E</E><M/>'
        f"<S>{lines}</S></Failure></Corpus>"
    )
    frames = [parse_frame(text) for text in texts]
    for doc in (write_corpus_xml(corpus), odd_doc):
        frames += [f for r in read_corpus_xml(doc).records() for f in r.frames]
    assert len(frames) > 2 * len(texts) > 100
    for f in frames:
        checked = StackFrame(f.class_fqn, f.method, f.file, f.line, f.raw)
        assert checked == f and hash(checked) == hash(f)


BOM = "\ufeff"
LATIN1_LOG = b"java.lang.AssertionError: caf\xe9\n\tat a.B.test(B.java:1)\n"


def test_parse_failure_file_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.log"
    path.write_bytes(LATIN1_LOG)
    with pytest.raises(MalformedLog) as info:
        parse_failure_file(path, TestId("p", "a.B", "test"))
    assert str(info.value) == f"{path}: not UTF-8: byte 0xe9 at offset 29"
    assert LATIN1_LOG[29:30] == b"\xe9"
    # The offset counts in the file's bytes, a byte order mark's too.
    path.write_bytes(BOM.encode("utf-8") + LATIN1_LOG)
    with pytest.raises(MalformedLog, match="byte 0xe9 at offset 32"):
        parse_failure_file(path, TestId("p", "a.B", "test"))


def test_parse_failure_file_keeps_utf8_and_crlf_logs(tmp_path):
    path = tmp_path / "utf8.log"
    path.write_bytes(LATIN1_LOG.decode("latin-1").replace("\n", "\r\n").encode("utf-8"))
    rec = parse_failure_file(path, TestId("p", "a.B", "test"))
    assert (rec.message, [f.rendered for f in rec.frames]) == (
        "caf\u00e9", ["a.B.test(B.java:1)"],
    )


@pytest.mark.parametrize("source", ["text", "file"])
@pytest.mark.parametrize(
    "header",
    [
        "AssertionError: x",
        "java.lang.AssertionError: x",
        "AssertionError",
        "java.lang.AssertionError",
    ],
)
def test_parse_drops_a_leading_byte_order_mark(tmp_path, header, source):
    log = f"{header}\n\tat a.B.test(B.java:1)\n"
    test = TestId("p", "a.B", "test")
    rec = parse_failure_text(log, test)
    assert (rec.exception_type, rec.exception_fqn) == (
        "AssertionError", "java.lang.AssertionError" if "." in header else "",
    )
    if source == "text":
        assert parse_failure_text(BOM + log, test) == rec
    else:
        path = tmp_path / "bom.log"
        path.write_bytes((BOM + log).encode("utf-8"))
        assert parse_failure_file(path, test) == rec


# --- normalization ----------------------------------------------------------


def test_normalize_alluxio_truncates_at_test_class(alluxio_logs, alluxio_test):
    rec = parse_failure_text(alluxio_logs[0], alluxio_test)
    nf = normalize(rec)
    assert nf.truncation_basis is TruncationBasis.TEST_CLASS_FRAME
    assert nf.kept_frames[-1].raw == "tachyon.JournalTest.before(JournalTest.java:33)"
    assert len(nf.kept_frames) == 6


def test_normalize_drops_reflection_noise():
    test = TestId("p", "a.MyTest", "m")
    frames = (
        frame("a.Lib", "call", "Lib.java", 3),
        frame("sun.reflect.GeneratedMethodAccessor42", "invoke"),
        frame("jdk.internal.reflect.GeneratedConstructorAccessor7", "newInstance"),
        frame("a.MyTest", "m", "MyTest.java", 9),
    )
    nf = normalize(record(test, frames=frames))
    assert all("GeneratedMethod" not in f.class_fqn for f in nf.kept_frames)
    assert all("GeneratedConstructor" not in f.class_fqn for f in nf.kept_frames)
    assert len(nf.kept_frames) == 2


def test_normalize_empty_frames():
    nf = normalize(record(TestId("p", "A", "m")))
    assert nf.kept_frames == ()
    assert nf.truncation_basis is TruncationBasis.NONE


def test_normalize_truncates_at_first_test_method_frame():
    test = TestId("p", "a.MyTest", "m")
    frames = (
        frame("a.Lib", "call", "Lib.java", 3),
        frame("a.MyTest", "m", "MyTest.java", 5),
        frame("a.Lib", "below", "Lib.java", 8),
        frame("a.MyTest", "m", "MyTest.java", 7),
    )
    nf = normalize(record(test, frames=frames))
    assert nf.truncation_basis is TruncationBasis.TEST_METHOD_FRAME
    assert len(nf.kept_frames) == 2
    assert nf.kept_frames[-1].line == 5


def test_normalize_truncates_at_last_test_class_frame():
    test = TestId("p", "a.MyTest", "m")
    frames = (
        frame("a.MyTest", "setUp", "MyTest.java", 2),
        frame("a.Lib", "call", "Lib.java", 3),
        frame("a.MyTest", "tearDown", "MyTest.java", 4),
        frame("a.Runner", "run", "Runner.java", 9),
    )
    nf = normalize(record(test, frames=frames))
    assert nf.truncation_basis is TruncationBasis.TEST_CLASS_FRAME
    assert len(nf.kept_frames) == 3


def test_normalize_keeps_all_without_test_frames():
    test = TestId("p", "a.MyTest", "m")
    frames = (frame("a.Lib", "call", "Lib.java", 3), frame("b.Other", "x", "O.java", 1))
    nf = normalize(record(test, frames=frames))
    assert nf.truncation_basis is TruncationBasis.NONE
    assert nf.kept_frames == frames


@st.composite
def arbitrary_records(draw):
    test_class = draw(st.sampled_from(["a.MyTest", "b.OtherTest"]))
    test = TestId("p", test_class, draw(st.sampled_from(["m", "n"])))
    n = draw(st.integers(0, 6))
    frames = []
    for i in range(n):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            frames.append(frame(f"sun.reflect.GeneratedMethodAccessor{i}", "invoke"))
        elif kind == 1:
            frames.append(frame(test_class, draw(st.sampled_from(["m", "setUp"])), "T.java", i))
        elif kind == 2:
            frames.append(frame("a.Lib", "call", "Lib.java", i))
        else:
            frames.append(frame("java.x.Y", "z"))
    return record(test, frames=tuple(frames))


@given(arbitrary_records())
@settings(max_examples=200)
def test_normalize_is_idempotent(rec):
    once = normalize(rec)
    again = normalize(
        record(rec.test, rec.exception_type, rec.message, once.kept_frames)
    )
    assert again.kept_frames == once.kept_frames
    assert isinstance(once, NormalizedFailure)


@given(arbitrary_records())
@settings(max_examples=200)
def test_normalize_kept_frames_are_a_clean_subsequence(rec):
    nf = normalize(rec)
    it = iter(rec.frames)
    assert all(f in it for f in nf.kept_frames)  # subsequence check
    assert not any(
        re.search(r"(?:GeneratedMethodAccessor|GeneratedConstructorAccessor)\d+", f.class_fqn)
        for f in nf.kept_frames
    )


# --- corpus XML -------------------------------------------------------------


def test_read_alluxio_corpus(alluxio_xml):
    corpus = read_corpus_xml(alluxio_xml)
    assert corpus.project_names() == ["alluxio"]
    assert corpus.tests("alluxio") == [ALLUXIO_TEST]
    flaky = corpus.bucket(ALLUXIO_TEST, Label.FLAKY)
    assert len(flaky) == 2
    assert corpus.count(label=Label.TRUE) == 0
    assert flaky[0].message == ALLUXIO_MESSAGE_1


def test_read_shares_one_frame_per_distinct_line(alluxio_xml):
    first, second = read_corpus_xml(alluxio_xml).records()
    assert first.frames == second.frames
    assert all(a is b for a, b in zip(first.frames, second.frames))
    # surrounding whitespace is not part of the line
    padded = alluxio_xml.replace(b"<line>", b"<line>\n  ", 1)
    first, second = read_corpus_xml(padded).records()
    assert first.frames[0] is second.frames[0]


def test_read_line_with_a_packaging_suffix_as_the_plain_frame(alluxio_xml):
    suffixed = alluxio_xml.replace(b"</line>", b" ~[classes/:?]</line>")
    assert suffixed != alluxio_xml
    assert read_corpus_xml(suffixed) == read_corpus_xml(alluxio_xml)
    assert write_corpus_xml(read_corpus_xml(suffixed)) == (
        write_corpus_xml(read_corpus_xml(alluxio_xml))
    )


def test_read_line_with_a_jdk9_prefix_as_the_plain_frame(alluxio_xml):
    prefixed = alluxio_xml.replace(b"<line>java.", b"<line>java.base/java.")
    prefixed = prefixed.replace(b"<line>tachyon.", b"<line>app//tachyon.")
    assert prefixed.count(b"/java.") == 8 and prefixed.count(b"//tachyon.") == 4
    assert read_corpus_xml(prefixed) == read_corpus_xml(alluxio_xml)


def test_read_empty_corpus():
    assert read_corpus_xml(b"<Corpus/>").count() == 0


def test_read_default_label_is_flaky():
    doc = (
        b"<Corpus>"
        b'<Failure label="true"><T project="p">a.T.m</T><E>E</E><M/><S/></Failure>'
        b'<Failure><T project="p">a.T.m</T><E>E</E><M/><S/></Failure>'
        b"</Corpus>"
    )
    corpus = read_corpus_xml(doc)
    t = TestId("p", "a.T", "m")
    assert len(corpus.bucket(t, Label.TRUE)) == 1
    assert len(corpus.bucket(t, Label.FLAKY)) == 1


def test_read_project_grouping_and_mismatch():
    ok = (
        b'<Corpus><Project name="p">'
        b'<Failure><T project="p">a.T.m</T><E>E</E><M/><S/></Failure>'
        b"</Project></Corpus>"
    )
    assert read_corpus_xml(ok).count() == 1
    bad = ok.replace(b'project="p"', b'project="q"')
    with pytest.raises(DuplicateProjectMismatch):
        read_corpus_xml(bad)


@pytest.mark.parametrize("doc, fragment", SCHEMA_ERROR_CASES + STRICT_SCHEMA_CASES)
def test_read_corpus_schema_errors(doc, fragment):
    with pytest.raises(SchemaError) as excinfo:
        read_corpus_xml(doc)
    assert fragment in str(excinfo.value)


def test_write_empty_corpus_round_trips():
    data = write_corpus_xml(Corpus())
    assert read_corpus_xml(data) == Corpus()
    assert b"<Corpus" in data


def test_write_alluxio_corpus_round_trips(alluxio_xml):
    corpus = read_corpus_xml(alluxio_xml)
    again = read_corpus_xml(write_corpus_xml(corpus))
    assert again == corpus


def test_write_preserves_true_label():
    corpus = Corpus()
    corpus.add(record(TestId("p", "a.T", "m"), label=Label.TRUE))
    data = write_corpus_xml(corpus)
    assert b'label="true"' in data
    assert read_corpus_xml(data) == corpus


def test_write_preserves_message_verbatim():
    corpus = Corpus()
    corpus.add(
        record(TestId("p", "a.T", "m"), message="  spaced <&> text  ", label=Label.FLAKY)
    )
    again = read_corpus_xml(write_corpus_xml(corpus))
    (rec,) = list(again.records())
    assert rec.message == "  spaced <&> text  "


@given(st.lists(arbitrary_records(), max_size=12), st.integers(0, 1))
@settings(max_examples=100)
def test_xml_round_trip_on_arbitrary_corpora(records, label_bit):
    corpus = Corpus()
    for i, rec in enumerate(records):
        label = Label.FLAKY if (i + label_bit) % 3 else Label.TRUE
        corpus.add(record(rec.test, rec.exception_type, f"m{i}", rec.frames, label))
    assert read_corpus_xml(write_corpus_xml(corpus)) == corpus


def test_write_preserves_carriage_returns():
    corpus = Corpus()
    corpus.add(record(TestId("p", "a.T", "m"), message="a\r\nb\rc\n", label=Label.TRUE))
    data = write_corpus_xml(corpus)
    assert b"\r" not in data
    (rec,) = list(read_corpus_xml(data).records())
    assert rec.message == "a\r\nb\rc\n"


@pytest.mark.parametrize("text", ["\x1b[31mred\x1b[0m", "nul\x00", "\ud800", "\ufffe"])
def test_write_rejects_characters_xml_cannot_carry(text):
    corpus = Corpus()
    corpus.add(record(TestId("p", "a.T", "m"), message=text, label=Label.FLAKY))
    with pytest.raises(SchemaError, match="XML 1.0 cannot carry"):
        write_corpus_xml(corpus)


@given(st.text())
@settings(max_examples=300)
def test_xml_round_trip_on_arbitrary_messages(message):
    corpus = Corpus()
    corpus.add(record(TestId("p", "a.T", "m"), message=message, label=Label.FLAKY))
    try:
        data = write_corpus_xml(corpus)
    except SchemaError:
        assert re.search("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]", message)
        return
    assert read_corpus_xml(data) == corpus
