"""Presentation-file parser: grammar coverage, round-trips, and one located
diagnostic per documented error class."""

import pytest
from hypothesis import given, settings, strategies as st

from relext import qdsl
from relext.fixtures import fixture_text

MINIMAL = """\
algebra A
vertices 1 2 3
arrow a 1 2
arrow b 2 3
rel a.b
end
"""


def test_minimal_block_parses():
    pf = qdsl.parse(MINIMAL)
    b = pf.block("A")
    assert b.field_spec == "Q"
    assert b.vertices == ("1", "2", "3")
    assert [x[0] for x in b.arrows] == ["a", "b"]
    rel = b.relations[0]
    assert rel.source == "1" and rel.target == "3"
    assert [(t.coeff, t.arrows) for t in rel.terms] == [(1, ("a", "b"))]


def test_coefficients_signs_and_comments():
    text = """\
# leading comment
algebra A
field F5
vertices 1 2 3
arrow a 1 2
arrow b 2 3
arrow c 1 2   # trailing comment
arrow d 2 3
rel 2/3*a.b - c.b + -1*a.d
end
"""
    b = qdsl.parse(text).block("A")
    assert b.field_spec == "F5"
    rel = b.relations[0]
    got = [(str(t.coeff), t.arrows) for t in rel.terms]
    assert got == [("2/3", ("a", "b")), ("-1", ("c", "b")), ("-1", ("a", "d"))]


def test_extension_headers():
    pf = qdsl.parse(fixture_text("ex1.quiv"))
    assert pf.names() == ["C", "B", "Ctilde"]
    b = pf.block("B")
    ct = pf.block("Ctilde")
    assert b.extension_of == "C" and b.new_arrows == ("eps",)
    assert ct.extension_of == "C" and ct.new_arrows == ("eps", "eps2")


@pytest.mark.parametrize("name", ["ex1.quiv", "ex2.quiv"])
def test_fixture_round_trip_byte_stable(name):
    text = fixture_text(name)
    once = qdsl.serialize(qdsl.parse(text))
    assert once == text
    assert qdsl.serialize(qdsl.parse(once)) == once
    assert qdsl.parse(once) == qdsl.parse(text)


def test_empty_file_round_trip():
    assert qdsl.serialize(qdsl.parse("")) == ""
    assert qdsl.parse("").blocks == ()


def test_minimal_vertex_only_block_round_trips():
    text = "algebra A\nvertices 1\nend\n"
    pf = qdsl.parse(text)
    assert qdsl.parse(qdsl.serialize(pf)) == pf


ERROR_CASES = [
    # (kind, text, line, fragment)
    ("syntax", "algebra A\nvertices 1\nfrobnicate x\nend\n", 3, "directive"),
    ("syntax", "algebra A\nvertices 1\nrel\nend\n", 3, "empty relation"),
    (
        "unknown-arrow",
        "algebra A\nvertices 1 2\narrow a 1 2\nrel a.zz\nend\n",
        4,
        "zz",
    ),
    (
        "unknown-name",
        "algebra A\nvertices 1\narrow a 1 9\nend\n",
        3,
        "vertex",
    ),
    (
        "duplicate-name",
        "algebra A\nvertices 1\nend\nalgebra A\nvertices 1\nend\n",
        4,
        "A",
    ),
    (
        "short-relation",
        "algebra A\nvertices 1 2\narrow a 1 2\nrel a\nend\n",
        4,
        "shorter than 2",
    ),
    (
        "non-composable",
        "algebra A\nvertices 1 2 3\narrow a 1 2\narrow b 1 3\nrel a.b\nend\n",
        5,
        "compose",
    ),
    (
        "non-parallel",
        "algebra A\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\narrow c 2 2\n"
        "rel a.b + a.c\nend\n",
        6,
        "earlier terms run",
    ),
    (
        "duplicate-term",
        "algebra A\nvertices 1 2\narrow a 1 2\narrow b 2 2\n"
        "rel a.b + 2*a.b\nend\n",
        5,
        "",
    ),
    (
        "syntax",
        "algebra A\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\nrel 1/0*a.b\nend\n",
        5,
        "zero denominator",
    ),
    (
        "zero-coefficient",
        "algebra A\nvertices 1 2\narrow a 1 2\narrow b 2 2\nrel 0*a.b\nend\n",
        5,
        "",
    ),
]


@pytest.mark.parametrize("kind,text,line,fragment", ERROR_CASES)
def test_error_classes_have_located_diagnostics(kind, text, line, fragment):
    with pytest.raises(qdsl.ParseError) as exc:
        qdsl.parse(text)
    err = exc.value
    assert err.kind == kind
    assert err.line == line
    assert err.col >= 1
    assert fragment.lower() in err.message.lower()
    assert ("line %d" % line) in str(err)


def test_error_kind_catalog_is_complete():
    kinds = {k for k, _, _, _ in ERROR_CASES}
    assert kinds == {
        "syntax",
        "unknown-arrow",
        "unknown-name",
        "duplicate-name",
        "short-relation",
        "non-composable",
        "non-parallel",
        "duplicate-term",
        "zero-coefficient",
    }


_TOKENS = st.sampled_from(
    [
        "algebra", "vertices", "arrow", "rel", "end", "new", "field",
        "extension_of", "A", "a", "b", "1", "2", "a.b", "2*a.b", "-",
        "+", "#x", "0*a.b", "1/0*a.b", "Q", "F5",
    ]
)
_TOKEN_LINES = st.lists(
    st.lists(_TOKENS, max_size=4).map(" ".join), max_size=8
).map("\n".join)
_CHAR_SOUP = st.text(alphabet="abc 123\n.*+-/#_", max_size=60)


@settings(max_examples=120, deadline=None)
@given(st.one_of(_CHAR_SOUP, _TOKEN_LINES))
def test_fuzzed_input_never_crashes(text):
    try:
        qdsl.parse(text)
    except qdsl.ParseError:
        pass


# -- the tokenizer against the character loop it replaced -----------------------


def _tokens_by_loop(line):
    """The character loop that qdsl._tokens_with_cols replaced."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if line[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not line[j].isspace():
            j += 1
        out.append((line[i:j], i + 1))
        i = j
    return out


# Unicode whitespace beyond ASCII, the information separators \x1c-\x1f
# and \x85 included: str.isspace and the \s of re agree on each of them
_SPACES = " \t\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u200a\u2028\u2029\u202f\u205f\u3000"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(_SPACES))))
def test_tokenizer_matches_character_loop(line):
    assert qdsl._tokens_with_cols(line) == _tokens_by_loop(line)


def test_columns_count_unicode_whitespace():
    """Each of U+3000, U+00A0 and a tab is one column, as in the loop."""
    cases = [
        ("algebra A\nvertices 1\u30002\narrow\xa0a\t1 3\nend\n", "unknown-name", 3, 11),
        (
            "algebra A\nvertices 1 2\narrow a 1 2\narrow b 2 1\n"
            "rel\u3000a.b\xa0+ a.c\nend\n",
            "unknown-arrow",
            5,
            11,
        ),
    ]
    for text, kind, line, col in cases:
        with pytest.raises(qdsl.ParseError) as info:
            qdsl.parse(text)
        assert (info.value.kind, info.value.line, info.value.col) == (kind, line, col)
