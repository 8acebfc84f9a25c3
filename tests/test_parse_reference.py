"""relext.qdsl.parse against the parser it replaced (tests/parse_reference.py):
the same structures on every fixture and generated family, and the same
diagnostic, (kind, line, column, message), on a corpus of malformed inputs
built from test_qdsl.py's cases, one input per raise site, whitespace
variants of each, and fuzzed token soups."""

import os
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import parse_reference
from families import squares
from relext import qdsl
from relext.fixtures import fixture_text
from test_qdsl import ERROR_CASES, _CHAR_SOUP, _SPACES, _TOKEN_LINES


def outcome(parser, text):
    """The parsed file, or the diagnostic of the ParseError raised."""
    try:
        return parser(text)
    except qdsl.ParseError as err:
        return (err.kind, err.line, err.col, err.message, str(err))


def test_fixtures_and_families_parse_alike(chain_text):
    texts = [fixture_text(n) for n in ("ex1.quiv", "ex2.quiv")]
    with open(os.path.join(os.path.dirname(__file__), "data", "halfsquare.quiv"), encoding="utf-8") as fh:
        texts.append(fh.read())
    texts += [chain_text(k) for k in range(1, 9)]
    texts += [squares(k) for k in range(1, 7)]
    for text in texts:
        got = qdsl.parse(text)
        assert got == parse_reference.parse(text)
        assert qdsl.serialize(got) == qdsl.serialize(parse_reference.parse(text))


def test_unit_and_signed_coefficients_are_the_same_fractions():
    text = (
        "algebra A\nvertices 1 2\narrow a 1 2\narrow b 1 2\narrow c 2 2\n"
        "rel a.c - b.c + 1*a.c.c - -2/4*b.c.c\nend\n"
    )
    want = parse_reference.parse(text)
    got = qdsl.parse(text)
    assert got == want
    coeffs = [t.coeff for t in got.blocks[0].relations[0].terms]
    assert coeffs == [1, -1, 1, Fraction(1, 2)]
    assert all(type(c) is Fraction for c in coeffs)


HEAD = "algebra A\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\narrow c 1 3\n"
EXT = "algebra C\nvertices 1 2\narrow a 1 2\nend\n"

# one input per raise site of the parser, beside test_qdsl's ERROR_CASES
RAISES = [
    "algebra A\nalgebra B\nend\n",
    "algebra\nend\n",
    "algebra A B\nend\n",
    "algebra A-1\nend\n",
    "vertices 1\n",
    "algebra A\nvertices 1\nfield Q\nfield Q\nend\n",
    "algebra A\nfield\nend\n",
    "algebra A\nfield   R\nend\n",
    "algebra A\nvertices 1\nvertices 2\nend\n",
    "algebra A\nvertices\nend\n",
    "algebra A\nvertices 1 x-y\nend\n",
    "algebra A\nvertices 1 2 1\nend\n",
    "algebra A\nvertices 1 2\narrow a 1\nend\n",
    "algebra A\nvertices 1 2\narrow a 1 ?\nend\n",
    "algebra A\narrow a 1 2\nend\n",
    "algebra A\nvertices 1 2\narrow a 1 2\narrow a 2 1\nend\n",
    "algebra A\nvertices 1 2\narrow a 7 2\nend\n",
    "algebra A\nvertices 1 2\narrow a 1 7\nend\n",
    HEAD + "rel - a.b\nend\n",
    HEAD + "rel a.b c\nend\n",
    HEAD + "rel a.b +\nend\n",
    HEAD + "rel a.b + +\nend\n",
    HEAD + "rel x/y*a.b\nend\n",
    HEAD + "rel 3/00*a.b\nend\n",
    HEAD + "rel a.b - 7\nend\n",
    HEAD + "rel a.b - 0/5*c\nend\n",
    HEAD + "rel a.b - c.\nend\n",
    HEAD + "rel a.b - 2*c.%\nend\n",
    HEAD + "rel a.b - c\nend\n",
    HEAD + "rel a.b - a.q\nend\n",
    HEAD + "rel a.b.b.a\nend\n",
    HEAD + "rel a.b - c.a\nend\n",
    HEAD + "rel a.b - 1/2*a.b\nend\n",
    "algebra A\nvertices 1\nextension_of Z\nend\n",
    EXT + "algebra D\nextension_of C\nextension_of C\nend\n",
    EXT + "algebra D\nextension_of\nend\n",
    EXT + "algebra D\nvertices 1 2\nnew a\nnew a\nend\n",
    EXT + "algebra D\nvertices 1 2\nnew\nend\n",
    "algebra A\nvertices 1\nend now\n",
    "algebra A\nvertices 1\nquiver\nend\n",
    "algebra A\nvertices 1\n",
    "algebra A\nend\n",
    EXT + "algebra D\nextension_of C\nvertices 1 2\narrow a 1 2\narrow b 2 1\nnew b  zz\nend\n",
    EXT + "algebra D\nextension_of C\nvertices 1 2\narrow a 1 2\narrow b 2 1\nnew b\tb\nend\n",
    EXT + "algebra D\nextension_of C\nvertices 1 2 3\narrow a 1 2\nend\n",
    EXT + "algebra D\nextension_of C\nvertices 1 2\narrow a 2 1\nend\n",
    EXT + "algebra D\nextension_of C\nvertices 1 2\narrow a 1 2\nnew a\nend\n",
    EXT + "algebra D\nextension_of C\nvertices 1 2\narrow a 1 2\narrow b 2 1\nend\n",
    EXT + "algebra D\nextension_of C\nvertices 1 2\narrow b 1 2\nnew b\nend\n",
    "algebra A\nvertices 1 2\narrow a 1 2\nnew a\nend\n",
]


def _variants(text):
    """The text, and the text with its spaces widened, turned into tabs or
    Unicode whitespace, with lines indented, and with trailing comments."""
    out = [text]
    for sp in ("  ", "\t", "\u3000", " \xa0 ", _SPACES[:4]):
        out.append(text.replace(" ", sp))
    out.append("\n".join(" \t" + line for line in text.split("\n")))
    out.append("\n".join(line + "  # c" for line in text.split("\n")))
    return out


def test_malformed_corpus_gives_the_same_diagnostics():
    corpus = [text for _, text, _, _ in ERROR_CASES] + RAISES
    for text in corpus:
        for variant in _variants(text):
            assert outcome(qdsl.parse, variant) == outcome(parse_reference.parse, variant), variant
    # each input of RAISES is rejected, and between them they reach every
    # raise site of parse and _finish_block
    raised = [outcome(parse_reference.parse, text) for text in RAISES]
    assert all(isinstance(r, tuple) for r in raised)
    assert len({r[3] for r in raised}) == 48


@settings(max_examples=300, deadline=None)
@given(st.one_of(_CHAR_SOUP, _TOKEN_LINES, st.text(alphabet="ab1.*+-/ #\n\t" + _SPACES)))
def test_fuzzed_input_parses_alike(text):
    assert outcome(qdsl.parse, text) == outcome(parse_reference.parse, text)
