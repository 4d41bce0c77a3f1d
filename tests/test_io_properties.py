"""Property tests of the text formats: format -> parse -> format is the
identity, and a parse of a token-mutated text either succeeds or raises
FormatError or AlgebraError, within a fixed time budget."""

import time

import pytest

from homfactor.algebra import AlgebraError, FiniteAlgebra, Mapping
from homfactor.encodings import Legend
from homfactor.graphs import Graph
from homfactor.io import (
    FormatError,
    format_algebra,
    format_graph,
    format_legend,
    format_mapping,
    parse_algebra,
    parse_graph,
    parse_legend,
    parse_mapping,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_BUDGET_S = 1.0  # per parse; every text here has at most a few hundred tokens
_settings = hypothesis.settings(max_examples=150, derandomize=True, deadline=None)

words = st.text(alphabet="abxyz-_01", min_size=1, max_size=4)


@st.composite
def algebras(draw):
    n = draw(st.integers(1, 4))
    names = draw(st.lists(words, max_size=3, unique=True))
    ops = [(name, draw(st.integers(0, 3))) for name in names]
    cells = st.integers(0, n - 1)
    tables = {name: draw(st.lists(cells, min_size=n**k, max_size=n**k)) for name, k in ops}
    labels = draw(st.none() | st.lists(words, min_size=n, max_size=n))
    return FiniteAlgebra(ops, n, tables, labels)


@st.composite
def mappings(draw):
    dom, cod = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    return Mapping(dom, cod, draw(st.lists(st.integers(0, cod - 1), min_size=dom, max_size=dom)))


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 5))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)
                 if n else st.just([]))
    return Graph.digraph(n, edges) if draw(st.booleans()) else Graph.undirected(n, edges)


_ints = st.integers(-3, 99)
_ROLES = st.one_of(
    st.tuples(st.just("vertex-copy"), _ints, _ints),
    st.tuples(st.just("edge-elem"), words, _ints, _ints),
    st.tuples(st.just("chi"), _ints, _ints),
    st.tuples(st.just("distinguished"), words),
    st.tuples(st.just("chain"), words, _ints),
)


@st.composite
def legends(draw):
    return Legend(draw(words), tuple(draw(st.lists(_ROLES, max_size=5))))


_FORMATS = {
    "algebra": (algebras(), format_algebra, parse_algebra),
    "mapping": (mappings(), format_mapping, parse_mapping),
    "graph": (graphs(), format_graph, parse_graph),
    "legend": (legends(), format_legend, parse_legend),
}


@pytest.mark.parametrize("kind", list(_FORMATS))
def test_format_parse_format_is_the_identity(kind):
    objects, fmt, parse = _FORMATS[kind]

    @_settings
    @hypothesis.given(objects)
    def check(obj):
        text = fmt(obj)
        again = parse(text)
        assert again == obj
        assert fmt(again) == text

    check()


# tokens a mutation may insert: keywords of every format, numbers at and
# past the edges of every count, and words no reader expects
_TOKENS = [
    "algebra", "labels", "op", "map", "graph", "directed", "undirected", "e",
    "legend", "elem", "vertex-copy", "edge-elem", "chi", "distinguished", "chain",
    "-1", "0", "1", "2", "3", "99", str(10**9), str(10**18), "1.5", "x",
]


@st.composite
def mutated(draw, kind):
    objects, fmt, _ = _FORMATS[kind]
    toks = fmt(draw(objects)).split()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(toks)))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "swap"]))
        if edit == "insert" or not toks:
            toks.insert(at, draw(st.sampled_from(_TOKENS)))
            continue
        at = min(at, len(toks) - 1)
        if edit == "replace":
            toks[at] = draw(st.sampled_from(_TOKENS))
        elif edit == "delete":
            del toks[at]
        else:
            other = draw(st.integers(0, len(toks) - 1))
            toks[at], toks[other] = toks[other], toks[at]
    return " ".join(toks) + "\n"


@pytest.mark.parametrize("kind", list(_FORMATS))
def test_mutated_texts_parse_or_fail_cleanly(kind):
    parse = _FORMATS[kind][2]

    @_settings
    @hypothesis.given(mutated(kind))
    def check(text):
        start = time.perf_counter()
        try:
            parse(text)
        except (FormatError, AlgebraError):
            pass
        assert time.perf_counter() - start < _BUDGET_S, text

    check()
