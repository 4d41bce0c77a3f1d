import re
import time

import pytest

from homfactor import io as homfactor_io
from homfactor.algebra import FiniteAlgebra, Mapping
from homfactor.encodings import (
    encode_magma,
    encode_semigroup,
    encode_unary,
    make_rf_instance,
    make_semilattice_X,
)
from homfactor.graphs import Graph, complete_graph, cycle_graph
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
    read_instance,
    write_algebra,
    write_instance,
)


def test_algebra_roundtrip(gadgets):
    z = gadgets.target_semigroup
    text = format_algebra(z)
    assert text.splitlines()[0] == "algebra 5"
    assert text.splitlines()[1] == "labels 0 a b b2 c"
    assert parse_algebra(text) == z
    assert parse_algebra(text).labels == z.labels


def test_algebra_roundtrip_unary(gadgets):
    x = gadgets.two_point_unary
    again = parse_algebra(format_algebra(x))
    assert again == x
    assert again.signature.ops == (("f", 1), ("g", 1))


def test_algebra_parse_errors():
    with pytest.raises(FormatError):
        parse_algebra("algebra 0\n")
    with pytest.raises(FormatError):
        parse_algebra("algebra 2\nop mul 2\n0 1 1\n")  # one entry short
    with pytest.raises(FormatError):
        parse_algebra("algebra 2\nop mul 2\n0 1 1 2\n")  # out of range
    with pytest.raises(FormatError):
        parse_algebra("nonsense 2\n")


def test_algebra_rejects_duplicate_operation():
    # a repeated name would silently drop the first table
    with pytest.raises(FormatError, match="algebra: duplicate operation 'm'"):
        parse_algebra("algebra 2\nop m 1\n0 1\nop m 1\n1 0\n")


@pytest.mark.parametrize("labels, name, bad", [
    (["x y", "z"], "mul", "label 'x y'"),
    (["", "z"], "mul", "label ''"),
    (None, "my op", "operation name 'my op'"),
    (None, "", "operation name ''"),
])
def test_write_algebra_rejects_words_the_parser_cannot_read(tmp_path, labels, name, bad):
    alg = FiniteAlgebra([(name, 2)], 2, {name: [0, 1, 1, 0]}, labels)
    with pytest.raises(FormatError, match=re.escape(f"algebra: {bad} is empty or contains")):
        write_algebra(alg, tmp_path / "a.alg")
    assert not (tmp_path / "a.alg").exists()


@pytest.mark.parametrize("parse, text, message", [
    (parse_mapping, "map 2 2\n0 1 1\n", "mapping: trailing tokens from '1'"),
    (parse_legend, "legend unary-dagger 1\nelem 0 vertex-copy 0 1 7\n",
     "legend: trailing tokens from '7'"),
    (parse_algebra, "algebra 2\nop m -1\n", "algebra: negative arity for 'm'"),
    (parse_legend, "legend unary-dagger 2\nelem 0 vertex-copy 0 1\nelem 0 vertex-copy 0 2\n",
     "legend: bad or repeated element index 0"),
    (parse_graph, "graph directed -2\n", "graph: negative vertex count -2"),
    (parse_legend, "legend unary-dagger -5\n", "legend: negative element count -5"),
    (parse_algebra, "algebra 2\nop m 1\n0 1\n5\n", "algebra: trailing tokens from '5'"),
    (parse_algebra, "algebra 2\nop m 1\n0 1\nm 1 0 1\n", "algebra: trailing tokens from 'm'"),
    (parse_algebra, "algebra 2\nop mul 2\n0 1 1\n",
     "algebra: 'mul' needs 2**2 table entries, 3 tokens are left"),
    # the first token of a table that is not an integer is named, wherever it sits
    (parse_algebra, "algebra 3\nop m 2\n0 1 2 0 q 2 z 1 0\n", "algebra: expected integer, got 'q'"),
    (parse_mapping, "map 4 2\n0 1 x 1\n", "mapping: expected integer, got 'x'"),
    (parse_mapping, "map 3 2\n0 1\n", "mapping: unexpected end of input"),
    (parse_mapping, "map 3 2\n0 y\n", "mapping: expected integer, got 'y'"),
    (parse_mapping, "map 2 2\n0 2\n", "mapping: value out of range"),
    (parse_algebra, "algebra 2\nop m 1\n0 -1\n", "algebra: table entry out of range for 'm'"),
    # a count past the tokens left allocates nothing before the parse fails
    (parse_legend, f"legend unary-dagger {10**18}\n", "legend: unexpected end of input"),
])
def test_parse_errors_name_the_fault(parse, text, message):
    with pytest.raises(FormatError, match=re.escape(message)):
        parse(text)


@pytest.mark.parametrize("arity", [10**7, 10**8])
def test_table_size_is_checked_before_the_power(arity):
    # 12**arity is never computed: the parse ends as soon as it reads the arity
    start = time.perf_counter()
    with pytest.raises(FormatError, match=re.escape(
            f"algebra: 'mul' needs 12**{arity} table entries, 1 tokens are left")):
        parse_algebra(f"algebra 12\nop mul {arity}\n0\n")
    assert time.perf_counter() - start < 1.0
    # one element needs one entry at any arity
    assert parse_algebra(f"algebra 1\nop m {arity}\n0\n").signature.ops == (("m", arity),)


def test_parse_refuses_tables_past_the_entry_limit_before_reading_them(monkeypatch):
    # 1,025**2 = 1,050,625 entries, just past 2**20: the parser refuses the
    # file at the op line, converting none of its tokens, where reading the
    # table would hold some 26 bytes per entry; the total runs over every
    # table, so a unary table before a 1,024**2 one passes the limit too
    converted = []
    ints = homfactor_io._Tokens.ints
    monkeypatch.setattr(homfactor_io._Tokens, "ints",
                        lambda self, count: converted.append(count) or ints(self, count))
    zeros = "0 " * 1024**2
    start = time.perf_counter()
    parse_algebra(f"algebra 1024\nop mul 2\n{zeros}\n")  # at the limit: read in full
    full_read = time.perf_counter() - start
    for text, total in ((f"algebra 1025\nop mul 2\n{zeros}{'0 ' * 2049}\n", 1025**2),
                        (f"algebra 1024\nop u 1\n{'0 ' * 1024}\nop mul 2\n{zeros}\n",
                         1024 + 1024**2)):
        converted.clear()
        start = time.perf_counter()
        with pytest.raises(FormatError, match=re.escape(
                f"algebra: {total} table entries up to 'mul', more than the limit of 1048576")):
            parse_algebra(text)
        assert time.perf_counter() - start < full_read / 3
        assert converted == ([] if total == 1025**2 else [1024])


def test_mapping_roundtrip():
    m = Mapping(3, 5, (4, 0, 2))
    assert parse_mapping(format_mapping(m)) == m
    assert format_mapping(m) == "map 3 5\n4 0 2\n"
    with pytest.raises(FormatError):
        parse_mapping("map 3 2\n0 1 2\n")
    with pytest.raises(FormatError):
        parse_mapping("map 3 2\n0 1\n")


def test_graph_roundtrip():
    g = cycle_graph(4)
    text = format_graph(g)
    assert text.startswith("graph undirected 4\n")
    assert text.count("\ne ") == 4  # each undirected edge once
    assert parse_graph(text) == g
    d = g.as_directed()
    assert parse_graph(format_graph(d)) == d
    with pytest.raises(FormatError):
        parse_graph("graph sideways 2\n")
    with pytest.raises(FormatError):
        parse_graph("graph undirected 2\ne 0 5\n")


def test_legend_roundtrip():
    for legend in (
        encode_unary(Graph.digraph(2, [(0, 1)]))[1],
        encode_magma(cycle_graph(4))[1],
        encode_semigroup(cycle_graph(4))[1],
        make_semilattice_X(2)[1],  # the chain role
    ):
        text = format_legend(legend)
        again = parse_legend(text)
        assert again == legend
    with pytest.raises(FormatError):
        parse_legend("legend semigroup-XG 1\nelem 0 nonsense 1\n")
    with pytest.raises(FormatError, match="expected integer"):
        parse_legend("legend unary-dagger 1\nelem 0 vertex-copy x 1\n")


def test_instance_roundtrip(tmp_path):
    inst = make_rf_instance(complete_graph(2), cycle_graph(4))
    manifest = tmp_path / "k2c4.instance"
    write_instance(inst, manifest)
    again = read_instance(manifest)
    assert again.kind == "right-factor"
    assert again.X == inst.X and again.Y == inst.Y and again.Z == inst.Z
    assert again.f == inst.f and again.h == inst.h
    assert again.problems() == []


def test_instance_manifest_errors(tmp_path):
    bad = tmp_path / "bad.instance"
    bad.write_text("instance nonsense\n")
    with pytest.raises(FormatError):
        read_instance(bad)
    bad.write_text("instance hom\nX missing.alg\nY missing.alg\n")
    with pytest.raises(FileNotFoundError):
        read_instance(bad)
    bad.write_text("not-a-manifest\n")
    with pytest.raises(FormatError):
        read_instance(bad)
    (tmp_path / "a.alg").write_text("algebra 1\nop u 1\n0\n")
    for text, message in (
        ("instance hom\nX a.alg b.alg\n", "instance: bad line 'X a.alg b.alg'"),
        ("instance hom\nW a.alg\n", "instance: bad line 'W a.alg'"),
        ("instance hom\nY a.alg\nY a.alg\n", "instance: repeated field Y"),
        ("instance hom\nY a.alg\n", "instance: missing X"),
    ):
        bad.write_text(text)
        with pytest.raises(FormatError, match=re.escape(message)):
            read_instance(bad)


def test_writers_are_deterministic(tmp_path):
    inst = make_rf_instance(complete_graph(2), complete_graph(2))
    d1, d2 = tmp_path / "one", tmp_path / "two"
    write_instance(inst, d1 / "w.instance")
    write_instance(inst, d2 / "w.instance")
    for name in ("w.instance", "w.X.alg", "w.Y.alg", "w.Z.alg", "w.f.map", "w.h.map"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
