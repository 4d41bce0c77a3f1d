import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from homfactor.algebra import FiniteAlgebra, Mapping
from homfactor.cli import _build_parser, main
from homfactor.encodings import encode_semigroup, make_rf_instance, make_unary_lf_instance
from homfactor.graphs import Graph, complete_graph, cycle_graph
from homfactor.io import (
    read_algebra,
    read_legend,
    read_mapping,
    write_algebra,
    write_graph,
    write_instance,
    write_mapping,
)
from homfactor.solver import FactorizationInstance, decide, verify_witness
from homfactor.varieties import make_abelian, make_boolean, make_gset, make_vspace


def run(*argv):
    return main(list(argv))


def test_encode_unary(tmp_path):
    write_graph(Graph.digraph(2, [(0, 1)]), tmp_path / "g.graph")
    rc = run(
        "encode", "--encoding", "unary",
        "--in", str(tmp_path / "g.graph"),
        "--out", str(tmp_path / "g.alg"),
        "--legend", str(tmp_path / "g.legend"),
    )
    assert rc == 0
    assert read_algebra(tmp_path / "g.alg").size == 6
    assert read_legend(tmp_path / "g.legend").kind == "unary-dagger"


def test_encode_semigroup_and_nary(tmp_path, gadgets):
    write_graph(cycle_graph(4), tmp_path / "c4.graph")
    rc = run(
        "encode", "--encoding", "semigroup",
        "--in", str(tmp_path / "c4.graph"),
        "--out", str(tmp_path / "c4.alg"),
        "--legend", str(tmp_path / "c4.legend"),
    )
    assert rc == 0
    assert read_algebra(tmp_path / "c4.alg").size == 14
    write_algebra(gadgets.target_semigroup, tmp_path / "z.alg")
    rc = run(
        "encode", "--encoding", "nary:3",
        "--in", str(tmp_path / "z.alg"),
        "--out", str(tmp_path / "z3.alg"),
    )
    assert rc == 0
    lifted = read_algebra(tmp_path / "z3.alg")
    assert lifted.signature.ops == (("t", 3),)
    assert lifted.table("t").size == 125


def test_encode_semilattice(tmp_path):
    rc = run(
        "encode", "--encoding", "semilattice:2",
        "--out", str(tmp_path / "s.alg"),
        "--legend", str(tmp_path / "s.legend"),
        "--map-out", str(tmp_path / "s.f.map"),
    )
    assert rc == 0
    assert read_algebra(tmp_path / "s.alg").size == 9
    assert read_mapping(tmp_path / "s.f.map").cod_size == 4


def test_encode_errors(tmp_path):
    write_graph(complete_graph(2), tmp_path / "k2.graph")
    rc = run(
        "encode", "--encoding", "unary",
        "--in", str(tmp_path / "k2.graph"),
        "--out", str(tmp_path / "x.alg"),
    )
    assert rc == 2  # undirected input to the unary encoder
    rc = run(
        "encode", "--encoding", "mystery",
        "--in", str(tmp_path / "k2.graph"),
        "--out", str(tmp_path / "x.alg"),
    )
    assert rc == 2


def test_encode_magma(tmp_path):
    write_graph(cycle_graph(4), tmp_path / "c4.graph")
    rc = run(
        "encode", "--encoding", "magma",
        "--in", str(tmp_path / "c4.graph"),
        "--out", str(tmp_path / "c4.alg"),
        "--legend", str(tmp_path / "c4.legend"),
    )
    assert rc == 0
    assert read_algebra(tmp_path / "c4.alg").size == 12  # a, b, c, d and two copies
    assert read_legend(tmp_path / "c4.legend").kind == "magma-star"


@pytest.mark.parametrize("encoding, infile, message", [
    ("magma", "d.graph", "magma encoding takes an undirected graph"),
    ("nary:x", "c4.graph", "bad encoding parameter in 'nary:x'"),
    ("nary:2", "c4.graph", "encoding parameter in 'nary:2' must be >= 3"),
    ("semilattice:0", None, "encoding parameter in 'semilattice:0' must be >= 1"),
    ("semigroup", None, "--in is required for the semigroup encoding"),
    ("unary", "empty.graph", "unary encoding: graph has 0 vertices, need at least 1"),
    ("unary", "negative.graph", "graph: negative vertex count -2"),
])
def test_encode_error_paths(tmp_path, capsys, encoding, infile, message):
    write_graph(cycle_graph(4), tmp_path / "c4.graph")
    write_graph(Graph.digraph(2, [(0, 1)]), tmp_path / "d.graph")
    (tmp_path / "empty.graph").write_text("graph directed 0\n")
    (tmp_path / "negative.graph").write_text("graph directed -2\n")
    argv = ["encode", "--encoding", encoding, "--out", str(tmp_path / "x.alg")]
    if infile is not None:
        argv += ["--in", str(tmp_path / infile)]
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.alg").exists()


def test_file_error_paths(tmp_path, capsys):
    write_instance(make_rf_instance(cycle_graph(4), complete_graph(2)), tmp_path / "ok.instance")
    (tmp_path / "neg.alg").write_text("algebra 2\nop m -1\n")
    (tmp_path / "long.map").write_text("map 2 2\n0 1 1\n")
    for text, message in (
        ("instance hom\nX ok.X.alg ok.Y.alg\n", "instance: bad line 'X ok.X.alg ok.Y.alg'"),
        ("instance hom\nX ok.X.alg\nX ok.X.alg\n", "instance: repeated field X"),
        ("instance hom\nY ok.Y.alg\n", "instance: missing X"),
        ("instance hom\nX neg.alg\nY neg.alg\n", "algebra: negative arity for 'm'"),
    ):
        (tmp_path / "bad.instance").write_text(text)
        assert run("decide", "--instance", str(tmp_path / "bad.instance"),
                   "--witness", str(tmp_path / "w")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert run("verify", "--instance", str(tmp_path / "ok.instance"),
               "--g", str(tmp_path / "long.map")) == 2
    assert capsys.readouterr().err == "error: mapping: trailing tokens from '1'\n"
    assert not list(tmp_path.glob("w*"))


def test_main_reuses_one_parser(tmp_path):
    write_graph(cycle_graph(4), tmp_path / "c4.graph")
    write_instance(make_rf_instance(cycle_graph(4), complete_graph(2)),
                   tmp_path / "c4k2.instance")
    calls = [
        ["encode", "--encoding", "semigroup", "--in", str(tmp_path / "c4.graph"),
         "--out", str(tmp_path / "c4.alg")],
        ["decide", "--instance"],  # a parse error
        ["decide", "--instance", str(tmp_path / "c4k2.instance"),
         "--witness", str(tmp_path / "w")],
        ["--help"],
    ]

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
        return code, out.getvalue(), err.getvalue()

    _build_parser.cache_clear()
    warm = [call(argv) for argv in calls]  # one parser for all four calls
    assert _build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    assert warm == fresh
    assert [code for code, *_ in warm] == [0, "SystemExit(2)", 0, "SystemExit(0)"]
    assert "usage: homfactor" in warm[3][1]


def test_decide_exit_codes(tmp_path):
    inst = make_rf_instance(complete_graph(3), complete_graph(2))
    write_instance(inst, tmp_path / "k3k2.instance")
    rc = run("decide", "--instance", str(tmp_path / "k3k2.instance"),
             "--witness", str(tmp_path / "w"))
    assert rc == 1

    inst = make_rf_instance(cycle_graph(4), complete_graph(2))
    write_instance(inst, tmp_path / "c4k2.instance")
    rc = run("decide", "--instance", str(tmp_path / "c4k2.instance"),
             "--witness", str(tmp_path / "w"))
    assert rc == 0
    assert (tmp_path / "w.g.map").exists()

    # a branchy refutation cannot finish within one node
    from homfactor.encodings import encode_magma
    from homfactor.solver import FactorizationInstance

    a, _ = encode_magma(cycle_graph(4))
    b, _ = encode_magma(complete_graph(3))
    write_instance(FactorizationInstance("hom", a, b), tmp_path / "magma.instance")
    rc = run("decide", "--instance", str(tmp_path / "magma.instance"),
             "--witness", str(tmp_path / "w"), "--node-limit", "1")
    assert rc == 3

    (tmp_path / "broken.instance").write_text("instance right-factor\nX nowhere.alg\n")
    rc = run("decide", "--instance", str(tmp_path / "broken.instance"),
             "--witness", str(tmp_path / "w"))
    assert rc == 2


def test_decide_refutes_image_larger_than_y(tmp_path):
    # f = id on Z4 cannot factor through the two-element Z2
    x = make_abelian([4])
    inst = FactorizationInstance("full-factor", x, make_abelian([2]), x, f=Mapping.identity(4))
    write_instance(inst, tmp_path / "z4z2.instance")
    rc = run("decide", "--instance", str(tmp_path / "z4z2.instance"),
             "--witness", str(tmp_path / "w"))
    assert rc == 1
    assert not list(tmp_path.glob("w*"))


def test_decide_rejects_duplicate_operation(tmp_path, capsys):
    (tmp_path / "dup.alg").write_text("algebra 2\nop m 1\n0 1\nop m 1\n1 0\n")
    (tmp_path / "dup.instance").write_text("instance hom\nX dup.alg\nY dup.alg\n")
    rc = run("decide", "--instance", str(tmp_path / "dup.instance"),
             "--witness", str(tmp_path / "w"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "duplicate operation 'm'" in err and "Traceback" not in err
    assert not (tmp_path / "w.g.map").exists()


def test_decide_hom_instance_semigroups(tmp_path):
    # homomorphisms between semigroup encodings always exist
    from homfactor.encodings import encode_semigroup
    from homfactor.solver import FactorizationInstance

    xg, _ = encode_semigroup(complete_graph(3))
    yh, _ = encode_semigroup(complete_graph(2))
    write_instance(FactorizationInstance("hom", xg, yh), tmp_path / "hom.instance")
    rc = run("decide", "--instance", str(tmp_path / "hom.instance"),
             "--witness", str(tmp_path / "w"))
    assert rc == 0
    rc = run("verify", "--instance", str(tmp_path / "hom.instance"),
             "--g", str(tmp_path / "w.g.map"))
    assert rc == 0


def test_decide_deeper_than_the_recursion_limit(tmp_path, capsys):
    # every map of the identity operation on 1,200 elements to the one on 2
    # is a homomorphism; the search branches once per element
    x = FiniteAlgebra([("u", 1)], 1200, {"u": list(range(1200))})
    y = FiniteAlgebra([("u", 1)], 2, {"u": [0, 1]})
    write_instance(FactorizationInstance("hom", x, y), tmp_path / "deep.instance")
    rc = run("decide", "--instance", str(tmp_path / "deep.instance"),
             "--witness", str(tmp_path / "w"))
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    rc = run("verify", "--instance", str(tmp_path / "deep.instance"),
             "--g", str(tmp_path / "w.g.map"))
    assert rc == 0


def test_decide_left_factor_and_verify(tmp_path):
    inst = make_unary_lf_instance(
        complete_graph(2).as_directed(), complete_graph(3).as_directed()
    )
    write_instance(inst, tmp_path / "lf.instance")
    rc = run("decide", "--instance", str(tmp_path / "lf.instance"),
             "--witness", str(tmp_path / "w"))
    assert rc == 0
    rc = run("verify", "--instance", str(tmp_path / "lf.instance"),
             "--h", str(tmp_path / "w.h.map"))
    assert rc == 0


def test_verify_detects_perturbation(tmp_path):
    inst = make_rf_instance(cycle_graph(4), complete_graph(2))
    write_instance(inst, tmp_path / "i.instance")
    run("decide", "--instance", str(tmp_path / "i.instance"),
        "--witness", str(tmp_path / "w"))
    witness = read_mapping(tmp_path / "w.g.map")
    values = list(witness.values)
    values[0] = (values[0] + 1) % witness.cod_size
    write_mapping(Mapping(witness.dom_size, witness.cod_size, values),
                  tmp_path / "bad.map")
    assert run("verify", "--instance", str(tmp_path / "i.instance"),
               "--g", str(tmp_path / "bad.map")) == 1
    # wrong-sized mapping is a structural error
    write_mapping(Mapping(3, 2, (0, 1, 0)), tmp_path / "tiny.map")
    assert run("verify", "--instance", str(tmp_path / "i.instance"),
               "--g", str(tmp_path / "tiny.map")) == 2


def _yes_instance(kind):
    # On trivial actions every map is a homomorphism, so a changed entry in a
    # factor or isomorphism witness is caught only by the kind's own condition.
    t2, t3 = make_gset([(0, 1)]), make_gset([(0, 1, 2)])
    f = Mapping(3, 2, (0, 1, 0))
    if kind == "hom":
        return FactorizationInstance(
            "hom", encode_semigroup(cycle_graph(4))[0], encode_semigroup(complete_graph(2))[0]
        )
    if kind == "right-factor":
        return FactorizationInstance(kind, t3, t2, t2, f=f, h=Mapping.identity(2))
    if kind == "left-factor":
        return FactorizationInstance(kind, t3, t2, t2, f=f, g=f)
    if kind == "full-factor":
        return FactorizationInstance(kind, t2, t3, t2, f=Mapping.identity(2))
    if kind == "retraction":
        return FactorizationInstance(kind, t2, t3)
    return FactorizationInstance("isomorphism", t2, t2)


@pytest.mark.parametrize(
    "kind",
    ["hom", "right-factor", "left-factor", "full-factor", "retraction", "isomorphism"],
)
def test_verify_witness_per_kind(tmp_path, kind):
    inst = _yes_instance(kind)
    pair = decide(inst)
    assert pair is not None and verify_witness(inst, *pair)
    side = 0 if pair[0] is not None else 1
    values = list(pair[side].values)
    values[0] = (values[0] + 1) % pair[side].cod_size
    bad = list(pair)
    bad[side] = Mapping(pair[side].dom_size, pair[side].cod_size, values)
    assert not verify_witness(inst, *bad)
    write_instance(inst, tmp_path / "i.instance")
    for witness, rc in ((pair, 0), (bad, 1)):
        argv = ["verify", "--instance", str(tmp_path / "i.instance")]
        for name, m in zip("gh", witness):
            if m is not None:
                write_mapping(m, tmp_path / f"{name}.map")
                argv += [f"--{name}", str(tmp_path / f"{name}.map")]
        assert run(*argv) == rc


def test_decide_reruns_are_byte_identical(tmp_path):
    inst = make_rf_instance(cycle_graph(4), complete_graph(2))
    write_instance(inst, tmp_path / "i.instance")
    run("decide", "--instance", str(tmp_path / "i.instance"),
        "--witness", str(tmp_path / "w1"))
    run("decide", "--instance", str(tmp_path / "i.instance"),
        "--witness", str(tmp_path / "w2"))
    assert (tmp_path / "w1.g.map").read_bytes() == (tmp_path / "w2.g.map").read_bytes()


def test_fcore_command(tmp_path):
    write_algebra(make_abelian([4]), tmp_path / "z4.alg")
    write_mapping(Mapping(4, 2, (0, 1, 0, 1)), tmp_path / "f.map")
    rc = run("fcore", "--algebra", str(tmp_path / "z4.alg"),
             "--f", str(tmp_path / "f.map"), "--method", "abelian",
             "--out-prefix", str(tmp_path / "core"))
    assert rc == 0
    report = (tmp_path / "core.report.txt").read_text()
    assert "inapplicable" in report and "core-size 4" in report
    assert read_algebra(tmp_path / "core.core.alg").size == 4
    rc = run("fcore", "--algebra", str(tmp_path / "z4.alg"),
             "--f", str(tmp_path / "f.map"), "--method", "mystery",
             "--out-prefix", str(tmp_path / "core"))
    assert rc == 2


def test_fcore_boolean_needs_target(tmp_path, capsys):
    write_algebra(make_boolean(2), tmp_path / "b.alg")
    write_mapping(Mapping.identity(4), tmp_path / "id.map")
    rc = run("fcore", "--algebra", str(tmp_path / "b.alg"),
             "--f", str(tmp_path / "id.map"), "--method", "boolean",
             "--out-prefix", str(tmp_path / "core"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: the boolean method needs the target algebra Z" in err
    assert "Traceback" not in err


def test_fcore_vspace_rejects_nonlinear_f(tmp_path, capsys):
    write_algebra(make_vspace(2, 2), tmp_path / "v.alg")
    write_mapping(Mapping(4, 3, (0, 0, 1, 2)), tmp_path / "f.map")
    rc = run("fcore", "--algebra", str(tmp_path / "v.alg"),
             "--f", str(tmp_path / "f.map"), "--method", "vspace",
             "--out-prefix", str(tmp_path / "core"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: f is not constant on the cosets of its kernel; f is not linear\n"


def test_fcore_brute_certifies(tmp_path):
    from homfactor.encodings import make_fcore_instance

    x, z, f = make_fcore_instance(complete_graph(4))
    write_algebra(x, tmp_path / "x.alg")
    write_mapping(f, tmp_path / "f.map")
    rc = run("fcore", "--algebra", str(tmp_path / "x.alg"),
             "--f", str(tmp_path / "f.map"), "--method", "brute",
             "--out-prefix", str(tmp_path / "core"))
    assert rc == 0
    report = (tmp_path / "core.report.txt").read_text()
    assert "certified yes" in report
    assert f"core-size {x.size}" in report


def test_fcore_node_limit_exits_unknown(tmp_path, capsys):
    from homfactor.encodings import make_fcore_instance

    for name, graph in (("k5", complete_graph(5)), ("edgeless", Graph.undirected(3, []))):
        x, _, f = make_fcore_instance(graph)
        write_algebra(x, tmp_path / f"{name}.alg")
        write_mapping(f, tmp_path / f"{name}.map")
        argv = ["fcore", "--algebra", str(tmp_path / f"{name}.alg"),
                "--f", str(tmp_path / f"{name}.map"), "--method", "brute",
                "--out-prefix", str(tmp_path / name)]
        capsys.readouterr()
        assert run(*argv, "--node-limit", "1") == 3
        assert capsys.readouterr().err == "unknown: node limit reached before a decision\n"
        assert not list(tmp_path.glob(f"{name}.*.*"))
        assert run(*argv, "--node-limit", "1000") == 0
        assert (tmp_path / f"{name}.report.txt").exists()


def test_non_positive_node_limit_is_an_error(tmp_path, capsys):
    from homfactor.encodings import make_fcore_instance

    write_instance(make_rf_instance(cycle_graph(4), complete_graph(2)),
                   tmp_path / "c4k2.instance")
    x, _, f = make_fcore_instance(complete_graph(3))
    write_algebra(x, tmp_path / "k3.alg")
    write_mapping(f, tmp_path / "k3.map")
    for argv in (
        ["decide", "--instance", str(tmp_path / "c4k2.instance"),
         "--witness", str(tmp_path / "w")],
        ["fcore", "--algebra", str(tmp_path / "k3.alg"), "--f", str(tmp_path / "k3.map"),
         "--method", "brute", "--out-prefix", str(tmp_path / "k3")],
    ):
        capsys.readouterr()
        assert run(*argv, "--node-limit", "0") == 2
        assert capsys.readouterr().err == "error: node_limit must be positive\n"
    assert not list(tmp_path.glob("w.*")) and not list(tmp_path.glob("k3.*.*"))


def test_fcore_verify_flag(tmp_path):
    from homfactor.varieties import vspace_hom

    f, x, z = vspace_hom(2, 2, 1, [[1, 0]])
    write_algebra(x, tmp_path / "x.alg")
    write_mapping(f, tmp_path / "f.map")
    rc = run("fcore", "--algebra", str(tmp_path / "x.alg"),
             "--f", str(tmp_path / "f.map"), "--method", "vspace",
             "--out-prefix", str(tmp_path / "core"), "--verify")
    assert rc == 0
    report = (tmp_path / "core.report.txt").read_text()
    assert "oracle-agreement yes" in report


def test_bench_reductions_small(tmp_path):
    out = tmp_path / "bench.tsv"
    rc = run("bench", "--suite", "reductions", "--max-size", "2", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].split("\t") == [
        "id", "kind", "|X|", "|Y|", "|Z|", "answer", "oracle", "nodes", "ms"
    ]
    assert len(lines) > 1


def test_bench_fcores_small(tmp_path):
    for max_size in (8, 3):
        out = tmp_path / f"bench{max_size}.tsv"
        rc = run("bench", "--suite", "fcores", "--max-size", str(max_size), "--out", str(out))
        assert rc == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 24  # 4 varieties x 6
        assert all(int(row[2]) <= max_size for row in rows), rows  # the |X| column


@pytest.mark.parametrize("max_size", ["0", "1", "2"])
def test_bench_fcores_below_the_smallest_sample(tmp_path, capsys, max_size):
    rc = run("bench", "--suite", "fcores", "--max-size", max_size,
             "--out", str(tmp_path / "x.tsv"))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "max size of at least" in err
    assert "Traceback" not in err


def test_bench_over_budget(tmp_path):
    rc = run("bench", "--suite", "reductions", "--max-size", "9",
             "--out", str(tmp_path / "x.tsv"))
    assert rc == 2
