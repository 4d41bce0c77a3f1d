"""Canonical whitespace-separated text formats.

Algebra:   `algebra <n>`, optional `labels <l0> ... <l_{n-1}>`, then per
           operation `op <name> <arity>` followed by n**arity integers in
           lexicographic argument order.
Mapping:   `map <dom> <cod>` followed by dom integers.
Graph:     `graph <directed|undirected> <n>` then `e <u> <v>` lines,
           undirected edges listed once.
Legend:    `legend <kind> <n>` then one `elem <index> <role> [params]`
           line per element.
Instance:  `instance <kind>` then `X <path>`, `Y <path>`, `Z <path>`,
           `f <path>`, `g <path>`, `h <path>` as applicable; paths are
           relative to the manifest's directory.

All integers are decimal; files end with a trailing newline. Writers are
deterministic, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import os

from .algebra import FiniteAlgebra, Mapping, Signature
from .encodings import Legend
from .graphs import Graph
from .solver import KINDS, FactorizationInstance

__all__ = [
    "FormatError",
    "format_algebra",
    "parse_algebra",
    "write_algebra",
    "read_algebra",
    "format_mapping",
    "parse_mapping",
    "write_mapping",
    "read_mapping",
    "format_graph",
    "parse_graph",
    "write_graph",
    "read_graph",
    "format_legend",
    "parse_legend",
    "write_legend",
    "read_legend",
    "write_instance",
    "read_instance",
]


class FormatError(ValueError):
    pass


class _Tokens:
    def __init__(self, text: str, what: str):
        self.toks = text.split()
        self.pos = 0
        self.what = what

    def next(self) -> str:
        if self.pos >= len(self.toks):
            raise FormatError(f"{self.what}: unexpected end of input")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def next_int(self) -> int:
        tok = self.next()
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"{self.what}: expected integer, got {tok!r}") from None

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def expect(self, word: str):
        tok = self.next()
        if tok != word:
            raise FormatError(f"{self.what}: expected {word!r}, got {tok!r}")

    def done(self):
        if self.pos != len(self.toks):
            raise FormatError(f"{self.what}: trailing tokens from {self.toks[self.pos]!r}")


def _word(word: str, what: str) -> str:
    """word, once parse_algebra can read it back as one token."""
    if word.split() != [word]:
        raise FormatError(f"algebra: {what} {word!r} is empty or contains whitespace")
    return word


def format_algebra(alg: FiniteAlgebra) -> str:
    lines = [f"algebra {alg.size}"]
    if alg.labels is not None:
        lines.append("labels " + " ".join(_word(label, "label") for label in alg.labels))
    for name, arity in alg.signature.ops:
        lines.append(f"op {_word(name, 'operation name')} {arity}")
        lines.append(" ".join(str(int(v)) for v in alg.table(name)))
    return "\n".join(lines) + "\n"


def parse_algebra(text: str) -> FiniteAlgebra:
    t = _Tokens(text, "algebra")
    t.expect("algebra")
    n = t.next_int()
    if n < 1:
        raise FormatError("algebra: size must be positive")
    labels = None
    if t.peek() == "labels":
        t.next()
        labels = [t.next() for _ in range(n)]
    ops = []
    tables = {}
    while t.peek() is not None:
        t.expect("op")
        name = t.next()
        if name in tables:
            raise FormatError(f"algebra: duplicate operation {name!r}")
        arity = t.next_int()
        if arity < 0:
            raise FormatError(f"algebra: negative arity for {name!r}")
        count = n**arity
        values = [t.next_int() for _ in range(count)]
        if any(v < 0 or v >= n for v in values):
            raise FormatError(f"algebra: table entry out of range for {name!r}")
        ops.append((name, arity))
        tables[name] = values
    t.done()
    return FiniteAlgebra(Signature(tuple(ops)), n, tables, labels)


def format_mapping(m: Mapping) -> str:
    return (
        f"map {m.dom_size} {m.cod_size}\n"
        + " ".join(str(v) for v in m.values)
        + "\n"
    )


def parse_mapping(text: str) -> Mapping:
    t = _Tokens(text, "mapping")
    t.expect("map")
    dom = t.next_int()
    cod = t.next_int()
    values = [t.next_int() for _ in range(dom)]
    t.done()
    if any(v < 0 or v >= cod for v in values):
        raise FormatError("mapping: value out of range")
    return Mapping(dom, cod, values)


def format_graph(g: Graph) -> str:
    kind = "directed" if g.directed else "undirected"
    lines = [f"graph {kind} {g.n}"]
    edges = sorted(g.edges) if g.directed else g.undirected_pairs()
    for u, v in edges:
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    t = _Tokens(text, "graph")
    t.expect("graph")
    kind = t.next()
    if kind not in ("directed", "undirected"):
        raise FormatError(f"graph: bad directedness {kind!r}")
    n = t.next_int()
    if n < 0:
        raise FormatError(f"graph: negative vertex count {n}")
    edges = []
    while t.peek() is not None:
        t.expect("e")
        u, v = t.next_int(), t.next_int()
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"graph: edge ({u},{v}) out of range")
        edges.append((u, v))
    t.done()
    return Graph.digraph(n, edges) if kind == "directed" else Graph.undirected(n, edges)


def format_legend(legend: Legend) -> str:
    lines = [f"legend {legend.kind} {len(legend.entries)}"]
    for i, role in enumerate(legend.entries):
        lines.append(f"elem {i} {role[0]} " + " ".join(str(p) for p in role[1:]))
    return "\n".join(lines) + "\n"


# the readers of each role's parameters, in the order they are written
_ROLE_PARAMS = {
    "vertex-copy": (_Tokens.next_int, _Tokens.next_int),
    "edge-elem": (_Tokens.next, _Tokens.next_int, _Tokens.next_int),
    "chi": (_Tokens.next_int, _Tokens.next_int),
    "distinguished": (_Tokens.next,),
    "chain": (_Tokens.next, _Tokens.next_int),
}


def parse_legend(text: str) -> Legend:
    t = _Tokens(text, "legend")
    t.expect("legend")
    kind = t.next()
    n = t.next_int()
    entries: list[tuple] = [None] * n  # type: ignore[list-item]
    for _ in range(n):
        t.expect("elem")
        idx = t.next_int()
        role_name = t.next()
        if role_name not in _ROLE_PARAMS:
            raise FormatError(f"legend: unknown role {role_name!r}")
        role = (role_name, *[read(t) for read in _ROLE_PARAMS[role_name]])
        if not (0 <= idx < n) or entries[idx] is not None:
            raise FormatError(f"legend: bad or repeated element index {idx}")
        entries[idx] = role
    t.done()
    return Legend(kind, tuple(entries))


def write_algebra(alg, path):
    _write(path, format_algebra(alg))


def read_algebra(path) -> FiniteAlgebra:
    return parse_algebra(_read(path))


def write_mapping(m, path):
    _write(path, format_mapping(m))


def read_mapping(path) -> Mapping:
    return parse_mapping(_read(path))


def write_graph(g, path):
    _write(path, format_graph(g))


def read_graph(path) -> Graph:
    return parse_graph(_read(path))


def write_legend(legend, path):
    _write(path, format_legend(legend))


def read_legend(path) -> Legend:
    return parse_legend(_read(path))


_INSTANCE_FIELDS = ("X", "Y", "Z", "f", "g", "h")


def write_instance(inst: FactorizationInstance, manifest_path):
    """Write the manifest plus one file per component next to it."""
    directory = os.path.dirname(os.path.abspath(manifest_path))
    os.makedirs(directory, exist_ok=True)
    stem = os.path.splitext(os.path.basename(manifest_path))[0]
    lines = [f"instance {inst.kind}"]
    for field in _INSTANCE_FIELDS:
        value = getattr(inst, field)
        if value is None:
            continue
        ext = "alg" if field in ("X", "Y", "Z") else "map"
        rel = f"{stem}.{field}.{ext}"
        target = os.path.join(directory, rel)
        if ext == "alg":
            write_algebra(value, target)
        else:
            write_mapping(value, target)
        lines.append(f"{field} {rel}")
    _write(manifest_path, "\n".join(lines) + "\n")


def read_instance(manifest_path) -> FactorizationInstance:
    directory = os.path.dirname(os.path.abspath(manifest_path))
    text = _read(manifest_path)
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or len(lines[0].split()) != 2 or lines[0].split()[0] != "instance":
        raise FormatError("instance: first line must be `instance <kind>`")
    kind = lines[0].split()[1]
    if kind not in KINDS:
        raise FormatError(f"instance: unknown kind {kind!r}")
    parts = {}
    for ln in lines[1:]:
        words = ln.split()
        if len(words) != 2 or words[0] not in _INSTANCE_FIELDS:
            raise FormatError(f"instance: bad line {ln!r}")
        field = words[0]
        if field in parts:
            raise FormatError(f"instance: repeated field {field}")
        path = os.path.join(directory, words[1])
        parts[field] = read_algebra(path) if field in ("X", "Y", "Z") else read_mapping(path)
    for required in ("X", "Y"):
        if required not in parts:
            raise FormatError(f"instance: missing {required}")
    return FactorizationInstance(
        kind,
        parts["X"],
        parts["Y"],
        parts.get("Z"),
        f=parts.get("f"),
        g=parts.get("g"),
        h=parts.get("h"),
    )


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()
