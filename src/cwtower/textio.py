"""Textual formats: simplicial sets, maps, squares, and tower directories.

Grammar (version ``v1``), one declaration per line, ``#`` starts a comment:

    sset v1
    dims <D>
    dim <d> count <c>
    gen <d>:<i> [label "<escaped>"] [faces <face> ...]

    smap v1
    gen <d>:<i> -> <face>

where a face / assignment token is an operator-syntax simplex

    (s_{j1} s_{j2} ... | dim:index)

with an empty degeneracy word written ``(| dim:index)``.  A generator of
dimension d lists exactly d+1 faces, in order d_0 .. d_d.  Round-trip
(parse after print) is the identity.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache

from .core import Simplex, SimplexRef, SimplicialMap, SimplicialSet, validate
from .homsearch import AttachmentSquare

FORMAT_VERSION = "v1"


class ParseError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Simplex tokens
# ---------------------------------------------------------------------------

def format_simplex(s: Simplex) -> str:
    word = " ".join(f"s_{j}" for j in s.word)
    return f"({word}|{s.gen.dim}:{s.gen.index})"


_SIMPLEX_RE = re.compile(r"^\(\s*((?:s_\d+\s*)*)\|\s*(\d+):(\d+)\s*\)$")


def parse_simplex(token, line=None) -> Simplex:
    try:
        return _simplex_of(token)
    except ValueError as e:
        raise ParseError(str(e), line) from None


# Tokens repeat across the lines and files of a tower, and a Simplex is
# immutable, so each distinct token is parsed once.  A bad token raises,
# and lru_cache keeps no entry for it.
@lru_cache(maxsize=1 << 14)
def _simplex_of(token) -> Simplex:
    m = _SIMPLEX_RE.match(token.strip())
    if not m:
        raise ValueError(f"malformed simplex token {token!r}")
    word = tuple(int(p[2:]) for p in m.group(1).split())
    try:
        return Simplex(word, SimplexRef(int(m.group(2)), int(m.group(3))))
    except ValueError as e:
        raise ValueError(f"invalid simplex {token!r}: {e}") from None


def _quote(label) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


_QUOTED_RE = re.compile(r'"((?:[^"\\]|\\.)*)"', re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _split_tokens(text, line=None):
    """Split a line into words, quoted strings, and (...) simplex tokens."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == '"':
            m = _QUOTED_RE.match(text, i)
            if not m:
                raise ParseError("unterminated quoted label", line)
            tokens.append(("str", _ESCAPE_RE.sub(r"\1", m.group(1))))
            i = m.end()
        elif c == "(":
            j = text.find(")", i)
            if j < 0:
                raise ParseError("unterminated simplex token", line)
            tokens.append(("simplex", text[i:j + 1]))
            i = j + 1
        elif c == "#":
            break
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '("#':
                j += 1
            tokens.append(("word", text[i:j]))
            i = j
    return tokens


# ---------------------------------------------------------------------------
# Simplicial sets
# ---------------------------------------------------------------------------

def format_sset(X: SimplicialSet) -> str:
    lines = [f"sset {FORMAT_VERSION}", f"dims {len(X.counts)}"]
    for d, c in enumerate(X.counts):
        lines.append(f"dim {d} count {c}")
        for g in range(c):
            parts = [f"gen {d}:{g}"]
            label = X.labels[d][g]
            if label is not None:
                parts.append(f"label {_quote(label)}")
            if d >= 1:
                parts.append("faces " + " ".join(
                    format_simplex(s) for s in X.faces[d][g]))
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _numbered_lines(text):
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0] if '"' not in raw else raw
        if stripped.strip():
            yield no, raw


def _is_count(token):
    """ASCII digits only: str.isdigit() also accepts digits int() rejects."""
    return token.isascii() and token.isdigit()


def parse_sset(text) -> SimplicialSet:
    lines = list(_numbered_lines(text))
    if not lines:
        raise ParseError("empty input")
    pos = 0

    def expect(kind):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"unexpected end of input, wanted {kind}",
                             lines[-1][0] if lines else None)
        return lines[pos]

    no, header = expect("header")
    htoks = header.split()
    if htoks[:2] != ["sset", FORMAT_VERSION]:
        raise ParseError(f"expected 'sset {FORMAT_VERSION}' header", no)
    pos += 1
    no, dline = expect("dims")
    dtoks = dline.split()
    if len(dtoks) != 2 or dtoks[0] != "dims" or not _is_count(dtoks[1]):
        raise ParseError("expected 'dims <D>'", no)
    ndims = int(dtoks[1])
    pos += 1

    counts = [0] * ndims
    faces = [[] for _ in range(ndims)]
    labels = [[] for _ in range(ndims)]
    for d in range(ndims):
        no, cline = expect("dim header")
        ctoks = cline.split()
        if (len(ctoks) != 4 or ctoks[0] != "dim" or ctoks[2] != "count"
                or not _is_count(ctoks[1]) or not _is_count(ctoks[3])
                or int(ctoks[1]) != d):
            raise ParseError(f"expected 'dim {d} count <c>'", no)
        counts[d] = int(ctoks[3])
        pos += 1
        for g in range(counts[d]):
            no, gline = expect("generator")
            toks = _split_tokens(gline, no)
            if not toks or toks[0] != ("word", "gen"):
                raise ParseError(f"expected generator {d}:{g}", no)
            if len(toks) < 2 or toks[1][0] != "word" or toks[1][1] != f"{d}:{g}":
                raise ParseError(f"expected generator id {d}:{g}", no)
            label = None
            fs = None
            i = 2
            while i < len(toks):
                kind, val = toks[i]
                if kind == "word" and val == "label":
                    if i + 1 >= len(toks) or toks[i + 1][0] != "str":
                        raise ParseError("label needs a quoted string", no)
                    label = toks[i + 1][1]
                    i += 2
                elif kind == "word" and val == "faces":
                    fs = []
                    i += 1
                    while i < len(toks) and toks[i][0] == "simplex":
                        fs.append(parse_simplex(toks[i][1], no))
                        i += 1
                else:
                    raise ParseError(f"unexpected token {val!r}", no)
            if d == 0:
                if fs:
                    raise ParseError("vertices must not list faces", no)
                fs = ()
            else:
                if fs is None or len(fs) != d + 1:
                    raise ParseError(
                        f"generator {d}:{g} needs exactly {d + 1} faces", no)
            faces[d].append(tuple(fs))
            labels[d].append(label)
            pos += 1
    if pos != len(lines):
        raise ParseError("trailing content after simplicial set", lines[pos][0])
    try:
        X = SimplicialSet(tuple(counts), tuple(tuple(r) for r in faces),
                          tuple(tuple(r) for r in labels))
    except ValueError as e:
        raise ParseError(str(e))
    errs = validate(X)
    if errs:
        raise ParseError("invalid simplicial set: " + "; ".join(errs[:4]))
    return X


# ---------------------------------------------------------------------------
# Simplicial maps
# ---------------------------------------------------------------------------

def format_smap(f: SimplicialMap) -> str:
    lines = [f"smap {FORMAT_VERSION}"]
    for d in range(len(f.dom.counts)):
        for g in range(f.dom.counts[d]):
            lines.append(f"gen {d}:{g} -> {format_simplex(f.assign[d][g])}")
    return "\n".join(lines) + "\n"


def parse_smap(text, dom: SimplicialSet, cod: SimplicialSet) -> SimplicialMap:
    from .core import check_map

    lines = list(_numbered_lines(text))
    if not lines or lines[0][1].split()[:2] != ["smap", FORMAT_VERSION]:
        raise ParseError(f"expected 'smap {FORMAT_VERSION}' header",
                         lines[0][0] if lines else None)
    table = {}
    for no, line in lines[1:]:
        toks = _split_tokens(line, no)
        if (len(toks) != 4 or toks[0] != ("word", "gen")
                or toks[2] != ("word", "->") or toks[3][0] != "simplex"):
            raise ParseError("expected 'gen <d>:<i> -> <simplex>'", no)
        ref_txt = toks[1][1]
        m = re.match(r"^(\d+):(\d+)$", ref_txt)
        if not m:
            raise ParseError(f"bad generator id {ref_txt!r}", no)
        ref = SimplexRef(int(m.group(1)), int(m.group(2)))
        if ref in table:
            raise ParseError(f"duplicate assignment for {ref_txt}", no)
        table[ref] = parse_simplex(toks[3][1], no)
    assign = []
    for d in range(len(dom.counts)):
        row = []
        for g in range(dom.counts[d]):
            ref = SimplexRef(d, g)
            if ref not in table:
                raise ParseError(f"missing assignment for generator {d}:{g}")
            row.append(table.pop(ref))
        assign.append(tuple(row))
    if table:
        ref = next(iter(table))
        raise ParseError(f"assignment for unknown generator {ref.dim}:{ref.index}")
    try:
        return check_map(SimplicialMap(dom, cod, tuple(assign)))
    except ValueError as e:
        raise ParseError(str(e))


def format_assignments(f: SimplicialMap) -> str:
    """Flat one-line assignment list, generators in canonical order."""
    return " ".join(format_simplex(f.assign[d][g])
                    for d in range(len(f.dom.counts))
                    for g in range(f.dom.counts[d]))


# ---------------------------------------------------------------------------
# Attaching squares
# ---------------------------------------------------------------------------

def format_square(sq: AttachmentSquare) -> str:
    return (f"square n={sq.n}"
            f" attach[{format_assignments(sq.attach)}]"
            f" disk[{format_assignments(sq.disk)}]")


_SQUARE_RE = re.compile(r"^square n=(\d+) attach\[(.*)\] disk\[(.*)\]$")
_TOKENS_RE = re.compile(r"\([^)]*\)")


def parse_square(line, stage_prev, target, line_no=None) -> AttachmentSquare:
    from .core import boundary_simplex, standard_simplex

    m = _SQUARE_RE.match(line.strip())
    if not m:
        raise ParseError(f"malformed square line {line!r}", line_no)
    n = int(m.group(1))
    bnd = boundary_simplex(n)
    dsk = standard_simplex(n)

    def unflatten(dom, cod, text):
        toks = _TOKENS_RE.findall(text)
        if len(toks) != dom.total_generators:
            raise ParseError(
                f"expected {dom.total_generators} assignments, got {len(toks)}",
                line_no)
        it = iter(toks)
        assign = tuple(
            tuple(parse_simplex(next(it), line_no) for _ in range(dom.counts[d]))
            for d in range(len(dom.counts)))
        return SimplicialMap(dom, cod, assign)

    return AttachmentSquare(n, unflatten(bnd, stage_prev, m.group(2)),
                            unflatten(dsk, target, m.group(3)))


# ---------------------------------------------------------------------------
# Tower directories
# ---------------------------------------------------------------------------

def save_tower(tower, path):
    """Serialize a tower to a directory (deterministic, bit-exact)."""
    os.makedirs(path, exist_ok=True)

    def write(name, text):
        with open(os.path.join(path, name), "w") as fh:
            fh.write(text)

    write("meta.txt", f"tower {FORMAT_VERSION}\nvariant {tower.variant}\n"
                      f"cap {tower.cap}\n")
    write("input.sset", format_sset(tower.A))
    write("target.sset", format_sset(tower.B))
    write("input_map.smap", format_smap(tower.f))
    for n in range(tower.cap + 1):
        write(f"stage_{n}.sset", format_sset(tower.stages[n]))
        write(f"include_{n}.smap", format_smap(tower.inclusions[n]))
        write(f"project_{n}.smap", format_smap(tower.projections[n]))
        if n >= 1:
            manifest = "".join(format_square(sq) + "\n" for sq in tower.squares[n])
            write(f"squares_{n}.manifest", manifest)
    write("growth.csv", growth_csv(tower))


def growth_csv(tower) -> str:
    rows = ["stage,dimension,new-cells,cumulative-generators"]
    for n in range(tower.cap + 1):
        if n == 0:
            new = tower.stages[0].count(0) - tower.A.count(0)
        else:
            new = len(tower.squares[n])
        rows.append(f"{n},{n},{new},{tower.stages[n].total_generators}")
    return "\n".join(rows) + "\n"


def load_tower(path):
    from .factorization import Tower

    def read(name):
        try:
            with open(os.path.join(path, name)) as fh:
                return fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read tower file {name}: {exc}") from exc

    meta = {}
    for line in read("meta.txt").splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            meta[parts[0]] = parts[1]
    if meta.get("tower") != FORMAT_VERSION:
        raise ParseError(f"unsupported tower format {meta.get('tower')!r}")
    for key in ("variant", "cap"):
        if key not in meta:
            raise ParseError(f"meta.txt has no {key!r} line")
    try:
        cap = int(meta["cap"])
    except ValueError:
        cap = -1
    if cap < 0:
        raise ParseError(f"meta.txt: cap must be a non-negative integer,"
                         f" got {meta['cap']!r}")
    variant = meta["variant"]
    A = parse_sset(read("input.sset"))
    B = parse_sset(read("target.sset"))
    f = parse_smap(read("input_map.smap"), A, B)
    stages = []
    inclusions = []
    projections = []
    squares = [[]]
    prev = A
    for n in range(cap + 1):
        stage = parse_sset(read(f"stage_{n}.sset"))
        stages.append(stage)
        inclusions.append(parse_smap(read(f"include_{n}.smap"), prev, stage))
        projections.append(parse_smap(read(f"project_{n}.smap"), stage, B))
        if n >= 1:
            lines = read(f"squares_{n}.manifest").splitlines()
            squares.append([parse_square(line, stages[n - 1], B, i + 1)
                            for i, line in enumerate(lines) if line.strip()])
        prev = stage
    return Tower(A=A, B=B, f=f, cap=cap, variant=variant, stages=stages,
                 inclusions=inclusions, projections=projections, squares=squares)
