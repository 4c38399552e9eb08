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

A tower directory is canonical: ``tower_files`` is the one definition of
its bytes, and every file but ``meta.txt`` and the three inputs is a
function of those four.  ``load_tower(path, upto=k)`` therefore parses
only the inputs, replays stages 0..k and refuses the directory if any of
their files differs byte for byte from the replay; stage files above k
are not read.
"""

from __future__ import annotations

import codecs
import os
import re
from functools import lru_cache

from .core import Simplex, SimplexRef, SimplicialMap, SimplicialSet, validate
from .homsearch import DEFAULT_BUDGET, AttachmentSquare

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


def simplex_formatter():
    """``format_simplex`` memoised by object identity, for one call's use.

    A stage shares a few candidate ``Simplex`` objects among many faces
    and squares, so each is formatted once.  The memo holds every simplex
    it has seen, so no id is reused while it lives; it must not outlive
    the call that made it.
    """
    memo = {}

    def token(s):
        hit = memo.get(id(s))
        if hit is None:
            hit = memo[id(s)] = (s, format_simplex(s))
        return hit[1]

    return token


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
    token = simplex_formatter()
    lines = [f"sset {FORMAT_VERSION}", f"dims {len(X.counts)}"]
    for d, c in enumerate(X.counts):
        lines.append(f"dim {d} count {c}")
        for g in range(c):
            parts = [f"gen {d}:{g}"]
            label = X.labels[d][g]
            if label is not None:
                parts.append(f"label {_quote(label)}")
            if d >= 1:
                parts.append("faces " + " ".join(map(token, X.faces[d][g])))
            lines.append(" ".join(parts))
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


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
    token = simplex_formatter()
    lines = [f"smap {FORMAT_VERSION}"]
    for d in range(len(f.dom.counts)):
        for g in range(f.dom.counts[d]):
            lines.append(f"gen {d}:{g} -> {token(f.assign[d][g])}")
    lines.append("")
    return "\n".join(lines)


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


def format_assignments(f: SimplicialMap, token=None) -> str:
    """Flat one-line assignment list, generators in canonical order.

    ``token`` formats one simplex; by default a ``simplex_formatter()``
    of this call.
    """
    token = token or simplex_formatter()
    return " ".join([token(s) for row in f.assign for s in row])


# ---------------------------------------------------------------------------
# Attaching squares
# ---------------------------------------------------------------------------

def format_square(sq: AttachmentSquare, token=None) -> str:
    token = token or simplex_formatter()
    return (f"square n={sq.n}"
            f" attach[{format_assignments(sq.attach, token)}]"
            f" disk[{format_assignments(sq.disk, token)}]")


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

def tower_files(tower):
    """The files of a tower directory, in write order: yields (name, text)."""
    yield from _input_files(tower.variant, tower.cap, tower.f)
    for n in range(tower.cap + 1):
        yield from _stage_files(tower, n)
    yield "growth.csv", growth_csv(tower)


def _input_files(variant, cap, f):
    yield "meta.txt", f"tower {FORMAT_VERSION}\nvariant {variant}\ncap {cap}\n"
    yield "input.sset", format_sset(f.dom)
    yield "target.sset", format_sset(f.cod)
    yield "input_map.smap", format_smap(f)


def _stage_files(tower, n):
    """Stage n's files.  The manifest is the labels of the stage's new
    cells, which ``attach_cells`` made with ``format_square``."""
    yield f"stage_{n}.sset", format_sset(tower.stages[n])
    yield f"include_{n}.smap", format_smap(tower.inclusions[n])
    yield f"project_{n}.smap", format_smap(tower.projections[n])
    if n >= 1:
        new = len(tower.squares[n])
        labels = tower.stages[n].labels[n] if new else ()
        # every label ends its line; no squares give an empty file
        yield f"squares_{n}.manifest", "\n".join((*labels[len(labels) - new:], ""))


def save_tower(tower, path):
    """Serialize a tower to a directory (deterministic, bit-exact)."""
    os.makedirs(path, exist_ok=True)
    for name, text in tower_files(tower):
        with open(os.path.join(path, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def growth_csv(tower) -> str:
    rows = ["stage,dimension,new-cells,cumulative-generators"]
    for n in range(tower.cap + 1):
        if n == 0:
            new = tower.stages[0].count(0) - tower.A.count(0)
        else:
            new = len(tower.squares[n])
        rows.append(f"{n},{n},{new},{tower.stages[n].total_generators}")
    return "\n".join(rows) + "\n"


def read_text(path, what=None):
    """A UTF-8 file's text; an unreadable or undecodable file is a ParseError
    naming ``what`` (default: the path)."""
    what = what or path
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{what} is not valid UTF-8") from None


def tower_meta(path):
    """(variant, cap) from a tower directory's ``meta.txt``, checked."""
    from .factorization import VARIANTS

    meta = {}
    for line in read_text(os.path.join(path, "meta.txt"),
                          "tower file meta.txt").splitlines():
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
    if meta["variant"] not in VARIANTS:
        raise ParseError(f"meta.txt: unknown variant {meta['variant']!r}")
    return meta["variant"], cap


def load_tower(path, upto=None, budget=DEFAULT_BUDGET):
    """Load stages 0..upto (default: all) of a tower directory by replaying it.

    A tower is a function of its inputs, so only ``input.sset``,
    ``target.sset`` and ``input_map.smap`` are parsed.  The construction
    is run again under ``budget``, one stage at a time, and each stage's
    files must equal the stored ones byte for byte before the next stage
    is built; the first file that differs is a ParseError.  Stage files
    above ``upto`` are not read.  The tower returned has ``cap == upto``.
    """
    from .factorization import tower_stages

    variant, cap = tower_meta(path)
    k = cap if upto is None else upto
    if not 0 <= k <= cap:
        raise ParseError(f"stage {k} is out of range 0..{cap}")
    # a meta.txt claiming more stages than the directory holds builds none
    for n in range(k + 1):
        names = [f"stage_{n}.sset", f"include_{n}.smap", f"project_{n}.smap"]
        if n >= 1:
            names.append(f"squares_{n}.manifest")
        for name in names:
            if not os.path.isfile(os.path.join(path, name)):
                raise ParseError(f"tower file {name} is missing")

    def read(name):
        return read_text(os.path.join(path, name), f"tower file {name}")

    def check(files, prefix=False):
        for name, text in files:
            if not _stored_as(os.path.join(path, name), name, text, prefix):
                raise ParseError(
                    f"tower file {name} is not the replay of its inputs")

    A = parse_sset(read("input.sset"))
    B = parse_sset(read("target.sset"))
    f = parse_smap(read("input_map.smap"), A, B)
    check(_input_files(variant, cap, f))
    for n, tower in enumerate(tower_stages(A, f, k, variant, budget)):
        check(_stage_files(tower, n))
    # the stored table goes on past k when k < cap
    check([("growth.csv", growth_csv(tower))], prefix=k < cap)
    return tower


def _stored_as(path, name, text, prefix=False):
    """Does the file hold exactly ``text`` (with ``prefix``, begin with it)?

    The file is decoded and compared a chunk at a time, so no second copy
    of a large stage file is held.
    """
    decode = codecs.getincrementaldecoder("utf-8")().decode
    pos = 0
    try:
        with open(path, "rb") as fh:
            while pos < len(text) or not prefix:
                chunk = fh.read(1 << 20)
                part = decode(chunk, not chunk)
                if prefix:
                    part = part[:len(text) - pos]
                if not text.startswith(part, pos):
                    return False
                pos += len(part)
                if not chunk:
                    break
    except OSError as exc:
        raise ParseError(f"cannot read tower file {name}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"tower file {name} is not valid UTF-8") from None
    return pos == len(text)
