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

A square line is ``square n=<n> attach[<token> ...] disk[<token> ...]``,
the attaching map and the disk map by their generator assignments.  It
is read against the ``SquareTable`` of its stage: ``format_square`` is
the table's ``line``, which also makes the cell labels, and
``parse_square`` returns the table's square.

A tower directory is canonical: ``tower_files`` is the one definition of
its bytes, and every file but ``meta.txt`` and the three inputs is a
function of those four.  ``load_tower(path, upto=k)`` therefore parses
only the inputs, replays stages 0..k and refuses the directory if any of
their files differs byte for byte from the replay; stage files above k
are not read.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache
from itertools import chain, islice

from .core import Simplex, SimplexRef, SimplicialMap, SimplicialSet, ValidationError
from .core import validate
from .homsearch import DEFAULT_BUDGET, AttachmentSquare, SquareTable

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


# Tokens repeat across the lines of the .sset and .smap inputs that each
# command parses (a tower directory is replayed, not parsed), and a
# Simplex is immutable, so each distinct token is parsed once per process.
# A bad token raises, and lru_cache keeps no entry for it.
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

# The characters at which ``str.splitlines``, and so ``parse_sset``, ends a line.
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _gen_lines(X: SimplicialSet):
    """X's generator lines, one list per dimension.  A label that holds a
    line break would be cut in two when read, so it is refused."""
    rows = []
    for d, c in enumerate(X.counts):
        rows.append([])
        for g, label in enumerate(X.labels[d]):
            parts = [f"gen {d}:{g}"]
            if label is not None:
                if _LINE_BREAK.search(label):
                    raise ValidationError(
                        f"generator {d}:{g}: label {label!r} holds a line break")
                parts.append(f"label {_quote(label)}")
            if d >= 1:
                parts.append("faces " + " ".join(map(format_simplex, X.faces[d][g])))
            rows[d].append(" ".join(parts) + "\n")
    return rows


def _batched(lines, count, size=1024):
    """The first ``count`` lines, joined ``size`` at a time."""
    for i in range(0, count, size):
        yield "".join(lines[i:min(i + size, count)])


def _sset_chunks(counts, rows):
    """A set's text in pieces, from its counts and rows of generator lines."""
    yield f"sset {FORMAT_VERSION}\ndims {len(counts)}\n"
    for d, c in enumerate(counts):
        yield f"dim {d} count {c}\n"
        yield from _batched(rows[d], c)


def format_sset(X: SimplicialSet) -> str:
    return "".join(_sset_chunks(X.counts, _gen_lines(X)))


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

    # rows grow per dim header: a ``dims`` too large for the input runs out of lines
    counts, faces, labels = [], [], []
    for d in range(ndims):
        no, cline = expect("dim header")
        ctoks = cline.split()
        if (len(ctoks) != 4 or ctoks[0] != "dim" or ctoks[2] != "count"
                or not _is_count(ctoks[1]) or not _is_count(ctoks[3])
                or int(ctoks[1]) != d):
            raise ParseError(f"expected 'dim {d} count <c>'", no)
        counts.append(int(ctoks[3]))
        faces.append([])
        labels.append([])
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

def _map_lines(assign):
    """The assignment lines of a map table, one list per dimension."""
    return [[f"gen {d}:{g} -> {format_simplex(s)}\n" for g, s in enumerate(row)]
            for d, row in enumerate(assign)]


def _smap_chunks(counts, rows):
    """The text of a map from a set with these counts, as ``_sset_chunks``."""
    yield f"smap {FORMAT_VERSION}\n"
    for row, c in zip(rows, counts):
        yield from _batched(row, c)


def format_smap(f: SimplicialMap) -> str:
    return "".join(_smap_chunks(f.dom.counts, _map_lines(f.assign)))


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


# ---------------------------------------------------------------------------
# Attaching squares
# ---------------------------------------------------------------------------

def format_square(sq: AttachmentSquare) -> str:
    """The square's line, its table's ``line``, which is its cell's label."""
    return sq.table.line(sq.facets, sq.top)


_SQUARE_RE = re.compile(r"^square n=(\d+) attach\[(.*)\] disk\[(.*)\]$")
_TOKENS_RE = re.compile(r"\([^)]*\)")


def parse_square(line, table: SquareTable, line_no=None) -> AttachmentSquare:
    """The square of ``table`` that ``line`` names.

    Every token must be one of the table's candidates, and the rows must
    be the faces of the square's facets (the top row of ``attach``, in
    reverse) and of its disk (the last token of ``disk``).
    """
    from .core import boundary_simplex, standard_simplex

    m = _SQUARE_RE.match(line.strip())
    if not m:
        raise ParseError(f"malformed square line {line!r}", line_no)
    n = int(m.group(1))
    if n != table.n:
        raise ParseError(f"square of dimension {n} in a table of dimension {table.n}",
                         line_no)

    def candidate_ranks(dom, rank, text):
        toks = _TOKENS_RE.findall(text)
        if len(toks) != dom.total_generators:
            raise ParseError(
                f"expected {dom.total_generators} assignments, got {len(toks)}",
                line_no)
        dims = [d for d, c in enumerate(dom.counts) for _ in range(c)]
        try:
            return tuple(rank[d][parse_simplex(t, line_no)] for d, t in zip(dims, toks))
        except KeyError:
            raise ParseError("a token is not one of the table's candidates",
                             line_no) from None

    attach = candidate_ranks(boundary_simplex(n), table.rank_a, m.group(2))
    disk = candidate_ranks(standard_simplex(n), table.rank_b, m.group(3))
    facets, top = attach[:-n - 2:-1], disk[-1]
    if attach != table.attach_flat(facets) or disk != table.yoneda_b[top]:
        raise ParseError("rows are not the faces of a square's facets and disk",
                         line_no)
    return AttachmentSquare(table, facets, top)


# ---------------------------------------------------------------------------
# Tower directories
# ---------------------------------------------------------------------------

def tower_files(tower):
    """The files of a tower directory in write order, as (name, chunks of text)."""
    lines = _TowerLines(tower.f)
    yield from lines.input_files(tower.variant, tower.cap)
    for n in range(tower.cap + 1):
        yield from lines.stage_files(tower, n)
    yield "growth.csv", (growth_csv(tower),)


class _TowerLines:
    """The lines of a tower's files, kept from one stage to the next.

    A tower only appends, so ``gens`` and ``proj``, the lines of a stage
    and of its projection per dimension, grow by the lines of each stage's
    new cells, made from the tokens of their squares' table; a file reads
    each row up to its count.  A square's label has no ``"`` or backslash.
    """

    def __init__(self, f: SimplicialMap):
        self.f, self.gens, self.target = f, _gen_lines(f.dom), _gen_lines(f.cod)
        self.proj = _map_lines(f.assign)

    def input_files(self, variant, cap):
        yield "meta.txt", (f"tower {FORMAT_VERSION}\nvariant {variant}\ncap {cap}\n",)
        yield "input.sset", _sset_chunks(self.f.dom.counts, self.gens)
        yield "target.sset", _sset_chunks(self.f.cod.counts, self.target)
        yield "input_map.smap", _smap_chunks(self.f.dom.counts, self.proj)

    def stage_files(self, tower, n):
        X, below = tower.stages[n], (tower.stages[n - 1] if n else tower.A)
        old, labels = below.count(n), []
        for rows in (self.gens, self.proj):
            rows.extend([] for _ in range(len(rows), n + 1))
        if n == 0 and X.counts:  # the new vertices, after A's generators
            self.gens[0] += _gen_lines(X)[0][old:]
            self.proj[0] += _map_lines(tower.projections[0].assign)[0][old:]
        elif tower.squares[n]:
            row = tower.squares[n]
            new = islice(X.labels[n], old, None)  # each label made as it is written
            for g, (xs, b, label) in enumerate(zip(row.facets, row.tops, new), old):
                faces = " ".join(map(row.table.tokens_a[n - 1].__getitem__, xs))
                labels.append(label + "\n")
                self.gens[n].append(f'gen {n}:{g} label "{label}" faces {faces}\n')
                self.proj[n].append(f"gen {n}:{g} -> {row.table.tokens_b[n][b]}\n")
        yield f"stage_{n}.sset", _sset_chunks(X.counts, self.gens)
        yield f"include_{n}.smap", _smap_chunks(below.counts, [
            [f"gen {d}:{g} -> (|{d}:{g})\n" for g in range(c)]
            for d, c in enumerate(below.counts)])
        yield f"project_{n}.smap", _smap_chunks(X.counts, self.proj)
        if n >= 1:  # the new cells' labels, each ending its line
            yield f"squares_{n}.manifest", _batched(labels, len(labels))


def save_tower(tower, path):
    """Serialize a tower to a directory (deterministic, bit-exact), a chunk at
    a time; a label that cannot be written is refused before anything is."""
    files = tower_files(tower)
    first = next(files)  # formats A's and B's lines, which checks their labels
    os.makedirs(path, exist_ok=True)
    for name, chunks in chain([first], files):
        with open(os.path.join(path, name), "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def growth_csv(tower) -> str:
    """One row per stage.  A tower only appends, so stage n's new cells are
    the n-generators it has beyond the stage below it (A, below stage 0)."""
    rows = ["stage,dimension,new-cells,cumulative-generators"]
    for n, (below, X) in enumerate(zip([tower.A, *tower.stages], tower.stages)):
        rows.append(f"{n},{n},{X.count(n) - below.count(n)},{X.total_generators}")
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
    """(variant, cap, text) from a tower directory's ``meta.txt``, checked."""
    from .factorization import VARIANTS

    text = read_text(os.path.join(path, "meta.txt"), "tower file meta.txt")
    meta = {}
    for line in text.splitlines():
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
    return meta["variant"], cap, text


def load_tower(path, upto=None, budget=DEFAULT_BUDGET, *, _meta=None):
    """Load stages 0..upto (default: all) of a tower directory by replaying it.

    A tower is a function of its inputs, so only ``input.sset``,
    ``target.sset`` and ``input_map.smap`` are parsed.  The construction
    is run again under ``budget``, one stage at a time, and each stage's
    files must equal the stored ones byte for byte before the next stage
    is built; the first file that differs is a ParseError.  Stage files
    above ``upto`` are not read.  The tower returned has ``cap == upto``.
    ``_meta`` is ``tower_meta(path)`` if the caller has read it.
    """
    from .factorization import tower_stages

    variant, cap, meta = _meta or tower_meta(path)
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

    texts = {"meta.txt": meta}
    for name in ("input.sset", "target.sset", "input_map.smap"):
        texts[name] = read_text(os.path.join(path, name), f"tower file {name}")

    def check(files, prefix=False):
        for name, chunks in files:  # an input is compared with the text read
            if not ("".join(chunks) == texts[name] if name in texts
                    else _stored_as(os.path.join(path, name), name, chunks, prefix)):
                raise ParseError(
                    f"tower file {name} is not the replay of its inputs")

    A = parse_sset(texts["input.sset"])
    B = parse_sset(texts["target.sset"])
    f = parse_smap(texts["input_map.smap"], A, B)
    lines = _TowerLines(f)
    check(lines.input_files(variant, cap))
    for n, tower in enumerate(tower_stages(f, k, variant, budget)):
        check(lines.stage_files(tower, n))
    # the stored table goes on past k when k < cap
    check([("growth.csv", (growth_csv(tower),))], prefix=k < cap)
    return tower


def _stored_as(path, name, chunks, prefix=False):
    """Does the file hold the text of ``chunks`` (with ``prefix``, begin with
    it)?  It is read and compared a chunk at a time, not held whole."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            for chunk in chunks:
                if fh.read(len(chunk)) != chunk:
                    return False
            return prefix or not fh.read(1)
    except OSError as exc:
        raise ParseError(f"cannot read tower file {name}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"tower file {name} is not valid UTF-8") from None
