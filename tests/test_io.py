import dataclasses
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwtower.factorization
import cwtower.textio
from cwtower import (
    AttachmentSquare,
    BudgetExceeded,
    Simplex,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    ValidationError,
    boundary_inclusion,
    boundary_simplex,
    build_tower,
    cw_tower,
    enumerate_maps,
    format_smap,
    format_square,
    format_sset,
    standard_simplex,
    validate,
)
from cwtower.textio import (
    ParseError,
    format_simplex,
    growth_csv,
    load_tower,
    parse_simplex,
    parse_smap,
    parse_square,
    parse_sset,
    save_tower,
    tower_files,
)

from cwtower.cli import main

from util import (
    SEED,
    oracle_square_line,
    random_one_dim_target,
    tree_sha256,
    vertex_with_loop,
)


class TestSimplexTokens:
    def test_round_trip(self):
        for s in (Simplex((), SimplexRef(0, 3)),
                  Simplex((1, 0), SimplexRef(0, 0)),
                  Simplex((3,), SimplexRef(3, 12))):
            assert parse_simplex(format_simplex(s)) == s

    def test_empty_word_form(self):
        assert format_simplex(Simplex((), SimplexRef(2, 1))) == "(|2:1)"

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_simplex("(s_0 | nope)", line=7)

    def test_tokens_parsed_once_errors_keep_their_line(self):
        assert parse_simplex("(s_1 s_0|0:2)") is parse_simplex("(s_1 s_0|0:2)")
        for line in (3, 9):  # a bad token is not cached with its first line
            with pytest.raises(ParseError, match=f"^line {line}: invalid simplex"):
                parse_simplex("(s_0 s_1|0:0)", line)


class TestSsetFormat:
    def round_trip(self, X):
        text = format_sset(X)
        assert parse_sset(text) == X
        assert format_sset(parse_sset(text)) == text

    def test_standard_objects(self):
        for X in (standard_simplex(0), standard_simplex(2),
                  boundary_simplex(2), boundary_simplex(3),
                  vertex_with_loop()):
            self.round_trip(X)

    def test_random_complexes(self):
        rng = random.Random(SEED)
        for _ in range(25):
            self.round_trip(random_one_dim_target(rng))

    def test_labels_survive_escaping(self):
        X = standard_simplex(1)
        labels = ((('v "zero"', 'v\\1')), ('e #1',))
        Y = type(X)(X.counts, X.faces, (tuple(labels[0]), tuple(labels[1])))
        self.round_trip(Y)

    @pytest.mark.parametrize("label", ['"abc', '"abc\\', '"abc\\"'])
    def test_unterminated_label_names_the_line(self, label):
        text = f"sset v1\ndims 1\ndim 0 count 1\ngen 0:0 label {label}\n"
        with pytest.raises(ParseError, match="^line 4: unterminated quoted label$"):
            parse_sset(text)

    def test_tower_stage_labels(self):
        T = cw_tower(standard_simplex(0), 2)
        self.round_trip(T.stages[2])

    def test_parse_error_carries_line_number(self):
        text = "sset v1\ndims 1\ndim 0 count 1\ngen 0:0 faces (|0:0)\n"
        with pytest.raises(ParseError) as exc:
            parse_sset(text)
        assert exc.value.line == 4  # vertex with a face list

    @pytest.mark.parametrize("text, message", [
        ("sset v1\n", "line 1: unexpected end of input, wanted dims"),
        ("sset v1\ndims 2\n", "line 2: unexpected end of input, wanted dim header"),
        ("sset v1\ndims 99999999999\n", "line 2: unexpected end of input, wanted dim header"),
        ("sset v1\ndims 2\ndim 0 count 1\ngen 0:0\n",
         "line 4: unexpected end of input, wanted dim header"),
        ("sset v1\ndims 1\ndim 0 count 3\ngen 0:0\n",
         "line 4: unexpected end of input, wanted generator"),
        ("sset v1\ndims 3\ndim 0 count 99999999999\n",
         "line 3: unexpected end of input, wanted generator"),
        ("sset v1\ndims 2\ndim 0 count 1\ngen 0:0\ndim 1 count 1\n",
         "line 5: unexpected end of input, wanted generator"),
    ])
    def test_truncated_input(self, text, message):
        # a count larger than the input can hold runs out of lines first
        with pytest.raises(ParseError) as exc:
            parse_sset(text)
        assert str(exc.value) == message

    def test_version_required(self):
        with pytest.raises(ParseError):
            parse_sset("dims 1\ndim 0 count 1\ngen 0:0\n")

    def test_invalid_complex_rejected(self):
        # face refers to a generator that does not exist
        text = ("sset v1\ndims 2\ndim 0 count 1\ndim 1 count 1\n"
                "gen 0:0\ngen 1:0 faces (|0:0) (|0:9)\n")
        with pytest.raises(ParseError):
            parse_sset(text)

    def test_comments_and_blank_lines_ignored(self):
        X = boundary_simplex(2)
        text = "# header\n\n" + format_sset(X).replace("\n", "\n# note\n", 1)
        assert parse_sset(text) == X


# str.splitlines breaks a line at each of these, so a label holding one
# does not survive the line-based format
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
LABELS = st.none() | st.text(st.sampled_from('"\\# é') | st.characters(
    exclude_characters=LINE_BREAKS), max_size=6)


class TestLineBreakLabels:
    """A label that holds a line break would be cut in two when read, so it
    is refused, by generator, before anything is written."""

    @staticmethod
    def point(label):
        return SimplicialSet.build([1], [[()]], [[label]])

    @pytest.mark.parametrize("brk", list(LINE_BREAKS))
    def test_format_refuses(self, brk):
        assert f"a{brk}b".splitlines() == ["a", "b"]
        with pytest.raises(ValidationError,
                           match="^generator 0:0: label .* holds a line break$"):
            format_sset(self.point(f"a{brk}b"))

    def test_save_writes_nothing(self, tmp_path):
        A, pt = self.point("a\nb"), standard_simplex(0)
        T = build_tower(enumerate_maps(A, pt)[0], 1)
        with pytest.raises(ValidationError,
                           match=r"^generator 0:0: label 'a\\nb' holds a line break$"):
            save_tower(T, tmp_path / "t")
        assert not (tmp_path / "t").exists()
        with pytest.raises(ValidationError, match="^generator 0:0: label"):
            save_tower(cw_tower(self.point("a\u2028b"), 1), tmp_path / "t")
        assert not (tmp_path / "t").exists()


class TestSsetRoundTrip:
    @pytest.mark.parametrize("relabel", [False, True], ids=["stage-labels", "random-labels"])
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(rng=st.randoms(use_true_random=False), cap=st.integers(0, 2), data=st.data())
    def test_tower_stages(self, relabel, rng, cap, data):
        for X in cw_tower(random_one_dim_target(rng), cap).stages:
            if relabel:
                X = SimplicialSet(X.counts, X.faces, tuple(
                    data.draw(st.lists(LABELS, min_size=c, max_size=c)) for c in X.counts))
            assert parse_sset(format_sset(X)) == X


class TestSmapFormat:
    def test_round_trip(self):
        f = boundary_inclusion(2)
        text = format_smap(f)
        g = parse_smap(text, f.dom, f.cod)
        assert g == f

    def test_degenerate_assignments(self):
        f = enumerate_maps(boundary_simplex(2), vertex_with_loop())[3]
        assert parse_smap(format_smap(f), f.dom, f.cod) == f

    def test_non_simplicial_rejected(self):
        f = boundary_inclusion(2)
        text = format_smap(f).replace("(|1:0)", "(|1:1)", 1)
        with pytest.raises(ParseError):
            parse_smap(text, f.dom, f.cod)

    def test_missing_generator_rejected(self):
        f = boundary_inclusion(2)
        lines = [l for l in format_smap(f).splitlines() if "0:2" not in l]
        with pytest.raises(ParseError):
            parse_smap("\n".join(lines), f.dom, f.cod)


class TestSquareFormat:
    def test_round_trip(self):
        T = cw_tower(standard_simplex(0), 2)
        for n in (1, 2):
            for sq in T.squares[n]:
                line = format_square(sq)
                assert line == oracle_square_line(n, sq.attach, sq.disk)
                assert parse_square(line, sq.table) == sq
                assert format_square(parse_square(line, sq.table)) == line

    def test_bad_line(self):
        T = cw_tower(standard_simplex(0), 2)
        table = T.squares[1][0].table
        with pytest.raises(ParseError, match="malformed square line"):
            parse_square("square n=1 attach[] oops[]", table)
        with pytest.raises(ParseError, match="square of dimension 2 in a table of dimension 1"):
            parse_square(format_square(T.squares[2][0]), table)
        with pytest.raises(ParseError, match="expected 2 assignments, got 1"):
            parse_square("square n=1 attach[(|0:0)] disk[(|0:0) (|0:0) (s_0|0:0)]", table)

    def test_refuses_rows_off_the_faces(self):
        # edited lines of real squares: each token is a simplex of the
        # right dimension, but the line names no square of the table
        T = cw_tower(standard_simplex(0), 3)
        sq = T.squares[3][0]
        a, d = sq.attach, sq.disk
        other = next(s for s in T.squares[3] if s.attach.assign[1] != a.assign[1])
        lower = SimplicialMap(a.dom, a.cod, (a.assign[0], other.attach.assign[1], a.assign[2]))
        with pytest.raises(ParseError, match="not the faces"):
            parse_square(oracle_square_line(3, lower, d), sq.table)
        # a disk on a generator the target does not have
        away = SimplicialMap(d.dom, d.cod, d.assign[:-1] + ((Simplex((), SimplexRef(3, 0)),),))
        with pytest.raises(ParseError, match="not one of the table's candidates"):
            parse_square(oracle_square_line(3, a, away), sq.table)
        # the interval's edge as a disk, with its two vertices swapped
        edge = next(s for s in cw_tower(standard_simplex(1), 1).squares[1]
                    if s.disk.assign[1] == (Simplex((), SimplexRef(1, 0)),))
        vs = edge.disk.assign[0]
        swapped = SimplicialMap(edge.disk.dom, edge.disk.cod, (vs[::-1], edge.disk.assign[1]))
        assert vs[0] != vs[1]
        with pytest.raises(ParseError, match="not the faces"):
            parse_square(oracle_square_line(1, edge.attach, swapped), edge.table)


# sha256 of the cap-3 tower directories as written when squares were found
# by pairing enumerate_maps results (the order oracle in tests/util.py)
GOLDEN_CAP3 = {
    "point": "433a58a4fb4144de801c830f69bdd50f80d7931de60d018ba5dcf2196982d11f",
    "interval": "00c67d7cb22541c35e23acd90c3f8f8bdc0ce212059cae2977cf3b494878132a",
    "circle": "163e4a1e41d70bff84e270030537826a5de621e453318899484bc219db4fd766",
    "disk": "bab16d27054a3cdce2dd6339d94d7242a03fbf459f688c7f2ea7fd06ce16238f",
}

# the cap-3 circle directory of the cellular variant, as written when that
# variant filtered the squares of each stage before attaching them
GOLDEN_CAP3_CELLULAR_CIRCLE = (
    "0ba1162ad69a7d291d7c5381e4cf3fd36be4f97b978d8d65412ab796f1d19e37")


# the point cap-4 directory (57,629 stage-4 cells), as written when squares
# held SimplicialMaps and labels came from format_square
GOLDEN_CAP4_POINT = "c345760f734ce4254394818559548b5433d7e01b202a7eebb615a0cb3c9185fe"


class TestTowerDirectory:
    @pytest.mark.parametrize("name, B", [
        ("point", standard_simplex(0)), ("interval", standard_simplex(1)),
        ("circle", boundary_simplex(2)), ("disk", standard_simplex(2))],
        ids=["point", "interval", "circle", "disk"])
    def test_golden_digest_cap_3(self, tmp_path, name, B):
        save_tower(cw_tower(B, 3), tmp_path / name)
        assert tree_sha256(tmp_path / name) == GOLDEN_CAP3[name]

    def test_golden_digest_cap_3_cellular(self, tmp_path):
        save_tower(cw_tower(boundary_simplex(2), 3, "cellular"), tmp_path / "c")
        assert tree_sha256(tmp_path / "c") == GOLDEN_CAP3_CELLULAR_CIRCLE

    def test_golden_digest_point_cap_4(self, tmp_path):
        T = cw_tower(standard_simplex(0), 4, budget=10**9)
        save_tower(T, tmp_path / "p4")
        assert tree_sha256(tmp_path / "p4") == GOLDEN_CAP4_POINT
        # each stage's report, read off its new cells, is the full walk's
        for n, X in enumerate(T.stages):
            assert X.checked_report == ()
            assert ("validation_report" in vars(X)) == (n == 0)
            assert validate(X) == []

    def test_save_load_round_trip(self, tmp_path):
        T = cw_tower(boundary_simplex(2), 2)
        save_tower(T, tmp_path / "tower")
        T2 = load_tower(tmp_path / "tower")
        assert T2.cap == T.cap and T2.variant == T.variant
        for n in range(T.cap + 1):
            assert T2.stages[n] == T.stages[n]
            assert T2.inclusions[n] == T.inclusions[n]
            assert T2.projections[n] == T.projections[n]
            assert T2.squares[n] == T.squares[n]

    def test_expected_files_exist(self, tmp_path):
        T = cw_tower(standard_simplex(0), 1)
        out = tmp_path / "t"
        save_tower(T, out)
        for name in ("meta.txt", "input.sset", "target.sset",
                     "input_map.smap", "stage_0.sset", "stage_1.sset",
                     "include_0.smap", "include_1.smap",
                     "project_0.smap", "project_1.smap",
                     "squares_1.manifest", "growth.csv"):
            assert (out / name).exists(), name

    def test_growth_csv_point(self):
        T = cw_tower(standard_simplex(0), 2)
        assert growth_csv(T).splitlines() == [
            "stage,dimension,new-cells,cumulative-generators",
            "0,0,1,1",
            "1,1,1,2",
            "2,2,8,10",
        ]

    def test_growth_csv_circle(self):
        T = cw_tower(boundary_simplex(2), 2)
        assert growth_csv(T).splitlines() == [
            "stage,dimension,new-cells,cumulative-generators",
            "0,0,3,3",
            "1,1,6,9",
            "2,2,36,45",
        ]

    def test_load_missing_dir(self, tmp_path):
        with pytest.raises(ParseError):
            load_tower(tmp_path / "nothing")

    @pytest.mark.parametrize("meta, message", [
        ("tower v1\nvariant all-maps\ncap two\n", "cap must be a non-negative integer"),
        ("tower v1\nvariant all-maps\ncap -1\n", "cap must be a non-negative integer"),
        ("tower v1\nvariant all-maps\n", "no 'cap' line"),
        ("tower v1\ncap 1\n", "no 'variant' line"),
    ])
    def test_malformed_meta(self, tmp_path, meta, message):
        save_tower(cw_tower(standard_simplex(0), 1), tmp_path / "t")
        (tmp_path / "t" / "meta.txt").write_text(meta)
        with pytest.raises(ParseError, match=message):
            load_tower(tmp_path / "t")


class TestReplay:
    """A tower directory is loaded by running the construction again."""

    @pytest.fixture
    def circle_dir(self, tmp_path):
        T = cw_tower(boundary_simplex(2), 2)
        save_tower(T, tmp_path / "t")
        return T, tmp_path / "t"

    def test_load_equals_saved_tower(self, circle_dir, tmp_path):
        T, path = circle_dir
        assert load_tower(path) == T
        C = cw_tower(boundary_simplex(2), 2, "cellular")
        save_tower(C, tmp_path / "c")
        assert load_tower(tmp_path / "c") == C

    def test_equality_compares_no_squares(self, tmp_path, monkeypatch):
        # the stages and projections fix the squares
        T = cw_tower(boundary_simplex(2), 3)
        save_tower(T, tmp_path / "t")

        def refuse(sq, other):
            raise AssertionError("two squares were compared")

        monkeypatch.setattr(AttachmentSquare, "__eq__", refuse)
        assert load_tower(tmp_path / "t") == T
        p = T.projections[3]
        rows = [list(r) for r in p.assign]
        rows[3][0] = rows[3][-1]
        assert rows[3][0] != p.assign[3][0]
        projections = T.projections[:3] + [SimplicialMap(p.dom, p.cod, tuple(map(tuple, rows)))]
        assert dataclasses.replace(T, projections=projections) != T

    def test_each_file_read_once(self, circle_dir, monkeypatch, capsys):
        _, path = circle_dir
        opened, real = [], open

        def counting(file, *args, **kwargs):
            opened.append(os.path.basename(file))
            return real(file, *args, **kwargs)

        monkeypatch.setattr(cwtower.textio, "open", counting, raising=False)
        assert main(["homology", str(path), "--stage", "1"]) == 0
        assert len(opened) == len(set(opened)) == 12 and "stage_2.sset" not in opened
        opened.clear()
        load_tower(path)
        assert len(opened) == len(set(opened)) == 16

    def test_upto_truncates(self, circle_dir):
        T, path = circle_dir
        for k in range(3):
            Tk = load_tower(path, upto=k)
            assert Tk.cap == k
            assert Tk == build_tower(T.f, k)
        for k in (-1, 3):
            with pytest.raises(ParseError, match=f"stage {k} is out of range 0..2"):
                load_tower(path, upto=k)

    def test_manifest_is_the_square_lines(self, circle_dir):
        T, path = circle_dir
        files = {name: "".join(chunks) for name, chunks in tower_files(T)}
        for n in (1, 2):
            assert files[f"squares_{n}.manifest"] == "".join(
                oracle_square_line(n, sq.attach, sq.disk) + "\n" for sq in T.squares[n])
        for name, text in files.items():
            assert (path / name).read_text() == text, name

    @pytest.mark.parametrize("variant", ["all-maps", "cellular"])
    def test_stage_files_are_the_formatted_stages(self, variant):
        # the files are made from the table's tokens, line by line; the
        # generic formatters of the stages and maps are the reference
        A = standard_simplex(2)
        for T in (cw_tower(standard_simplex(1), 3, variant),
                  build_tower(enumerate_maps(A, boundary_simplex(2))[-1], 2, variant)):
            files = {name: "".join(chunks) for name, chunks in tower_files(T)}
            assert files["input.sset"] == format_sset(T.A)
            for n in range(T.cap + 1):
                assert files[f"stage_{n}.sset"] == format_sset(T.stages[n])
                assert files[f"include_{n}.smap"] == format_smap(T.inclusions[n])
                assert files[f"project_{n}.smap"] == format_smap(T.projections[n])

    def test_empty_stages_give_empty_manifests(self, tmp_path):
        T = cw_tower(SimplicialSet.empty(), 2)
        save_tower(T, tmp_path / "e")
        for n in (1, 2):
            assert (tmp_path / "e" / f"squares_{n}.manifest").read_text() == ""
        assert load_tower(tmp_path / "e") == T

    def test_unknown_variant_rejected(self, circle_dir):
        _, path = circle_dir
        (path / "meta.txt").write_text("tower v1\nvariant bogus\ncap 2\n")
        with pytest.raises(ParseError, match="unknown variant 'bogus'"):
            load_tower(path)

    def test_stage_above_upto_not_read(self, circle_dir):
        T, path = circle_dir
        for name in ("stage_2.sset", "include_2.smap", "project_2.smap",
                     "squares_2.manifest"):
            (path / name).unlink()
        assert load_tower(path, upto=1) == build_tower(T.f, 1)
        with pytest.raises(ParseError, match="tower file stage_2.sset is missing"):
            load_tower(path)

    def test_missing_stage_refused_before_building(self, circle_dir, monkeypatch):
        _, path = circle_dir
        (path / "meta.txt").write_text("tower v1\nvariant all-maps\ncap 9\n")

        def no_build(*args, **kwargs):
            raise AssertionError("a stage was built")

        monkeypatch.setattr(cwtower.factorization, "tower_stages", no_build)
        with pytest.raises(ParseError, match="tower file stage_3.sset is missing"):
            load_tower(path)

    def test_empty_stage_stops_the_replay(self, circle_dir, monkeypatch):
        _, path = circle_dir
        (path / "meta.txt").write_text("tower v1\nvariant all-maps\ncap 4\n")
        for n in range(5):
            names = [f"stage_{n}.sset", f"include_{n}.smap", f"project_{n}.smap"]
            for name in names + [f"squares_{n}.manifest"] * (n >= 1):
                (path / name).write_text("")
        built = []
        stages = cwtower.factorization.tower_stages

        def counted(*args, **kwargs):
            for T in stages(*args, **kwargs):
                built.append(T.cap)
                yield T

        monkeypatch.setattr(cwtower.factorization, "tower_stages", counted)
        with pytest.raises(ParseError,
                           match="tower file stage_0.sset is not the replay"):
            load_tower(path)
        assert built == [0]

    def test_budget_bounds_the_replay(self, tmp_path):
        T = cw_tower(standard_simplex(0), 3)
        save_tower(T, tmp_path / "p")
        # point cap 3 takes 492 join steps
        assert load_tower(tmp_path / "p", budget=492) == T
        with pytest.raises(BudgetExceeded, match="stage 3, 10 cells built"):
            load_tower(tmp_path / "p", budget=491)

    def test_non_utf8_stage_rejected(self, circle_dir):
        _, path = circle_dir
        text = (path / "stage_1.sset").read_bytes()
        (path / "stage_1.sset").write_bytes(text.replace(b"point", b"p\xffint", 1))
        with pytest.raises(ParseError, match="tower file stage_1.sset is not valid UTF-8"):
            load_tower(path)

    @pytest.mark.parametrize("name, edit", [
        ("stage_2.sset", lambda t: t.replace("faces (|1:0)", "faces (|1:1)", 1)),
        ("include_1.smap", lambda t: t.replace("-> (|0:1)", "-> (|0:2)", 1)),
        ("squares_2.manifest", lambda t: t[t.index("\n") + 1:]),
        ("growth.csv", lambda t: t.replace("2,2,36,45", "2,2,36,46")),
        ("growth.csv", lambda t: t + "3,3,0,45\n"),
        ("input.sset", lambda t: "# comment\n" + t),
        ("meta.txt", lambda t: t + "note hand-edited\n"),
    ])
    def test_edited_file_named(self, circle_dir, name, edit):
        _, path = circle_dir
        text = (path / name).read_text()
        assert edit(text) != text
        (path / name).write_text(edit(text))
        with pytest.raises(ParseError,
                           match=f"tower file {name} is not the replay of its inputs"):
            load_tower(path)
