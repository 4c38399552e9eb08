import hashlib
import os
import random

import pytest

import cwtower.factorization
from cwtower import (
    BudgetExceeded,
    Simplex,
    SimplexRef,
    SimplicialSet,
    boundary_inclusion,
    boundary_simplex,
    build_tower,
    cw_tower,
    enumerate_maps,
    format_smap,
    format_square,
    format_sset,
    standard_simplex,
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

from util import SEED, random_one_dim_target, vertex_with_loop


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
            prev, B = T.stages[n - 1], T.B
            for sq in T.squares[n]:
                line = format_square(sq)
                assert parse_square(line, prev, B) == sq
                assert format_square(parse_square(line, prev, B)) == line

    def test_bad_line(self):
        T = cw_tower(standard_simplex(0), 1)
        with pytest.raises(ParseError):
            parse_square("square n=1 attach[] oops[]", T.stages[0], T.B)


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


def tree_sha256(root):
    """sha256 over the sorted relative paths and bytes of a directory."""
    h = hashlib.sha256()
    for dirpath, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


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

    def test_upto_truncates(self, circle_dir):
        T, path = circle_dir
        for k in range(3):
            Tk = load_tower(path, upto=k)
            assert Tk.cap == k
            assert Tk == build_tower(T.A, T.f, k)
        for k in (-1, 3):
            with pytest.raises(ParseError, match=f"stage {k} is out of range 0..2"):
                load_tower(path, upto=k)

    def test_manifest_is_the_square_lines(self, circle_dir):
        T, path = circle_dir
        files = dict(tower_files(T))
        for n in (1, 2):
            assert files[f"squares_{n}.manifest"] == "".join(
                format_square(sq) + "\n" for sq in T.squares[n])
        for name, text in files.items():
            assert (path / name).read_text() == text, name

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
        assert load_tower(path, upto=1) == build_tower(T.A, T.f, 1)
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
