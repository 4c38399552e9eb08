import os

import pytest

import cwtower.factorization
from cwtower import (
    SimplexRef,
    boundary_simplex,
    cw_tower,
    enumerate_maps,
    enumerate_squares,
    format_smap,
    format_sset,
    identity_map,
    standard_simplex,
    subcomplex,
)
from cwtower.cli import main
from cwtower.core import boundary_inclusion
from cwtower.homsearch import Budget


@pytest.fixture
def circle_file(tmp_path):
    p = tmp_path / "circle.sset"
    p.write_text(format_sset(boundary_simplex(2)))
    return str(p)


@pytest.fixture
def point_file(tmp_path):
    p = tmp_path / "point.sset"
    p.write_text(format_sset(standard_simplex(0)))
    return str(p)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


class TestBuild:
    def test_point_growth_output(self, point_file, tmp_path, capsys):
        code = main(["build", point_file, "--out", str(tmp_path / "t")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "stage,dimension,new-cells,cumulative-generators",
            "0,0,1,1",
            "1,1,1,2",
            "2,2,8,10",
        ]

    def test_circle_growth_output(self, circle_file, tmp_path, capsys):
        code = main(["build", circle_file, "--out", str(tmp_path / "t"),
                     "--max-dim", "1"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["0,0,3,3", "1,1,6,9"]

    def test_deterministic_byte_identical(self, circle_file, tmp_path, capsys):
        assert main(["build", circle_file, "--out", str(tmp_path / "a")]) == 0
        assert main(["build", circle_file, "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_with_domain_and_map(self, tmp_path, capsys):
        incl = boundary_inclusion(2)
        dom = tmp_path / "dom.sset"
        cod = tmp_path / "cod.sset"
        smap = tmp_path / "incl.smap"
        dom.write_text(format_sset(incl.dom))
        cod.write_text(format_sset(incl.cod))
        smap.write_text(format_smap(incl))
        code = main(["build", str(cod), "--domain", str(dom), "--map", str(smap),
                     "--out", str(tmp_path / "t"), "--max-dim", "1"])
        assert code == 0
        assert (tmp_path / "t" / "stage_1.sset").exists()

    def test_dot_files(self, point_file, tmp_path, capsys):
        out = tmp_path / "t"
        assert main(["build", point_file, "--out", str(out), "--dot"]) == 0
        assert (out / "skeleton.dot").read_text().startswith("graph skeleton")
        assert (out / "growth.dot").read_text().startswith("digraph growth")

    def test_malformed_input_exit_2_no_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.sset"
        bad.write_text("sset v1\ndims 1\ndim 0 count 1\ngen 9:9\n")
        out = tmp_path / "t"
        assert main(["build", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["build", str(tmp_path / "no.sset"),
                     "--out", str(tmp_path / "t")]) == 2

    def test_domain_without_map_exit_2(self, point_file, tmp_path, capsys):
        assert main(["build", point_file, "--domain", point_file,
                     "--out", str(tmp_path / "t")]) == 2

    def test_high_dim_refused_without_budget(self, point_file, tmp_path, capsys):
        assert main(["build", point_file, "--max-dim", "4",
                     "--out", str(tmp_path / "t")]) == 2

    def test_budget_exhaustion_exit_3(self, point_file, tmp_path, capsys):
        code = main(["build", point_file, "--out", str(tmp_path / "t"),
                     "--budget", "3"])
        assert code == 3
        assert "budget" in capsys.readouterr().err.lower()

    def test_budget_env_var(self, point_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CWTOWER_BUDGET", "3")
        assert main(["build", point_file, "--out", str(tmp_path / "t")]) == 3
        # an explicit flag wins over the environment
        assert main(["build", point_file, "--out", str(tmp_path / "t2"),
                     "--budget", "1000000"]) == 0

    def test_malformed_budget_env_var_exit_2(self, point_file, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setenv("CWTOWER_BUDGET", "abc")
        assert main(["build", point_file, "--out", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "CWTOWER_BUDGET" in err

    def test_budget_bounds_the_whole_build(self, point_file, tmp_path, capsys):
        T = cw_tower(standard_simplex(0), 3)
        steps = []
        for n in (1, 2, 3):
            budget = Budget()
            enumerate_squares(n, T.projections[n - 1], budget)
            steps.append(budget.used)
        # every stage fits the budget on its own, the whole build does not
        limit = max(steps)
        assert sum(steps) > limit
        code = main(["build", point_file, "--out", str(tmp_path / "t"),
                     "--max-dim", "3", "--budget", str(limit)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"budget of {limit} join steps" in err
        assert "stage 3, 10 cells built" in err
        assert main(["build", point_file, "--out", str(tmp_path / "t2"),
                     "--max-dim", "3", "--budget", str(sum(steps))]) == 0


class TestVerify:
    def test_variant_suite(self, circle_file, capsys):
        assert main(["verify", "--suite", "variant", circle_file]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_variant_suite_fails_from_first_non_cellular_stage(
            self, point_file, capsys, never_cellular):
        assert main(["verify", "--suite", "variant", point_file,
                     "--max-dim", "3"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS variant-coincidence stage=0",
            "FAIL variant-coincidence stage=1",
            "FAIL variant-coincidence stage=2",
            "FAIL variant-coincidence stage=3",
        ]

    def test_connectivity_suite(self, point_file, capsys):
        code = main(["verify", "--suite", "connectivity", point_file,
                     "--simply-connected"])
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_subcomplex_suite(self, tmp_path, capsys):
        incl = boundary_inclusion(2)
        a, b, m = tmp_path / "a.sset", tmp_path / "b.sset", tmp_path / "m.smap"
        a.write_text(format_sset(incl.dom))
        b.write_text(format_sset(incl.cod))
        m.write_text(format_smap(incl))
        assert main(["verify", "--suite", "subcomplex",
                     str(a), str(b), str(m)]) == 0
        assert "PASS subcomplex-inclusion" in capsys.readouterr().out

    def test_functor_suite_with_composition(self, tmp_path, capsys):
        from cwtower import identity_map
        incl = boundary_inclusion(2)
        a, b, m = tmp_path / "a.sset", tmp_path / "b.sset", tmp_path / "m.smap"
        i2 = tmp_path / "i.smap"
        a.write_text(format_sset(incl.dom))
        b.write_text(format_sset(incl.cod))
        m.write_text(format_smap(incl))
        i2.write_text(format_smap(identity_map(incl.cod)))
        code = main(["verify", "--suite", "functor", str(a), str(b), str(m),
                     "--then", str(b), str(i2)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS functor identity-law" in out
        assert "PASS functor composition-law" in out

    def test_intersect_suite(self, circle_file, tmp_path, capsys):
        fam = tmp_path / "family.txt"
        fam.write_text("subset 0:0 0:1 1:0\nsubset 0:0 0:2 1:1\n")
        assert main(["verify", "--suite", "intersect", circle_file,
                     str(fam)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS intersection") == 3

    def test_missing_family_exit_2(self, circle_file, capsys):
        assert main(["verify", "--suite", "intersect", circle_file]) == 2

    def test_check_failure_exit_1(self, tmp_path, capsys):
        # collapse circle -> point is not a subcomplex inclusion
        from cwtower import enumerate_maps
        B2 = boundary_simplex(2)
        pt = standard_simplex(0)
        f = enumerate_maps(B2, pt)[0]
        a, b, m = tmp_path / "a.sset", tmp_path / "b.sset", tmp_path / "m.smap"
        a.write_text(format_sset(B2))
        b.write_text(format_sset(pt))
        m.write_text(format_smap(f))
        code = main(["verify", "--suite", "subcomplex", str(a), str(b), str(m),
                     "--max-dim", "1"])
        assert code == 1
        assert "FAIL subcomplex-inclusion stage=0" in capsys.readouterr().out


class TestHomology:
    def test_sset_input(self, circle_file, capsys):
        assert main(["homology", circle_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "degree=0 betti=1 torsion=[] group=Z"
        assert out[1] == "degree=1 betti=1 torsion=[] group=Z"

    def test_tower_input_with_stage(self, point_file, tmp_path, capsys):
        t = tmp_path / "t"
        assert main(["build", point_file, "--out", str(t)]) == 0
        capsys.readouterr()
        assert main(["homology", str(t), "--stage", "2", "--degree", "2"]) == 0
        assert "degree=2 betti=7" in capsys.readouterr().out

    def test_csv_output(self, circle_file, tmp_path, capsys):
        csv = tmp_path / "h.csv"
        assert main(["homology", circle_file, "--csv", str(csv)]) == 0
        assert csv.read_text().splitlines() == [
            "degree,betti,torsion", "0,1,", "1,1,"]

    @pytest.mark.parametrize("body", ["dims \u00b2\n",
                                      "dims 1\ndim 0 count \u00b2\n",
                                      "dims 1\ndim \u00b2 count 1\n"])
    def test_non_ascii_digits_exit_2(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.sset"
        bad.write_text("sset v1\n" + body, encoding="utf-8")
        assert main(["homology", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_no_budget_flag(self, circle_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["homology", circle_file, "--budget", "5"])
        assert exc.value.code == 2

    def test_stage_flag_needs_tower(self, circle_file, capsys):
        assert main(["homology", circle_file, "--stage", "1"]) == 2

    @pytest.mark.parametrize("stage", ["7", "3", "-1"])
    def test_stage_out_of_range_exit_2(self, point_file, tmp_path, capsys, stage):
        t = tmp_path / "t"
        assert main(["build", point_file, "--out", str(t)]) == 0
        capsys.readouterr()
        assert main(["homology", str(t), "--stage", stage]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --stage {stage} is out of range 0..2\n"

    @pytest.mark.parametrize("meta", ["tower v1\nvariant all-maps\ncap two\n",
                                      "tower v1\nvariant all-maps\n",
                                      "tower v1\ncap 2\n"])
    def test_malformed_meta_exit_2(self, point_file, tmp_path, capsys, meta):
        t = tmp_path / "t"
        assert main(["build", point_file, "--out", str(t)]) == 0
        (t / "meta.txt").write_text(meta)
        capsys.readouterr()
        assert main(["homology", str(t)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: meta.txt")
        assert captured.err.count("\n") == 1


def one_error_line(capsys):
    """The stderr of a command that exited 2: exactly one ``error:`` line."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


class TestUntrustedFiles:
    def test_non_utf8_sset_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.sset"
        bad.write_bytes(b"sset v1\ndims \xff\n")
        assert main(["homology", str(bad)]) == 2
        assert "not valid UTF-8" in one_error_line(capsys)

    def test_non_utf8_tower_file_exit_2(self, circle_tower, capsys):
        stage = circle_tower / "stage_1.sset"
        stage.write_bytes(stage.read_bytes().replace(b"point", b"p\xffint", 1))
        assert main(["homology", str(circle_tower)]) == 2
        assert "stage_1.sset" in one_error_line(capsys)


@pytest.fixture
def circle_tower(circle_file, tmp_path, capsys):
    t = tmp_path / "circle-tower"
    assert main(["build", circle_file, "--out", str(t)]) == 0
    capsys.readouterr()
    return t


def edit_lines(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


class TestTamperedTower:
    """A directory that is not the replay of its inputs is refused."""

    def refused(self, path, capsys, name):
        assert main(["homology", str(path)]) == 2
        assert name in one_error_line(capsys)

    def test_deleted_square(self, circle_tower, capsys):
        edit_lines(circle_tower / "squares_2.manifest", lambda ls: ls[:5] + ls[6:])
        self.refused(circle_tower, capsys, "squares_2.manifest")

    def test_non_commuting_square(self, circle_tower, capsys):
        def edit(lines):
            assert lines[1].endswith("disk[(|0:0) (|0:1) (|1:0)]\n")
            return [lines[0], lines[1].replace("(|1:0)]", "(|1:2)]")] + lines[2:]
        edit_lines(circle_tower / "squares_1.manifest", edit)
        self.refused(circle_tower, capsys, "squares_1.manifest")

    def test_swapped_squares(self, circle_tower, capsys):
        edit_lines(circle_tower / "squares_2.manifest",
                   lambda ls: [ls[1], ls[0]] + ls[2:])
        self.refused(circle_tower, capsys, "squares_2.manifest")

    def test_edited_face(self, circle_tower, capsys):
        stage = circle_tower / "stage_2.sset"
        text = stage.read_text()
        stage.write_text(text.replace("faces (|1:0)", "faces (|1:3)", 1))
        self.refused(circle_tower, capsys, "stage_2.sset")

    def test_unknown_variant(self, circle_tower, capsys):
        (circle_tower / "meta.txt").write_text("tower v1\nvariant bogus\ncap 2\n")
        self.refused(circle_tower, capsys, "unknown variant 'bogus'")

    def test_cap_beyond_stored_stages(self, circle_tower, capsys, monkeypatch):
        (circle_tower / "meta.txt").write_text("tower v1\nvariant all-maps\ncap 9\n")

        def no_build(*args, **kwargs):
            raise AssertionError("a stage was built")

        monkeypatch.setattr(cwtower.factorization, "tower_stages", no_build)
        self.refused(circle_tower, capsys, "stage_3.sset is missing")

    def test_replay_budget_from_env(self, point_file, tmp_path, capsys, monkeypatch):
        # point cap 3 takes 492 join steps
        t = tmp_path / "pt"
        assert main(["build", point_file, "--out", str(t), "--max-dim", "3",
                     "--budget", "492"]) == 0
        capsys.readouterr()
        assert main(["homology", str(t)]) == 0
        expected = capsys.readouterr().out
        monkeypatch.setenv("CWTOWER_BUDGET", "492")
        assert main(["homology", str(t)]) == 0
        assert capsys.readouterr().out == expected
        monkeypatch.setenv("CWTOWER_BUDGET", "491")
        assert main(["homology", str(t)]) == 3
        assert "stage 3, 10 cells built" in capsys.readouterr().err
        monkeypatch.setenv("CWTOWER_BUDGET", "abc")
        assert main(["homology", str(t)]) == 2
        assert "CWTOWER_BUDGET" in one_error_line(capsys)

    def test_stages_above_the_request_not_read(self, circle_tower, capsys):
        assert main(["homology", str(circle_tower), "--stage", "1"]) == 0
        intact = capsys.readouterr().out
        for name in ("stage_2.sset", "include_2.smap", "project_2.smap",
                     "squares_2.manifest"):
            (circle_tower / name).unlink()
        assert main(["homology", str(circle_tower), "--stage", "1"]) == 0
        assert capsys.readouterr().out == intact
        assert intact.splitlines() == ["degree=0 betti=1 torsion=[] group=Z",
                                       "degree=1 betti=4 torsion=[] group=Z + Z + Z + Z"]


class TestSuitesAtCap3:
    """The theorem suites where stage 3 is reached."""

    def passes(self, argv, capsys):
        assert main(["verify", *argv, "--max-dim", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines)
        return lines

    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_functor_point_in_interval(self, tmp_path, capsys):
        pt, iv = standard_simplex(0), standard_simplex(1)
        lines = self.passes([
            "--suite", "functor",
            self.write(tmp_path, "pt.sset", format_sset(pt)),
            self.write(tmp_path, "iv.sset", format_sset(iv)),
            self.write(tmp_path, "g.smap", format_smap(enumerate_maps(pt, iv)[0])),
            "--then", str(tmp_path / "iv.sset"),
            self.write(tmp_path, "id.smap", format_smap(identity_map(iv)))], capsys)
        assert len(lines) == 3

    def test_subcomplex_edge_in_circle(self, tmp_path, capsys):
        X = boundary_simplex(2)
        S, incl = subcomplex(X, {SimplexRef(0, 0), SimplexRef(0, 1), SimplexRef(1, 0)})
        assert S.counts == (2, 1)
        self.passes(["--suite", "subcomplex",
                     self.write(tmp_path, "e.sset", format_sset(S)),
                     self.write(tmp_path, "c.sset", format_sset(X)),
                     self.write(tmp_path, "i.smap", format_smap(incl))], capsys)

    def test_intersect_two_edges_of_circle(self, circle_file, tmp_path, capsys):
        fam = self.write(tmp_path, "family.txt",
                         "subset 0:0 0:1 1:0\nsubset 0:0 0:2 1:1\n")
        lines = self.passes(["--suite", "intersect", circle_file, fam], capsys)
        assert len(lines) == 4

    @pytest.mark.parametrize("B", [standard_simplex(0), standard_simplex(1)],
                             ids=["point", "interval"])
    def test_connectivity_simply_connected(self, tmp_path, capsys, B):
        self.passes(["--suite", "connectivity", "--simply-connected",
                     self.write(tmp_path, "b.sset", format_sset(B))], capsys)

    def test_connectivity_circle(self, circle_file, capsys):
        self.passes(["--suite", "connectivity", circle_file], capsys)
