import os
import subprocess
import sys
from pathlib import Path

import pytest

import cwtower.cli
import cwtower.factorization
import cwtower.homsearch as homsearch
from cwtower import (
    SimplexRef,
    SimplicialSet,
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
from cwtower.cli import make_parser
from cwtower.core import boundary_inclusion
from cwtower.homsearch import Budget, SquareTable

from util import tree_sha256


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


@pytest.fixture
def empty_file(tmp_path):
    p = tmp_path / "empty.sset"
    p.write_text(format_sset(SimplicialSet.empty()))
    return str(p)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = Path(full).read_bytes()
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

    def test_with_domain_and_map_digest(self, tmp_path, capsys):
        # stage 0 appends one vertex per target vertex after the domain's
        # generators, which here run up to dimension 1
        incl = boundary_inclusion(2)
        for name, text in (("dom.sset", format_sset(incl.dom)),
                           ("cod.sset", format_sset(incl.cod)), ("incl.smap", format_smap(incl))):
            (tmp_path / name).write_text(text)
        assert main(["build", str(tmp_path / "cod.sset"), "--domain", str(tmp_path / "dom.sset"),
                     "--map", str(tmp_path / "incl.smap"), "--out", str(tmp_path / "t"),
                     "--max-dim", "2"]) == 0
        assert tree_sha256(tmp_path / "t") == (
            "7b22aebe365d0569b3e43181a4394362135b94239438e08df999f9fa6c998b38")

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

    def test_high_dim_needs_a_budget(self, empty_file, tmp_path, capsys):
        argv = ["build", empty_file, "--out", str(tmp_path / "t"), "--max-dim", "4"]
        assert main(argv) == 2
        assert "explicit --budget" in capsys.readouterr().err
        assert main(argv + ["--budget", "10"]) == 0

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

    @pytest.mark.parametrize("out", ["point.sset/x", "point.sset"],
                             ids=["under-a-file", "onto-a-file"])
    def test_unwritable_out_exit_2(self, point_file, capsys, out):
        out = os.path.join(os.path.dirname(point_file), out)
        assert main(["build", point_file, "--out", out]) == 2
        assert "cannot write" in one_error_line(capsys)

    def test_unwritable_dot_exit_2(self, point_file, tmp_path, capsys, monkeypatch):
        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr("cwtower.cli.open", refuse, raising=False)
        out = tmp_path / "t"
        assert main(["build", point_file, "--out", str(out), "--dot"]) == 2
        assert "skeleton.dot: Permission denied" in one_error_line(capsys)

    @pytest.mark.parametrize("flag", [["--budget", "-5"], []], ids=["flag", "env"])
    def test_negative_budget_exit_2(self, point_file, tmp_path, capsys, monkeypatch,
                                    flag):
        monkeypatch.setenv("CWTOWER_BUDGET", "-5")
        assert main(["build", point_file, "--out", str(tmp_path / "t")] + flag) == 2
        assert "must be a non-negative integer" in one_error_line(capsys)
        assert not (tmp_path / "t").exists()

    def test_variant_flag_refused(self, point_file, tmp_path, capsys):
        # there is one construction; the variant suite checks the other's claim
        with pytest.raises(SystemExit) as exc:
            main(["build", point_file, "--variant", "cellular", "--out", str(tmp_path / "t")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --variant" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_budget_beyond_int64(self, circle_file, tmp_path, monkeypatch):
        # a limit of 10**30 overflows int64: the budget stays a Python int
        huge = str(10**30)
        dirs = [tmp_path / name for name in ("default", "flag", "env")]
        assert main(["build", circle_file, "--out", str(dirs[0])]) == 0
        assert main(["build", circle_file, "--out", str(dirs[1]), "--budget", huge]) == 0
        monkeypatch.setenv("CWTOWER_BUDGET", huge)
        assert main(["build", circle_file, "--out", str(dirs[2])]) == 0
        assert len({tree_sha256(d) for d in dirs}) == 1

    def test_zero_budget_stops_at_the_first_step(self, point_file, tmp_path, capsys):
        assert main(["build", point_file, "--out", str(tmp_path / "t"),
                     "--budget", "0"]) == 3
        assert "budget of 0 join steps exceeded: 1 used" in capsys.readouterr().err

    def test_budget_bounds_the_whole_build(self, point_file, tmp_path, capsys):
        T = cw_tower(standard_simplex(0), 3)
        steps = []
        for n in (1, 2, 3):
            budget = Budget()
            enumerate_squares(SquareTable(n, T.projections[n - 1]), budget)
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

    def test_functor_then_inputs_read_before_any_tower(self, point_file, tmp_path, capsys,
                                                       monkeypatch):
        # the second square's map misses a generator: refused before the
        # first tower is built, so no PASS line comes before the error
        def refuse(*args, **kwargs):
            raise AssertionError("a tower was built")

        monkeypatch.setattr(cwtower.cli, "cw_tower", refuse)
        iv, g, h = tmp_path / "iv.sset", tmp_path / "g.smap", tmp_path / "h.smap"
        iv.write_text(format_sset(standard_simplex(1)))
        g.write_text(format_smap(enumerate_maps(standard_simplex(0), standard_simplex(1))[0]))
        h.write_text("smap v1\ngen 0:0 -> (|0:0)\n")
        assert main(["verify", "--suite", "functor", point_file, str(iv), str(g),
                     "--then", str(iv), str(h)]) == 2
        assert tuple(capsys.readouterr()) == (
            "", "error: missing assignment for generator 0:1\n")

    def test_intersect_suite(self, circle_file, tmp_path, capsys):
        fam = tmp_path / "family.txt"
        fam.write_text("subset 0:0 0:1 1:0\nsubset 0:0 0:2 1:1\n")
        assert main(["verify", "--suite", "intersect", circle_file,
                     str(fam)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS intersection") == 3

    def test_variant_flag_refused(self, circle_file, capsys):
        # every suite builds the default towers; --variant is build's alone
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "variant", circle_file, "--variant", "cellular"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --variant" in capsys.readouterr().err

    def test_missing_family_exit_2(self, circle_file, capsys):
        assert main(["verify", "--suite", "intersect", circle_file]) == 2

    def test_high_dim_needs_a_budget(self, empty_file, capsys):
        argv = ["verify", "--suite", "variant", empty_file, "--max-dim", "4"]
        assert main(argv) == 2
        assert "explicit --budget" in capsys.readouterr().err
        assert main(argv + ["--budget", "10"]) == 0

    def test_family_not_face_closed_exit_2(self, circle_file, tmp_path, capsys):
        # a budget of 0 makes any build exit 3: the family is refused first
        fam = tmp_path / "family.txt"
        fam.write_text("subset 0:0 0:1 1:0\nsubset 1:1\n")
        assert main(["verify", "--suite", "intersect", circle_file, str(fam),
                     "--max-dim", "4", "--budget", "0"]) == 2
        assert "error: subset 1: subset is not face-closed" in capsys.readouterr().err

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

    def test_unwritable_csv_exit_2(self, circle_file, tmp_path, capsys):
        csv = tmp_path / "missing" / "h.csv"
        assert main(["homology", circle_file, "--csv", str(csv)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {csv}: No such file or directory\n"

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
        assert captured.err == f"error: stage {stage} is out of range 0..2\n"

    @pytest.mark.parametrize("degree", ["-3", "-1"])
    def test_negative_degree_exit_2(self, circle_file, tmp_path, capsys, degree):
        assert main(["homology", circle_file, "--degree", degree]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --degree {degree} must be >= 0\n"
        t = tmp_path / "t"
        assert main(["build", circle_file, "--max-dim", "1", "--out", str(t)]) == 0
        capsys.readouterr()
        assert main(["homology", str(t), "--degree", degree]) == 2
        assert capsys.readouterr().err == f"error: --degree {degree} must be >= 0\n"

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

    @pytest.mark.parametrize("cap", ["\u0662", "+2", "0_2"])
    def test_meta_cap_takes_ascii_digits_only(self, point_file, tmp_path, capsys, cap):
        # int() reads each of these as 2
        t = tmp_path / "t"
        assert main(["build", point_file, "--out", str(t)]) == 0
        (t / "meta.txt").write_text(f"tower v1\nvariant all-maps\ncap {cap}\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["homology", str(t)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: meta.txt: cap must be a non-negative integer,"
                                f" got {cap!r}\n")


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

    def test_dims_beyond_the_input_exit_2(self, circle_tower, tmp_path, capsys):
        # refused when the lines run out, before a row per dimension is made
        bad = tmp_path / "huge.sset"
        bad.write_text("sset v1\ndims 99999999999\n")
        want = "error: line 2: unexpected end of input, wanted dim header\n"
        assert main(["homology", str(bad)]) == 2
        assert one_error_line(capsys) == want
        (circle_tower / "input.sset").write_text(bad.read_text())
        assert main(["homology", str(circle_tower)]) == 2
        assert one_error_line(capsys) == want

    def test_non_utf8_tower_file_exit_2(self, circle_tower, capsys):
        stage = circle_tower / "stage_1.sset"
        stage.write_bytes(stage.read_bytes().replace(b"point", b"p\xffint", 1))
        assert main(["homology", str(circle_tower)]) == 2
        assert "stage_1.sset" in one_error_line(capsys)


SMAP_BUILD = ["build", "{circle}", "--domain", "{point}", "--map", "{tmp}/map.smap",
              "--out", "{tmp}/t"]
INTERSECT = ["verify", "--suite", "intersect", "{circle}", "{tmp}/family.txt"]
SSET = "sset v1\ndims 2\ndim 0 count 1\ngen 0:0\ndim 1 count 1\n"


class TestInputErrors:
    """Each malformed input exits 2 with exactly its one ``error:`` line.

    A case is (argv, the file it names under tmp_path, that file's text,
    the message); ``{circle}``, ``{point}`` and ``{tmp}`` are filled in.
    """

    @pytest.mark.parametrize("argv, name, text, message", [
        pytest.param(INTERSECT, "family.txt", "# none\n",
                     "family file lists no subsets", id="family-empty"),
        pytest.param(INTERSECT, "family.txt", "subcomplex 0:0\n",
                     "line 1: family lines start with 'subset'", id="family-keyword"),
        pytest.param(INTERSECT, "family.txt", "subset 0:0\nsubset 0:x\n",
                     "line 2: bad generator id '0:x'", id="family-generator"),
        # ids and simplex tokens take ASCII digits only, where int() reads more
        pytest.param(INTERSECT, "family.txt", "subset 0:0_0 +1:0\n",
                     "line 1: bad generator id '0:0_0'", id="family-int-spelling"),
        pytest.param(INTERSECT, "family.txt", "subset 0:0\nsubset 1:0 \u0663:0\n",
                     "line 2: bad generator id '\u0663:0'", id="family-non-ascii"),
        pytest.param(["homology", "{tmp}/bad.sset"], "bad.sset",
                     SSET + "gen 1:0 faces (|0:0) (|\u0660:\u0660)\n",
                     "line 6: malformed simplex token '(|\u0660:\u0660)'", id="sset-non-ascii"),
        pytest.param(SMAP_BUILD, "map.smap", "smap v1\ngen \u0660:\u0660 -> (|0:0)\n",
                     "line 2: bad generator id '\u0660:\u0660'", id="smap-non-ascii"),
        pytest.param(SMAP_BUILD, "map.smap", "smap v1\ngen 0:0 -> (|\u0660:\u0660)\n",
                     "line 2: malformed simplex token '(|\u0660:\u0660)'",
                     id="smap-non-ascii-token"),
        pytest.param(["verify", "--suite", "functor", "{circle}"], None, None,
                     "suite 'functor' needs B.sset B'.sset map.smap", id="suite-inputs"),
        pytest.param(["homology", "{tmp}/bad.sset"], "bad.sset", "# nothing\n",
                     "empty input", id="sset-empty"),
        pytest.param(["homology", "{tmp}/bad.sset"], "bad.sset",
                     "sset v1\ndims 1\ndim 0 count 1\ngen 0:0\ngen 0:1\n",
                     "line 5: trailing content after simplicial set", id="sset-trailing"),
        pytest.param(["homology", "{tmp}/bad.sset"], "bad.sset",
                     SSET + "gen 1:0 faces (|0:0) (|0:5)\n",
                     "invalid simplicial set: generator 1:0 face 1: dangling generator"
                     " reference 0:5", id="sset-invalid"),
        pytest.param(["homology", "{tmp}/bad.sset"], "bad.sset",
                     "sset v1\ndims 1\ndim 0 count 1\ngen 0:0 label\n",
                     "line 4: label needs a quoted string", id="sset-label"),
        pytest.param(["homology", "{tmp}/bad.sset"], "bad.sset",
                     "sset v1\ndims 1\ndim 0 count 1\ngen 0:0 bogus\n",
                     "line 4: unexpected token 'bogus'", id="sset-token"),
        pytest.param(["homology", "{tmp}/bad.sset"], "bad.sset",
                     SSET + "gen 1:0 faces (|0:0)\n",
                     "line 6: generator 1:0 needs exactly 2 faces", id="sset-face-count"),
        pytest.param(["homology", "{tmp}/bad.sset"], "bad.sset",
                     SSET + "gen 1:0 faces (|0:0) (|0:0\n",
                     "line 6: unterminated simplex token", id="sset-unterminated"),
        pytest.param(SMAP_BUILD, "map.smap", "smap v2\n",
                     "line 1: expected 'smap v1' header", id="smap-header"),
        pytest.param(SMAP_BUILD, "map.smap", "smap v1\ngen 0:0 (|0:0)\n",
                     "line 2: expected 'gen <d>:<i> -> <simplex>'", id="smap-line"),
        pytest.param(SMAP_BUILD, "map.smap", "smap v1\ngen x:0 -> (|0:0)\n",
                     "line 2: bad generator id 'x:0'", id="smap-generator"),
        pytest.param(SMAP_BUILD, "map.smap", "smap v1\ngen 0:0 -> (|0:0)\ngen 0:0 -> (|0:1)\n",
                     "line 3: duplicate assignment for 0:0", id="smap-duplicate"),
        pytest.param(SMAP_BUILD, "map.smap", "smap v1\ngen 0:0 -> (|0:0)\ngen 0:1 -> (|0:1)\n",
                     "assignment for unknown generator 0:1", id="smap-unknown"),
        pytest.param(["homology", "{tmp}/tower"], "tower/meta.txt",
                     "tower v9\nvariant all-maps\ncap 2\n",
                     "unsupported tower format 'v9'", id="tower-format"),
        pytest.param(["build", "{circle}", "--max-dim", "-1", "--out", "{tmp}/t"], None, None,
                     "cap must be >= 0", id="build-cap"),
        pytest.param(["build", "{point}", "--map", "{tmp}/missing.smap", "--out", "{tmp}/t"],
                     None, None, "--map requires --domain", id="build-map-alone"),
        pytest.param(["build", "{circle}", "--domain", "{point}", "--out", "{tmp}/t"],
                     None, None, "--domain requires --map", id="build-domain-alone"),
        pytest.param(["verify", "--suite", "variant", "{point}", "{circle}"], None, None,
                     "suite 'variant' takes 1 input, got 2", id="suite-extra-input"),
        pytest.param(["verify", "--suite", "functor", "{point}", "{circle}", "{tmp}/m", "{tmp}/n"],
                     None, None, "suite 'functor' takes 3 inputs, got 4", id="suite-extra-inputs"),
        pytest.param(["verify", "--suite", "intersect", "{circle}"], None, None,
                     "suite 'intersect' needs X.sset family.txt", id="suite-family"),
        pytest.param(["verify", "--suite", "variant", "{point}", "--then", "{point}", "{tmp}/m"],
                     None, None, "--then requires --suite functor", id="then-outside-functor"),
        pytest.param(["verify", "--suite", "variant", "{point}", "--simply-connected"], None, None,
                     "--simply-connected requires --suite connectivity",
                     id="simply-connected-outside-connectivity"),
    ])
    def test_exit_2_with_one_line(self, circle_file, point_file, tmp_path, capsys,
                                  argv, name, text, message):
        if name:
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        fill = {"circle": circle_file, "point": point_file, "tmp": str(tmp_path)}
        assert main([arg.format(**fill) for arg in argv]) == 2
        assert tuple(capsys.readouterr()) == ("", f"error: {message}\n")


# spellings that int() reads and the file formats refuse
NOT_ASCII_COUNTS = ["\u0662", "1_000", "+12", " +12_0 ", " 1", "1 "]


class TestIntegerInputs:
    """The integer flags and CWTOWER_BUDGET take ASCII digits, as the file
    formats do; a leading - is read, so negative values keep their messages."""

    @pytest.mark.parametrize("spelling", NOT_ASCII_COUNTS)
    @pytest.mark.parametrize("flag, argv", [
        ("--max-dim/-N", ["build", "{point}", "--out", "{tmp}/new", "--max-dim"]),
        ("--budget", ["build", "{point}", "--out", "{tmp}/new", "--budget"]),
        ("--stage", ["homology", "{tmp}/t", "--stage"]),
        ("--degree", ["homology", "{point}", "--degree"]),
    ], ids=["max-dim", "budget", "stage", "degree"])
    def test_flag_exit_2(self, point_file, tmp_path, capsys, flag, argv, spelling):
        assert main(["build", point_file, "--out", str(tmp_path / "t")]) == 0
        capsys.readouterr()
        fill = {"point": point_file, "tmp": str(tmp_path)}
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**fill) for arg in argv] + [spelling])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error: " in line]
        assert errors == [f"cwtower {argv[0]}: error: argument {flag}:"
                          f" invalid int value: {spelling!r}"]
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("spelling", NOT_ASCII_COUNTS)
    def test_budget_env_var_exit_2(self, point_file, tmp_path, capsys, monkeypatch,
                                   spelling):
        monkeypatch.setenv("CWTOWER_BUDGET", spelling)
        assert main(["build", point_file, "--out", str(tmp_path / "t")]) == 2
        assert one_error_line(capsys) == ("error: CWTOWER_BUDGET must be a non-negative"
                                          f" integer, got {spelling!r}\n")
        assert not (tmp_path / "t").exists()


class TestEmptyTarget:
    """Over an empty target no stage has a square, and no stage makes the
    2^(n+1)-entry Yoneda plan of its dimension."""

    @pytest.fixture(autouse=True)
    def small_plans_only(self, monkeypatch):
        plan = homsearch._yoneda_plan

        def small(n):
            if n > 3:
                raise AssertionError(f"Yoneda plan of dimension {n} made")
            return plan(n)

        monkeypatch.setattr(homsearch, "_yoneda_plan", small)

    def test_cw_tower(self):
        T = cw_tower(SimplicialSet.empty(), 40, budget=0)
        assert len(T.stages) == 41
        assert all(X == SimplicialSet.empty() for X in T.stages)

    def test_build_and_homology(self, empty_file, tmp_path, capsys):
        out = str(tmp_path / "t")
        assert main(["build", empty_file, "--max-dim", "40", "--budget", "0",
                     "--out", out]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "40,40,0,0"
        assert main(["homology", out, "--stage", "40"]) == 0
        assert capsys.readouterr().out == "degree=0 betti=0 torsion=[] group=0\n"


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

    def test_cellular_directory_refused(self, circle_tower, capsys):
        # as written by a build with the cellular variant, now gone
        (circle_tower / "meta.txt").write_text("tower v1\nvariant cellular\ncap 2\n")
        assert main(["homology", str(circle_tower)]) == 2
        assert one_error_line(capsys) == "error: meta.txt: unknown variant 'cellular'\n"

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


class TestParserOncePerProcess:
    """``main`` builds its parser once per process; a parse error in one
    call leaves later calls as they would be in a fresh process."""

    @staticmethod
    def fresh(argv):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-m", "cwtower", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def here(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def test_good_error_good(self, circle_file, capsys):
        calls = [["homology", circle_file], ["homology", circle_file, "--degree", "x"],
                 ["homology", circle_file, "--degree", "1"]]
        got = [self.here(argv, capsys) for argv in calls]
        assert [code for code, _, _ in got] == [0, 2, 0]
        assert "invalid int value: 'x'" in got[1][2]
        assert got == [self.fresh(argv) for argv in calls]

    def test_built_once(self):
        assert make_parser() is make_parser()
