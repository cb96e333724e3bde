from pathlib import Path

import pytest

from cdspart.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


class TestPipelines:
    def test_planted_end_to_end(self, tmp_path, capsys):
        gl = tmp_path / "x.gl"
        part = tmp_path / "x.part"
        assert main(["gen", "--class", "planted", "--n", "40", "--k", "3",
                     "--seed", "9", "-o", str(gl)]) == 0
        assert (tmp_path / "x.cds").exists()
        assert main(["partition", str(gl), "--cds", str(tmp_path / "x.cds"),
                     "-o", str(part), "--trace", str(tmp_path / "x.trace")]) == 0
        assert (tmp_path / "x.trace").read_text().startswith("PLACE")
        code, out = run(capsys, "verify", "--what", "gl", str(gl), str(part))
        assert code == 0 and out.strip().endswith("OK")

    @pytest.mark.parametrize("klass,extra", [
        ("interval", ["--n", "24"]),
        ("biconvex", ["--na", "16", "--nb", "18"]),
    ])
    def test_structured_pipeline(self, tmp_path, capsys, klass, extra):
        model = tmp_path / f"m.{klass}"
        cdsf = tmp_path / "m.cdsp"
        assert main(["gen", "--class", klass, *extra, "--k", "2",
                     "--seed", "3", "-o", str(model)]) == 0
        assert main(["cds", "--class", klass, "-k", "2", str(model),
                     "-o", str(cdsf)]) == 0
        code, out = run(capsys, "verify", "--what", "cds", str(model), str(cdsf))
        assert code == 0

    def test_convex_pipeline(self, tmp_path, capsys):
        model = tmp_path / "m.convex"
        cdsf = tmp_path / "m.cdsp"
        assert main(["gen", "--class", "convex", "--na", "10", "--nb", "24",
                     "--k", "8", "--seed", "3", "-o", str(model)]) == 0
        assert main(["cds", "--class", "convex", "-k", "2", str(model),
                     "-o", str(cdsf)]) == 0
        code, _ = run(capsys, "verify", "--what", "cds", str(model), str(cdsf))
        assert code == 0


class TestFixtures:
    def test_connectivity_chordal(self, capsys):
        code, out = run(capsys, "connectivity", str(FIXTURES / "fig1-chordal.gl"))
        assert code == 0 and out.strip() == "2"

    def test_connectivity_convex(self, capsys):
        code, out = run(capsys, "connectivity", str(FIXTURES / "fig1-convex.gl"))
        assert code == 0 and out.strip() == "2"

    @pytest.mark.parametrize("name", ["fig1-chordal.gl", "fig1-convex.gl"])
    def test_oracle_two_cds_infeasible(self, capsys, name):
        code, out = run(capsys, "oracle", "--what", "cds", "-k", "2",
                        str(FIXTURES / name))
        assert code == 1
        assert out.splitlines()[0] == "INFEASIBLE"


class TestErrorPaths:
    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.gl"
        bad.write_text("p gl 2 1\nz 1 2\n")
        code, out = run(capsys, "connectivity", str(bad))
        assert code == 2
        assert out.startswith("ERROR syntax")

    def test_missing_file_exit_2(self, capsys):
        code, out = run(capsys, "connectivity", "/nonexistent.gl")
        assert code == 2
        assert out.startswith("ERROR io")

    def test_verify_failure_exit_1(self, tmp_path, capsys):
        gl = tmp_path / "g.gl"
        gl.write_text("p gl 3 2\ne 1 2\ne 2 3\nk 1\nt 1 3\n")
        obj = tmp_path / "p.part"
        obj.write_text("v 1 1 2\n")  # wrong size, misses vertex 3
        code, out = run(capsys, "verify", "--what", "gl", str(gl), str(obj))
        assert code == 1
        assert out.startswith("FAIL")

    def test_usage_error_exit_2(self, capsys):
        assert main(["gen", "--class", "interval", "--k", "2",
                     "--seed", "0", "-o", "/tmp/x"]) == 2

    def test_insufficient_connectivity_exit_1(self, tmp_path, capsys):
        model = tmp_path / "m.interval"
        model.write_text("p interval 3\ni 1 1 2\ni 2 2 3\ni 3 3 4\n")
        code, out = run(capsys, "cds", "--class", "interval", "-k", "2",
                        str(model), "-o", str(tmp_path / "out"))
        assert code == 1
        assert out.startswith("ERROR insufficient-connectivity")

    def test_too_few_trees_exit_2(self, tmp_path, capsys):
        gl = tmp_path / "x.gl"
        assert main(["gen", "--class", "planted", "--n", "40", "--k", "3",
                     "--seed", "9", "-o", str(gl)]) == 0
        rows = (tmp_path / "x.cds").read_text().splitlines()
        short = tmp_path / "short.cds"
        short.write_text("\n".join(["c 2", *rows[1:3]]) + "\n")
        capsys.readouterr()
        code, out = run(capsys, "partition", str(gl), "--cds", str(short),
                        "-o", str(tmp_path / "x.part"))
        assert code == 2
        assert out.startswith("ERROR too-few-trees")


class TestOracleGl:
    def test_tiny_gl_oracle(self, tmp_path, capsys):
        gl = tmp_path / "t.gl"
        gl.write_text(
            "p gl 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\nk 2\nt 1 2\nt 2 2\n"
        )
        code, out = run(capsys, "oracle", "--what", "gl", str(gl))
        assert code == 0
        assert out == "v 1 1 3\nv 2 2 4\n"


class TestDeterminism:
    def test_gen_twice_identical(self, tmp_path):
        a = tmp_path / "a.gl"
        b = tmp_path / "b.gl"
        for out in (a, b):
            assert main(["gen", "--class", "planted", "--n", "30", "--k", "3",
                         "--seed", "5", "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.cds").read_bytes() == (tmp_path / "b.cds").read_bytes()

    def test_hash_seed_independent(self, tmp_path):
        # separate processes with different hash randomization must agree
        import os
        import subprocess
        import sys

        outputs = []
        for hashseed in ("1", "424242"):
            d = tmp_path / hashseed
            d.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            for argv in (
                ["gen", "--class", "planted", "--n", "40", "--k", "4",
                 "--seed", "3", "-o", str(d / "p.gl")],
                ["partition", str(d / "p.gl"), "--cds", str(d / "p.cds"),
                 "-o", str(d / "p.part"), "--trace", str(d / "p.trace")],
            ):
                subprocess.run(
                    [sys.executable, "-m", "cdspart.cli", *argv],
                    check=True, env=env, capture_output=True,
                )
            outputs.append({f.name: f.read_bytes() for f in sorted(d.iterdir())})
        assert outputs[0] == outputs[1]
