import os
import subprocess
import sys
import textwrap
import time
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

    def test_non_utf8_model_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.gl"
        bad.write_bytes(b"p gl 2 1\ne 1 \xff\n")
        code, out = run(capsys, "connectivity", str(bad))
        assert code == 2
        assert out.startswith(f"ERROR io cannot read {bad}: 'utf-8' codec can't decode")

    def test_non_utf8_set_file_exit_2(self, tmp_path, capsys):
        gl = tmp_path / "g.gl"
        gl.write_text("p gl 2 1\ne 1 2\n")
        sets = tmp_path / "bad.cds"
        sets.write_bytes(b"c 1\ns 1 1 \xff\n")
        code, out = run(capsys, "verify", "--what", "cds", str(gl), str(sets))
        assert code == 2
        assert out.startswith(f"ERROR io cannot read {sets}: 'utf-8' codec can't decode")

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

    def test_partition_with_unwritable_trace_leaves_no_partition(self, tmp_path, capsys):
        # the trace is written first, the partition file last
        gl = tmp_path / "p.gl"
        part = tmp_path / "p.part"
        assert main(["gen", "--class", "planted", "--n", "40", "--k", "3",
                     "--seed", "9", "-o", str(gl)]) == 0
        capsys.readouterr()
        code, out = run(capsys, "partition", str(gl), "--cds", str(tmp_path / "p.cds"),
                        "-o", str(part), "--trace", str(tmp_path / "nodir" / "t.trace"))
        assert code == 2
        assert out.startswith("ERROR io")
        assert not part.exists()

    def test_partition_takes_no_emission_switch(self, capsys):
        # one emission rule: partition's options are its files and the trace
        assert main(["partition", "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert " ".join(usage.split()) == (
            "usage: cdspart partition [-h] --cds CDS -o OUTPUT [--trace TRACE] input"
        )

    @pytest.mark.parametrize(
        "code", ["state-invariant", "under-monotonicity", "no-progress", "no-qualifying-group"]
    )
    def test_engine_fault_exit_3(self, tmp_path, capsys, monkeypatch, code):
        import cdspart.engine as engine

        gl = tmp_path / "x.gl"
        assert main(["gen", "--class", "planted", "--n", "40", "--k", "3",
                     "--seed", "9", "-o", str(gl)]) == 0

        def faulty(state):
            raise engine.EngineError(code, "injected")

        monkeypatch.setattr(engine, "add_trees", faulty)
        capsys.readouterr()
        status, out = run(capsys, "partition", str(gl), "--cds", str(tmp_path / "x.cds"),
                          "-o", str(tmp_path / "x.part"))
        assert status == 3
        assert out == f"ERROR {code} {code}: injected\n"

    def test_interval_count_beyond_any_index_exit_2(self, tmp_path, capsys):
        model = tmp_path / "m.interval"
        model.write_text("p interval 99999999999999999999\ni 1 1 2\n")
        code, out = run(capsys, "verify", "--what", "gl", str(model), str(model))
        assert code == 2
        assert out == (
            "ERROR syntax syntax error at line 2: "
            "expected 99999999999999999999 interval lines\n"
        )

    def test_convex_b_count_sizes_nothing_exit_2(self, tmp_path):
        # under an address-space cap, so a parser that sized a container by
        # the header count fails with MemoryError instead of eating memory
        model = tmp_path / "m.convex"
        model.write_text("p convex 2 99999999999999999999 1\ne 1 1\n")
        script = textwrap.dedent(
            f"""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from cdspart.cli import main
            print("EXIT", main(["verify", "--what", "cds", {str(model)!r}, {str(model)!r}]))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert out.stdout == (
            "ERROR invariant invariant violated: B-vertex 2 has no neighbors\nEXIT 2\n"
        ), out.stderr

    @pytest.mark.parametrize("name,text,count", [
        ("m.gl", "p gl 99999999999999999999 0\n", 99999999999999999999),
        ("m.convex", "p convex 99999999999 1 1\ne 1 1\n", 100000000000),
    ])
    def test_vertex_count_over_the_cap_exit_2(self, tmp_path, name, text, count):
        # under an address-space cap: a parser that sized the graph by the
        # header fails with MemoryError instead of naming the count
        model = tmp_path / name
        model.write_text(text)
        script = textwrap.dedent(
            f"""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from cdspart.cli import main
            print("EXIT", main(["verify", "--what", "cds", {str(model)!r}, {str(model)!r}]))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert out.stdout == (
            f"ERROR invariant invariant violated: vertex count {count} exceeds 1048576 "
            "(line 1)\nEXIT 2\n"
        ), out.stderr


class TestDominationChecks:
    def test_non_dominating_cds_names_the_tree_exit_2(self, tmp_path, capsys):
        gl = tmp_path / "p.gl"
        gl.write_text("p gl 3 2\ne 1 2\ne 2 3\nk 1\nt 1 3\n")
        cds = tmp_path / "p.cds"
        cds.write_text("c 1\ns 1 1\n")  # connected, but vertex 3 has no neighbour in it
        code, out = run(capsys, "partition", str(gl), "--cds", str(cds),
                        "-o", str(tmp_path / "p.part"))
        assert code == 2
        assert out == "ERROR invalid-cds-input invalid-cds-input: tree 0: not-dominating\n"

    def test_partition_settles_domination_in_one_pass(self, tmp_path, monkeypatch):
        import importlib
        from collections import Counter

        gl = tmp_path / "x.gl"
        assert main(["gen", "--class", "planted", "--n", "120", "--k", "6",
                     "--seed", "4", "-o", str(gl)]) == 0
        graphs = importlib.import_module("cdspart.graphs")
        counts = Counter()

        def counted(name):
            original = getattr(graphs, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)
            return wrapper

        wrappers = {name: counted(name) for name in ("first_non_dominating", "dominates")}
        for module_name in ("graphs", "engine", "formats", "builders", "verify", "generators"):
            module = importlib.import_module(f"cdspart.{module_name}")
            for name, wrapper in wrappers.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        assert main(["partition", str(gl), "--cds", str(tmp_path / "x.cds"),
                     "-o", str(tmp_path / "x.part")]) == 0
        assert counts == {"first_non_dominating": 1}


class TestGen:
    @pytest.mark.parametrize("klass,sizes", [
        ("convex", ["--na", "30", "--nb", "60"]),
        ("interval", ["--n", "30"]),
        ("biconvex", ["--na", "30", "--nb", "60"]),
    ])
    def test_gen_derives_no_graph(self, tmp_path, monkeypatch, klass, sizes):
        # the generators prove connectivity by construction: no graph, no
        # clique path, no flow network; the writer reads the model alone
        import cdspart.flows as flows
        import cdspart.models as models

        called = []
        for cls in (models.BiconvexModel, models.ConvexModel, models.IntervalModel):
            monkeypatch.setattr(cls, "derive_graph", lambda self: called.append("derive_graph"))
        for owner, name in ((models, "interval_connectivity"), (models, "_clique_path"),
                            (flows._SplitNetwork, "__init__")):
            monkeypatch.setattr(owner, name, lambda *args, name=name: called.append(name))
        assert main(["gen", "--class", klass, *sizes, "--k", "3", "--seed", "2",
                     "-o", str(tmp_path / "m.txt")]) == 0
        assert called == []

    def test_gen_interval_at_ten_thousand_vertices(self, tmp_path, capsys):
        out_file = tmp_path / "m.txt"
        started = time.perf_counter()
        code, _ = run(capsys, "gen", "--class", "interval", "--n", "10000", "--k", "4",
                      "--seed", "101", "-o", str(out_file))
        assert code == 0 and time.perf_counter() - started < 2.0
        assert "p interval 10000\n" in out_file.read_text()


    @pytest.mark.parametrize("klass,sizes,foreign", [
        ("interval", ["--n", "10"], [["--na", "4"], ["--nb", "4"], ["--extra-edges", "-5"]]),
        ("planted", ["--n", "10"], [["--na", "4"], ["--nb", "4"]]),
        ("convex", ["--na", "6", "--nb", "8"], [["--n", "10"], ["--extra-edges", "3"]]),
        ("biconvex", ["--na", "6", "--nb", "8"], [["--n", "10"], ["--extra-edges", "3"]]),
    ], ids=["interval", "planted", "convex", "biconvex"])
    def test_gen_rejects_flags_of_other_classes(self, tmp_path, capsys, monkeypatch,
                                                klass, sizes, foreign):
        # a flag the class does not read is a usage error, raised before
        # any generator runs
        import cdspart.generators as generators

        for name in ("gen_planted_cds", "gen_interval", "gen_biconvex", "gen_convex",
                     "gen_gl_extension"):
            monkeypatch.setattr(generators, name, None)
        for flag, value in foreign:
            out_file = tmp_path / "m.txt"
            code, out = run(capsys, "gen", "--class", klass, *sizes, flag, value,
                            "--k", "2", "--seed", "1", "-o", str(out_file))
            assert (code, out) == (2, f"ERROR usage gen --class {klass} does not read {flag}\n")
            assert not out_file.exists()

    @pytest.mark.parametrize("klass,sizes", [
        ("planted", ["--n", "1048577"]),
        ("interval", ["--n", "1048577"]),
        ("convex", ["--na", "1048576", "--nb", "1"]),
        ("biconvex", ["--na", "1", "--nb", "1048576"]),
    ])
    def test_gen_over_the_vertex_cap_exit_2(self, tmp_path, capsys, monkeypatch, klass, sizes):
        # the parser's header bound, checked before any generator runs
        import cdspart.generators as generators

        for name in ("gen_planted_cds", "gen_interval", "gen_biconvex", "gen_convex"):
            monkeypatch.setattr(generators, name, None)
        out_file = tmp_path / "m.txt"
        code, out = run(capsys, "gen", "--class", klass, *sizes, "--k", "2",
                        "--seed", "1", "-o", str(out_file))
        assert (code, out) == (
            2, "ERROR invariant invariant violated: vertex count 1048577 exceeds 1048576\n"
        )
        assert not out_file.exists()

    def test_planted_extra_edges_up_to_the_free_pairs(self, tmp_path, capsys):
        # n = 10 has 45 vertex pairs; the backbones and their domination
        # edges take some, and --extra-edges may ask for the rest, no more
        def gen(extra):
            out_file = tmp_path / f"x{extra}.gl"
            code, out = run(capsys, "gen", "--class", "planted", "--n", "10", "--k", "2",
                            "--seed", "1", "--extra-edges", str(extra), "-o", str(out_file))
            return code, out, out_file

        code, _, base = gen(0)
        assert code == 0
        free = 45 - int(base.read_text().split("p gl 10 ")[1].split()[0])
        code, _, full = gen(free)
        assert code == 0 and "p gl 10 45\n" in full.read_text()
        code, out, over = gen(free + 1)
        assert code == 2
        assert out == (
            f"ERROR generation-failed generation-failed: {free + 1} extra edges, "
            f"{free} free vertex pairs\n"
        )
        assert not over.exists()
        code, out, _ = gen(1000)
        assert code == 2 and out.startswith("ERROR generation-failed")
        code, out, negative = gen(-1)
        assert (code, out) == (
            2, f"ERROR generation-failed generation-failed: -1 extra edges, {free} free vertex pairs\n"
        )
        assert not negative.exists()

    @pytest.mark.parametrize("klass,sizes", [
        ("planted", ["--n", "10"]),
        ("interval", ["--n", "10"]),
        ("biconvex", ["--na", "3", "--nb", "3"]),
        ("convex", ["--na", "3", "--nb", "3"]),
    ])
    def test_gen_k_below_one_exit_2(self, tmp_path, capsys, monkeypatch, klass, sizes):
        # each class generator rejects k itself, before any terminals are drawn
        import cdspart.generators as generators

        monkeypatch.setattr(generators, "gen_gl_extension", None)
        out_file = tmp_path / "m.txt"
        code, out = run(capsys, "gen", "--class", klass, *sizes, "--k", "0",
                        "--seed", "1", "-o", str(out_file))
        assert code == 2
        assert out.startswith("ERROR generation-failed generation-failed: need ") and "k=0" in out
        assert not out_file.exists()

    def test_gen_planted_k_zero_names_k(self, tmp_path, capsys):
        code, out = run(capsys, "gen", "--class", "planted", "--n", "10", "--k", "0",
                        "--seed", "1", "-o", str(tmp_path / "p.gl"))
        assert (code, out) == (2, "ERROR generation-failed generation-failed: need k >= 1, got k=0\n")


class TestCds:
    @pytest.mark.parametrize("klass,sizes,k", [
        ("interval", ["--n", "30", "--k", "3"], 3),
        ("biconvex", ["--na", "30", "--nb", "34", "--k", "3"], 3),
        ("convex", ["--na", "10", "--nb", "24", "--k", "8"], 2),
    ])
    def test_cds_derives_the_graph_once(self, tmp_path, monkeypatch, klass, sizes, k):
        # the parser and the builder share the model's one derived graph
        from cdspart.models import ConvexModel, IntervalModel

        model = tmp_path / "m.txt"
        assert main(["gen", "--class", klass, *sizes, "--seed", "2", "-o", str(model)]) == 0
        derived = []
        for cls in (ConvexModel, IntervalModel):
            derive = cls.derive_graph
            monkeypatch.setattr(
                cls, "derive_graph", lambda self, derive=derive: derived.append(self) or derive(self)
            )
        assert main(["cds", "--class", klass, "-k", str(k), str(model),
                     "-o", str(tmp_path / "m.cdsp")]) == 0
        assert len(derived) == 1


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
