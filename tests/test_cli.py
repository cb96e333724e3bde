import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from cdspart import cli
from cdspart.cli import main
from cdspart.formats import parse_bundle
from cdspart.graphs import vertex_connectivity

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

    def test_convex_cds_below_4k_blames_connectivity(self, tmp_path, capsys):
        # kappa = 2 and no 2 disjoint CDSs exist: the dealt family misses a
        # B-vertex whose window holds 2 < 4k A-vertices, so kappa < 4k
        cdsf = tmp_path / "m.cdsp"
        code, out = run(capsys, "cds", "--class", "convex", "-k", "2",
                        str(FIXTURES / "fig1-convex.gl"), "-o", str(cdsf))
        assert (code, out) == (1, "ERROR insufficient-connectivity "
                                  "insufficient-connectivity: wanted 8, achieved 2\n")
        assert not cdsf.exists()


class TestConnectivity:
    """`connectivity` answers interval models from the clique path and the
    other models with flows; on interval models both agree."""

    @staticmethod
    def interval_file(tmp_path, spans):
        path = tmp_path / "m.interval"
        lines = [f"p interval {len(spans)}"]
        lines += [f"i {v} {a} {b}" for v, (a, b) in enumerate(spans, 1)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def check(self, capsys, monkeypatch, path):
        code, out = run(capsys, "connectivity", str(path))
        g = parse_bundle(path.read_text()).graph
        assert code == 0 and out == f"{vertex_connectivity(g)}\n"
        # the flow routine is not called on an interval model
        monkeypatch.setattr(cli, "vertex_connectivity", None)
        assert run(capsys, "connectivity", str(path)) == (code, out)
        monkeypatch.undo()
        return int(out)

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_models(self, tmp_path, capsys, monkeypatch, seed):
        path = tmp_path / "m.interval"
        k = 1 + seed % 4
        assert main(["gen", "--class", "interval", "--n", str(12 + 5 * seed), "--k", str(k),
                     "--seed", str(seed), "-o", str(path)]) == 0
        capsys.readouterr()
        assert self.check(capsys, monkeypatch, path) >= k

    def test_disconnected_model(self, tmp_path, capsys, monkeypatch):
        path = self.interval_file(tmp_path, [(1, 3), (2, 4), (6, 8), (7, 9)])
        assert self.check(capsys, monkeypatch, path) == 0

    def test_single_clique(self, tmp_path, capsys, monkeypatch):
        path = self.interval_file(tmp_path, [(1, 5), (2, 6), (3, 4), (1, 3)])
        assert self.check(capsys, monkeypatch, path) == 3

    def test_one_vertex(self, tmp_path, capsys):
        path = self.interval_file(tmp_path, [(1, 2)])
        expected = (2, "ERROR degenerate-graph degenerate-graph: n=1\n")
        assert run(capsys, "connectivity", str(path)) == expected
        gl = tmp_path / "one.gl"
        gl.write_text("p gl 1 0\n")
        assert run(capsys, "connectivity", str(gl)) == expected


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

    @pytest.mark.parametrize("what,text,line", [
        ("gl", "v 1 1 2\nv 2 4\n", "FAIL partition uncovered vertices [3]"),
        ("cds", "c 2\ns 1 1\ns 2 2 3 4\n", "FAIL not-dominating block 1 misses vertex 3"),
        ("cds", "c 2\ns 1 1 2 3\ns 2 1 4\n", "FAIL partition vertex 1 in blocks 1 and 2"),
    ])
    def test_verify_names_blocks_and_vertices_as_the_files_do(
        self, tmp_path, capsys, what, text, line
    ):
        gl = tmp_path / "g.gl"
        gl.write_text("p gl 4 3\ne 1 2\ne 2 3\ne 3 4\nk 2\nt 1 2\nt 4 2\n")
        obj = tmp_path / "obj"
        obj.write_text(text)
        code, out = run(capsys, "verify", "--what", what, str(gl), str(obj))
        assert code == 1
        assert out.splitlines()[0] == line

    def test_usage_error_exit_2(self, capsys):
        assert main(["gen", "--class", "interval", "--k", "2",
                     "--seed", "0", "-o", "/tmp/x"]) == 2

    def test_parser_is_built_once(self, capsys):
        cli.build_parser.cache_clear()
        assert main(["gen", "--class", "interval", "--k", "2"]) == 2
        assert main(["verify", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: cdspart verify")
        assert main(["gen", "--class", "nope", "--k", "2", "--seed", "0", "-o", "x"]) == 2
        assert cli.build_parser.cache_info().misses == 1

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

    def test_gen_planted_output_naming_its_cds_file_exit_2(self, tmp_path, capsys, monkeypatch):
        # the CDS file beside `-o x.cds` is x.cds itself; refused before the
        # generator runs, so no file is written
        import cdspart.generators as generators

        monkeypatch.setattr(generators, "gen_planted_cds", None)
        out_file = tmp_path / "x.cds"
        code, out = run(capsys, "gen", "--class", "planted", "--n", "20", "--k", "3",
                        "--seed", "1", "-o", str(out_file))
        assert (code, out) == (2, f"ERROR usage {out_file} and {out_file} name one file\n")
        assert not out_file.exists()

    def test_partition_output_naming_the_trace_exit_2(self, tmp_path, capsys, monkeypatch):
        # paths are compared resolved: a relative and an absolute name of
        # one file collide; refused before the solve, so no file is written
        import cdspart.engine as engine

        gl = tmp_path / "p.gl"
        assert main(["gen", "--class", "planted", "--n", "40", "--k", "3",
                     "--seed", "9", "-o", str(gl)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(engine, "solve", None)
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, "partition", str(gl), "--cds", str(tmp_path / "p.cds"),
                        "-o", "p.part", "--trace", str(tmp_path / "p.part"))
        assert code == 2 and out.startswith("ERROR usage p.part and ")
        assert not (tmp_path / "p.part").exists()

    @pytest.mark.parametrize("named", ["x.gl", "x.cds"])
    def test_partition_output_naming_an_input_exit_2(self, tmp_path, capsys, monkeypatch, named):
        # refused before any parse, so the input file is left as it was
        import cdspart.formats as formats

        gl = tmp_path / "x.gl"
        assert main(["gen", "--class", "planted", "--n", "40", "--k", "3",
                     "--seed", "9", "-o", str(gl)]) == 0
        capsys.readouterr()
        target = tmp_path / named
        before = target.read_bytes()
        monkeypatch.setattr(formats, "parse_bundle", None)
        code, out = run(capsys, "partition", str(gl), "--cds", str(tmp_path / "x.cds"),
                        "-o", str(target))
        assert (code, out) == (2, f"ERROR usage {target} and {target} name one file\n")
        assert target.read_bytes() == before

    def test_cds_output_naming_its_input_exit_2(self, tmp_path, capsys, monkeypatch):
        import cdspart.formats as formats

        model = tmp_path / "m.interval"
        assert main(["gen", "--class", "interval", "--n", "12", "--k", "2",
                     "--seed", "1", "-o", str(model)]) == 0
        capsys.readouterr()
        before = model.read_bytes()
        monkeypatch.setattr(formats, "parse_bundle", None)
        code, out = run(capsys, "cds", "--class", "interval", "-k", "2", str(model),
                        "-o", str(model))
        assert (code, out) == (2, f"ERROR usage {model} and {model} name one file\n")
        assert model.read_bytes() == before

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

    @pytest.mark.parametrize("text,message", [
        ("p gl 3 -1\n", "negative edge count -1 (line 1)"),
        ("p gl 3 -1\ne 1 2\n", "negative edge count -1 (line 1)"),
        ("p gl -1 0\n", "negative vertex count -1 (line 1)"),
        ("# c\np gl -1 0\n", "negative vertex count -1 (line 2)"),
        ("p interval -1\n", "negative interval count -1 (line 1)"),
        ("p convex 2 2 -1\ne 1 1\n", "negative count in 'p convex 2 2 -1' (line 1)"),
        ("p biconvex -2 1 0\n", "negative count in 'p biconvex -2 1 0' (line 1)"),
    ])
    def test_negative_header_count_exit_2(self, tmp_path, capsys, text, message):
        model = tmp_path / "m.txt"
        model.write_text(text)
        code, out = run(capsys, "connectivity", str(model))
        assert (code, out) == (2, f"ERROR invariant invariant violated: {message}\n")

    @pytest.mark.parametrize("text,message", [
        ("p gl 3 2\ne 1 2\ne 2 1\n", "duplicate edge (2, 1) (line 3)"),
        ("p gl 3 2\ne 1 2 # per-line\ne 2 1\n", "duplicate edge (2, 1) (line 3)"),
        ("p gl 3 2\ne 1 2\ne 2 +1\n", "duplicate edge (2, 1) (line 3)"),
        ("p gl 3 1\ne 2 2\n", "self-loop at vertex 2 (line 2)"),
        ("p gl 3 1\ne 2 2 # per-line\n", "self-loop at vertex 2 (line 2)"),
    ])
    def test_bad_gl_edge_named_by_file_ids_exit_2(self, tmp_path, capsys, text, message):
        model = tmp_path / "m.gl"
        model.write_text(text)
        code, out = run(capsys, "connectivity", str(model))
        assert (code, out) == (2, f"ERROR invariant invariant violated: {message}\n")

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
        assert out == "ERROR invalid-cds-input invalid-cds-input: tree 1: not-dominating\n"

    @pytest.mark.parametrize("second,message", [
        # {1} misses 3 and 4
        ("1", "invalid-cds-input invalid-cds-input: tree 2: not-dominating"),
        # {1, 4} is not connected
        ("1 4", "invariant invariant violated: set 2: not-connected"),
    ])
    def test_set_faults_count_sets_from_one_exit_2(self, tmp_path, capsys, second, message):
        # the path 1-2-3-4 with terminals 1 and 4; set 1 = {2, 3} is a CDS
        gl = tmp_path / "p.gl"
        gl.write_text("p gl 4 3\ne 1 2\ne 2 3\ne 3 4\nk 2\nt 1 2\nt 4 2\n")
        cds = tmp_path / "p.cds"
        cds.write_text(f"c 2\ns 1 2 3\ns 2 {second}\n")
        code, out = run(capsys, "partition", str(gl), "--cds", str(cds),
                        "-o", str(tmp_path / "p.part"))
        assert (code, out) == (2, f"ERROR {message}\n")

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
        # the parser and a window builder share the model's one derived
        # graph, so it is derived at most once; interval `cds` checks its
        # certificate on the separators and derives none
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
        assert len(derived) == (klass != "interval")

    def test_biconvex_at_its_connectivity(self, tmp_path, capsys):
        # windows a1..a2, a1..a3, a1..a3, a2..a3: kappa = 2; the sets
        # {a1, a3, b2} and {a2, b3}, extended, take b1 and b4 into the first
        model = tmp_path / "m.biconvex"
        edges = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3), (2, 4), (3, 4)]
        model.write_text("p biconvex 3 4 10\n" + "".join(f"e {a} {b}\n" for a, b in edges))
        cdsf = tmp_path / "m.cdsp"
        assert run(capsys, "connectivity", str(model)) == (0, "2\n")
        assert run(capsys, "cds", "--class", "biconvex", "-k", "2", str(model), "-o", str(cdsf)) == (
            0, f"wrote {cdsf}\n")
        assert cdsf.read_text().splitlines()[1:] == ["s 1 1 3 4 5 7", "s 2 2 6"]
        assert run(capsys, "verify", "--what", "cds", str(model), str(cdsf)) == (0, "OK\n")

    @pytest.mark.parametrize("klass", ["biconvex", "convex"])
    def test_one_a_vertex(self, tmp_path, capsys, klass):
        # {a_1} is a CDS and connectivity reads 1, so k = 1 is admissible
        model = tmp_path / f"m.{klass}"
        model.write_text(f"p {klass} 1 2 2\ne 1 1\ne 1 2\n")
        cdsf = tmp_path / "m.cdsp"
        assert run(capsys, "connectivity", str(model)) == (0, "1\n")
        assert run(capsys, "cds", "--class", klass, "-k", "1", str(model), "-o", str(cdsf)) == (
            0, f"wrote {cdsf}\n")
        assert run(capsys, "verify", "--what", "cds", str(model), str(cdsf))[0] == 0
        code, out = run(capsys, "cds", "--class", klass, "-k", "2", str(model), "-o", str(cdsf))
        assert (code, out) == (1, "ERROR insufficient-connectivity "
                                  "insufficient-connectivity: wanted 2, achieved 1\n")

    def test_interval_cds_builds_no_graph_and_no_flow(self, tmp_path, capsys, monkeypatch):
        # the separator sweep reads the clique path, the builder checks its
        # certificate on the separators and the extension is a union: no
        # graph is derived or built, no flow network either, and the file
        # keeps its pinned bytes
        import hashlib

        import cdspart.flows as flows
        from cdspart.graphs import Graph
        from cdspart.models import IntervalModel
        from test_golden import CDS_CHAINS, CDS_DIGESTS

        gen_args, k = CDS_CHAINS["interval"]
        model, cds = tmp_path / "m.interval", tmp_path / "m.cds"
        assert main(["gen", *gen_args, "-o", str(model)]) == 0
        called = []

        def refuse(self):
            raise RuntimeError("derive_graph called")

        monkeypatch.setattr(IntervalModel, "derive_graph", refuse)
        graph_init = Graph.__init__
        monkeypatch.setattr(Graph, "__init__",
                            lambda self, adj: called.append("Graph") or graph_init(self, adj))
        init = flows._SplitNetwork.__init__
        monkeypatch.setattr(flows._SplitNetwork, "__init__",
                            lambda self, g: called.append("_SplitNetwork") or init(self, g))
        assert main(["cds", "--class", "interval", "-k", str(k), str(model), "-o", str(cds)]) == 0
        capsys.readouterr()
        assert called == []
        assert hashlib.sha256(cds.read_bytes()).hexdigest() == CDS_DIGESTS["interval"]

    @pytest.mark.parametrize("klass,text,message", [
        ("interval", "p biconvex 1 1 1\ne 1 1\n", "is not an interval model"),
        ("biconvex", "p convex 1 1 1\ne 1 1\n", "is not a biconvex model"),
        ("convex", "p interval 1\ni 1 1 1\n", "is not a convex model"),
    ])
    def test_model_of_another_class_exit_2(self, tmp_path, capsys, klass, text, message):
        model = tmp_path / "m.txt"
        model.write_text(text)
        cdsf = tmp_path / "m.cdsp"
        code, out = run(capsys, "cds", "--class", klass, "-k", "1", str(model), "-o", str(cdsf))
        assert (code, out) == (2, f"ERROR usage {model} {message}\n")
        assert not cdsf.exists()

    def test_empty_interval_model_exit_2(self, tmp_path, capsys):
        # n = 0 is a degenerate graph, as `connectivity` reports it
        model = tmp_path / "m.interval"
        model.write_text("p interval 0\n")
        expected = (2, "ERROR degenerate-graph degenerate-graph: n=0\n")
        code, out = run(capsys, "cds", "--class", "interval", "-k", "1", str(model),
                        "-o", str(tmp_path / "m.cdsp"))
        assert (code, out) == expected
        assert run(capsys, "connectivity", str(model)) == expected


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
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
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
