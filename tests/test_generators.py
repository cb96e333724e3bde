import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cdspart
from cdspart.formats import InstanceBundle, write_bundle
from cdspart.generators import (
    SplitMix64,
    gen_biconvex,
    gen_convex,
    gen_gl_extension,
    gen_interval,
    gen_planted_cds,
)
from cdspart.graphs import GraphError, dominates, is_k_connected, vertex_connectivity
from cdspart.models import interval_connectivity


class TestSplitMix64:
    def test_reference_stream(self):
        # published splitmix64 stream for seed 1234567
        r = SplitMix64(1234567)
        assert [r.next_u64() for _ in range(4)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
        ]

    def test_seed_zero_head(self):
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_shuffle_deterministic(self):
        a = list(range(10))
        b = list(range(10))
        SplitMix64(42).shuffle(a)
        SplitMix64(42).shuffle(b)
        assert a == b and a != list(range(10))


    def test_empty_randint_range_raises(self):
        with pytest.raises(GraphError, match="bad-range"):
            SplitMix64(1).randint(3, 2)

    @pytest.mark.parametrize("n,k", [(3, 4), (3, -1)])
    def test_impossible_sample_raises(self, n, k):
        with pytest.raises(GraphError, match="bad-sample"):
            SplitMix64(1).sample_distinct(n, k)

    def test_argument_checks_survive_python_O(self):
        # the checks are explicit raises, so `python -O` keeps them
        script = textwrap.dedent(
            """
            from cdspart.generators import SplitMix64
            from cdspart.graphs import GraphError

            if __debug__:
                raise SystemExit("asserts are on: not running under -O")
            for call in (lambda r: r.randint(3, 2), lambda r: r.sample_distinct(3, 4)):
                try:
                    call(SplitMix64(1))
                except GraphError as exc:
                    print(exc.code)
            """
        )
        src = str(Path(cdspart.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == ["bad-range", "bad-sample"]


class TestGenInterval:
    def test_postcondition(self):
        # the chain certificate against the clique path, and the clique
        # path against flows on the small models
        models = 0
        for k in range(1, 9):
            for n in range(k + 1, 81, 2):
                models += 1
                m = gen_interval(n, k, models)
                kappa = interval_connectivity(m)
                assert kappa >= k, (n, k, models)
                if n <= 30:
                    assert vertex_connectivity(m.derive_graph()) == kappa, (n, k, models)
        assert models >= 300

    def test_most_models_sit_at_kappa_k(self):
        # the paper's boundary: connectivity k exactly, not k plus slack
        exact = sum(interval_connectivity(gen_interval(80, 4, seed)) == 4 for seed in range(1, 21))
        assert exact >= 18

    def test_deterministic(self):
        a = gen_interval(25, 3, 7)
        b = gen_interval(25, 3, 7)
        assert a == b

    def test_too_small_rejected(self):
        with pytest.raises(GraphError, match="generation-failed"):
            gen_interval(3, 3, 0)


class TestGenBiconvex:
    def test_postcondition_and_validity(self):
        # the staircase certificate against flows: na from k up, nb from
        # its minimum max(2, 2k - 1) (where the model is complete
        # bipartite) to staircases of width k + 2
        staircases = 0
        seed = 0
        for k in range(1, 9):
            nb_min = max(2, 2 * k - 1)
            for na in sorted({max(2, k), k + 1, k + 2, k + 4, 2 * k + 7}):
                for nb in (nb_min, nb_min + 1, nb_min + 3, max(nb_min, na + k - 3), na + 2 * k + 5):
                    for _ in range(2):
                        seed += 1
                        m = gen_biconvex(na, nb, k, seed)
                        assert is_k_connected(m.derive_graph(), k), (na, nb, k, seed)
                        staircases += max(hi - lo + 1 for lo, hi in m.windows) < na
        assert seed >= 300 and staircases >= 80

    def test_na_below_k_fails_without_a_flow(self, monkeypatch):
        # connectivity is at most na, so the generator rejects na < k
        # before building any model, let alone a flow network
        import cdspart.flows as flows

        def no_flow(*args):
            raise AssertionError("flow network built")

        monkeypatch.setattr(flows._SplitNetwork, "__init__", no_flow)
        with pytest.raises(GraphError, match="generation-failed: sizes too small: na=3, nb=10"):
            gen_biconvex(3, 10, 4, 1)

    def test_deterministic(self):
        assert gen_biconvex(16, 18, 3, 5) == gen_biconvex(16, 18, 3, 5)

    def test_square_model_high_target(self):
        m = gen_biconvex(40, 40, 8, 7)
        assert is_k_connected(m.derive_graph(), 8)


class TestGenConvex:
    def test_certificate_against_flows(self):
        # the full-window certificate against flows: na and nb from their
        # minimum k (nb = k leaves only the full windows) up
        seed = 0
        for k in range(1, 9):
            for na in sorted({max(2, k), k + 1, 2 * k + 3}):
                for nb in sorted({k, k + 1, 2 * k + 5, 2 * na + 4}):
                    for _ in range(2):
                        seed += 1
                        m = gen_convex(na, nb, k, seed)
                        assert is_k_connected(m.derive_graph(), k), (na, nb, k, seed)
        assert seed >= 100

    def test_nb_below_k_fails_without_a_draw(self, monkeypatch):
        # every A-vertex needs k B-neighbours, so nb < k is rejected
        # before the first random draw
        def no_draw(self):
            raise AssertionError("random draw")

        monkeypatch.setattr(SplitMix64, "next_u64", no_draw)
        with pytest.raises(GraphError, match="generation-failed: sizes too small: na=10, nb=3"):
            gen_convex(10, 3, 8, 1)

    def test_exact_connectivity_small(self):
        m = gen_convex(6, 16, 4, 3)
        assert vertex_connectivity(m.derive_graph()) >= 4

    def test_deterministic(self):
        assert gen_convex(10, 24, 8, 2) == gen_convex(10, 24, 8, 2)


class TestGenPlanted:
    def test_trees_are_disjoint_dominating(self):
        for seed in range(8):
            k = 1 + seed % 5
            n = 20 + seed
            g, trees = gen_planted_cds(n, k, extra_edges=4, seed=seed)
            seen = set()
            for t in trees:
                t.validate(g)
                assert not (t.vertices & seen)
                seen |= t.vertices
                assert dominates(g, t.vertices)

    def test_connectivity_spot_check(self):
        for seed in range(4):
            k = 2 + seed % 2
            g, _ = gen_planted_cds(12, k, extra_edges=2, seed=seed)
            assert vertex_connectivity(g) >= k

    def test_precondition(self):
        with pytest.raises(GraphError, match="generation-failed"):
            gen_planted_cds(5, 3, 0, 0)

    def test_deterministic_files(self):
        outs = []
        for _ in range(2):
            g, _ = gen_planted_cds(30, 3, 7, seed=11)
            t, d = gen_gl_extension(g.n, 3, seed=11)
            outs.append(
                write_bundle(InstanceBundle(model=g, graph=g, terminals=t, demands=d))
            )
        assert outs[0] == outs[1]


class TestGenGlExtension:
    def test_compositions_sum(self):
        for seed in range(2000):
            n = 5 + seed % 40
            k = 1 + seed % min(n, 7)
            terminals, demands = gen_gl_extension(n, k, seed)
            assert sum(demands) == n
            assert all(d >= 1 for d in demands)
            assert len(set(terminals)) == k

    def test_k_equals_n(self):
        terminals, demands = gen_gl_extension(6, 6, 4)
        assert set(terminals) == set(range(6))
        assert demands == (1,) * 6

    def test_k_one(self):
        _, demands = gen_gl_extension(9, 1, 0)
        assert demands == (9,)
