import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import cdspart
from cdspart.formats import InstanceBundle, write_bundle
from cdspart.generators import (
    _BLOCK,
    SplitMix64,
    gen_biconvex,
    gen_convex,
    gen_gl_extension,
    gen_interval,
    gen_planted_cds,
)
from cdspart.graphs import GraphError, dominates, is_k_connected, vertex_connectivity
from cdspart.models import interval_connectivity

from conftest import edges_of
from reference_oracles import scalar_sample_distinct, scalar_shuffle


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

    @pytest.mark.parametrize("seed", [0, 1, 1234567, 2**64 - 1, -1])
    @pytest.mark.parametrize("count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_draws_equal_the_scalar_stream(self, seed, count):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        got = block.draws(count)
        assert got.typecode == "Q"
        assert list(got) == [scalar.next_u64() for _ in range(count)]
        # the block leaves the generator where `count` scalar calls do
        assert block.next_u64() == scalar.next_u64()

    def test_draws_peak_memory_is_the_output(self):
        # blocks are packed one at a time, never the whole stream at once
        tracemalloc.start()
        try:
            out = SplitMix64(1).draws(200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 200_000
        assert peak < 200_000 * 8 + 1_000_000

    def test_shuffle_deterministic(self):
        # against the scalar loop, position by position, and the stream
        # position it leaves behind
        for length in (0, 1, 2, 10, _BLOCK + 2):
            for seed in (0, 42, 2**64 - 1):
                block, scalar = SplitMix64(seed), SplitMix64(seed)
                a, b = list(range(length)), list(range(length))
                block.shuffle(a)
                scalar_shuffle(scalar, b)
                assert a == b, (length, seed)
                assert block.next_u64() == scalar.next_u64()
        a = list(range(10))
        SplitMix64(42).shuffle(a)
        assert a != list(range(10))

    @pytest.mark.parametrize(
        "n,k", [(0, 0), (1, 1), (5, 3), (40, 40), (_BLOCK + 2, 7), (2 * _BLOCK + 5, 2 * _BLOCK)]
    )
    def test_sample_distinct_matches_scalar_oracle(self, n, k):
        for seed in (0, 3, 1234567):
            block, scalar = SplitMix64(seed), SplitMix64(seed)
            assert block.sample_distinct(n, k) == scalar_sample_distinct(scalar, n, k)
            assert block.next_u64() == scalar.next_u64()

    def test_empty_randint_range_raises(self):
        with pytest.raises(GraphError, match="bad-range"):
            SplitMix64(1).randint(3, 2)

    def test_negative_count_draws_nothing(self):
        # like range(count): the empty shuffle asks for -1 draws
        rng = SplitMix64(5)
        assert len(rng.draws(-1)) == 0
        assert rng.next_u64() == SplitMix64(5).next_u64()

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
        def no_draw(self, *args):
            raise AssertionError("random draw")

        monkeypatch.setattr(SplitMix64, "next_u64", no_draw)
        monkeypatch.setattr(SplitMix64, "draws", no_draw)
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
                assert t.graph is g
                t.validate()
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
            outs.append(write_bundle(InstanceBundle(model=g, terminals=t, demands=d)))
        assert outs[0] == outs[1]

    # (n, k, extra_edges) -> digest of the graphs and the trees' vertex sets
    # over seeds 0..3; extra_edges None means every vertex pair left free by
    # the backbones
    PINNED = {
        (4, 2, None): "206947a72663cc3a",
        (6, 3, None): "67f2cc7d43e45eeb",
        (10, 5, 0): "14afdab8925e6cc0",
        (10, 5, None): "1a3e5dcb411e52ae",
        (12, 3, 5): "ca7702c6baed5616",
        (30, 3, 7): "c101a029bad56fed",
        (40, 4, None): "9fb2df3b6e7fa980",
        (200, 8, 50): "ae471706e66c82e7",
        (600, 150, 0): "91769553cdcd5938",
    }

    @staticmethod
    def planted_digest(n, k, extra):
        h = hashlib.sha256()
        for seed in range(4):
            if extra is None:
                base, _ = gen_planted_cds(n, k, 0, seed)
                free = n * (n - 1) // 2 - base.m
            g, trees = gen_planted_cds(n, k, free if extra is None else extra, seed)
            if extra is None:
                assert g.m == n * (n - 1) // 2
            h.update(repr((g.n, edges_of(g), [sorted(t.vertices) for t in trees])).encode())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize("case", sorted(PINNED, key=str))
    def test_pinned_graphs_and_trees(self, case):
        assert self.planted_digest(*case) == self.PINNED[case]


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

    def test_k_zero(self):
        with pytest.raises(GraphError, match="^generation-failed: need 1 <= k <= n, got k=0, n=9$"):
            gen_gl_extension(9, 0, 0)
