"""Golden outputs: the partition and trace bytes of fixed seeded solves.

Each digest is the sha256 of a partition file followed by its trace file,
as `cdspart partition --trace` writes them, or, for a chain that stops at
`cds`, of the CDS file.  A refactor must leave every digest unchanged; a
deliberate change of output updates them.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cdspart.cli import main
from cdspart.engine import GLInstance, solve
from cdspart.formats import write_partition, write_trace
from cdspart.generators import gen_gl_extension, gen_planted_cds

# (n, k, extra_edges, seed) for gen_planted_cds; terminals and demands come
# from gen_gl_extension(n, k, seed=seed ^ 0xF00D).  The three instances
# reach the rarely taken branches of the Under-set growth rule (see
# tests/test_engine.py, TestMergedPaths).
PINNED = [(44, 21, 13, 553), (60, 29, 4, 110), (142, 19, 18, 18)]

SOLVE_DIGESTS = {
    (44, 21, 13, 553): "caf0384d2782cd7d972569136dd3a1f2eea7ede77faadad8bb02190cf43acfec",
    (60, 29, 4, 110): "a1e08017b83309dfd8e63085a0ece29d99e5135742e7c2627491b02e5b0a791d",
    (142, 19, 18, 18): "7c834615c49f37ce3b27cbbfc8cddd8b1e76b8fc7e5e8a3db40c384a3d1be20e",
}

# gen arguments and `cds -k` (None: the planted trees)
CHAINS = {
    "planted": (["--class", "planted", "--n", "200", "--k", "40", "--seed", "2"], None),
    "interval": (["--class", "interval", "--n", "40", "--k", "3", "--seed", "5"], 3),
    "biconvex": (["--class", "biconvex", "--na", "30", "--nb", "34", "--k", "3", "--seed", "2"], 3),
}

CHAIN_DIGESTS = {
    "planted": "03db182188d492d1a98611b6d272c3fafe67bba89d2ed6613d2cb8c8f7d4f919",
    "interval": "a1b83bcb00169d01deca7588b1863451acfc7f86e57acd63c753aaa1f2ce466c",
    "biconvex": "93b1549fb7b4605d3c25b584b4082b855892ceef44784df7c4b427a06fda46d9",
}


# gen arguments and `cds -k` for chains that stop at the CDS file: with K
# terminals the convex 4k rule gives only K/4 trees, so `partition` refuses.
# The file depends on the order of the backbone path family.
CDS_CHAINS = {
    "convex": (["--class", "convex", "--na", "40", "--nb", "80", "--k", "8", "--seed", "1"], 2),
}

CDS_DIGESTS = {
    "convex": "c1fd6c1cf76e03df5c399aa789aa7f9df550af7dd11953ad653c7f7aedd2c2f2",
}


def solve_digest(n, k, extra, seed):
    g, trees = gen_planted_cds(n, k, extra, seed)
    terminals, demands = gen_gl_extension(n, k, seed=seed ^ 0xF00D)
    trace = []
    p = solve(GLInstance(graph=g, terminals=terminals, demands=demands), trees, trace=trace)
    text = write_partition(p.blocks) + write_trace(trace)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("params", PINNED)
def test_pinned_solve_digest(params):
    assert solve_digest(*params) == SOLVE_DIGESTS[params]


@pytest.mark.parametrize("name", list(CHAINS))
def test_cli_chain_digest(tmp_path, capsys, name):
    gen_args, cds_k = CHAINS[name]
    model = tmp_path / "m.gl"
    assert main(["gen", *gen_args, "-o", str(model)]) == 0
    cds = model.with_suffix(".cds")
    if cds_k is not None:
        klass = gen_args[1]
        assert main(["cds", "--class", klass, "-k", str(cds_k), str(model), "-o", str(cds)]) == 0
    part, trace = tmp_path / "m.part", tmp_path / "m.trace"
    argv = ["partition", str(model), "--cds", str(cds), "-o", str(part), "--trace", str(trace)]
    assert main(argv) == 0
    capsys.readouterr()
    digest = hashlib.sha256(part.read_bytes() + trace.read_bytes()).hexdigest()
    assert digest == CHAIN_DIGESTS[name]


@pytest.mark.parametrize("name", list(CDS_CHAINS))
def test_cli_cds_digest(tmp_path, capsys, name):
    gen_args, cds_k = CDS_CHAINS[name]
    model, cds = tmp_path / "m.gl", tmp_path / "m.cds"
    assert main(["gen", *gen_args, "-o", str(model)]) == 0
    assert main(["cds", "--class", gen_args[1], "-k", str(cds_k), str(model), "-o", str(cds)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(cds.read_bytes()).hexdigest() == CDS_DIGESTS[name]


def test_same_digest_under_python_O():
    # the engine's state checks are explicit raises, so -O changes nothing
    params = PINNED[2]
    script = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        if __debug__:
            raise SystemExit("asserts are on: not running under -O")
        from test_golden import solve_digest
        print(solve_digest(*{params!r}))
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == SOLVE_DIGESTS[params]
