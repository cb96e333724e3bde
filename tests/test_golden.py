"""Golden outputs: the partition and trace bytes of fixed seeded solves.

Each digest is the sha256 of a partition file followed by its trace file,
as `cdspart partition --trace` writes them, or, for a chain that stops at
`cds`, of the CDS file, or of each file `cdspart gen` writes.  A refactor must leave every digest unchanged; a
deliberate change of output updates them.
"""

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cdspart.engine as eng_module
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

# The stray-churn corpus, built like PINNED: at k = n/4 most rounds retire
# tree 0, and the stray terminals of each retired tree join the next tree 0
# in place.  One digest covers every solve's partition and trace in order.
CHURN = [(n, n // 4, n // 4, seed) for n in (40, 80, 120, 200) for seed in range(10)]
CHURN_DIGEST = "c56436317634891c995af789b01d59482a6df5f51443fb4ac6c6703f902e7731"
CHURN_STRAYS = 6361  # terminals on no tree when their round begins

# A seeded corpus of 600 planted solves with n <= 120, built like PINNED:
# odd entries draw k up to n/4 (many rounds, stray churn), even ones at
# most 4 trees (long single-tree runs).  One digest covers them all.
def corpus(size=600):
    rng = random.Random(600)
    instances = []
    for i in range(size):
        n = rng.randint(8, 120)
        k = rng.randint(1, n // 4) if i % 2 else rng.randint(1, 4)
        instances.append((n, k, rng.randint(0, n), rng.randint(0, 10**6)))
    return instances


CORPUS_DIGEST = "8206f5848d5e0c8c1b1c8ec0c8fe7c1f234453e29e718c73366c5e58f3a028f0"

# gen arguments and `cds -k` (None: the planted trees)
CHAINS = {
    "planted": (["--class", "planted", "--n", "200", "--k", "40", "--seed", "2"], None),
    "interval": (["--class", "interval", "--n", "40", "--k", "3", "--seed", "5"], 3),
    "biconvex": (["--class", "biconvex", "--na", "30", "--nb", "34", "--k", "3", "--seed", "2"], 3),
}

CHAIN_DIGESTS = {
    "planted": "03db182188d492d1a98611b6d272c3fafe67bba89d2ed6613d2cb8c8f7d4f919",
    "interval": "be12fb56b01d200d454f789369e9c946a7dad8cb762cc29944c47f630b0fd371",
    "biconvex": "93b1549fb7b4605d3c25b584b4082b855892ceef44784df7c4b427a06fda46d9",
}


# gen arguments and `cds -k` for chains that stop at the CDS file: with K
# terminals the convex 4k rule gives only K/4 trees, so `partition` refuses.
# The file depends on the order of the backbone path family.  The interval
# file, at the benchmark's size, pins the separator sweep's family.
CDS_CHAINS = {
    "convex": (["--class", "convex", "--na", "40", "--nb", "80", "--k", "8", "--seed", "1"], 2),
    "interval": (["--class", "interval", "--n", "80", "--k", "4", "--seed", "3"], 4),
}

CDS_DIGESTS = {
    "convex": "c1fd6c1cf76e03df5c399aa789aa7f9df550af7dd11953ad653c7f7aedd2c2f2",
    "interval": "8623e548dd17b80dce3679747661e0493129e12fd1b07621eccb5d4d6534982f",
}


# gen arguments and the model file's extension, at the benchmark's sizes:
# the digests pin every file `gen` writes (a planted run also writes `.cds`)
GEN_CASES = {
    "interval": (["--class", "interval", "--n", "80", "--k", "4", "--seed", "3"], "interval"),
    "biconvex": (["--class", "biconvex", "--na", "200", "--nb", "220", "--k", "4", "--seed", "3"], "biconvex"),
    "convex": (["--class", "convex", "--na", "300", "--nb", "600", "--k", "8", "--seed", "3"], "convex"),
    "planted": (["--class", "planted", "--n", "600", "--k", "150", "--seed", "3"], "gl"),
    # the sparse size: its `perm` shuffle spans three blocks of draws
    "planted-sparse": (["--class", "planted", "--n", "10000", "--k", "8", "--seed", "3"], "gl"),
}

GEN_DIGESTS = {
    "interval": {"m.interval": "2eadaca09e1fa0f86dc303bab926a1ecb8b431c6edfd500bc523bd73096b53c6"},
    "biconvex": {"m.biconvex": "2089767c2808a9f23f5e471b75400c77c9287810846fb99024827a0f4c830d9e"},
    "convex": {"m.convex": "410af097495b2f1dee2df684edee8f3e9aff0df3f42e90125901451e9883adb0"},
    "planted": {
        "m.gl": "f974389684d5c2fba47cd33c16dd8062e152af86ee8fbd49219efd768911c0a1",
        "m.cds": "e474aa2c1a28da02f8e24db20dc47426c14dc23dc656050101b0f8040ceb3f04",
    },
    "planted-sparse": {
        "m.gl": "b2959410648ced9539447690ea165c66bcf603d17967c5dcf79af5f544f69ec1",
        "m.cds": "660e9ed6613a618c9f6898fd802e9064b9e16cc0f16ff71389c60e2eb566dcef",
    },
}


def solve_bytes(n, k, extra, seed):
    g, trees = gen_planted_cds(n, k, extra, seed)
    terminals, demands = gen_gl_extension(n, k, seed=seed ^ 0xF00D)
    trace = []
    p = solve(GLInstance(graph=g, terminals=terminals, demands=demands), trees, trace=trace)
    return (write_partition(p) + write_trace(trace)).encode()


def solve_digest(n, k, extra, seed):
    return hashlib.sha256(solve_bytes(n, k, extra, seed)).hexdigest()


@pytest.mark.parametrize("params", PINNED)
def test_pinned_solve_digest(params):
    assert solve_digest(*params) == SOLVE_DIGESTS[params]


def test_stray_churn_corpus_digest(monkeypatch):
    categorize = eng_module.categorize_trees
    strays = [0]

    def counted(state):
        strays[0] += sum(c not in state.tree_of for c in state.terminals.values())
        return categorize(state)

    monkeypatch.setattr(eng_module, "categorize_trees", counted)
    h = hashlib.sha256()
    for params in CHURN:
        h.update(solve_bytes(*params))
    assert h.hexdigest() == CHURN_DIGEST
    assert strays[0] == CHURN_STRAYS, strays[0]


def test_seeded_corpus_digest():
    h = hashlib.sha256()
    for params in corpus():
        h.update(solve_bytes(*params))
    assert h.hexdigest() == CORPUS_DIGEST


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


@pytest.mark.parametrize("name", list(GEN_CASES))
def test_cli_gen_digest(tmp_path, capsys, name):
    gen_args, ext = GEN_CASES[name]
    assert main(["gen", *gen_args, "-o", str(tmp_path / f"m.{ext}")]) == 0
    capsys.readouterr()
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert digests == GEN_DIGESTS[name]


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
