"""Golden outputs: the partition and trace bytes of fixed seeded solves.

A solve is pinned by two digests, the sha256 of its partition files and
the sha256 of its trace files, as `cdspart partition --trace` writes
them, so a change of the trace format re-pins trace digests alone and
cannot hide a change of partition.  A chain that stops at `cds` is pinned
by the digest of its CDS file, and `cdspart gen` by that of each file it
writes.  A refactor must leave every digest unchanged; a deliberate
change of output updates them.
"""

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import cdspart.engine as eng_module
from cdspart.cli import main
from cdspart.engine import GLInstance, PartitionState, solve
from cdspart.formats import write_partition, write_trace
from cdspart.generators import gen_gl_extension, gen_planted_cds

# (n, k, extra_edges, seed) for gen_planted_cds; terminals and demands come
# from gen_gl_extension(n, k, seed=seed ^ 0xF00D).  The three instances
# reach the rarely taken branches of the Under-set growth rule (see
# tests/test_engine.py, TestMergedPaths).
PINNED = [(44, 21, 13, 553), (60, 29, 4, 110), (142, 19, 18, 18)]

# (partition digest, trace digest) per instance
SOLVE_DIGESTS = {
    (44, 21, 13, 553): (
        "032c9a3387b6eb97d3110f781f06693925e2066ae07cf3667d4bd07cfd84426a",
        "900debf3d4b526813138e7d99bf6db4988c03d5acae262f4aff635d8f485b37d",
    ),
    (60, 29, 4, 110): (
        "932b522afbb968a933e1727a4200a2e679d7b0d84578b67675377879bfbe1c19",
        "10e15cc73ce74ad13777db15fb525c57314cf7ae8da669c155bad585edacbdc6",
    ),
    (142, 19, 18, 18): (
        "92da2079c0149534341416edfde8f88d653ff824bffb4d2881f92806640aa254",
        "bbc31260a80f616f9d289a36c294d5087d8b27fb27137669458429d6d6275c51",
    ),
}

# The stray-churn corpus, built like PINNED: at k = n/4 most rounds retire
# tree 0, and the stray terminals of each retired tree join the next tree 0
# in place.  One pair of digests covers every solve, in order.
CHURN = [(n, n // 4, n // 4, seed) for n in (40, 80, 120, 200) for seed in range(10)]
CHURN_DIGESTS = (
    "ab64a7e7f5a15dd56b7e19b2a124bbc1ab19798543727ae8f11210c7fbc6870d",
    "6f2ec7002b2e5624e486e1fdbaf8fec2d9084a4166931a8f98296f749d3bbe1e",
)
CHURN_STRAYS = 6361  # terminals on no tree when their round begins

# A seeded corpus of 600 planted solves with n <= 120, built like PINNED:
# odd entries draw k up to n/4 (many rounds, stray churn), even ones at
# most 4 trees (long single-tree runs).  One pair of digests covers them all.
def corpus(size=600):
    rng = random.Random(600)
    instances = []
    for i in range(size):
        n = rng.randint(8, 120)
        k = rng.randint(1, n // 4) if i % 2 else rng.randint(1, 4)
        instances.append((n, k, rng.randint(0, n), rng.randint(0, 10**6)))
    return instances


# Entries 235 and 353 trim their inflated block by the group state's own
# leaf removal, by 1 and 2 vertices; each partition passes `verify_gl`.
CORPUS_DIGESTS = (
    "42ae0c4e906a32dfa00b82b1e33ea39d62afd2b0abb35d0c1dad428babfbae03",
    "4ecd047aac276f76d0dcebe6535de495580895439fd2464fec5621a48d4c22b9",
)

# gen arguments and `cds -k` (None: the planted trees)
CHAINS = {
    "planted": (["--class", "planted", "--n", "200", "--k", "40", "--seed", "2"], None),
    "interval": (["--class", "interval", "--n", "40", "--k", "3", "--seed", "5"], 3),
    "biconvex": (["--class", "biconvex", "--na", "30", "--nb", "34", "--k", "3", "--seed", "2"], 3),
}

CHAIN_DIGESTS = {
    "planted": (
        "1809883d656445d68523e9112c776a16ec20ff8047f2f133dca7bb477254471c",
        "2cd8afcea5fd448b33afc1833d7a2e69307d62c8e1309a9fd1b85e1ca6c01fd3",
    ),
    "interval": (
        "2c8d0fc4f431fbcaba56d63e74615d8b6b319374bc6724d5a14b1f6b20fe1fd5",
        "b1dd7955d9803bc69020a548c2aa6e7b33eaff30f6e5a165449bce28716da79c",
    ),
    "biconvex": (
        "5040a89b063b6797996b1b14af1ff5b8c36801e11592ce75e51789a64bb8cb84",
        "5fb684b676492c36fef6aeb5cf2cca0f68176995f6381bbaf8ab03121446a124",
    ),
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


def solve_files(n, k, extra, seed):
    """The partition and trace bytes of one seeded solve."""
    g, trees = gen_planted_cds(n, k, extra, seed)
    terminals, demands = gen_gl_extension(n, k, seed=seed ^ 0xF00D)
    trace = []
    p = solve(GLInstance(graph=g, terminals=terminals, demands=demands), trees, trace=trace)
    return write_partition(p).encode(), write_trace(trace).encode()


def digests(files):
    """The sha256 of the partition files and of the trace files, each in order."""
    parts, traces = hashlib.sha256(), hashlib.sha256()
    for part, trace in files:
        parts.update(part)
        traces.update(trace)
    return parts.hexdigest(), traces.hexdigest()


def solve_digests(*params):
    return digests([solve_files(*params)])


@pytest.mark.parametrize("params", PINNED)
def test_pinned_solve_digest(params):
    assert solve_digests(*params) == SOLVE_DIGESTS[params]


def test_stray_churn_corpus_digest(monkeypatch):
    categorize = eng_module.categorize_trees
    strays = [0]

    def counted(state):
        strays[0] += sum(c not in state.tree_of for c in state.terminals.values())
        return categorize(state)

    monkeypatch.setattr(eng_module, "categorize_trees", counted)
    assert digests(solve_files(*params) for params in CHURN) == CHURN_DIGESTS
    assert strays[0] == CHURN_STRAYS, strays[0]


def test_seeded_corpus_digest():
    assert digests(solve_files(*params) for params in corpus()) == CORPUS_DIGESTS


@pytest.mark.parametrize("instances", [PINNED, corpus()], ids=["pinned", "corpus"])
def test_one_trace_line_per_state_change(monkeypatch, instances):
    # a PLACE per `add` (a steal's add too), a STEAL per steal, a ROUND per
    # retire and an EMIT per emission, and no other line
    calls = Counter()
    for name in ("add", "steal", "retire", "_emit"):
        def counted(self, *args, _method=getattr(PartitionState, name), _name=name, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(PartitionState, name, counted)
    lines = Counter()
    for params in instances:
        lines.update(line.split()[0] for line in solve_files(*params)[1].decode().splitlines())
    assert calls["steal"] > 0
    assert lines == Counter(
        PLACE=calls["add"], STEAL=calls["steal"], ROUND=calls["retire"], EMIT=calls["_emit"]
    )


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
    assert digests([(part.read_bytes(), trace.read_bytes())]) == CHAIN_DIGESTS[name]


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
        from test_golden import solve_digests
        print(*solve_digests(*{params!r}))
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, check=True,
    )
    assert tuple(out.stdout.split()) == SOLVE_DIGESTS[params]
