"""Seeded CLI outputs, pinned byte for byte.

A seed fixes every draw of a run, so a transcript, and the canonical JSON
report of a seeded audit, is a function of the argv alone. The SHA-256
digests below were recorded from the CLI; a change that moves any draw, or
reorders the draws, changes a digest.
"""

import hashlib
import json

import pytest

from plclab.cli_harness import EXIT_OK, main, read_transcript

RUNS = {
    "jplc-N2-K3": (
        ["--mode=jplc", "--messages=3", "--demand-size=2", "--seed=5"],
        "e1be6d46ee84efc21e26e9f2c0f8eb55b259be8acf8ca223675252d9a9a2e25d",
    ),
    "jplc-N3-K4-q5": (
        ["--mode=jplc", "--servers=3", "--messages=4", "--demand-size=2",
         "--field=5", "--seed=6"],
        "a15ec00c95410134ba96cb0495310ce859d7adeffa0d2d9317480e6d1bf646c7",
    ),
    # Seed 0 plants the demand on an aligned support, seed 3 in the plain row.
    "iplc-K5-D2-seed0": (
        ["--mode=iplc", "--messages=5", "--demand-size=2", "--seed=0"],
        "1176431757aeca124acb8691b5252cbf4fdb2a1b8a098eca6a1cd772116d98b8",
    ),
    "iplc-K5-D2-seed3": (
        ["--mode=iplc", "--messages=5", "--demand-size=2", "--seed=3"],
        "e30be9cc784e98161b6a2276539daa1b7389a85b17d76246a1c8a9c119ffefc0",
    ),
    # D | K: the block is drawn before sigma.
    "iplc-K4-D2": (
        ["--mode=iplc", "--messages=4", "--demand-size=2", "--seed=2"],
        "e34c33ec5bdfc2c2e4cf57265a034628b73493c56cc84af38f328149ef2e8e62",
    ),
    "iplc-K6-D3": (
        ["--mode=iplc", "--messages=6", "--demand-size=3", "--seed=4"],
        "afe740be18b977f86bcb2bf7c6b92de111b0f6646692fe827e47bec2f9c24fae",
    ),
    "iplc-K9-D6-q5": (
        ["--mode=iplc", "--messages=9", "--demand-size=6", "--field=5", "--seed=8"],
        "521143e430bd455d4689e852e5639915124c1954988270a9eff526299ad37a59",
    ),
    # R = 2, m = 3 aligned segments, T = 16: seed 1 plants the demand in the
    # plain row, seed 0 on the aligned support that drops segment 2.
    "iplc-K10-D4-q5-seed0": (
        ["--mode=iplc", "--messages=10", "--demand-size=4", "--field=5", "--seed=0"],
        "3646c01f382ff12c5dd0c9104828e97901b6bbedfd99eaf1368399553b0dfc85",
    ),
    "iplc-K10-D4-q5-seed1": (
        ["--mode=iplc", "--messages=10", "--demand-size=4", "--field=5", "--seed=1"],
        "b2566024a0a88d7ead675f2789ea07846ac95282d29e6a3a8a7d577427ddff4b",
    ),
    # M = 10 coded streams, T = 1024: seed 0 targets stream 2, which relabels
    # the engine's skeleton, and seed 5 targets stream 10 = M, its own.
    "jplc-K5-D2-q5-seed0": (
        ["--mode=jplc", "--messages=5", "--demand-size=2", "--field=5", "--seed=0"],
        "b43cc046ffe361b4737eb4481c8904206d92da0cc304b334e2859fbe59e5a251",
    ),
    "jplc-K5-D2-q5-seed5": (
        ["--mode=jplc", "--messages=5", "--demand-size=2", "--field=5", "--seed=5"],
        "54a1605da0a9d628e5bb7d80304e92536713f7c5a2dcece6fbf561833797bdd5",
    ),
    "pir-psi": (
        ["--mode=pir-psi", "--messages=4", "--side-count=1", "--field=5", "--seed=3"],
        "35df63b9cb77875e58dca8a058b9218b7bd13fa36f2a7e337dd9c2fd11319cf0",
    ),
    "pir-si": (
        ["--mode=pir-si", "--messages=4", "--side-count=1", "--seed=4"],
        "7ac8a109a4d60cc7b3e16ff9922112bf1421930983ef7867704c6dbaffd53db5",
    ),
}

AUDITS = {
    "individual-sampled": (
        ["--mode=audit", "--audit-kind=individual", "--messages=5", "--demand-size=2",
         "--audit-sampling=sampled", "--samples=2000", "--seed=3"],
        "e5f5b2e3764d4eb7bab91973267b3df493720526ad80b0b033f142dda319871c",
    ),
    "recoverability": (
        ["--mode=audit", "--audit-kind=recoverability", "--messages=4",
         "--demand-size=2", "--trials=5", "--seed=2"],
        "f96c0cb0f76de47f7897ae08ec7e19a5c79ffa517ba54fd439469f90f6f08ae8",
    ),
    "pir-si-sampled": (
        ["--mode=audit", "--audit-kind=pir-si", "--messages=5", "--side-count=1",
         "--audit-sampling=sampled", "--samples=2000", "--seed=5"],
        "89eb7c093c4122fb5734a6fbfa8221ec25299fcb7ce94d28bb7c4940747eeeaf",
    ),
    # R = 2, m = 3 aligned segments.
    "individual-sampled-K10-D4-q5": (
        ["--mode=audit", "--audit-kind=individual", "--messages=10", "--demand-size=4",
         "--field=5", "--audit-sampling=sampled", "--samples=500", "--seed=2"],
        "eb37c2853aae3125ae53a71ae9d4e6797130a8df956b01eb18f3c1b4bd259ed1",
    ),
    # Walks every outcome of the encoder's draws.
    "individual-exhaustive": (
        ["--mode=audit", "--audit-kind=individual", "--messages=5", "--demand-size=2",
         "--field=3"],
        "4dc633c1c41c3bb75baad0e3dcda2673f7db5763e8599d1307ce36f527bc951e",
    ),
    # Exact audits: each pins exact_statistic, worst_pair (joint) and
    # num_views, which the exact mass sums decide.
    "joint-full-exhaustive": (
        ["--mode=audit", "--audit-kind=joint", "--servers=2", "--messages=2",
         "--demand-size=1", "--field=2", "--audit-layer=full"],
        "5fb836bea2c72bc4fc9e5ec3be4b2a8dd67e7acaf17f519b0f0bb4f0393b9a43",
    ),
    # 16 encoder paths by 384 query draws: 6,144 walk paths, 384 views.
    "joint-full-exhaustive-q3": (
        ["--mode=audit", "--audit-kind=joint", "--servers=2", "--messages=2",
         "--demand-size=1", "--field=3", "--audit-layer=full"],
        "47d0b1803393e0178147692697f4393c1e38b3f2ada97e0e7054f2e49a43371c",
    ),
    "joint-exhaustive": (
        ["--mode=audit", "--audit-kind=joint", "--messages=3", "--demand-size=2",
         "--field=3"],
        "8a1972717419f0e585d23b3c0c0081dead05167fd13f14e8ca5bf05a1e1e57f9",
    ),
    "pir-psi-exhaustive": (
        ["--mode=audit", "--audit-kind=pir-psi", "--messages=3", "--side-count=1",
         "--field=3"],
        "36cd158645e64ff3590ca4711abcfbfee0abd7e79aa7154d3dbf8697da8a4d70",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_seeded_transcript_digest(name, tmp_path, capsys):
    argv, digest = RUNS[name]
    path = tmp_path / "run.plct"
    assert main(argv + [f"--transcript={path}"]) == EXIT_OK
    capsys.readouterr()
    assert _sha256(path.read_bytes()) == digest


def test_iplc_seeds_cover_both_routes(tmp_path, capsys):
    """Algorithm 1 plants the demand in the plain row, index 1 at n = 1.
    Algorithm 2 plants it on the aligned support that drops segment `block`,
    index n + m - block + 1: 3 for K=10, D=4 (n = 1, m = 3, block 2)."""
    indices = []
    for name in ("iplc-K5-D2-seed0", "iplc-K5-D2-seed3",
                 "iplc-K10-D4-q5-seed0", "iplc-K10-D4-q5-seed1"):
        path = tmp_path / f"{name}.plct"
        assert main(RUNS[name][0] + [f"--transcript={path}"]) == EXIT_OK
        indices.append(read_transcript(str(path))["randomness"]["demand_index"])
    capsys.readouterr()
    assert indices[0] > 1 and indices[1] == 1
    assert indices[2:] == [3, 1]


def test_jplc_seeds_cover_both_targets(tmp_path, capsys):
    """The two M = 10 runs target a stream below M and M itself."""
    indices = []
    for name in ("jplc-K5-D2-q5-seed0", "jplc-K5-D2-q5-seed5"):
        path = tmp_path / f"{name}.plct"
        assert main(RUNS[name][0] + [f"--transcript={path}"]) == EXIT_OK
        indices.append(read_transcript(str(path))["randomness"]["demand_index"])
    capsys.readouterr()
    assert indices == [2, 10]


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_seeded_audit_report_digest(name, capsys):
    argv, digest = AUDITS[name]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    json.loads(out)
    assert _sha256(out.encode("utf-8")) == digest
