import io
import json
import os
import struct
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plclab.cli_harness import (
    EXIT_AUDIT_FAILURE,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    main,
    read_transcript,
    write_transcript,
)
from plclab.ffield import is_prime


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, out


def test_capacity_table_json(capsys):
    code, out = _run(
        capsys, ["--mode", "capacity-table", "--servers", "2", "--messages", "4"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mode"] == "capacity-table"
    rows = {(r["messages"], r["demand_size"]): r for r in report["rows"]}
    assert rows[(3, 2)]["jplc"] == {"num": 2, "den": 3}
    assert rows[(4, 3)]["iplc"] == {"num": 2, "den": 3}
    # K=4, D=3 leaves remainder 1 which divides 3; K=3, D=2 likewise valid
    assert rows[(3, 2)]["iplc"] == {"num": 2, "den": 3}


def test_capacity_table_csv(tmp_path, capsys):
    out_file = tmp_path / "caps.json"
    code, _ = _run(
        capsys,
        [
            "--mode", "capacity-table", "--servers", "2", "--messages", "3",
            "--format", "csv", "--out", str(out_file),
        ],
    )
    assert code == EXIT_OK
    assert out_file.exists()
    csv_lines = (tmp_path / "caps.json.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("servers,messages,demand_size")
    assert any(",jplc,2,3," in line for line in csv_lines)


def test_jplc_run_report(capsys):
    code, out = _run(
        capsys,
        [
            "--mode", "jplc", "--servers", "2", "--messages", "3",
            "--field", "3", "--support", "1,3", "--coeffs", "1,2",
            "--seed", "5",
        ],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["match"] is True
    assert report["achieves_capacity"] is True
    assert report["rate"] == {"num": 2, "den": 3}
    assert report["downloaded_symbols"] == 12


def test_iplc_run_report(capsys):
    code, out = _run(
        capsys,
        [
            "--mode", "iplc", "--servers", "2", "--messages", "5",
            "--field", "3", "--support", "1,3", "--seed", "7",
        ],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["match"] is True
    assert report["rate"] == {"num": 4, "den": 7}


def test_iplc_invalid_shape_is_usage_error(capsys):
    code = main(
        [
            "--mode", "iplc", "--servers", "2", "--messages", "8",
            "--field", "5", "--demand-size", "3", "--seed", "0",
        ]
    )
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "K mod D" in err


def test_nonprime_field_is_usage_error(capsys):
    code = main(
        ["--mode", "jplc", "--messages", "3", "--field", "4", "--demand-size", "1"]
    )
    assert code == EXIT_USAGE


def test_unknown_mode_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--mode", "bogus"])
    assert exc.value.code == EXIT_USAGE


def test_reduction_modes(capsys):
    code, out = _run(
        capsys,
        [
            "--mode", "pir-psi", "--servers", "2", "--messages", "3",
            "--field", "3", "--side-count", "1", "--seed", "3",
        ],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["match"] is True
    assert report["rate"] == {"num": 2, "den": 3}

    code, out = _run(
        capsys,
        [
            "--mode", "pir-si", "--servers", "2", "--messages", "5",
            "--field", "3", "--side-info", "2", "--target", "4", "--seed", "3",
        ],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["target_index"] == 4
    assert report["rate"] == {"num": 4, "den": 7}


@pytest.mark.parametrize("mode", ["pir-psi", "pir-si"])
def test_reduction_rejects_side_info_outside_one_to_k(mode, capsys):
    code = main(["--mode", mode, "--messages", "3", "--side-info", "4"])
    assert code == EXIT_USAGE
    assert "must lie in [1, 3]" in capsys.readouterr().err


def test_capacity_table_rejects_no_messages(capsys):
    code = main(["--mode", "capacity-table", "--messages", "0"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# Argument fuzz: each argv below is invalid in exactly one named way, on
# otherwise small valid shapes (default N=2, K=3, q=3).

_RUNS = {
    "jplc": ["--mode=jplc", "--demand-size=2"],
    "iplc": ["--mode=iplc", "--demand-size=2"],
    "pir-psi": ["--mode=pir-psi", "--side-count=1"],
    "pir-si": ["--mode=pir-si", "--side-count=1"],
}
_AUDITS = [
    ["--mode=audit", "--audit-kind=joint", "--demand-size=2"],
    ["--mode=audit", "--audit-kind=joint", "--demand-size=2", "--audit-sampling=sampled"],
    ["--mode=audit", "--audit-kind=recoverability", "--demand-size=2", "--trials=2"],
]


@st.composite
def _bad_count(draw):
    value = draw(st.integers(-3, 0))
    run = draw(st.sampled_from(sorted(_RUNS)))
    return draw(st.sampled_from([
        _RUNS[run] + [f"--servers={value}"],
        _RUNS[run] + [f"--messages={value}"],
        _RUNS[run] + [f"--t-mult={value}"],
        _RUNS["jplc"] + [f"--demand-size={value}"],
        _RUNS["iplc"] + [f"--demand-size={value}"],
        _RUNS["pir-psi"] + [f"--side-count={value - 1}"],
        _RUNS["pir-si"] + [f"--side-count={value - 1}"],
        ["--mode=capacity-table", f"--messages={value}"],
        ["--mode=capacity-table", f"--servers={value}"],
        _AUDITS[0][:-1] + [f"--demand-size={value}"],
        _AUDITS[1] + [f"--samples={value}"],
        _AUDITS[2][:-1] + [f"--trials={value}"],
    ]))


@st.composite
def _bad_field(draw):
    q = draw(st.one_of(
        st.integers(-10, 40).filter(lambda q: not is_prime(q)),
        st.sampled_from([2**64 - 59, 2**89 - 1, 2**127 - 1]),
    ))
    base = draw(st.sampled_from(list(_RUNS.values()) + _AUDITS))
    return base + [f"--field={q}"]


@st.composite
def _bad_demand(draw):
    k = draw(st.integers(2, 4))
    w = draw(st.lists(st.integers(1, k), min_size=1, max_size=k, unique=True))
    mode = draw(st.sampled_from(["jplc", "iplc"]))
    args = [f"--mode={mode}", f"--messages={k}", "--field=5"]
    fault = draw(st.sampled_from(["range", "repeat", "coeffs"]))
    if fault == "coeffs":
        n = draw(st.integers(1, k + 1).filter(lambda n: n != len(w)))
        return args + [f"--support={_csv(w)}", f"--coeffs={_csv([1] * n)}"]
    if fault == "range":
        w.append(draw(st.sampled_from([0, -1, k + 1, k + 2])))
    else:
        w.append(draw(st.sampled_from(w)))
    return args + [f"--support={_csv(draw(st.permutations(w)))}"]


@st.composite
def _small_field_jplc(draw):
    k = draw(st.integers(3, 6))
    q = draw(st.sampled_from([q for q in (2, 3, 5) if q < k]))
    if draw(st.booleans()):
        return ["--mode=jplc", f"--messages={k}", f"--field={q}", "--demand-size=1"]
    return ["--mode=pir-psi", f"--messages={k}", f"--field={q}", "--side-count=0"]


@st.composite
def _bad_side_info(draw):
    k = draw(st.integers(2, 4))
    args = [f"--mode={draw(st.sampled_from(['pir-psi', 'pir-si']))}",
            f"--messages={k}", "--field=5"]
    bad = draw(st.sampled_from([0, -1, k + 1, k + 2]))
    fault = draw(st.sampled_from(["side", "target", "repeat"]))
    if fault == "side":
        return args + [f"--side-info={bad}"]
    if fault == "target":
        return args + ["--side-info=1", f"--target={bad}"]
    return args + ["--side-info=1,1"]


def _csv(values):
    return ",".join(str(v) for v in values)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.one_of(
    _bad_count(), _bad_field(), _bad_demand(), _small_field_jplc(), _bad_side_info()
))
def test_bad_arguments_exit_1_with_an_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--seed=1"])
    assert code == EXIT_USAGE, (argv, out.getvalue())
    assert any(line.startswith("error:") for line in err.getvalue().splitlines())


def test_audit_mode_exhaustive(capsys):
    code, out = _run(
        capsys,
        [
            "--mode", "audit", "--audit-kind", "joint", "--servers", "2",
            "--messages", "3", "--demand-size", "2", "--field", "3",
        ],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["passed"] is True
    assert report["statistic"] == 0


def test_audit_mode_failure_exit_code(capsys):
    # An impossible threshold turns a passing audit into a failing report.
    code, out = _run(
        capsys,
        [
            "--mode", "audit", "--audit-kind", "individual", "--servers", "2",
            "--messages", "5", "--demand-size", "2", "--field", "3",
            "--audit-sampling", "sampled", "--samples", "500",
            "--tv-threshold", "-1",
        ],
    )
    assert code == EXIT_AUDIT_FAILURE
    assert json.loads(out)["passed"] is False


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("PLCLAB_SEED", "11")
    code, out = _run(
        capsys,
        ["--mode", "jplc", "--messages", "3", "--field", "3", "--support", "1,2"],
    )
    assert code == EXIT_OK
    assert json.loads(out)["seed"] == 11


def test_transcript_roundtrip_and_replay(tmp_path, capsys):
    path = tmp_path / "run.plct"
    code, _ = _run(
        capsys,
        [
            "--mode", "jplc", "--messages", "3", "--field", "3",
            "--support", "1,3", "--coeffs", "1,2", "--seed", "9",
            "--transcript", str(path),
        ],
    )
    assert code == EXIT_OK
    code, out = _run(capsys, ["--mode", "replay", "--transcript", str(path)])
    assert code == EXIT_OK
    assert json.loads(out)["verified"] is True


def test_replay_detects_tampered_answer(tmp_path, capsys):
    path = tmp_path / "run.plct"
    _run(
        capsys,
        [
            "--mode", "iplc", "--messages", "5", "--field", "3",
            "--support", "1,3", "--seed", "2", "--transcript", str(path),
        ],
    )
    payload = read_transcript(str(path))
    tampered = [list(map(list, server)) for server in payload["answers"]]
    tampered[0][1][0] = (tampered[0][1][0] + 1) % 3
    payload["answers"] = tampered
    write_transcript(str(path), payload)
    code, out = _run(capsys, ["--mode", "replay", "--transcript", str(path)])
    assert code == EXIT_INVARIANT
    report = json.loads(out)
    assert report["verified"] is False
    assert "answer" in report["mismatch"]


def test_replay_detects_tampered_recovered(tmp_path, capsys):
    path = tmp_path / "run.plct"
    _run(
        capsys,
        [
            "--mode", "jplc", "--messages", "3", "--field", "3",
            "--support", "2,3", "--seed", "4", "--transcript", str(path),
        ],
    )
    payload = read_transcript(str(path))
    payload["recovered"] = [(x + 1) % 3 for x in payload["recovered"]]
    write_transcript(str(path), payload)
    code, out = _run(capsys, ["--mode", "replay", "--transcript", str(path)])
    assert code == EXIT_INVARIANT
    assert "reconstruction" in json.loads(out)["mismatch"]


def test_replay_rejects_corrupt_magic(tmp_path, capsys):
    path = tmp_path / "bad.plct"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    code = main(["--mode", "replay", "--transcript", str(path)])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("blob", [b"PLCT", b"PLCT\x01"])
def test_replay_rejects_truncated_header(tmp_path, capsys, blob):
    path = tmp_path / "short.plct"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="truncated transcript"):
        read_transcript(str(path))
    code = main(["--mode", "replay", "--transcript", str(path)])
    assert code == EXIT_USAGE
    assert "truncated transcript" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tamper",
    [
        lambda p: p.update(params=list(p["params"].values())),
        lambda p: p["params"].pop("field"),
        lambda p: p["params"].update(field="3"),
        lambda p: p.update(randomness=None),
        lambda p: p["params"].update(coefficients=[]),
    ],
    ids=[
        "params-list",
        "params-no-field",
        "field-string",
        "randomness-null",
        "coefficients-empty",
    ],
)
def test_replay_rejects_malformed_section(tmp_path, capsys, tamper):
    path = tmp_path / "run.plct"
    code, _ = _run(
        capsys,
        [
            "--mode", "jplc", "--messages", "3", "--field", "3",
            "--support", "1,3", "--seed", "9", "--transcript", str(path),
        ],
    )
    assert code == EXIT_OK
    payload = read_transcript(str(path))
    tamper(payload)
    write_transcript(str(path), payload)
    code = main(["--mode", "replay", "--transcript", str(path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("depth", [900, 5000])
def test_replay_rejects_a_deeply_nested_section(tmp_path, capsys, depth):
    """Lists nested past the interpreter's recursion limit are a malformed
    section, not a crash: 900 deep used to fail while turning the queries
    into tuples and 5000 deep inside the JSON decoder."""
    path = tmp_path / "run.plct"
    code, _ = _run(
        capsys,
        [
            "--mode", "jplc", "--messages", "3", "--field", "3",
            "--support", "1,3", "--seed", "9", "--transcript", str(path),
        ],
    )
    assert code == EXIT_OK
    payload = read_transcript(str(path))
    blob = bytearray(path.read_bytes()[:_HEADER])
    for name, value in payload.items():
        data = ("[" * depth + "]" * depth if name == "queries" else json.dumps(value)).encode()
        blob += struct.pack(">I", len(data)) + data
    path.write_bytes(bytes(blob))
    code = main(["--mode", "replay", "--transcript", str(path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: transcript queries nests too deeply\n"


def test_large_field_run_and_replay(tmp_path, capsys):
    path = tmp_path / "wide.plct"
    code, out = _run(
        capsys,
        [
            "--mode", "jplc", "--messages", "3", "--field", str(2**61 - 1),
            "--support", "1,3", "--seed", "3", "--transcript", str(path),
        ],
    )
    assert code == EXIT_OK
    assert json.loads(out)["match"] is True
    code, out = _run(capsys, ["--mode", "replay", "--transcript", str(path)])
    assert code == EXIT_OK
    assert json.loads(out)["verified"] is True


def test_many_random_transcripts_verify(tmp_path, capsys):
    """Saved transcripts replay bit-exactly across seeds and modes."""
    for seed in range(25):
        path = tmp_path / f"j{seed}.plct"
        code, _ = _run(
            capsys,
            [
                "--mode", "jplc", "--messages", "3", "--field", "3",
                "--demand-size", "2", "--seed", str(seed),
                "--transcript", str(path),
            ],
        )
        assert code == EXIT_OK
        code, out = _run(capsys, ["--mode", "replay", "--transcript", str(path)])
        assert code == EXIT_OK and json.loads(out)["verified"] is True
    for seed in range(25):
        path = tmp_path / f"i{seed}.plct"
        code, _ = _run(
            capsys,
            [
                "--mode", "iplc", "--messages", "4", "--field", "3",
                "--demand-size", "2", "--seed", str(seed),
                "--transcript", str(path),
            ],
        )
        assert code == EXIT_OK
        code, out = _run(capsys, ["--mode", "replay", "--transcript", str(path)])
        assert code == EXIT_OK and json.loads(out)["verified"] is True


def test_out_file_holds_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, printed = _run(
        capsys,
        [
            "--mode", "jplc", "--messages", "3", "--field", "3",
            "--support", "1,2", "--seed", "0", "--out", str(out_file),
        ],
    )
    assert code == EXIT_OK
    assert printed == ""
    report = json.loads(out_file.read_text())
    assert report["match"] is True


# ---------------------------------------------------------------------------
# Transcript fuzz: whatever a transcript's bytes, section lengths or JSON
# fields say, replay ends with exit 0, 1 or 3 and raises nothing.

FUZZ_RUNS = {
    "jplc": ["--mode", "jplc", "--messages", "3", "--demand-size", "2"],
    "iplc": ["--mode", "iplc", "--messages", "4", "--demand-size", "2"],
}
FUZZ = settings(max_examples=200, derandomize=True, deadline=None)
_HEADER = 6  # magic, version byte, section count byte


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding one jplc and one iplc transcript at q = 3."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, argv in FUZZ_RUNS.items():
        path = root / f"{name}.plct"
        with redirect_stdout(io.StringIO()):
            code = main(argv + ["--field", "3", "--seed", "7", "--transcript", str(path)])
        assert code == EXIT_OK
    return root


def _replay_blob(root, blob):
    path = root / "fuzzed.plct"
    path.write_bytes(blob)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["--mode", "replay", "--transcript", str(path)])
    return code, out.getvalue()


def _length_prefixes(blob):
    """The offset of each section's 4-byte length prefix."""
    found, at = [], _HEADER
    while at < len(blob):
        found.append(at)
        at += 4 + struct.unpack_from(">I", blob, at)[0]
    return found


@FUZZ
@given(st.sampled_from(sorted(FUZZ_RUNS)), st.data())
def test_mutated_transcript_bytes_replay_to_a_documented_exit(fuzz_dir, name, data):
    blob = (fuzz_dir / f"{name}.plct").read_bytes()
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(blob) - 1))
        blob = blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1 :]
    else:
        at = data.draw(st.sampled_from(_length_prefixes(blob)))
        length = data.draw(st.integers(0, 2**32 - 1))
        blob = blob[:at] + struct.pack(">I", length) + blob[at + 4 :]
    code, _ = _replay_blob(fuzz_dir, blob)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVARIANT)


def _json_paths(obj, path=()):
    """The path of every value in a JSON document, the root included. Of a
    list only the first and last entries are entered, so that long lists do
    not crowd out the fields."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list) and obj:
        items = ((0, obj[0]), (len(obj) - 1, obj[-1]))
    else:
        return
    for key, value in items:
        yield from _json_paths(value, path + (key,))


_JSON_VALUES = st.one_of(
    st.integers(-3, 9),
    st.sampled_from([None, True, 1.5, "3", [], {}, 2**61 - 1, 2**70]),
    st.lists(st.integers(-1, 4), max_size=4),
)


@FUZZ
@given(st.sampled_from(sorted(FUZZ_RUNS)), st.data())
def test_mutated_transcript_field_replays_to_a_documented_exit(fuzz_dir, name, data):
    """One JSON value replaced, or one list entry or object key removed."""
    payload = read_transcript(str(fuzz_dir / f"{name}.plct"))
    # params and randomness hold every scalar replay reads: half the draws.
    section = data.draw(
        st.sampled_from(["params", "randomness"]) | st.sampled_from(sorted(payload))
    )
    path = data.draw(st.sampled_from(list(_json_paths(payload[section]))))
    parent, key = payload, section
    for step in path:
        parent, key = parent[key], step
    if path and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(_JSON_VALUES)
    path = fuzz_dir / "source.plct"
    write_transcript(str(path), payload)
    code, _ = _replay_blob(fuzz_dir, path.read_bytes())
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVARIANT)


@FUZZ
@given(st.sampled_from(sorted(FUZZ_RUNS)), st.data())
def test_changed_answer_value_fails_replay(fuzz_dir, name, data):
    payload = read_transcript(str(fuzz_dir / f"{name}.plct"))
    answers = payload["answers"]
    server, block = data.draw(st.sampled_from([
        (i, j) for i, blocks in enumerate(answers) for j, got in enumerate(blocks) if got
    ]))
    index = data.draw(st.integers(0, len(answers[server][block]) - 1))
    old = answers[server][block][index]
    answers[server][block][index] = data.draw(
        st.integers(-3, 2**64).filter(lambda v: v != old)
    )
    path = fuzz_dir / "source.plct"
    write_transcript(str(path), payload)
    code, out = _replay_blob(fuzz_dir, path.read_bytes())
    assert code == EXIT_INVARIANT
    assert json.loads(out)["mismatch"] == "answer mismatch"
