import json
import os

import pytest

from plclab.cli_harness import (
    EXIT_AUDIT_FAILURE,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    main,
    read_transcript,
    write_transcript,
)


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
