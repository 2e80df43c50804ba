import json
from pathlib import Path

import pytest

from streamfec import cli
from streamfec.cli import main
from streamfec.matrix import Mat

from conftest import mutated


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuild:
    def test_example_one_summary(self, capsys):
        code, out, _ = run(capsys, "build", "--W", "10", "--T", "9", "--B", "5", "--N", "3")
        assert code == 0
        assert out.strip() == "k=7 n=12 M=1 delta=2 q=7 m=9 rate=7/12 capacity=7/12"

    def test_example_two_summary(self, capsys):
        code, out, _ = run(capsys, "build", "--W", "11", "--T", "10", "--B", "4", "--N", "2")
        assert code == 0
        assert out.strip() == "k=9 n=13 M=2 delta=0 q=5 m=9 rate=9/13 capacity=9/13"

    def test_out_writes_bundle(self, capsys, tmp_path):
        path = tmp_path / "bundle.json"
        code, out, _ = run(capsys, "build", "--W", "10", "--T", "9", "--B", "5", "--N", "3",
                           "--out", str(path))
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["derived"]["k"] == 7
        assert f"wrote {path}" in out

    def test_out_of_regime_exits_2(self, capsys):
        code, _, err = run(capsys, "build", "--W", "10", "--T", "4", "--B", "3", "--N", "3")
        assert code == 2
        assert "error:" in err

    def test_zero_capacity_exits_2(self, capsys):
        code, _, err = run(capsys, "build", "--W", "4", "--T", "9", "--B", "5", "--N", "3")
        assert code == 2
        assert "zero-capacity" in err


class TestCapacity:
    def test_example_one(self, capsys):
        code, out, _ = run(capsys, "capacity", "--T", "9", "--B", "5", "--N", "3")
        assert code == 0
        assert out.strip() == "7/12 ≈ 0.5833"

    def test_invalid_exits_2(self, capsys):
        code, _, _ = run(capsys, "capacity", "--T", "2", "--B", "5", "--N", "3")
        assert code == 2


class TestVerify:
    def test_exhaustive_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "--W", "10", "--T", "9", "--B", "5", "--N", "3",
                           "--trials", "2")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["failures"] == []
        assert summary["patterns_checked"] > 100

    def test_single_pattern_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--W", "10", "--T", "9", "--B", "5", "--N", "3",
                           "--erase", "0,1,2,3,4")
        assert code == 0
        rep = json.loads(out)
        assert len(rep["symbols"]) == 7
        assert all(s["status"] == "recovered" for s in rep["symbols"])
        assert all(s["recovery_time"] <= s["deadline"] for s in rep["symbols"])

    def test_random_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--W", "10", "--T", "9", "--B", "5", "--N", "3",
                           "--mode", "random", "--trials", "20", "--seed", "7")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["patterns_checked"] == 20
        assert summary["failures"] == []

    def test_default_mode_falls_back_to_random(self, capsys):
        # N = 5 exceeds the enumeration budget although n = 10 is small
        code, out, _ = run(capsys, "verify", "--W", "10", "--T", "9", "--B", "5", "--N", "5",
                           "--trials", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("random mode: sampling 4 patterns")
        summary = json.loads(lines[-1])
        assert summary["patterns_checked"] == 4
        assert summary["failures"] == []

    @pytest.mark.parametrize("mode", [[], ["--mode", "random"]])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_exit_2(self, capsys, mode, trials):
        code, out, err = run(capsys, "verify", "--W", "10", "--T", "9", "--B", "5", "--N", "3",
                             "--trials", trials, *mode)
        assert code == 2
        assert out == ""
        assert f"--trials must be >= 1, got {trials}" in err

    def test_explicit_exhaustive_over_budget_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--W", "10", "--T", "9", "--B", "5", "--N", "5",
                             "--mode", "exhaustive")
        assert code == 2
        assert out == ""
        assert "use --mode random" in err

    def test_mutated_generator_exits_1(self, capsys, ex1, monkeypatch):
        bad = mutated(ex1, 3, 1)
        monkeypatch.setattr(cli, "build_code", lambda d: bad)
        code, out, _ = run(capsys, "verify", "--W", "10", "--T", "9", "--B", "5", "--N", "3",
                           "--trials", "1")
        summary = json.loads(out.strip().splitlines()[-1])
        assert code == 1
        assert summary["failures"]


class TestSimulate:
    def test_deterministic_output_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["simulate", "--W", "10", "--T", "9", "--B", "5", "--N", "3",
                "--len", "60", "--trials", "3", "--seed", "11"]
        assert run(capsys, *base, "--out", str(a))[0] == 0
        assert run(capsys, *base, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        summary = json.loads(a.read_text())
        assert summary["failures"] == []
        assert summary["packets"] == 180
        assert summary["recovered"] == 180

    def test_latency_stays_within_delay(self, capsys):
        code, out, _ = run(capsys, "simulate", "--W", "11", "--T", "10", "--B", "4",
                           "--N", "2", "--len", "80", "--trials", "4", "--seed", "3")
        assert code == 0
        summary = json.loads(out)
        assert summary["max_latency"] <= 10

    def test_zero_trials_empty_summary(self, capsys):
        code, out, _ = run(capsys, "simulate", "--W", "10", "--T", "9", "--B", "5",
                           "--N", "3", "--trials", "0")
        assert code == 0
        assert json.loads(out) == {}

    def test_negative_trials_exit_2(self, capsys):
        code, out, err = run(capsys, "simulate", "--W", "10", "--T", "9", "--B", "5",
                             "--N", "3", "--trials", "-1")
        assert code == 2
        assert out == ""
        assert "--trials must be >= 0, got -1" in err

    def test_zero_len_on_window_longer_than_horizon(self, capsys):
        # (6, 5, 3, 3) has n = 6, so a zero-length stream spans 5 < W slots
        code, out, err = run(capsys, "simulate", "--W", "6", "--T", "5", "--B", "3",
                             "--N", "3", "--len", "0", "--trials", "1")
        assert (code, err) == (0, "")
        summary = json.loads(out)
        assert (summary["packets"], summary["recovered"], summary["failures"]) == (0, 0, [])

    @pytest.mark.parametrize("length", ["-1", "-3"])
    def test_negative_len_exit_2(self, capsys, length):
        code, out, err = run(capsys, "simulate", "--W", "10", "--T", "9", "--B", "5",
                             "--N", "3", "--len", length)
        assert code == 2
        assert out == ""
        assert err == f"error: --len must be >= 0, got {length}\n"


class TestExport:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "export", "--W", "11", "--T", "10", "--B", "4", "--N", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["params"] == {"W": 11, "T": 10, "B": 4, "N": 2}
        assert obj["constituents"]["mds"]["n"] == 4

    def test_file_round_trips_generator(self, capsys, tmp_path, ex1):
        path = tmp_path / "g.json"
        code, _, _ = run(capsys, "export", "--W", "10", "--T", "9", "--B", "5", "--N", "3",
                         "--out", str(path))
        assert code == 0
        obj = json.loads(path.read_text())
        assert Mat.from_json_obj(obj["G"]) == ex1.G


EX1 = ["--W", "10", "--T", "9", "--B", "5", "--N", "3"]
EX2 = ["--W", "11", "--T", "10", "--B", "4", "--N", "2"]


# (name, argv, exit code) per row of golden/commands.txt, the one table the
# CI workflow's installed-script step reads too
ROWS = (Path(__file__).parent / "golden" / "commands.txt").read_text().splitlines()
GOLDEN = [(name, argv, int(code)) for name, code, *argv in
          (row.split() for row in ROWS if row and not row.startswith("#"))]


# ids as pytest named the cases before the exit-code column, so test names stay
@pytest.mark.parametrize("name, argv, exit_code", GOLDEN,
                         ids=[f"{name}-argv{i}" for i, (name, _, _) in enumerate(GOLDEN)])
def test_golden_stdout(capsys, name, argv, exit_code):
    """Stdout and exit code match the output recorded in tests/golden."""
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert out == (Path(__file__).parent / "golden" / f"{name}.txt").read_text()


# (golden name, argv, (i, c) of the P entry changed, zeroed instead of raised by one)
MUTATED_GOLDEN = [
    ("simulate_mutated31_ex1", ["simulate", *EX1, "--len", "80", "--trials", "4", "--seed", "2"],
     (3, 1), False),
    ("verify_mutated31_ex1", ["verify", *EX1, "--trials", "1"], (3, 1), False),
    ("verify_zeroed00_ex1", ["verify", *EX1, "--trials", "1"], (0, 0), True),
]


@pytest.mark.parametrize("name, argv, entry, zero", MUTATED_GOLDEN,
                         ids=[name for name, *_ in MUTATED_GOLDEN])
def test_mutated_golden_stdout(capsys, monkeypatch, ex1, name, argv, entry, zero):
    """A broken P makes the CLI report the same failures, byte for byte, with
    exit 1: the [trial, t] labels of simulate and verify's structural text."""
    i, c = entry
    bad = mutated(ex1, i, c, -ex1.P.rows[i][c] if zero else None)
    monkeypatch.setattr(cli, "build_code", lambda d: bad)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == (Path(__file__).parent / "golden" / f"{name}.txt").read_text()


@pytest.mark.parametrize("command", ["build", "export", "simulate"])
def test_unwritable_out_exits_2(capsys, tmp_path, command):
    """An --out path in a missing directory is a usage error, not a traceback
    or a found failure, and nothing reaches stdout."""
    path = tmp_path / "missing" / "x.json"
    extra = ["--len", "20", "--trials", "1"] if command == "simulate" else []
    code, out, err = run(capsys, command, *EX1, *extra, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not path.exists()
