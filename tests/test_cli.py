"""Command line behavior: output shapes, exit codes, file writing."""

import json

import pytest

from kyoung import qpoly
from kyoung.cli import main, parse_m_values, parse_parts, parse_span


class TestParsers:
    def test_parse_parts(self):
        assert parse_parts("4,2,1,1") == (4, 2, 1, 1)
        assert parse_parts("") == ()
        assert parse_parts("-") == ()
        assert parse_parts(" 3,1 ") == (3, 1)

    def test_parse_parts_rejects(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_parts("bogus")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_parts("1,2")

    def test_parse_span(self):
        assert parse_span("5") == 5
        assert parse_span("2:7") == (2, 7)

    def test_parse_m_values(self):
        assert parse_m_values("3") == [3]
        assert parse_m_values("2,3,5") == [2, 3, 5]
        assert parse_m_values("2:5") == (2, 5)


class TestCommands:
    def test_kconj(self, capsys):
        assert main(["kconj", "4,3,2,2,1,1", "--k", "4"]) == 0
        assert json.loads(capsys.readouterr().out) == [3, 2, 2, 1, 1, 1, 1, 1, 1]

    def test_kconj_empty_partition(self, capsys):
        assert main(["kconj", "-", "--k", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_kskew(self, capsys):
        assert main(["kskew", "4,2,1,1", "--k", "4"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "outer": [6, 2, 1, 1],
            "inner": [2],
        }

    def test_covers_up_and_down(self, capsys):
        assert main(["covers", "4,2,1,1", "--k", "4"]) == 0
        assert json.loads(capsys.readouterr().out) == [[4, 2, 1, 1, 1], [4, 2, 2, 1]]
        assert main(["covers", "4,2,1,1", "--k", "4", "--dir", "down"]) == 0
        assert json.loads(capsys.readouterr().out) == [[4, 1, 1, 1], [4, 2, 1]]

    def test_unbounded_partition_is_error(self, capsys):
        assert main(["kconj", "4,1", "--k", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_ideal_json_default(self, capsys):
        assert main(["ideal", "--m", "3", "--n", "3", "--k", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 4
        assert sum(len(r) for r in doc["ranks"]) == 16

    def test_ideal_dot(self, capsys):
        assert main(["ideal", "--m", "1", "--n", "2", "--k", "1", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph kyoung {")
        assert "rankdir=BT;" in out
        assert "v0 -> v1;" in out

    def test_ideal_csv(self, capsys):
        assert main(["ideal", "--m", "3", "--n", "3", "--k", "3", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "i,count"
        assert len(lines) == 11
        assert all(line.endswith(",1") for line in lines[1:])

    def test_ideal_out_file(self, tmp_path, capsys):
        target = tmp_path / "ideal.json"
        assert main(
            ["ideal", "--m", "2", "--n", "2", "--k", "2", "--out", str(target)]
        ) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["name"] == "ideal [2,2]"

    def test_ideal_invalid_spec(self, capsys):
        assert main(["ideal", "--m", "3", "--n", "3", "--k", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rankgen(self, capsys):
        assert main(["rankgen", "--m", "3", "--n", "3", "--k", "4"]) == 0
        assert json.loads(capsys.readouterr().out) == [1, 1, 2, 2, 2, 2, 2, 2, 1, 1]

    def test_rankgen_large_k(self, capsys):
        assert main(["rankgen", "--m", "2", "--n", "1500", "--k", "1500"]) == 0
        assert sum(json.loads(capsys.readouterr().out)) == qpoly.count_Lk(2, 1500, 1500)

    def test_rankgen_pretty(self, capsys):
        assert main(["rankgen", "--m", "3", "--n", "3", "--k", "3", "--pretty"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("1 + q + q^2")
        assert out.endswith("q^9")

    def test_rankgen_invalid(self, capsys):
        assert main(["rankgen", "--m", "3", "--n", "1", "--k", "5"]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerifyCommand:
    def test_verify_sieved_ok(self, capsys):
        code = main(["verify", "sieved", "--m", "2:4", "--a", "2:7", "--b", "3:8"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("sieved: ")
        assert " fail, " in out

    def test_verify_structure_small(self, capsys):
        code = main(
            [
                "verify",
                "structure",
                "--m-max", "1",
                "--n-max", "2",
                "--k-max", "2",
                "--degree-max", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 10

    def test_verify_writes_report(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "conjecture-u",
                "--m", "3",
                "--k", "1:8",
                "--n", "1:8",
                "--out", str(target),
            ]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["check"] == "conjecture-u"
        assert doc["fail"] == 0

    def test_verify_multiple_m_writes_list(self, tmp_path, capsys):
        target = tmp_path / "reports.json"
        code = main(
            [
                "verify",
                "conjecture-u",
                "--m", "2,3",
                "--k", "1:6",
                "--n", "1:6",
                "--out", str(target),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert len(json.loads(target.read_text())) == 2

    def test_verify_m_range_runs_its_primes(self, tmp_path, capsys):
        target = tmp_path / "reports.json"
        for m, expected in (("2:7", ["m=2", "m=3", "m=5", "m=7"]), ("2,7", ["m=2", "m=7"])):
            argv = ["verify", "conjecture-u", "--m", m, "--k", "1:6", "--n", "1:6"]
            assert main(argv + ["--out", str(target)]) == 0
            assert [r["notes"][0] for r in json.loads(target.read_text())] == expected
        capsys.readouterr()

    def test_verify_flag_the_check_does_not_read_is_error(self, capsys):
        assert main(["verify", "structure", "--k", "3"]) == 2
        assert "unknown params for structure: ['k']" in capsys.readouterr().err

    def test_verify_counterexample_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(qpoly, "is_unimodal", lambda p: False)
        code = main(["verify", "conjecture-u", "--m", "3", "--k", "4:6", "--n", "4:8"])
        out = capsys.readouterr().out
        assert code == 1
        assert " 0 pass" in out

    def test_verify_nonprime_m_is_error(self, capsys):
        assert main(["verify", "conjecture-u", "--m", "4"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_single_config(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"check": "sieved", "params": {"m": 2, "a": 2, "b": 4}, "out": str(out)}
            )
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert json.loads(out.read_text())["pass"] == 1
        assert capsys.readouterr().out.startswith("sieved: 1 pass")

    def test_sweep_list(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "sweeps": [
                        {"check": "sieved", "params": {"m": 2, "a": 2, "b": 4}},
                        {
                            "check": "conjecture-u",
                            "params": {"m": 3, "k": [1, 6], "n": [1, 6]},
                        },
                    ]
                }
            )
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"check": "sieved", "typo": True}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_param_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"check": "structure", "params": {"k_mx": 2}}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "unknown params for structure: ['k_mx']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"sweeps": [1]}, "sweep config entry must be an object"),
            ({"check": ["x"]}, "sweep config 'check' must be a string"),
            ({"sweeps": {"check": "sieved"}}, "sweep config 'sweeps' must be a list"),
            # a large int, which open() would take for a file descriptor
            (
                {"check": "sieved", "params": {"m": 2, "a": 2, "b": 4}, "out": 987654},
                "sweep config 'out' must be a string",
            ),
        ],
        ids=["entry-not-object", "check-not-string", "sweeps-not-list", "out-not-string"],
    )
    def test_malformed_sweep_entries(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_bad_parts_argument(self, capsys):
        assert main(["covers", "bogus", "--k", "3"]) == 2
        capsys.readouterr()

    def test_bad_span(self, capsys):
        assert main(["verify", "sieved", "--a", "x:y"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "k-Young" in capsys.readouterr().out

    def test_unknown_check_choice(self, capsys):
        assert main(["verify", "bogus"]) == 2
        capsys.readouterr()
