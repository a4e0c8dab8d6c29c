"""Command line behavior: output shapes, exit codes, file writing."""

import hashlib
import itertools
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from check_targets import report_digest
from kyoung import ideals, partitions, qpoly, verify
from kyoung.cli import main, parse_parts, parse_values

# perfbench/digests.json: the benchmark's output digests, by CLI invocation
RECORDED_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)


def run_capped(args, timeout=120, cap_mib=512, entry=("-m", "kyoung")):
    """Run kyoung, or the Python entry given, with args as a subprocess with
    cap_mib MiB of address space."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    limit = cap_mib * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, *entry, *args],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap_address_space,
        timeout=timeout,
    )


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

    # parse_values is the one parser for every grid flag; the next two tests
    # hold it to the inputs of the span and m-list parsers it replaced
    def test_parse_span(self):
        assert parse_values("5") == 5
        assert parse_values("2:7") == (2, 7)
        assert parse_values("-1:0") == (-1, 0)

    def test_parse_m_values(self):
        assert parse_values("3") == 3
        assert parse_values("2,3,5") == [[2], [3], [5]]
        assert parse_values("2:5") == (2, 5)

    @pytest.mark.parametrize("text", ["x", "x:y", "2:", "2,", "2:3,4", "", "1.5"])
    def test_parse_values_rejects(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="expected INT, INT,INT,..., or LO:HI"):
            parse_values(text)


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

    def test_k_below_one_is_error(self, capsys):
        for command in ("covers", "kconj", "kskew"):
            assert main([command, "1", "--k", "-1"]) == 2
            assert capsys.readouterr().err == "error: k must be positive: -1\n"

    def test_ideal_json_default(self, capsys):
        assert main(["ideal", "--m", "3", "--n", "3", "--k", "4"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["k"] == 4
        assert sum(len(r) for r in doc["ranks"]) == 16
        # exactly what json.dumps(indent=2) writes of it
        assert out == json.dumps(doc, indent=2) + "\n"

    def test_ideal_dot(self, capsys):
        assert main(["ideal", "--m", "1", "--n", "2", "--k", "1", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph kyoung {")
        assert "rankdir=BT;" in out
        assert "v0 -> v1;" in out

    def test_ideal_csv(self, capsys):
        for n, k, counts in (
            (3, 3, [1] * 10),  # a chain
            (2, 9, [1, 1, 2, 2, 2, 1, 1]),  # k >= m + n - 1: the whole 3 x 2 box, [5 choose 3]_q
        ):
            assert main(["ideal", "--m", "3", "--n", str(n), "--k", str(k), "--csv"]) == 0
            rows = "".join(f"{i},{c}\n" for i, c in enumerate(counts))
            assert capsys.readouterr().out == "i,count\n" + rows

    def test_ideal_csv_counts_without_building_members(self):
        """At n = 100000 the members hold about 1.5e10 parts, far beyond the
        512 MB address space the child gets; the counts need none of them."""
        proc = run_capped(["ideal", "--m", "3", "--n", "100000", "--k", "3", "--csv"])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "i,count" and len(lines) == 300_002
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 300_001

    def test_ideal_csv_is_the_closed_form(self):
        """L^40(30,30) has about 4.7e10 members, so a tally of its members, or
        of its ranks, does not fit in the 512 MB the child gets."""
        proc = run_capped(["ideal", "--m", "30", "--n", "30", "--k", "40", "--csv"])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "i,count" and len(lines) == 902
        rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
        assert sum(c for _, c in rows) == qpoly.count_Lk(30, 30, 40)
        assert rows == list(enumerate(qpoly.rank_gen_Lk(30, 30, 40).coeffs))

    def test_ideal_out_file(self, tmp_path, capsys):
        target = tmp_path / "ideal.json"
        assert main(
            ["ideal", "--m", "2", "--n", "2", "--k", "2", "--out", str(target)]
        ) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["name"] == "ideal [2,2]"

    @pytest.mark.parametrize("flags", [[], ["--dot"]], ids=["json", "dot"])
    def test_ideal_export_fits_in_bounded_memory(self, flags):
        """The 61 MB JSON, and the 21 MB DOT, of L^16(6,40) stream out of a
        child with 128 MiB of address space, one rank at a time, and are
        the bytes of the diagram written in memory."""
        proc = run_capped(["ideal", "--m", "6", "--n", "40", "--k", "16", *flags], cap_mib=128)
        assert proc.returncode == 0, proc.stderr
        diagram = ideals.hasse_diagram(ideals.IdealSpec(6, 40, 16))
        # the JSON is json.dumps(indent=2)'s, read off its encoder in
        # batches: the whole text at once would take about 400 MB more
        encoded = json.JSONEncoder(indent=2).iterencode(diagram.to_json_dict())
        pieces, pos = iter([diagram.to_dot()]) if flags else itertools.chain(encoded, ["\n"]), 0
        while batch := "".join(itertools.islice(pieces, 1 << 16)):
            assert proc.stdout.startswith(batch, pos), pos
            pos += len(batch)
        assert pos == len(proc.stdout)

    def test_ideal_error_creates_no_file(self, tmp_path, capsys):
        # the spec and the layout are checked before --out is opened
        target = tmp_path / "F"
        assert main(["ideal", "--m", "3", "--n", "3", "--k", "2", "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not target.exists()

    def test_ideal_out_in_a_missing_directory_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "F"
        assert main(["ideal", "--m", "3", "--n", "3", "--k", "4", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert not target.parent.exists()

    def test_ideal_out_under_a_long_missing_directory_echoes_briefly(self, tmp_path, capsys):
        target = tmp_path / ("d" * 4000) / "F"
        assert main(["ideal", "--m", "3", "--n", "3", "--k", "4", "--out", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and len(err.encode()) <= 250, err
        target = tmp_path / "missing" / "F"
        assert main(["ideal", "--m", "3", "--n", "3", "--k", "4", "--out", str(target)]) == 2
        assert capsys.readouterr().err.rstrip("\n").endswith(repr(str(target)))

    def test_ideal_empty_out_is_usage_error(self, capsys):
        # an empty path names no file: it is not stdout
        assert main(["ideal", "--m", "2", "--n", "2", "--k", "2", "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "key", sorted(RECORDED_DIGESTS), ids=lambda key: re.sub(r"\W+", "-", key)
    )
    def test_output_matches_the_recorded_digest(self, tmp_path, capsys, key):
        # every benchmark output: a report's digest is report_digest's, any
        # other output's that of its bytes
        args = key.split()
        if args[0] != "verify":
            assert main(args) == 0
            digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        else:
            target = tmp_path / "report.json"
            assert main([*args, "--out", str(target)]) == 0
            capsys.readouterr()
            digest = report_digest(json.loads(target.read_text()))
        assert digest == RECORDED_DIGESTS[key]

    def test_ideal_invalid_spec(self, capsys):
        assert main(["ideal", "--m", "3", "--n", "3", "--k", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rankgen(self, capsys):
        assert main(["rankgen", "--m", "3", "--n", "3", "--k", "4"]) == 0
        assert json.loads(capsys.readouterr().out) == [1, 1, 2, 2, 2, 2, 2, 2, 1, 1]

    def test_rankgen_large_k(self, capsys):
        assert main(["rankgen", "--m", "2", "--n", "1500", "--k", "1500"]) == 0
        assert sum(json.loads(capsys.readouterr().out)) == qpoly.count_Lk(2, 1500, 1500)

    def test_rankgen_too_large_is_usage_error(self, capsys):
        big = str(10**30)
        assert main(["rankgen", "--m", "1", "--n", big, "--k", big]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rankgen_pretty(self, capsys):
        assert main(["rankgen", "--m", "3", "--n", "3", "--k", "3", "--pretty"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("1 + q + q^2")
        assert out.endswith("q^9")

    def test_rankgen_invalid(self, capsys):
        assert main(["rankgen", "--m", "3", "--n", "0", "--k", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rankgen_past_the_box_level_is_ideal_csv(self, capsys):
        # from k = m + n - 1 on the ideal is the whole 3 x 2 box, [5 choose 3]_q
        assert main(["rankgen", "--m", "3", "--n", "2", "--k", "9"]) == 0
        counts = json.loads(capsys.readouterr().out)
        assert counts == [1, 1, 2, 2, 2, 1, 1]
        assert main(["ideal", "--m", "3", "--n", "2", "--k", "9", "--csv"]) == 0
        assert capsys.readouterr().out == "i,count\n" + "".join(
            f"{i},{c}\n" for i, c in enumerate(counts)
        )


class TestVerifyCommand:
    def test_verify_sieved_ok(self, capsys):
        code = main(["verify", "sieved", "--m", "2:4", "--a", "2:7", "--b", "3:8"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("sieved: ")
        assert " fail, " in out

    def test_verify_structure_small(self, capsys):
        code = main(["verify", "structure", "--m-max", "1", "--n-max", "2", "--k-max", "2"]
                    + ["--degree-max", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 10

    def test_verify_writes_report(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        argv = ["verify", "conjecture-u", "--m", "3", "--k", "1:8", "--n", "1:8"]
        code = main([*argv, "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["check"] == "conjecture-u"
        assert doc["fail"] == 0

    def test_verify_empty_out_is_usage_error(self, capsys):
        assert main(["verify", "sieved", "--m", "2", "--a", "2", "--b", "4", "--out", ""]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_verify_multiple_m_writes_list(self, tmp_path, capsys):
        target = tmp_path / "reports.json"
        argv = ["verify", "conjecture-u", "--m", "2,3", "--k", "1:6", "--n", "1:6"]
        code = main([*argv, "--out", str(target)])
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
        monkeypatch.setattr(qpoly, "window_failures", lambda column, a, b, xs: list(xs))
        code = main(["verify", "conjecture-u", "--m", "3", "--k", "4:6", "--n", "4:8"])
        out = capsys.readouterr().out
        assert code == 1
        assert " 0 pass" in out

    def test_verify_out_of_memory_is_usage_error(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(verify, "verify_conjecture_u", exhausted)
        assert main(["verify", "conjecture-u", "--m", "3", "--k", "4:6", "--n", "4:8"]) == 2
        assert "error: input too large" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, summaries",
        [
            (
                ["conjecture-u", "--m", "2,3", "--k", "1:20"],
                [
                    "conjecture-u: 8999999999910 pass, 0 fail, 11000000000090 skip (N ms)",
                    "conjecture-u: 11999999999886 pass, 0 fail, 8000000000114 skip (N ms)",
                ],
            ),
            (
                ["conjecture-gen", "--m", "2:4", "--a", "2:10", "--b", "3:11"],
                ["conjecture-gen: 30999999999834 pass, 0 fail, 212000000000166 skip (N ms)"],
            ),
        ],
        ids=["conjecture-u", "conjecture-gen"],
    )
    def test_verify_a_trillion_n_fit_in_bounded_memory(self, args, summaries):
        """Each window reads its range of n only up to the first n decided in
        closed form, so 10**12 n need no more than the 512 MB the child gets."""
        proc = run_capped(["verify", *args, "--n", "1:1000000000000"])
        assert proc.returncode == 0, proc.stderr
        assert mask_ms(proc.stdout).splitlines() == summaries

    def test_verify_range_too_long_is_usage_error(self, tmp_path, capsys):
        # a range of more than sys.maxsize values has no len()
        for args in (
            ["verify", "conjecture-u", "--m", "2", "--n", f"1:{10**19}"],
            sweep_argv(tmp_path, {"check": "conjecture-gen", "params": {"n": [1, 10**19]}}),
        ):
            assert main(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: range too long: 1:{10**19} ")

    def test_verify_nonprime_m_is_error(self, capsys):
        assert main(["verify", "conjecture-u", "--m", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_structure_negative_bound_is_error(self, capsys):
        assert main(["verify", "structure", "--degree-max", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_sieved_skips_a_window_without_a_claim(self, capsys):
        # INT flags are ranges of one value: a window that does not qualify is a skip
        assert main(["verify", "sieved", "--m", "2", "--a", "3", "--b", "6"]) == 0
        assert capsys.readouterr().out.startswith("sieved: 0 pass, 0 fail, ")

    @pytest.mark.parametrize("check", ["conjecture-gen", "sieved"])
    def test_verify_comma_m_names_the_flag(self, capsys, check):
        # only conjecture-u takes a comma list of m: the checks table says so,
        # in the words it uses for the same list in a sweep file
        assert main(["verify", check, "--m", "2,3"]) == 2
        assert capsys.readouterr() == ("", "error: expected int or [lo, hi]: [[2], [3]]\n")

    @pytest.mark.parametrize(
        "flag, value, echo",
        [
            ("--m-max", "1:3", "(1, 3)"),
            ("--n-max", "2,3", "[[2], [3]]"),
            ("--k-max", "0:0", "(0, 0)"),
            ("--degree-max", "3,4", "[[3], [4]]"),
        ],
    )
    def test_verify_structure_bound_is_judged_by_the_checks_table(self, capsys, flag, value, echo):
        # a structure bound is read as every grid flag is, and the checks
        # table alone judges it, as it judges the same bound in a sweep file:
        # one error line, and no usage text
        assert main(["verify", "structure", flag, value]) == 2
        assert capsys.readouterr() == ("", f"error: expected int: {echo}\n")

    def test_a_check_added_only_to_the_table_runs(self, monkeypatch, capsys):
        monkeypatch.setitem(verify._CHECKS, "sieved-again", verify._CHECKS["sieved"])
        assert main(["verify", "--help"]) == 0
        assert "sieved, structure, sieved-again." in " ".join(capsys.readouterr().out.split())
        assert main(["verify", "sieved-again", "--m", "2", "--a", "2", "--b", "4"]) == 0
        assert capsys.readouterr().out.startswith("sieved: 1 pass, 0 fail, ")
        with pytest.raises(ValueError, match="expected .*, structure, or sieved-again$"):
            verify.run_check("nope", {})


def sweep_argv(tmp_path, config):
    """The argv of kyoung sweep on a file in tmp_path holding config, a JSON
    value or, as it is, a JSON text."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    return ["sweep", "--config", str(cfg)]


SIEVED_2_4 = {"check": "sieved", "params": {"m": 2, "a": 2, "b": 4}}


class TestSweepCommand:
    def test_single_config(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(sweep_argv(tmp_path, {**SIEVED_2_4, "out": str(out)})) == 0
        assert json.loads(out.read_text())["pass"] == 1
        assert capsys.readouterr().out.startswith("sieved: 1 pass")

    def test_sweep_list(self, tmp_path, capsys):
        second = {"check": "conjecture-u", "params": {"m": 3, "k": [1, 6], "n": [1, 6]}}
        assert main(sweep_argv(tmp_path, {"sweeps": [SIEVED_2_4, second]})) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_empty_out_is_usage_error(self, tmp_path, capsys):
        assert main(sweep_argv(tmp_path, {**SIEVED_2_4, "out": ""})) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_a_long_config_path_echoes_briefly(self, tmp_path, capsys):
        # the OS error names the path: a long one is cut, a short one is whole
        assert main(["sweep", "--config", str(tmp_path / ("x" * 5000))]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and len(err.encode()) <= 250, err
        missing = str(tmp_path / "nope.json")
        assert main(["sweep", "--config", missing]) == 2
        assert capsys.readouterr().err.rstrip("\n").endswith(repr(missing))

    def test_malformed_config(self, tmp_path, capsys):
        assert main(sweep_argv(tmp_path, "{not json")) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        assert main(sweep_argv(tmp_path, {"check": "sieved", "typo": True})) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_param_key(self, tmp_path, capsys):
        assert main(sweep_argv(tmp_path, {"check": "structure", "params": {"k_mx": 2}})) == 2
        assert "unknown params for structure: ['k_mx']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"sweeps": [1]}, "sweep config entry must be an object"),
            ({"check": ["x"]}, "sweep config 'check' must be a string"),
            ({"sweeps": {"check": "sieved"}}, "sweep config 'sweeps' must be a list"),
            # a large int, which open() would take for a file descriptor
            ({**SIEVED_2_4, "out": 987654}, "sweep config 'out' must be a string"),
            ({"sweeps": [SIEVED_2_4], "bogus": 1}, "unknown sweep config keys: ['bogus']"),
            ({"check": "structure", "params": {"k_max": True}}, "expected int: True"),
            (
                {"check": "sieved", "params": {"m": 2, "a": 2, "b": 4, "k": False}},
                "expected int or [lo, hi]: False",
            ),
            (
                {"check": "sieved", "params": {"m": 2, "a": 2, "b": 4, "k": None}},
                "expected int or [lo, hi]: None",
            ),
        ],
        ids=[
            "entry-not-object",
            "check-not-string",
            "sweeps-not-list",
            "out-not-string",
            "unknown-top-level-key",
            "bool-int-param",
            "bool-range-param",
            "null-param",
        ],
    )
    def test_malformed_sweep_entries(self, tmp_path, capsys, config, message):
        assert main(sweep_argv(tmp_path, config)) == 2
        assert message in capsys.readouterr().err

    def test_unsupported_format_stops_before_any_sweep_runs(self, tmp_path, capsys):
        # reports are always JSON, so "format" is an unknown key, even when
        # it names JSON, and is found when the file loads
        first = tmp_path / "first.json"
        entries = [
            {**SIEVED_2_4, "out": str(first), "format": "json"},
            {**SIEVED_2_4, "out": str(tmp_path / "second.csv"), "format": "csv"},
        ]
        assert main(sweep_argv(tmp_path, {"sweeps": entries})) == 2
        assert "unknown sweep config keys: ['format']" in capsys.readouterr().err
        assert not first.exists()

    @pytest.mark.parametrize(
        "second, message",
        [
            ({"check": "sieved", "params": {"zz": 1}}, "unknown params for sieved: ['zz']"),
            ({"check": "nope"}, "unknown check 'nope'"),
            # a malformed value is found when the file loads, not when its sweep runs
            ({"check": "sieved", "params": {"m": "x"}}, "expected int or [lo, hi]: 'x'"),
            ({"check": "sieved", "params": {"k": [5, 3]}}, "empty range: 5:3"),
            ({"check": "structure", "params": {"k_max": True}}, "expected int: True"),
            ({"check": "conjecture-u", "params": {"m": [4, 4]}}, "no prime m in 4:4"),
            # so is a value outside its check's domain
            ({"check": "sieved", "params": {"m": 1}}, "m must be at least 2: 1"),
            ({"check": "conjecture-gen", "params": {"m": [0, 3]}}, "m must be at least 1: 0"),
            ({"check": "conjecture-u", "params": {"m": [[2], [4]]}}, "m must be prime: 4"),
        ],
        ids=[
            "unknown-param",
            "unknown-check",
            "malformed-value",
            "empty-range",
            "bool-bound",
            "no-prime",
            "sieved-m-below-2",
            "conjecture-gen-m-below-1",
            "nonprime-m",
        ],
    )
    def test_unknown_check_or_param_stops_before_any_sweep_runs(
        self, tmp_path, capsys, second, message
    ):
        first = tmp_path / "first.json"
        config = {"sweeps": [{**SIEVED_2_4, "out": str(first)}, second]}
        assert main(sweep_argv(tmp_path, config)) == 2
        out, err = capsys.readouterr()
        assert message in err and out == ""
        assert not first.exists()

    @pytest.mark.parametrize(
        "second, message",
        [
            # m takes at most two list levels, here 900
            (
                '{"check": "conjecture-u", "params": {"m": ' + "[" * 900 + "2" + "]" * 900 + "}}",
                "error: expected m as int, [lo, hi], or a list of those: [[[",
            ),
            # past the JSON decoder's recursion limit
            ("[" * 100_000 + "]" * 100_000, "error: sweep config nested too deeply: "),
        ],
        ids=["deep-m", "deep-entry"],
    )
    def test_a_deeply_nested_config_is_usage_error(self, tmp_path, second, message):
        first = tmp_path / "first.json"
        text = '{"sweeps": [' + json.dumps({**SIEVED_2_4, "out": str(first)}) + ", " + second + "]}"
        proc = run_capped(sweep_argv(tmp_path, text))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(message) and len(proc.stderr.splitlines()) == 1
        assert not first.exists()

    def test_a_deeply_nested_config_echoes_a_long_path_briefly(self, tmp_path):
        # a path of about 3,600 characters, in directories of 200, that the OS opens
        where = tmp_path.joinpath(*["d" * 200] * 18)
        where.mkdir(parents=True)
        cfg = where / "cfg.json"
        short = tmp_path / "cfg.json"
        for path in (cfg, short):
            path.write_text("[" * 100_000 + "]" * 100_000)
        message = "error: sweep config nested too deeply: "
        proc = run_capped(["sweep", "--config", str(cfg)])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == message + str(cfg)[:197] + "...\n"
        assert len(proc.stderr.encode()) <= 250
        assert run_capped(["sweep", "--config", str(short)]).stderr == message + str(short) + "\n"

    @pytest.mark.parametrize(
        "entry, message",
        [
            (
                json.dumps({"check": "sieved", "params": {"m": list(range(10**6))}}),
                "error: expected int or [lo, hi]: [0, 1, 2, 3, 4, 5, 6, 7, ...]\n",
            ),
            (
                '{"check": "conjecture-u", "params": {"m": ' + "[" * 900 + "2" + "]" * 900 + "}}",
                "error: expected m as int, [lo, hi], or a list of those: [[[[...]]]]\n",
            ),
            (json.dumps({"check": "x" * 10**6}), "error: unknown check 'xxxxxxxx"),
        ],
        ids=["million-int-m", "deep-m", "million-char-check"],
    )
    def test_an_error_echoes_a_bounded_value(self, tmp_path, entry, message):
        proc = run_capped(sweep_argv(tmp_path, entry))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(message) and len(proc.stderr.encode()) < 1024

    def test_each_entry_is_parsed_once(self, tmp_path, monkeypatch, capsys):
        parsed = []
        parse = verify._parse_params

        def counted(check, params):
            parsed.append(check)
            return parse(check, params)

        monkeypatch.setattr(verify, "_parse_params", counted)
        second = {"check": "conjecture-u", "params": {"m": [2, 5], "k": [1, 6], "n": [1, 6]}}
        assert main(sweep_argv(tmp_path, {"sweeps": [SIEVED_2_4, second]})) == 0
        assert parsed == ["sieved", "conjecture-u"]
        assert len(capsys.readouterr().out.splitlines()) == 4

    @staticmethod
    def assert_loads_quickly(tmp_path, m):
        """The conjecture-u m values load well under the timeout, so the
        malformed entry after them stops the file."""
        entries = [{"check": "conjecture-u", "params": {"m": m}}]
        entries.append({"check": "sieved", "params": {"m": "x"}})
        proc = run_capped(sweep_argv(tmp_path, {"sweeps": entries}), timeout=20)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: expected int or [lo, hi]: 'x'\n"

    def test_a_long_prime_range_loads_from_one_sieve(self, tmp_path):
        # six million m values, listed by one sieve
        self.assert_loads_quickly(tmp_path, [2, 6000000])

    def test_a_narrow_prime_range_far_from_zero_loads_quickly(self, tmp_path):
        # the 1,001 values near 10^18 are tested one by one by Miller-Rabin,
        # not sieved by the primes up to 10^9
        self.assert_loads_quickly(tmp_path, [10**18, 10**18 + 1000])

    def test_a_prime_range_past_the_exact_bound_is_usage_error(self, tmp_path, capsys):
        bound = verify._PRIME_LIMIT
        config = {"check": "conjecture-u", "params": {"m": [bound - 5, bound]}}
        assert main(sweep_argv(tmp_path, config)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: primality is decided only below {bound}: {bound}\n"


class TestClosedStdout:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "structure", "--n-max", "3", "--k-max", "4", "--m-max", "2"]
            + ["--degree-max", "6"],
            ["rankgen", "--m", "3", "--n", "3", "--k", "4"],
            # a 5.8 MB JSON export, whose first ranks are written before the
            # document is complete
            ["ideal", "--m", "4", "--n", "45", "--k", "14"],
            ["ideal", "--m", "4", "--n", "45", "--k", "14", "--dot"],
        ],
        ids=["verify", "rankgen", "ideal", "ideal-dot"],
    )
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_reader_gone_exits_141_silently(self, args, unbuffered):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "kyoung", *args],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


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

    def test_ideal_takes_no_json_flag(self, capsys):
        # ideal writes JSON when neither --dot nor --csv is given; no flag names it
        assert main(["ideal", "--m", "2", "--n", "2", "--k", "2", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err

    def test_unknown_check_choice(self, tmp_path, capsys):
        # the checks table alone judges a check name, for verify as for sweep
        message = "error: unknown check 'bogus'; expected conjecture-u, conjecture-gen, sieved, or structure\n"
        assert main(["verify", "bogus"]) == 2
        assert capsys.readouterr() == ("", message)
        assert main(sweep_argv(tmp_path, {"check": "bogus"})) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize(
        "m, n, k, message",
        [
            (0, 1, 1, "error: need 1 <= m <= k: m=0 k=1\n"),
            (3, 1, 2, "error: need 1 <= m <= k: m=3 k=2\n"),
            (2, 0, 3, "error: need n >= 1: n=0\n"),
        ],
    )
    def test_a_bad_rectangle_reads_alike(self, capsys, m, n, k, message):
        # ideal, its --csv counts and rankgen judge (m, n, k) by one rule
        sizes = ["--m", str(m), "--n", str(n), "--k", str(k)]
        for command in (["ideal"], ["ideal", "--csv"], ["rankgen"]):
            assert main([*command, *sizes]) == 2
            assert capsys.readouterr() == ("", message), command

    def test_a_key_error_is_a_bug_not_a_usage_error(self, monkeypatch):
        # no input raises KeyError, so one is a fault of the package: it
        # propagates with its traceback instead of reading as exit 2
        def broken(p, k):
            raise KeyError(k)

        monkeypatch.setattr(partitions, "k_conjugate", broken)
        with pytest.raises(KeyError):
            main(["kconj", "1", "--k", "2"])

    # Each argv takes one argument value: a huge one must echo briefly (exit 2
    # and under 1 KiB of stderr), and a small one as it always did.
    ECHOES = {
        "check-name": lambda v: ["verify", v],
        "grid-flag": lambda v: ["verify", "sieved", "--k", v],
        "partition": lambda v: ["kconj", ",".join(["1", "2"] * len(v)), "--k", "3"],
        "unbounded-partition": lambda v: ["kconj", ",".join(["5"] * len(v)), "--k", "3"],
        "int-flag": lambda v: ["kconj", "1", "--k", v],
        "dir-choice": lambda v: ["covers", "1", "--k", "2", "--dir", v],
        "command": lambda v: [v],
        "unrecognized": lambda v: ["kconj", "1", "--k", "2", v],
    }

    @pytest.mark.parametrize("case", list(ECHOES))
    def test_an_argument_echo_is_bounded(self, capsys, case):
        assert main(self.ECHOES[case]("x" * 10**6)) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.encode()) < 1024, err[:1024]

    @pytest.mark.parametrize(
        "case, last_line",
        [
            ("check-name", "error: unknown check 'x'; expected conjecture-u, conjecture-gen,"
             " sieved, or structure"),
            ("grid-flag", "kyoung verify: error: argument --k: expected INT, INT,INT,..., or LO:HI,"
             " got 'x'"),
            ("partition", "kyoung kconj: error: argument parts: parts must be weakly decreasing: [1, 2]"),
            ("unbounded-partition", "error: partition (5,) is not 3-bounded"),
            ("int-flag", "kyoung kconj: error: argument --k: invalid int value: 'x'"),
            ("dir-choice", "kyoung covers: error: argument --dir: invalid choice: 'x' "),
            ("command", "kyoung: error: argument command: invalid choice: 'x' "),
            ("unrecognized", "kyoung: error: unrecognized arguments: x"),
        ],
    )
    def test_a_small_argument_echoes_whole(self, capsys, case, last_line):
        assert main(self.ECHOES[case]("x")) == 2
        out, err = capsys.readouterr()
        # argparse's choice messages go on to list the choices, in words that
        # differ between Python versions
        assert out == "" and err.splitlines()[-1].startswith(last_line), err


def readme_examples():
    """Each `kyoung ...` line of the README followed by `# ...` lines: the
    command and the output those lines show."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        comments = itertools.takewhile(lambda s: s.startswith("# "), lines[i + 1:])
        shown = [s[2:] for s in comments]
        if line.startswith("kyoung ") and shown:
            examples.append((line, shown))
    return examples


def example_params():
    """The README examples, each named by its subcommand, and a later
    example of the same subcommand by its subcommand and its first argument."""
    seen = set()
    for command, shown in readme_examples():
        words = command.split()
        yield pytest.param(command, shown, id="-".join(words[1:3 if words[1] in seen else 2]))
        seen.add(words[1])


def mask_ms(text):
    return re.sub(r"\(\d+ ms\)", "(N ms)", text)


class TestReadmeExamples:
    def test_every_example_with_output_is_found(self):
        assert [command for command, _ in readme_examples()] == [
            "kyoung kconj 4,3,2,2,1,1 --k 4",
            "kyoung kskew 4,2,1,1 --k 4",
            "kyoung covers 4,2,1,1 --k 4 --dir down",
            "kyoung rankgen --m 3 --n 3 --k 4 --pretty",
            "kyoung verify sieved --m 2:6 --a 2:9 --b 3:10",
            "kyoung verify conjecture-u --m 2,3 --k 1:20 --n 1:1000000000000",
        ]

    @pytest.mark.parametrize("command, shown", example_params())
    def test_example_prints_what_the_readme_shows(self, capsys, command, shown):
        assert main(shlex.split(command)[1:]) == 0
        assert mask_ms(capsys.readouterr().out).splitlines() == list(map(mask_ms, shown))
