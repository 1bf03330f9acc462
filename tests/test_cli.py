import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wallman_lab import cli
from wallman_lab.errors import PostconditionFailed


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "wallman_lab", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return proc


def report_of(proc):
    assert proc.returncode in (0, 1), proc.stderr
    return json.loads(proc.stdout)


def masked(report):
    out = dict(report)
    out["elapsed_ms"] = 0
    return out


@pytest.fixture
def fixtures(tmp_path):
    def dump(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    ba4 = dump(
        "ba4.json",
        {
            "elements": ["bot", "a", "b", "top"],
            "meet": [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
            "join": [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
            "bottom": 0,
            "top": 3,
        },
    )
    chain_poset = dump("chain3.json", {"poset": {"size": 3, "le": [[0, 1], [1, 2]]}})
    m3 = dump(
        "m3.json",
        {
            "elements": ["bot", "p", "q", "r", "top"],
            "meet": [
                [0, 0, 0, 0, 0],
                [0, 1, 0, 0, 1],
                [0, 0, 2, 0, 2],
                [0, 0, 0, 3, 3],
                [0, 1, 2, 3, 4],
            ],
            "join": [
                [0, 1, 2, 3, 4],
                [1, 1, 4, 4, 4],
                [2, 4, 2, 4, 4],
                [3, 4, 4, 3, 4],
                [4, 4, 4, 4, 4],
            ],
            "bottom": 0,
            "top": 4,
        },
    )
    x3 = dump(
        "x3.json",
        {"points": 3, "closed": [[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]},
    )
    y2 = dump("y2.json", {"points": 2, "closed": [[], [0], [1], [0, 1]]})
    theory = dump(
        "theory.json",
        {"constants": ["a"], "sentences": ["!(a = 0)", "!(a = 1)"]},
    )
    bad_theory = dump(
        "bad_theory.json",
        {"constants": [], "sentences": ["A x. (!(x = 0) & !(x = 1))"]},
    )
    broken = dump("broken.json", {"elements": ["only"]})
    not_json = tmp_path / "not.json"
    not_json.write_text("{nope")
    return {
        "ba4": ba4,
        "chain3": chain_poset,
        "m3": m3,
        "x3": x3,
        "y2": y2,
        "theory": theory,
        "bad_theory": bad_theory,
        "broken": broken,
        "not_json": str(not_json),
        "tmp": tmp_path,
    }


class TestCheck:
    def test_full_predicate_map(self, fixtures):
        proc = run_cli("check", fixtures["ba4"])
        report = report_of(proc)
        outcome = report["outcome"]
        assert set(outcome) == {
            "connected",
            "dim_le1",
            "disjunctive",
            "distributive",
            "hi",
            "normal",
        }
        assert outcome["distributive"]["holds"] is True
        assert outcome["connected"]["holds"] is False
        assert outcome["connected"]["witness"] is not None

    def test_predicate_subset(self, fixtures):
        report = report_of(run_cli("check", fixtures["ba4"], "--predicates", "normal"))
        assert list(report["outcome"]) == ["normal"]

    def test_unknown_predicate_is_input_error(self, fixtures):
        proc = run_cli("check", fixtures["ba4"], "--predicates", "bogus")
        assert proc.returncode == 2
        assert "input error" in proc.stderr

    def test_assert_failure_exit_code(self, fixtures):
        proc = run_cli("check", fixtures["ba4"], "--predicates", "connected", "--assert")
        assert proc.returncode == 1
        assert report_of(proc)["outcome"]["connected"]["holds"] is False

    def test_assert_success_exit_code(self, fixtures):
        proc = run_cli("check", fixtures["ba4"], "--predicates", "normal", "--assert")
        assert proc.returncode == 0

    def test_non_distributive_input_still_checks(self, fixtures):
        report = report_of(run_cli("check", fixtures["m3"], "--predicates", "distributive"))
        assert report["outcome"]["distributive"]["holds"] is False


def boolean_tables(k):
    n = 1 << k
    names = ["{" + ",".join(str(i) for i in range(k) if m >> i & 1) + "}" for m in range(n)]
    meet = [[a & b for b in range(n)] for a in range(n)]
    join = [[a | b for b in range(n)] for a in range(n)]
    return {"elements": names, "meet": meet, "join": join, "bottom": 0, "top": n - 1}


class TestDimLe1WitnessBound:
    """A dim_le1 witness map past MAX_WITNESS_ENTRIES is reported by its size."""

    def test_a_holding_map_past_the_bound_gives_its_entry_count(self, tmp_path):
        # 6 incomparable points: 2^6, 9^6 = 531,441 entries (49.7 MB of JSON when written out)
        path = tmp_path / "antichain6.json"
        path.write_text(json.dumps({"poset": {"size": 6, "le": []}}))
        proc = run_cli("check", str(path))
        assert proc.returncode == 0, proc.stderr
        assert report_of(proc)["outcome"]["dim_le1"] == {"holds": True, "witness": None, "witness_entries": 531441}

    # the reports as written before the bound, elapsed_ms masked
    @pytest.mark.parametrize(
        "name, payload, digest",
        [
            ("ba16.json", boolean_tables(4), "44d5d49c004a2fcd07ca9067dbf987fc4f9ccff5ab75e9fd2b49bd27336174f6"),
            (
                "antichain5.json",
                {"poset": {"size": 5, "le": []}},
                "899644cd8fd158676aba4c940ff0911daecea0f904a273e79e26a856a43d2dbf",
            ),
        ],
    )
    def test_maps_within_the_bound_are_written_out_unchanged(self, tmp_path, name, payload, digest):
        (tmp_path / name).write_text(json.dumps(payload))
        proc = run_cli("check", name, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', proc.stdout)
        assert hashlib.sha256(report.encode()).hexdigest() == digest

    def test_a_failure_past_the_bound_gives_its_quadruple(self, tmp_path, monkeypatch, capsys):
        # 2^2 with a new top: dim_le1 fails at (0, 0, 1, 2), whatever the bound
        tables = {
            "elements": ["0", "a", "b", "c", "1"],
            "meet": [[0, 0, 0, 0, 0], [0, 1, 0, 1, 1], [0, 0, 2, 2, 2], [0, 1, 2, 3, 3], [0, 1, 2, 3, 4]],
            "join": [[0, 1, 2, 3, 4], [1, 1, 3, 3, 4], [2, 3, 2, 3, 4], [3, 3, 3, 3, 4], [4, 4, 4, 4, 4]],
            "bottom": 0,
            "top": 4,
        }
        path = tmp_path / "topped.json"
        path.write_text(json.dumps(tables))
        monkeypatch.setattr(cli, "MAX_WITNESS_ENTRIES", 0)
        assert cli.main(["check", str(path), "--predicates", "dim_le1"]) == 0
        outcome = json.loads(capsys.readouterr().out)["outcome"]
        assert outcome == {"dim_le1": {"holds": False, "witness": [0, 0, 1, 2]}}


class TestInputHandling:
    def test_missing_file(self, fixtures):
        proc = run_cli("check", str(fixtures["tmp"] / "absent.json"))
        assert proc.returncode == 2

    def test_malformed_json(self, fixtures):
        proc = run_cli("check", fixtures["not_json"])
        assert proc.returncode == 2

    # not UTF-8, an integer past int()'s 4,300-digit limit, arrays nested past the recursion limit
    @pytest.mark.parametrize(
        "content",
        [b'{"elements": ["\xff"]}', b"[" + b"7" * 5000 + b"]", b"[" * 100_000 + b"]" * 100_000],
        ids=["not-utf8", "long-integer", "deep-array"],
    )
    def test_an_undecodable_file_is_input_error(self, fixtures, content):
        path = fixtures["tmp"] / "undecodable.json"
        path.write_bytes(content)
        proc = run_cli("check", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"input error: {path}: ") and proc.stderr.count("\n") == 1

    def test_incomplete_lattice_tables(self, fixtures):
        proc = run_cli("check", str(fixtures["broken"]))
        assert proc.returncode == 2

    def test_poset_format_expands_to_downset_lattice(self, fixtures):
        # a 3-element chain poset has 4 down-sets
        report = report_of(run_cli("wallman", fixtures["chain3"]))
        assert len(report["outcome"]["base"]) == 4

    def test_a_poset_with_a_cycle_is_input_error(self, fixtures):
        # the closure of 0 <= 1 <= 2 <= 0 relates every pair both ways
        path = fixtures["tmp"] / "cycle.json"
        path.write_text(json.dumps({"poset": {"size": 3, "le": [[0, 1], [1, 2], [2, 0]]}}))
        proc = run_cli("check", str(path))
        assert proc.returncode == 2
        assert proc.stderr == f"input error: {path}: le not antisymmetric at (0,1)\n"

    def test_bad_formula_is_input_error(self, fixtures):
        proc = run_cli("eval", fixtures["ba4"], "x ^ = 0")
        assert proc.returncode == 2

    def test_negative_point_count_is_input_error(self, fixtures):
        path = fixtures["tmp"] / "negative.json"
        path.write_text(json.dumps({"points": -1, "closed": []}))
        proc = run_cli("surject", str(path), fixtures["y2"])
        assert proc.returncode == 2
        assert "points must be a non-negative integer" in proc.stderr

    @pytest.mark.parametrize(
        "field, value",
        [("bottom", False), ("top", True), ("meet", True), ("join", False)],
    )
    def test_boolean_in_lattice_tables_is_input_error(self, fixtures, field, value):
        data = json.loads(open(fixtures["ba4"]).read())
        if field in ("meet", "join"):
            data[field][1][1] = value  # the entry is 1 in a valid table
        else:
            data[field] = value
        path = fixtures["tmp"] / "bool_tables.json"
        path.write_text(json.dumps(data))
        proc = run_cli("check", str(path))
        assert proc.returncode == 2
        assert "out of range" in proc.stderr

    @pytest.mark.parametrize(
        "poset, what",
        [({"size": True, "le": []}, "poset size"), ({"size": 2, "le": [[0, True]]}, "poset index")],
    )
    def test_boolean_in_poset_is_input_error(self, fixtures, poset, what):
        path = fixtures["tmp"] / "bool_poset.json"
        path.write_text(json.dumps({"poset": poset}))
        proc = run_cli("check", str(path))
        assert proc.returncode == 2
        assert f"{what} must be a non-negative integer, not True" in proc.stderr

    @pytest.mark.parametrize(
        "space, what",
        [
            ({"points": True, "closed": [[], [0]]}, "points"),
            ({"points": 2, "closed": [[], [True], [0, 1]]}, "closed-set point"),
        ],
    )
    def test_boolean_in_space_is_input_error(self, fixtures, space, what):
        path = fixtures["tmp"] / "bool_space.json"
        path.write_text(json.dumps(space))
        proc = run_cli("surject", str(path), fixtures["y2"])
        assert proc.returncode == 2
        assert f"{what} must be a non-negative integer, not True" in proc.stderr

    @pytest.mark.parametrize("elements", ["abcd", ["bot", "a", "b", 1]])
    def test_elements_must_be_a_list_of_strings(self, fixtures, elements):
        data = json.loads(open(fixtures["ba4"]).read())
        data["elements"] = elements
        path = fixtures["tmp"] / "bad_elements.json"
        path.write_text(json.dumps(data))
        proc = run_cli("check", str(path))
        assert proc.returncode == 2
        assert "elements must be a list of strings" in proc.stderr

    @pytest.mark.parametrize("constants", ["ab", [5]])
    def test_constants_must_be_a_list_of_strings(self, fixtures, constants):
        path = fixtures["tmp"] / "bad_constants.json"
        path.write_text(json.dumps({"constants": constants, "sentences": ["!(0 = 1)"]}))
        proc = run_cli("find-model", str(path), "--max-size", "2")
        assert proc.returncode == 2
        assert "constants must be a list of strings" in proc.stderr

    # a string was read as no sentences, an object as its list of keys
    @pytest.mark.parametrize("sentences", ["", {"0 = 0": 1}])
    def test_sentences_must_be_a_list_of_strings(self, fixtures, sentences):
        path = fixtures["tmp"] / "bad_sentences.json"
        path.write_text(json.dumps({"constants": [], "sentences": sentences}))
        proc = run_cli("find-model", str(path), "--max-size", "2")
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error: ")
        assert "sentences must be a list of strings" in proc.stderr

    @pytest.mark.parametrize("command", ["wallman", "embed"])
    def test_repeated_element_names_are_input_error(self, fixtures, command):
        # reports keyed by name would silently drop the repeated one's entry
        data = json.loads(open(fixtures["ba4"]).read())
        data["elements"] = ["x", "x", "y", "top"]
        path = fixtures["tmp"] / "repeated.json"
        path.write_text(json.dumps(data))
        args = [str(path)] * (2 if command == "embed" else 1)
        proc = run_cli(command, *args)
        assert proc.returncode == 2
        assert "elements repeats the name 'x'" in proc.stderr

    def test_repeated_constants_are_input_error(self, fixtures):
        path = fixtures["tmp"] / "repeated_constants.json"
        path.write_text(json.dumps({"constants": ["a", "b", "a"], "sentences": ["!(a = b)"]}))
        proc = run_cli("find-model", str(path), "--max-size", "3")
        assert proc.returncode == 2
        assert "constants repeats the name 'a'" in proc.stderr

    def test_poset_index_out_of_range_is_input_error(self, fixtures):
        path = fixtures["tmp"] / "bad_poset.json"
        path.write_text(json.dumps({"poset": {"size": 2, "le": [[-1, 0]]}}))
        proc = run_cli("check", str(path))
        assert proc.returncode == 2
        assert "poset index" in proc.stderr


class TestInternalErrors:
    """Exit code 3 and one line on stderr: a bug, told apart from a failed --assert and from bad input."""

    @pytest.mark.parametrize(
        "error, line",
        [
            (PostconditionFailed("model fails"), "internal error: PostconditionFailed: model fails"),
            (RuntimeError("two\nlines"), "internal error: RuntimeError: two lines"),
        ],
    )
    def test_an_escaping_exception_exits_3(self, fixtures, monkeypatch, capsys, error, line):
        def broken(args):
            raise error

        monkeypatch.setattr(cli, "cmd_check", broken)
        assert cli.main(["check", fixtures["ba4"]]) == cli.EXIT_INTERNAL == 3
        captured = capsys.readouterr()
        assert captured.err == line + "\n" and captured.out == ""

    def test_a_failed_self_check_exits_3_without_a_traceback(self, fixtures):
        code = (
            "import sys\n"
            "from wallman_lab import cli, modelfinder\n"
            "modelfinder.eval_formula = lambda L, s, interp=None: False\n"
            f"sys.exit(cli.main(['find-model', {fixtures['theory']!r}, '--max-size', '4']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr.startswith("internal error: PostconditionFailed: model ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestClosedPipe:
    """A reader that stops early (`... | head`) is not a bug: exit 141, as a
    process that SIGPIPE ends, with nothing on stderr."""

    @pytest.fixture
    def ba16(self, tmp_path):
        # the 600 KB dim<=1 witness map of its report fills any pipe buffer
        n = 16
        tables = {
            "elements": [f"e{m}" for m in range(n)],
            "meet": [[a & b for b in range(n)] for a in range(n)],
            "join": [[a | b for b in range(n)] for a in range(n)],
            "bottom": 0,
            "top": n - 1,
        }
        path = tmp_path / "ba16.json"
        path.write_text(json.dumps(tables))
        return str(path)

    def test_reader_closing_after_ten_bytes(self, ba16):
        proc = subprocess.Popen(
            [sys.executable, "-m", "wallman_lab", "check", ba16], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == cli.EXIT_PIPE == 141
        assert err == b""

    @pytest.mark.parametrize("command", ["check", "eval"])
    def test_reader_closed_before_the_first_write(self, fixtures, ba16, command):
        # the short eval report (272 bytes) sits in the buffer until the flush at exit
        args = ["check", ba16] if command == "check" else ["eval", fixtures["ba4"], "0 = 0"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wallman_lab", *args],
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_PIPE
        assert proc.stderr == b""

    @staticmethod
    def first_line_then_close(args):
        """(exit status, stderr) of a fresh interpreter whose reader closes
        after the first line."""
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=120), err

    def test_a_program_through_the_helper(self):
        code = (
            "import sys\n"
            "from wallman_lab.cli import quiet_on_closed_pipe\n"
            "def main():\n"
            "    for i in range(10 ** 6):\n"
            "        print(i)\n"
            "sys.exit(quiet_on_closed_pipe(main))\n"
        )
        assert self.first_line_then_close(["-c", code]) == (cli.EXIT_PIPE, b"")

    def test_a_script_whose_reader_closes_after_the_first_line(self):
        # each later size takes longer to build, so the reader is gone by then
        script = Path(__file__).resolve().parents[1] / "scripts" / "lattice_census.py"
        assert self.first_line_then_close([str(script), "--max-size", "10"]) == (cli.EXIT_PIPE, b"")

    def test_every_script_goes_through_the_helper(self):
        scripts = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
        assert scripts
        for script in scripts:
            assert script.read_text().endswith("\n    sys.exit(quiet_on_closed_pipe(main))\n"), script.name

    def test_every_script_has_an_entry_in_the_readme(self):
        root = Path(__file__).resolve().parents[1]
        section = (root / "README.md").read_text().split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
        entries = set(re.findall(r"^- `scripts/(\w+\.py)\b", section, re.MULTILINE))
        scripts = {script.name for script in (root / "scripts").glob("*.py")}
        assert scripts and scripts <= entries, sorted(scripts - entries)


class TestWallmanAndStone:
    def test_wallman_points_of_boolean_four(self, fixtures):
        report = report_of(run_cli("wallman", fixtures["ba4"]))
        assert report["outcome"]["points"] == [[1, 3], [2, 3]]
        assert report["outcome"]["base"]["top"] == [0, 1]

    def test_wallman_rejects_m3(self, fixtures):
        proc = run_cli("wallman", fixtures["m3"])
        assert proc.returncode == 2

    def test_stone_agrees_on_boolean_input(self, fixtures):
        a = report_of(run_cli("wallman", fixtures["ba4"]))
        b = report_of(run_cli("stone", fixtures["ba4"]))
        assert a["outcome"] == b["outcome"]

    def test_stone_rejects_non_boolean(self, fixtures):
        proc = run_cli("stone", fixtures["chain3"])
        assert proc.returncode == 2

    def test_dot_emission(self, fixtures):
        out = fixtures["tmp"] / "w.dot"
        report_of(run_cli("wallman", fixtures["ba4"], "--dot", str(out)))
        text = out.read_text()
        assert "digraph hasse" in text and "graph wallman" in text
        assert text.count("->") == 4  # the Hasse diagram of a 4-element square

    def test_dot_labels_escape_quotes_and_backslashes(self, fixtures):
        chain = fixtures["tmp"] / "named.json"
        chain.write_text(
            json.dumps(
                {
                    "elements": ['a"b', "c\\", "d"],
                    "meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
                    "join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
                    "bottom": 0,
                    "top": 2,
                }
            )
        )
        out = fixtures["tmp"] / "named.dot"
        report_of(run_cli("wallman", str(chain), "--dot", str(out)))
        labels = [line for line in out.read_text().splitlines() if "label=" in line]
        assert labels == [
            '  n0 [label="a\\"b"];',
            '  n1 [label="c\\\\"];',
            '  n2 [label="d"];',
            '  p0 [label="{c\\\\,d}"];',
        ]

    @pytest.mark.parametrize("command", ["wallman", "stone"])
    def test_dot_in_a_missing_directory_is_input_error(self, fixtures, command):
        out = fixtures["tmp"] / "absent" / "w.dot"
        proc = run_cli(command, fixtures["ba4"], "--dot", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"input error: {out}: ") and proc.stderr.count("\n") == 1


class TestEval:
    def test_closed_formula(self, fixtures):
        report = report_of(run_cli("eval", fixtures["ba4"], "A x. x ^ 1 = x"))
        assert report["outcome"]["value"] is True

    def test_let_binding(self, fixtures):
        report = report_of(run_cli("eval", fixtures["ba4"], "a ^ b = 0", "--let", "a=1", "--let", "b=2"))
        assert report["outcome"]["value"] is True

    def test_assert_on_false_formula(self, fixtures):
        proc = run_cli("eval", fixtures["ba4"], "0 = 1", "--assert")
        assert proc.returncode == 1

    def test_unbound_name_is_input_error(self, fixtures):
        proc = run_cli("eval", fixtures["ba4"], "a = 0")
        assert proc.returncode == 2

    # "²" is a digit that int() refuses; 5,000 digits pass int()'s limit
    @pytest.mark.parametrize("value", ["abc", "-1", "4", "²", pytest.param("1" * 5000, id="5000-digits")])
    def test_let_value_must_be_an_element_index(self, fixtures, value):
        # ba4 has the elements 0..3; -1 must not reach the top through negative indexing
        proc = run_cli("eval", fixtures["ba4"], "a = 1", "--let", f"a={value}")
        assert proc.returncode == 2
        assert "element index in 0..3" in proc.stderr

    # ASCII, a leading zero, Arabic-Indic and Persian digits
    @pytest.mark.parametrize("value", ["1", "01", "١", "۱"])
    def test_let_value_binds_the_index_its_decimal_digits_spell(self, fixtures, value):
        for other, equal in (("1", True), ("2", False)):
            report = report_of(run_cli("eval", fixtures["ba4"], "a = b", "--let", f"a={value}", "--let", f"b={other}"))
            assert report["outcome"]["value"] is equal

    @pytest.mark.parametrize("lets", [["=1"], ["a=1", "a=0"]])
    def test_let_name_must_be_non_empty_and_unique(self, fixtures, lets):
        args = [arg for item in lets for arg in ("--let", item)]
        proc = run_cli("eval", fixtures["ba4"], "a = 1", *args)
        assert proc.returncode == 2
        assert "the name must be non-empty and given once" in proc.stderr

    def test_a_formula_nested_too_deeply_is_input_error(self, fixtures):
        # a fresh interpreter, so the recursion limit and stack are the defaults
        proc = run_cli("eval", fixtures["ba4"], "!(" * 200 + "0=0" + ")" * 200)
        assert proc.returncode == 2
        assert proc.stderr == "input error: the formula nests too deeply to parse\n"

    def test_a_formula_in_200_parentheses_is_evaluated(self, fixtures):
        # a fresh interpreter, so the recursion limit and stack are the defaults
        proc = run_cli("eval", fixtures["ba4"], "(" * 200 + "0 = 0" + ")" * 200)
        assert proc.returncode == 0
        assert report_of(proc)["outcome"]["value"] is True


class TestEf:
    def test_inequivalent_pair_reports_sentence(self, fixtures):
        proc = run_cli("ef", fixtures["ba4"], fixtures["chain3"], "--rounds", "3")
        report = report_of(proc)
        assert report["outcome"]["equivalent"] is False
        assert "separating_sentence" in report["outcome"]

    def test_equivalent_at_zero_rounds(self, fixtures):
        report = report_of(run_cli("ef", fixtures["ba4"], fixtures["chain3"], "--rounds", "0"))
        assert report["outcome"]["equivalent"] is True

    def test_assert_flag(self, fixtures):
        proc = run_cli("ef", fixtures["ba4"], fixtures["chain3"], "--rounds", "3", "--assert")
        assert proc.returncode == 1

    def test_negative_rounds_is_input_error(self, fixtures):
        proc = run_cli("ef", fixtures["ba4"], fixtures["chain3"], "--rounds", "-1")
        assert proc.returncode == 2
        assert "--rounds must be non-negative" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_rounds_past_the_clamp_keep_the_verdicts(self, fixtures):
        # the smaller lattice has 4 elements, so the game stops at 5 rounds
        for other, equivalent in (("ba4", True), ("chain3", False)):
            outcomes = []
            for rounds in ("5", "6", "100000"):
                report = report_of(run_cli("ef", fixtures["ba4"], fixtures[other], "--rounds", rounds))
                assert report["outcome"]["rounds"] == int(rounds)
                assert report["outcome"]["equivalent"] is equivalent
                outcomes.append({k: v for k, v in report["outcome"].items() if k != "rounds"})
            assert outcomes[0] == outcomes[1] == outcomes[2]


class TestFindModel:
    def test_model_report_is_a_loadable_lattice(self, fixtures):
        report = report_of(run_cli("find-model", fixtures["theory"], "--max-size", "4"))
        outcome = report["outcome"]
        assert outcome["result"] == "model"
        # round trip: feed the emitted tables straight back in
        again = fixtures["tmp"] / "again.json"
        again.write_text(
            json.dumps(
                {
                    "elements": outcome["elements"],
                    "meet": outcome["meet"],
                    "join": outcome["join"],
                    "bottom": outcome["bottom"],
                    "top": outcome["top"],
                }
            )
        )
        assert run_cli("check", str(again)).returncode == 0

    def test_exhausted_reported(self, fixtures):
        report = report_of(run_cli("find-model", fixtures["bad_theory"], "--max-size", "2"))
        assert report["outcome"]["result"] != "model"

    def test_degenerate_size_bound_is_input_error(self, fixtures):
        proc = run_cli("find-model", fixtures["theory"], "--max-size", "1")
        assert proc.returncode == 2

    def test_assert_on_no_model(self, fixtures):
        proc = run_cli(
            "find-model", fixtures["bad_theory"], "--max-size", "2", "--assert"
        )
        assert proc.returncode == 1


class TestSurject:
    def test_three_points_onto_two(self, fixtures):
        report = report_of(run_cli("surject", fixtures["x3"], fixtures["y2"]))
        outcome = report["outcome"]
        assert outcome["found"] and outcome["continuous"] and outcome["surjective"]
        assert sorted(set(outcome["map"])) == [0, 1]

    def test_two_onto_three_absent(self, fixtures):
        report = report_of(run_cli("surject", fixtures["y2"], fixtures["x3"]))
        assert report["outcome"] == {"found": False}

    def test_assert_flag(self, fixtures):
        proc = run_cli("surject", fixtures["y2"], fixtures["x3"], "--assert")
        assert proc.returncode == 1

    def test_non_T1_target_is_input_error(self, fixtures):
        sierpinski = fixtures["tmp"] / "sierpinski.json"
        sierpinski.write_text(json.dumps({"points": 2, "closed": [[], [1], [0, 1]]}))
        proc = run_cli("surject", str(sierpinski), str(sierpinski))
        assert proc.returncode == 2
        assert "T1" in proc.stderr

    def test_discrete_five_onto_itself(self):
        # the report was captured from the search before forward checking,
        # which took seconds here; it must match byte for byte but the time
        data = Path(__file__).resolve().parent / "data"
        proc = subprocess.run(
            [sys.executable, "-m", "wallman_lab", "surject", "d5.json", "d5.json"],
            capture_output=True,
            text=True,
            cwd=data,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        elapsed = re.compile(r'^  "elapsed_ms": \d+,$', re.M)
        expected = (data / "surject_d5_report.json").read_text()
        assert elapsed.sub("", proc.stdout) == elapsed.sub("", expected)


class TestEmbed:
    def test_chain_into_boolean(self, fixtures):
        report = report_of(run_cli("embed", fixtures["chain3"], fixtures["ba4"]))
        # the chain poset expands to a 4-chain, which does not fit in 2^2
        assert report["outcome"] == {"found": False}

    def test_identity_embedding(self, fixtures):
        report = report_of(run_cli("embed", fixtures["ba4"], fixtures["ba4"]))
        assert report["outcome"]["found"]
        assert report["outcome"]["assignment"]["bot"] == "bot"


class TestAssert:
    """--assert exits 0 when the outcome holds and 1 when it does not, and
    the report is printed either way."""

    # per command: arguments whose outcome holds, then arguments whose outcome fails
    CASES = {
        "check": (["ba4", "--predicates", "normal"], ["ba4", "--predicates", "connected"]),
        "eval": (["ba4", "0 = 0"], ["ba4", "0 = 1"]),
        "ef": (["ba4", "ba4"], ["ba4", "chain3"]),
        "find-model": (["theory", "--max-size", "4"], ["bad_theory", "--max-size", "2"]),
        "surject": (["x3", "y2"], ["y2", "x3"]),
        "embed": (["ba4", "ba4"], ["chain3", "ba4"]),
    }

    @pytest.mark.parametrize("holds", [True, False])
    @pytest.mark.parametrize("command", list(CASES))
    def test_exit_status_follows_the_outcome(self, fixtures, command, holds):
        args = [command, *(fixtures.get(a, a) for a in self.CASES[command][not holds]), "--assert"]
        proc = run_cli(*args)
        assert proc.returncode == (0 if holds else 1), proc.stderr
        assert report_of(proc)["command"] == args


class TestLazyImports:
    """`check` and `eval` never read `spaces`, so a run of either leaves it
    unimported, and its report is the same whether or not it was imported."""

    RUN = (
        "import sys\n"
        "from wallman_lab.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "print('wallman_lab.spaces' in sys.modules, file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    ELAPSED = re.compile(r'^  "elapsed_ms": \d+,$', re.M)

    @pytest.mark.parametrize("command", [["check", "ba4"], ["eval", "m3", "A x. E y. x ^ y = 0"]])
    def test_a_run_leaves_spaces_unimported_and_writes_the_same_report(self, fixtures, command):
        args = [fixtures.get(a, a) for a in command]
        reports = []
        for preload in ("", "import wallman_lab.spaces\n"):
            proc = subprocess.run([sys.executable, "-c", preload + self.RUN, *args], capture_output=True, text=True)
            assert proc.returncode == 0 and proc.stderr == f"{bool(preload)}\n", proc.stderr
            reports.append(self.ELAPSED.sub("", proc.stdout))
        assert reports[0] == reports[1] and '"outcome"' in reports[0]


class TestDeterminism:
    def test_reports_identical_across_runs(self, fixtures):
        runs = [report_of(run_cli("check", fixtures["ba4"])) for _ in range(3)]
        assert masked(runs[0]) == masked(runs[1]) == masked(runs[2])

    def test_reports_identical_across_job_counts(self, fixtures):
        serial = report_of(run_cli("--jobs", "1", "check", fixtures["ba4"]))
        parallel = report_of(run_cli("--jobs", "4", "check", fixtures["ba4"]))
        # the echoed command line differs by construction; everything else must not
        for r in (serial, parallel):
            r.pop("command")
        assert masked(serial) == masked(parallel)

    def test_report_shape(self, fixtures):
        report = report_of(run_cli("check", fixtures["ba4"]))
        assert set(report) == {"command", "inputs", "outcome", "elapsed_ms", "version"}
        assert list(report["inputs"].values())[0] == __import__("hashlib").sha256(
            open(fixtures["ba4"], "rb").read()
        ).hexdigest()
