import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from megalie import cli

ARGS = [sys.executable, "-m", "megalie"]


def run(*args, cwd=None):
    return subprocess.run(
        ARGS + list(args), capture_output=True, text=True, cwd=cwd
    )


class TestValidate:
    def test_valid_fixture(self, fixtures_dir):
        result = run("validate", str(fixtures_dir / "m5.json"))
        assert result.returncode == 0
        assert json.loads(result.stdout)["ok"] is True

    def test_invalid_algebra(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "basis": ["e1", "e2", "e3"],
                    "brackets": [
                        {"left": "e1", "right": "e2", "result": {"e3": "1"}},
                        {"left": "e1", "right": "e3", "result": {"e1": "1"}},
                    ],
                }
            )
        )
        result = run("validate", str(bad))
        assert result.returncode == 1
        assert json.loads(result.stdout)["ok"] is False

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = run("validate", str(bad))
        assert result.returncode == 2
        assert "line" in result.stderr

    def test_analyze_invalid_algebra_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "basis": ["e1", "e2", "e3"],
                    "brackets": [
                        {"left": "e1", "right": "e2", "result": {"e3": "1"}},
                        {"left": "e1", "right": "e3", "result": {"e1": "1"}},
                    ],
                }
            )
        )
        result = run("analyze", str(bad))
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["validation"]["ok"] is False
        assert "lattice" not in report

    def test_format_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "basis": ["a"], "brackets": [{"left": "z", "right": "a", "result": {}}]}))
        result = run("validate", str(bad))
        assert result.returncode == 2
        assert "unknown basis name" in result.stderr


    def test_result_key_given_twice_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        entry = {"left": "a", "right": "b", "result": {"c": "1", "2": "5"}}
        bad.write_text(json.dumps({"name": "x", "basis": ["a", "b", "c"], "brackets": [entry]}))
        result = run("validate", str(bad))
        assert result.returncode == 2
        assert "brackets[0].result" in result.stderr and "given twice" in result.stderr

    def test_zero_diagonal_entry_given_twice_exit_2(self, tmp_path):
        zero = {"left": "a", "right": "a", "result": {}}
        once = tmp_path / "once.json"
        once.write_text(json.dumps({"name": "x", "basis": ["a", "b"], "brackets": [zero]}))
        assert run("validate", str(once)).returncode == 0
        twice = tmp_path / "twice.json"
        twice.write_text(json.dumps({"name": "x", "basis": ["a", "b"], "brackets": [zero, zero]}))
        result = run("validate", str(twice))
        assert result.returncode == 2
        assert result.stderr == f"error: {twice}: brackets[1]: bracket (a,a) supplied twice\n"


class TestAnalyze:
    def test_m5_report_content(self, fixtures_dir):
        result = run("analyze", str(fixtures_dir / "m5.json"))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        aut = report["automorphisms"]
        assert aut["assignments"]["a55"] == "1"
        assert aut["assignments"]["a34"] == "0"
        assert aut["assignments"]["a24"] == "a35*a44"
        assert aut["residual_equations"] == []
        assert aut["free_parameters"] == ["a15", "a25", "a33", "a35", "a44", "a45"]
        invariant = aut["invariant_coordinate_subspaces"]
        proper = [s for s in invariant if 0 < s["dim"] < 5]
        assert len(proper) == 5
        assert report["inner_consistency"]["ok"] is True
        assert report["input"]["sha256"]

    def test_sl2d_incomplete_exit_3(self, fixtures_dir):
        result = run("analyze", str(fixtures_dir / "sl2d.json"))
        assert result.returncode == 3
        report = json.loads(result.stdout)
        assert [m["dim"] for m in report["lattice"]["members"]] == [0, 3]
        assert report["automorphisms"]["residual_equations"]
        assert report["automorphisms"]["invariant_coordinate_subspaces"] is None

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_piped_input_hashes_the_parsed_bytes(self, fixtures_dir):
        # a pipe can be read once: the digest must be of the bytes analyzed
        raw = (fixtures_dir / "m5.json").read_bytes()
        result = subprocess.run(ARGS + ["analyze", "/dev/stdin"], input=raw, capture_output=True)
        assert result.returncode == 0
        assert json.loads(result.stdout)["input"]["sha256"] == hashlib.sha256(raw).hexdigest()

    def test_determinism_byte_identical(self, fixtures_dir):
        for fixture in ("m5.json", "sl2d.json"):
            first = run("analyze", str(fixtures_dir / fixture))
            second = run("analyze", str(fixtures_dir / fixture))
            assert first.stdout == second.stdout

    def test_text_projection(self, fixtures_dir):
        result = run("analyze", str(fixtures_dir / "m5.json"), "--text")
        assert result.returncode == 0
        assert "a55 = 1" in result.stdout
        assert "inner-automorphism consistency: ok" in result.stdout

    def test_out_flag(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        result = run("analyze", str(fixtures_dir / "m5.json"), "--out", str(out))
        assert result.returncode == 0
        assert result.stdout == ""
        assert json.loads(out.read_text())["algebra"]["name"] == "m5"

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "m5.json"],
            ["analyze", "m5.json"],
            ["vf", "bracket-table", "wave_eq_family.json"],
            ["vf", "extract", "wave_eq_family.json", "--fields", "F1,F2"],
            ["vf", "pushforward", "wave_eq_family.json", "maps/uscale.json"],
        ],
    )
    def test_unwritable_out_exit_2(self, argv, fixtures_dir, tmp_path):
        out = tmp_path / "missing" / "x.json"
        argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
        result = run(*argv, "--out", str(out))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {out}: ")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_budget_flag(self, fixtures_dir):
        result = run("analyze", str(fixtures_dir / "m5.json"), "--budget", "1")
        report = json.loads(result.stdout)
        assert report["lattice"]["reached_fixpoint"] is False

    def test_max_enum_dim_flag(self, fixtures_dir):
        result = run("analyze", str(fixtures_dir / "m5.json"), "--max-enum-dim", "3")
        report = json.loads(result.stdout)
        assert report["automorphisms"]["invariant_coordinate_subspaces"] is None
        assert "cap" in report["automorphisms"]["note"]

    def test_negative_budget_rejected(self, fixtures_dir):
        # a count is ASCII digits only: no sign, no Arabic-Indic three, no underscore
        for value in ("-1", "\u0663", "1_000"):
            result = run("analyze", str(fixtures_dir / "m5.json"), "--budget", value)
            assert result.returncode == 2, value
            assert "usage:" in result.stderr
            assert result.stdout == ""

    def test_negative_max_enum_dim_rejected(self, fixtures_dir):
        for value in ("-3", " 3"):
            result = run("analyze", str(fixtures_dir / "m5.json"), "--max-enum-dim", value)
            assert result.returncode == 2, repr(value)
            assert "usage:" in result.stderr
            assert result.stdout == ""

    def test_zero_budget_reports_truncation(self, fixtures_dir):
        result = run("analyze", str(fixtures_dir / "m5.json"), "--budget", "0")
        report = json.loads(result.stdout)
        assert report["lattice"]["reached_fixpoint"] is False
        assert report["lattice"]["passes"] == 0


class TestVf:
    def test_extract_byte_identity(self, fixtures_dir, tmp_path):
        out = tmp_path / "m5.json"
        result = run(
            "vf",
            "extract",
            str(fixtures_dir / "wave_eq_family.json"),
            "--fields",
            "G1,F1,F2,Pt,Dt",
            "--name",
            "m5",
            "--out",
            str(out),
        )
        assert result.returncode == 0
        assert out.read_bytes() == (fixtures_dir / "m5.json").read_bytes()

    def test_extract_roundtrip_revalidates(self, fixtures_dir, tmp_path):
        out = tmp_path / "alg.json"
        run(
            "vf",
            "extract",
            str(fixtures_dir / "wave_eq_family.json"),
            "--fields",
            "D1,Dx,Dx2",
            "--out",
            str(out),
        )
        result = run("validate", str(out))
        assert result.returncode == 0

    def test_extract_not_closed_exit_3(self, fixtures_dir):
        result = run(
            "vf",
            "extract",
            str(fixtures_dir / "wave_eq_family.json"),
            "--fields",
            "Dx2,Dx3",
        )
        assert result.returncode == 3
        detail = json.loads(result.stderr)
        assert detail["error"] == "NotClosed"
        assert {detail["left"], detail["right"]} == {"Dx2", "Dx3"}

    def test_unknown_field_exit_2(self, fixtures_dir):
        result = run(
            "vf",
            "extract",
            str(fixtures_dir / "wave_eq_family.json"),
            "--fields",
            "nope",
        )
        assert result.returncode == 2

    def test_bracket_table(self, fixtures_dir):
        result = run("vf", "bracket-table", str(fixtures_dir / "wave_eq_family.json"))
        assert result.returncode == 0
        table = json.loads(result.stdout)
        entries = {(e["left"], e["right"]): e["bracket"] for e in table["brackets"]}
        assert entries[("Pt", "F1")] == {"u": "1"}
        assert entries[("Pt", "F2")] == {"u": "2*t"}

    def test_pushforward_applies_map(self, fixtures_dir):
        result = run(
            "vf",
            "pushforward",
            str(fixtures_dir / "wave_eq_family.json"),
            str(fixtures_dir / "maps" / "uscale.json"),
            "--fields",
            "G1",
        )
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["fields"] == [{"name": "G1", "components": {"u": "2"}}]

    def test_bracket_table_non_object_field_exit_2(self, tmp_path):
        bad = tmp_path / "bad_fields.json"
        bad.write_text(json.dumps({"variables": ["x"], "fields": [1]}))
        result = run("vf", "bracket-table", str(bad))
        assert result.returncode == 2
        assert "fields[0]: must be an object" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["bracket-table", "pushforward"])
    def test_non_string_component_exit_2(self, command, fixtures_dir, tmp_path):
        bad = tmp_path / "bad_fields.json"
        bad.write_text(
            json.dumps(
                {
                    "variables": ["t", "x", "u", "u_x", "f", "g"],
                    "fields": [{"name": "X", "components": {"x": 5}}],
                }
            )
        )
        maps = [str(fixtures_dir / "maps" / "uscale.json")] if command == "pushforward" else []
        result = run("vf", command, str(bad), *maps)
        assert result.returncode == 2
        assert "fields[0].components.x: must be a polynomial string" in result.stderr
        assert "Traceback" not in result.stderr

    def test_pushforward_bad_map_exit_2(self, fixtures_dir, tmp_path):
        bad = tmp_path / "bad_map.json"
        bad.write_text(
            json.dumps(
                {
                    "variables": ["t", "x", "u", "u_x", "f", "g"],
                    "forward": {"t": "t + 1"},
                    "inverse": {"t": "t + 2"},
                }
            )
        )
        result = run(
            "vf",
            "pushforward",
            str(fixtures_dir / "wave_eq_family.json"),
            str(bad),
        )
        assert result.returncode == 2

    def test_duplicate_variable_names_exit_2(self, fixtures_dir, tmp_path):
        fields = tmp_path / "fields.json"
        fields.write_text(json.dumps({"variables": ["x", "x"], "fields": []}))
        bad_map = tmp_path / "map.json"
        bad_map.write_text(json.dumps({"variables": ["t", "x", "u", "u_x", "f", "x"]}))
        family = str(fixtures_dir / "wave_eq_family.json")
        for argv, bad, pos in (
            (["bracket-table", str(fields)], fields, 1),
            (["pushforward", family, str(bad_map)], bad_map, 5),
        ):
            result = run("vf", *argv)
            assert result.returncode == 2
            assert result.stderr == f"error: {bad}: variables[{pos}]: duplicate variable name 'x'\n"

    def test_extract_no_fields_exit_2(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"variables": ["x"], "fields": []}))
        result = run("vf", "extract", str(empty))
        assert result.returncode == 2
        assert result.stderr == f"error: {empty}: no fields given\n"

    @pytest.mark.parametrize("command", ["extract", "pushforward"])
    def test_field_selected_twice_exit_2(self, command, fixtures_dir):
        family = str(fixtures_dir / "wave_eq_family.json")
        maps = [str(fixtures_dir / "maps" / "uscale.json")] if command == "pushforward" else []
        result = run("vf", command, family, *maps, "--fields", "F1,Pt,F1")
        assert result.returncode == 2
        assert result.stderr == f"error: {family}: field 'F1' selected twice\n"


class TestInternalError:
    def test_unexpected_exception_exit_4(self, monkeypatch, capsys, fixtures_dir):
        def broken(args):
            raise RuntimeError("invariant violated")

        monkeypatch.setattr(cli, "_cmd_validate", broken)
        assert cli.main(["validate", str(fixtures_dir / "m5.json")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        detail = json.loads(captured.err)
        assert detail["error"] == "InternalError"
        assert detail["type"] == "RuntimeError"
        assert detail["message"] == "invariant violated"
        assert detail["where"].startswith("test_cli.py:") and detail["where"].endswith(" in broken")

    def test_argparse_exit_2_survives(self, fixtures_dir):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", str(fixtures_dir / "m5.json"), "--budget", "-1"])
        assert exc.value.code == 2

    def test_keyboard_interrupt_passes_through(self, monkeypatch, fixtures_dir):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_validate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["validate", str(fixtures_dir / "m5.json")])


class TestMainModule:
    def test_import_runs_nothing(self):
        # python -m megalie runs the CLI; importing megalie.__main__ does not
        result = subprocess.run([sys.executable, "-c", "import megalie.__main__"], capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


class TestMalformedInputs:
    """Inputs outside the README grammar are format errors (exit 2), never exit 4."""

    def main(self, capsys, *argv):
        code = cli.main([str(a) for a in argv])
        return code, capsys.readouterr().err

    def algebra(self, tmp_path, **data):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"basis": ["a", "b", "c", "d"], **data}), encoding="utf-8")
        return path

    @pytest.mark.parametrize("brackets", [5, None, {"left": "a", "right": "b"}, "ab"])
    def test_brackets_must_be_a_list(self, brackets, tmp_path, capsys):
        path = self.algebra(tmp_path, brackets=brackets)
        expected = f"error: {path}: 'brackets' must be a list\n"
        assert self.main(capsys, "validate", path) == (2, expected)

    @pytest.mark.parametrize(
        "bracket, message",
        [
            ({"left": "²", "right": "b"}, "brackets[0].left: unknown basis name '²'"),
            ({"left": "a", "right": "٣"}, "brackets[0].right: unknown basis name '٣'"),
            ({"left": "a", "right": "b", "result": {"٣": "1"}}, "unknown basis name '٣'"),
            ({"left": "a", "right": "b", "result": {"c": "٣"}}, "bad rational literal '٣'"),
            # the literal is the whole string: no padding, no trailing newline
            ({"left": "a", "right": "b", "result": {"c": " 1"}}, "bad rational literal ' 1'"),
            ({"left": "a", "right": "b", "result": {"c": "1\n"}}, "bad rational literal '1\\n'"),
            ({"left": "a", "right": "b", "result": {"c": "\u00a01"}}, "bad rational literal '\\xa01'"),
        ],
    )
    def test_only_ascii_digits_in_algebra_files(self, bracket, message, tmp_path, capsys):
        path = self.algebra(tmp_path, brackets=[bracket])
        code, err = self.main(capsys, "validate", path)
        assert code == 2
        assert err.startswith(f"error: {path}: ") and message in err

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_coefficients_exit_2(self, value, tmp_path, capsys):
        path = self.algebra(tmp_path, brackets=[{"left": "a", "right": "b", "result": {"a": value}}])
        assert self.main(capsys, "validate", path) == (
            2,
            f"error: {path}: brackets[0].result['a']: cannot interpret bool as a rational\n",
        )

    def test_long_integers_exit_2(self, tmp_path, capsys):
        digits = "1" * 5000  # past the interpreter's int-string digit limit
        path = self.algebra(tmp_path, brackets=[{"left": digits, "right": "b"}])
        assert self.main(capsys, "validate", path) == (
            2,
            f"error: {path}: brackets[0].left: index out of range 0..3\n",
        )
        path.write_text('{"basis": ["a"], "name": ' + digits + "}", encoding="utf-8")
        code, err = self.main(capsys, "validate", path)
        assert code == 2 and err.startswith(f"error: {path}: Exceeds the limit")

    def test_ascii_digit_reference_still_an_index(self, tmp_path, capsys):
        path = self.algebra(tmp_path, brackets=[{"left": "0", "right": "1", "result": {"3": "1"}}])
        assert self.main(capsys, "validate", path) == (0, "")

    def fields(self, tmp_path, component):
        path = tmp_path / "fields.json"
        data = {"variables": ["t", "u"], "fields": [{"name": "A", "components": {"u": component}}]}
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def test_only_ascii_digits_in_polynomials(self, tmp_path, capsys):
        path = self.fields(tmp_path, "٣*t")
        code, err = self.main(capsys, "vf", "bracket-table", path)
        assert code == 2
        assert err == f"error: {path}: unexpected character '٣' (at position 0)\n"

    def test_deep_parentheses_exit_2(self, tmp_path, capsys):
        path = self.fields(tmp_path, "(" * 1000 + "t" + ")" * 1000)
        code, err = self.main(capsys, "vf", "bracket-table", path)
        assert code == 2
        assert err == f"error: {path}: parentheses nested deeper than 100 (at position 100)\n"

    def test_high_degree_exit_2(self, fixtures_dir, tmp_path, capsys):
        # expanding (t - 1)^100000 under the time shift would not finish
        path = self.fields(tmp_path, "t^100000")
        started = time.perf_counter()
        code, err = self.main(capsys, "vf", "pushforward", path, fixtures_dir / "maps" / "tshift.json")
        assert time.perf_counter() - started < 0.5
        assert (code, err) == (2, f"error: {path}: degree above 100 (at position 2)\n")

    def test_block_determinant_past_the_bound_exit_2(self, tmp_path, capsys):
        # abelian of dim 9: one full 9x9 block, 9! = 362,880 permutations
        path = self.algebra(tmp_path, basis=[f"x{i}" for i in range(9)])
        code, err = self.main(capsys, "analyze", path)
        assert code == 2
        assert err == f"error: {path}: block determinant expands past 100000 permutations\n"

    def test_large_pushforward_exit_2(self, fixtures_dir, tmp_path, capsys):
        # (t - x - u - u_x - f - g)^100 has about 10^8 terms
        family = json.loads((fixtures_dir / "wave_eq_family.json").read_text(encoding="utf-8"))
        variables = family["variables"]
        shear = {
            "variables": variables,
            "forward": {"t": "t + x + u + u_x + f + g"},
            "inverse": {"t": "t - x - u - u_x - f - g"},
        }
        map_path = tmp_path / "shear.json"
        map_path.write_text(json.dumps(shear), encoding="utf-8")
        path = tmp_path / "fields.json"
        fields = [{"name": "A", "components": {"t": "t^100"}}] + family["fields"]
        path.write_text(json.dumps({"variables": variables, "fields": fields}), encoding="utf-8")
        started = time.perf_counter()
        code, err = self.main(capsys, "vf", "pushforward", path, map_path)
        assert time.perf_counter() - started < 0.5
        assert (code, err) == (
            2,
            f"error: {path} under {map_path}: substitution expands past 100000 term pairs\n",
        )
        # the family itself pushes forward under the shear
        code, _ = self.main(capsys, "vf", "pushforward", fixtures_dir / "wave_eq_family.json", map_path)
        assert code == 0

    def test_pushforward_past_the_degree_bound_exit_2(self, fixtures_dir, tmp_path, capsys):
        # u -> u - x^2 turns u^100 into a polynomial of degree 200, which no parse reads back
        ugauge = fixtures_dir / "maps" / "ugauge.json"
        variables = json.loads(ugauge.read_text(encoding="utf-8"))["variables"]
        path = tmp_path / "fields.json"
        data = {"variables": variables, "fields": [{"name": "A", "components": {"u": "u^100"}}]}
        path.write_text(json.dumps(data), encoding="utf-8")
        code, err = self.main(capsys, "vf", "pushforward", path, ugauge)
        assert (code, err) == (2, f"error: {path} under {ugauge}: push-forward of degree above 100\n")

    @pytest.mark.parametrize(
        "command, prefix",
        [(["vf", "bracket-table"], "[A,B]: "), (["vf", "extract"], "")],
    )
    def test_large_bracket_exit_2(self, command, prefix, fixtures_dir, tmp_path, capsys):
        # every component expands to 792 terms, well inside the parse budget;
        # one bracket would form 6 * 792 * 792 term pairs per component
        variables = json.loads((fixtures_dir / "wave_eq_family.json").read_text(encoding="utf-8"))[
            "variables"
        ]
        product = "*".join(["(t + x + u + u_x + f + g)"] * 7)
        fields = [
            {"name": name, "components": {v: product for v in variables}} for name in ("A", "B")
        ]
        path = tmp_path / "fields.json"
        path.write_text(json.dumps({"variables": variables, "fields": fields}), encoding="utf-8")
        started = time.perf_counter()
        code, err = self.main(capsys, *command, path)
        assert time.perf_counter() - started < 0.5
        assert (code, err) == (
            2,
            f"error: {path}: {prefix}derivative along a field expands past 100000 term pairs\n",
        )

    @pytest.mark.parametrize(
        "command, prefix",
        [(["vf", "bracket-table"], "[A,B]: "), (["vf", "extract"], "")],
    )
    def test_bracket_past_the_degree_bound_exit_2(self, command, prefix, tmp_path, capsys):
        # [t^100 dt, t^2 dt] = -98 t^101 dt, which no parse reads back
        path = tmp_path / "fields.json"
        fields = [
            {"name": "A", "components": {"t": "t^100"}},
            {"name": "B", "components": {"t": "t^2"}},
        ]
        path.write_text(json.dumps({"variables": ["t"], "fields": fields}), encoding="utf-8")
        code, err = self.main(capsys, *command, path)
        assert (code, err) == (2, f"error: {path}: {prefix}bracket of degree above 100\n")

    @pytest.mark.parametrize("command", [["validate"], ["vf", "bracket-table"]])
    def test_deep_json_exit_2(self, command, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"basis": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        code, err = self.main(capsys, *command, path)
        assert (code, err) == (2, f"error: {path}: JSON nested too deeply\n")
