import hashlib
import io
import json
import shlex
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from betarec import symbolic as sym_mod
from betarec.cantor import build_plan, sample_point
from betarec.cli import main
from betarec.expansion import BetaContext, word_text


@pytest.fixture(scope="module")
def schema():
    text = resources.files("betarec").joinpath("schemas/cli.json").read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def validate_result(schema, command, payload):
    jsonschema.validate(payload, schema)
    key = {"eps-star": "eps_star", "approx-beta": "approx_beta",
           "full-scan": "full_scan"}.get(command, command)
    sub = {"$defs": schema["$defs"], **schema["$defs"][f"result_{key}"]}
    jsonschema.validate(payload["result"], sub)


class TestCommands:
    def test_count_fibonacci(self, capsys, schema):
        code, payload = run_json(capsys, "count", "--beta", "golden", "--n", "6")
        assert code == 0
        assert payload["result"]["count"] == "21"
        validate_result(schema, "count", payload)

    def test_dim_formula(self, capsys, schema):
        code, payload = run_json(capsys, "dim", "formula", "--rhat", "0.2", "--r", "1")
        assert code == 0
        assert abs(payload["result"]["value"] - 0.375) < 1e-12
        validate_result(schema, "dim", payload)

    def test_dim_formula_at_r_infinity(self, capsys, schema):
        code, payload = run_json(capsys, "dim", "formula", "--rhat", "0.2", "--r", "inf")
        assert code == 0
        assert payload["result"]["value"] == 0.0
        assert payload["result"]["countable"] is False
        assert payload["params"]["r"] == "inf"
        validate_result(schema, "dim", payload)

    def test_dim_formula_at_r_hat_infinity(self, capsys, schema):
        for r in ("1", "inf"):
            code, payload = run_json(capsys, "dim", "formula", "--rhat", "inf", "--r", r)
            assert code == 0
            assert payload["result"] == {"value": 0.0, "countable": True,
                                         "uniform_value": 0.0, "maximizer": None}
            assert payload["params"]["rhat"] == "inf"
            validate_result(schema, "dim", payload)

    def test_admissible_forbidden(self, capsys, schema):
        code, payload = run_json(capsys, "admissible", "--beta", "golden", "1,1")
        assert code == 0
        assert payload["result"]["admissible"] is False
        validate_result(schema, "admissible", payload)

    def test_expand(self, capsys, schema):
        code, payload = run_json(capsys, "expand", "--beta", "2",
                                 "--x", "0.5", "--n", "3")
        assert code == 0
        assert payload["result"]["digits"] == "1,0,0"
        validate_result(schema, "expand", payload)

    def test_eps_star(self, capsys, schema):
        code, payload = run_json(capsys, "eps-star", "--beta", "2.5", "--n", "6")
        assert code == 0
        assert payload["result"]["digits"].startswith("2,1,0,1")
        validate_result(schema, "eps-star", payload)

    def test_approx_beta(self, capsys, schema):
        code, payload = run_json(capsys, "approx-beta", "--beta", "golden",
                                 "--N", "3")
        assert code == 0
        assert payload["result"]["beta_n"].startswith("1.4655712318")
        validate_result(schema, "approx-beta", payload)

    def test_enumerate(self, capsys, schema):
        code, payload = run_json(capsys, "enumerate", "--beta", "golden",
                                 "--n", "3")
        assert code == 0
        assert payload["result"]["count"] == 5
        validate_result(schema, "enumerate", payload)

    def test_full_scan(self, capsys, schema):
        code, payload = run_json(capsys, "full-scan", "--beta", "2.5", "--n", "8")
        assert code == 0
        assert payload["result"]["window_property"] is True
        validate_result(schema, "full-scan", payload)

    def test_exponents_periodic_point(self, capsys, schema):
        code, payload = run_json(capsys, "exponents", "--beta", "2",
                                 "--x", "1/3", "--N", "60")
        assert code == 0
        assert payload["result"]["r"] == "inf"
        validate_result(schema, "exponents", payload)

    def test_returns(self, capsys, schema):
        code, payload = run_json(capsys, "returns", "--beta", "2.5",
                                 "--x", "0.7137191", "--K", "3")
        assert code == 0
        assert payload["result"]["entries"]
        for entry in payload["result"]["entries"]:
            assert entry["bracketing_ok"] is True
            assert entry["form"] != "violation"
        validate_result(schema, "returns", payload)

    def test_cantor_plan_and_measure(self, capsys, schema):
        base = ["cantor"]
        opts = ["--beta", "2.5", "--rhat", "0.2", "--r", "1", "--delta", "0.5", "--K", "4"]
        code, payload = run_json(capsys, *base, "plan", *opts)
        assert code == 0
        validate_result(schema, "cantor", payload)

        code, payload = run_json(capsys, *base, "counts", *opts, "--k", "3")
        assert code == 0
        validate_result(schema, "cantor", payload)

        code, payload = run_json(capsys, *base, "sample", *opts, "--depth", "64")
        assert code == 0
        validate_result(schema, "cantor", payload)
        digits = payload["result"]["digits"].split(",")
        assert len(digits) == 64

        prefix = ",".join(digits[:5])
        code, payload = run_json(capsys, *base, "measure", *opts,
                                 "--prefix", prefix)
        assert code == 0
        assert payload["result"]["measure_float"] > 0
        validate_result(schema, "cantor", payload)

    def test_dim_series(self, capsys, schema):
        code, payload = run_json(capsys, "dim", "series", "--beta", "2.5",
                                 "--rhat", "0.2", "--r", "1", "--delta", "0.5",
                                 "--K", "5")
        assert code == 0
        assert abs(payload["result"]["series_floats"][-1] - 0.375) < 5e-3
        validate_result(schema, "dim", payload)

    def test_dim_boxcount_small(self, capsys, schema):
        code, payload = run_json(capsys, "dim", "boxcount", "--beta", "2.5",
                                 "--rhat", "0.2", "--r", "1", "--delta", "0.9",
                                 "--K", "4", "--points", "300", "--depth", "40",
                                 "--n-lo", "3", "--n-hi", "12")
        assert code == 0
        assert 0.0 < payload["result"]["slope"] < 1.0
        validate_result(schema, "dim", payload)


class TestCliContract:
    def test_determinism(self, capsys):
        args = ("cantor", "sample", "--beta", "2.5", "--seed", "5",
                "--rhat", "0.2", "--r", "1", "--delta", "0.5", "--K", "4",
                "--depth", "80")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    def test_error_exit_code(self, capsys, schema):
        code, payload = run_json(capsys, "approx-beta", "--beta", "2", "--N", "1")
        assert code == 1
        assert payload["error"] == "ValueError"
        jsonschema.validate(payload, schema)

    def test_internal_fault_is_marked(self, capsys, schema, monkeypatch):
        def fault(ctx, n):
            return [][n]
        monkeypatch.setattr(sym_mod, "count_admissible", fault)
        code = main(["count", "--beta", "golden", "--n", "6"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert payload == {"command": "count", "error": "IndexError",
                           "message": "list index out of range", "internal": True}
        jsonschema.validate(payload, schema)
        assert captured.err == ""

    def test_typed_errors_are_not_internal(self, capsys, schema, monkeypatch):
        cases = [(("approx-beta", "--beta", "2", "--N", "1"), "ValueError"),
                 (("enumerate", "--beta", "golden", "--n", "6", "--limit", "3"),
                  "WordLimitError"),
                 (("exponents", "--beta", "2.5", "--stdin-digits", "--N", "40"),
                  "StreamTooShortError")]
        for argv, error in cases:
            monkeypatch.setattr("sys.stdin", io.StringIO("1,0,2,0,1"))
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 1
            payload = json.loads(captured.out)
            assert payload["error"] == error
            assert "internal" not in payload
            jsonschema.validate(payload, schema)
            assert captured.err == ""

    def test_plan_commands_reject_r_infinity(self, capsys, schema):
        for command in (("cantor", "plan"), ("cantor", "sample"), ("dim", "series")):
            code, payload = run_json(capsys, *command, "--beta", "2.5",
                                     "--rhat", "0.2", "--r", "inf")
            assert code == 1
            assert payload["error"] == "ValueError"
            assert payload["message"] == "r = inf has no construction plan"
            jsonschema.validate(payload, schema)

    def test_plan_commands_reject_r_hat_infinity(self, capsys, schema):
        for command in (("cantor", "plan"), ("cantor", "sample"), ("dim", "series")):
            code, payload = run_json(capsys, *command, "--beta", "2.5",
                                     "--rhat", "inf", "--r", "1")
            assert code == 1
            assert payload["error"] == "ValueError"
            assert payload["message"] == "r_hat = inf has no construction plan"
            jsonschema.validate(payload, schema)

    def test_bad_arguments_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count"])  # missing --n
        assert exc.value.code == 2

    def test_csv_output(self, capsys):
        code, out = run(capsys, "enumerate", "--output", "csv", "--beta", "golden",
                        "--n", "2")
        assert code == 0
        assert out.splitlines() == ["0,0", "0,1", "1,0"]

    def test_tsv_rows(self, capsys):
        code, out = run(capsys, "count", "--output", "tsv", "--beta", "2",
                        "--n", "4")
        assert code == 0
        assert "16" in out

    def test_empty_stdin_digits_is_a_typed_error(self, capsys, schema, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, payload = run_json(capsys, "returns", "--beta", "2.5", "--stdin-digits")
        assert code == 1
        assert payload["error"] == "NoDigitsError"
        assert payload["message"] == "no digits supplied on stdin"
        jsonschema.validate(payload, schema)

    def test_returns_rejects_a_search_limit_below_one(self, capsys, schema):
        for depth in ("0", "-3"):
            code = main(["returns", "--beta", "2.5", "--x", "0.7137", "--depth", depth])
            captured = capsys.readouterr()
            assert code == 1
            payload = json.loads(captured.out)
            assert payload["error"] == "ValueError"
            assert payload["message"] == f"search_limit must be at least 1, got {depth}"
            jsonschema.validate(payload, schema)
            assert captured.err == ""

    def test_sizes_out_of_range_are_typed_errors(self, capsys, schema):
        plan = ("--beta", "2.5", "--rhat", "0.2", "--r", "1", "--delta", "0.5")
        cases = [(("enumerate", "--n", "-1"), "n must be non-negative"),
                 (("full-scan", "--n", "-1"), "n must be non-negative"),
                 (("cantor", "sample", *plan, "--depth", "-5"), "depth must be at least 1, got -5"),
                 (("cantor", "sample", *plan, "--depth", "0"), "depth must be at least 1, got 0"),
                 (("cantor", "sample", *plan, "--k", "0"), "k must be at least 1, got 0"),
                 (("cantor", "sample", *plan, "--k", "99"), "k_max exceeds the planned levels"),
                 (("cantor", "counts", *plan, "--k", "0"), "k_max must be at least 1, got 0"),
                 (("cantor", "counts", *plan, "--k", "-2"), "k_max must be at least 1, got -2"),
                 (("dim", "series", *plan, "--k", "0"), "k_max out of range for this plan"),
                 (("returns", "--beta", "2.5", "--x", "0.7137", "--K", "0"),
                  "K must be at least 1, got 0"),
                 (("returns", "--beta", "2.5", "--x", "0.7137", "--K", "-2"),
                  "K must be at least 1, got -2")]
        for argv, message in cases:
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 1, argv
            payload = json.loads(captured.out)
            assert payload == {"command": argv[0], "error": "ValueError", "message": message}
            jsonschema.validate(payload, schema)
            assert captured.err == ""

    def test_boxcount_without_points_is_a_typed_error(self, capsys, schema, recwarn):
        code = main(["dim", "boxcount", "--beta", "2.5", "--rhat", "0.2", "--r", "1",
                     "--delta", "0.9", "--points", "0"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["error"] == "ValueError"
        assert "point set is empty" in payload["message"]
        jsonschema.validate(payload, schema)
        assert captured.err == ""
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_boxcount_edge_cases_are_typed_errors(self, capsys, schema, recwarn):
        base = ("dim", "boxcount", "--beta", "2.5", "--rhat", "0.2", "--r", "1",
                "--delta", "0.9", "--points", "20")
        cases = [(("--n-lo", "8", "--n-hi", "8"),
                  "n_range needs at least two distinct depths, got [8]"),
                 (("--n-lo", "5", "--n-hi", "2"), "depth range --n-lo 5 .. --n-hi 2 is empty"),
                 (("--n-lo", "0", "--n-hi", "4"), "depths must be at least 1, got 0"),
                 (("--points", "-3"),
                  "points must be at least 1, got -3: the point set is empty")]
        for extra, message in cases:
            code = main([*base, *extra])
            captured = capsys.readouterr()
            assert code == 1, extra
            payload = json.loads(captured.out)
            assert payload == {"command": "dim", "error": "ValueError", "message": message}
            jsonschema.validate(payload, schema)
            assert captured.err == ""
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_bad_precision_env_exits_two_without_traceback(self, capsys, monkeypatch):
        monkeypatch.setenv("BETAREC_PRECISION_BITS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["count", "--beta", "golden", "--n", "6"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.rstrip().splitlines()[-1] == (
            "betarec: error: BETAREC_PRECISION_BITS must be an integer, got 'abc'")

    def test_precision_env_still_sets_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("BETAREC_PRECISION_BITS", "32")
        code, payload = run_json(capsys, "count", "--beta", "golden", "--n", "6")
        assert code == 0
        assert payload["params"]["precision_bits"] == 64  # clamped to at least 64
        code, payload = run_json(capsys, "count", "--beta", "golden", "--n", "6",
                                 "--precision-bits", "100")
        assert payload["params"]["precision_bits"] == 100


class TestPinnedEnvelopes:
    """sha256 of whole ``returns`` envelopes at fixed inputs.

    They pin the return depths and the bracketing verdicts, on a point view
    and on a digit view, so faster kernels must give the same bytes.  The
    envelopes hold only integers, booleans and strings, so they are exact on
    every platform.
    """

    def digest(self, capsys, *argv):
        code, out = run(capsys, *argv)
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    def test_readme_returns_command(self, capsys, monkeypatch):
        monkeypatch.delenv("BETAREC_PRECISION_BITS", raising=False)
        assert self.digest(capsys, "returns", "--beta", "2.5", "--x", "0.7137",
                           "--K", "5") == \
            "936e08b65da3e37f7aa6d51c38ed011ccdd7df393de9877959ee7cf9d70ab994"

    def test_criterion_5_sample_on_stdin(self, capsys, monkeypatch):
        monkeypatch.delenv("BETAREC_PRECISION_BITS", raising=False)
        plan = build_plan(BetaContext.from_value("2.5"), "0.2", "1", delta="0.5", K=6,
                          seed=11)
        view = sample_point(plan, 1000, plan.m_seq[4] + 200)
        monkeypatch.setattr("sys.stdin", io.StringIO(word_text(tuple(view.digits(view.depth)))))
        assert self.digest(capsys, "returns", "--beta", "2.5", "--stdin-digits",
                           "--all-returns", "--K", "40",
                           "--depth", str(plan.n_seq[4] + 10)) == \
            "f4639ff4bf5eabe3816b05553233411b43c7d783c6e8fa6e41cbbb6c140ff90d"


def readme_commands():
    """(argv, trailing comment) for each ``betarec`` line of the README's
    command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("betarec "):
            command, _, comment = line.partition("#")
            commands.append((shlex.split(command)[1:], comment.strip()))
    return commands


class TestReadmeCommands:
    def test_every_command_keeps_the_contract_and_its_comment(self, capsys, schema,
                                                              monkeypatch):
        monkeypatch.delenv("BETAREC_PRECISION_BITS", raising=False)
        commands = readme_commands()
        assert len(commands) == 17
        checked = 0
        for argv, comment in commands:
            code = main(argv)
            out, err = capsys.readouterr()
            assert (code, err) == (0, ""), argv
            payload = json.loads(out)
            validate_result(schema, argv[0], payload)
            # a comment that opens with a value names one result field exactly,
            # or a prefix of it when it ends in "..."
            expected = comment.split(" ")[0]
            if not (expected[:1].isdigit() or expected in ("true", "false")):
                continue
            shown = [json.dumps(v).strip('"') for v in payload["result"].values()]
            if expected.endswith("..."):
                assert any(v.startswith(expected[:-3]) for v in shown), (argv, shown)
            else:
                assert expected in shown, (argv, shown)
            checked += 1
        assert checked == 7
