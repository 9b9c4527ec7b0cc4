import io
import json
from importlib import resources

import jsonschema
import pytest

from betarec.cli import main


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

    def test_plan_commands_reject_r_infinity(self, capsys, schema):
        for command in (("cantor", "plan"), ("cantor", "sample"), ("dim", "series")):
            code, payload = run_json(capsys, *command, "--beta", "2.5",
                                     "--rhat", "0.2", "--r", "inf")
            assert code == 1
            assert payload["error"] == "ValueError"
            assert payload["message"] == "r = inf has no construction plan"
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
