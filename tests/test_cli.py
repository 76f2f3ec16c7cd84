"""Tests for the command-line surface: run configuration, the four
subcommands, output rendering, determinism, and exit codes."""

from __future__ import annotations

import csv
import json
import math
import os

import jsonschema
import pytest

from lookback import bs_price, expansion_coeffs, expansion_price
from lookback import cli
from lookback.cli import (
    RunConfig,
    TABLE_MARKETS,
    TABLE_N_VALUES,
    cmd_cdf_bench,
    cmd_figure5,
    cmd_price,
    cmd_table,
    main,
)
from lookback.errors import BudgetError, DomainError

from .markets import T1


def _config(**overrides) -> RunConfig:
    keys = dict(market=T1, side="call", n_values=(100,), method="reduced")
    keys.update(overrides)
    return RunConfig(**keys)


class TestRunConfig:
    def test_accepts_large_grid_for_reduced(self):
        config = _config(n_values=(1000, 100000))
        assert config.method == "reduced"

    def test_rejects_empty_grid(self):
        with pytest.raises(DomainError):
            _config(n_values=())

    @pytest.mark.parametrize("grid", [(5, 5), (5, 3), (1, 10, 10)])
    def test_rejects_non_increasing_grid(self, grid):
        with pytest.raises(DomainError):
            _config(n_values=grid)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(DomainError):
            _config(n_values=(0, 5))

    def test_rejects_unknown_method(self):
        with pytest.raises(DomainError):
            _config(n_values=(5,), method="nonsense")

    @pytest.mark.parametrize("method", ["bs", "reduced"])
    def test_rejects_non_integer_n(self, method):
        with pytest.raises(DomainError):
            _config(n_values=(2.5,), method=method)

    @pytest.mark.parametrize("method", ["tree", "closed"])
    def test_per_step_methods_are_budgeted(self, method):
        with pytest.raises(BudgetError):
            _config(n_values=(10, 5001), method=method)


class TestCmdPrice:
    def test_reduced_matches_printed_price(self):
        rows = cmd_price(_config(n_values=(1000,)))
        assert rows[0][0] == 1000
        assert abs(rows[0][1] - 26.3647) <= 5e-5

    def test_continuous_method_is_constant(self):
        rows = cmd_price(_config(n_values=(10, 100, 1000), method="bs"))
        values = {price for _, price in rows}
        assert len(values) == 1
        assert abs(values.pop() - 26.3864) <= 5e-5

    def test_tree_agrees_with_reduced(self):
        (_, tree), = cmd_price(_config(n_values=(313,), method="tree"))
        (_, reduced), = cmd_price(_config(n_values=(313,)))
        assert abs(tree - reduced) <= 1e-10 * reduced

    def test_closed_agrees_with_reduced(self):
        (_, closed), = cmd_price(_config(n_values=(50,), method="closed"))
        (_, reduced), = cmd_price(_config(n_values=(50,)))
        assert abs(closed - reduced) <= 1e-10 * reduced

    def test_expansion_method_wires_through(self):
        exp = expansion_coeffs(T1, "call")
        rows = cmd_price(_config(n_values=(400, 1600), method="expansion"))
        for n, price in rows:
            assert price == expansion_price(exp, n)


class TestCmdTable:
    def test_row_grid(self):
        rows = cmd_table("T1")
        assert tuple(r.n for r in rows) == TABLE_N_VALUES

    def test_residual_identities(self):
        for row in cmd_table("T3"):
            scaled1 = (row.price_n - row.price_bs) * math.sqrt(row.n)
            scaled2 = (row.price_n - row.price_bs - row.coeff1 / math.sqrt(row.n)) * row.n
            assert row.scaled1 == scaled1
            assert abs(row.scaled2 - scaled2) <= 1e-12

    def test_coeff_columns_wire_to_expansion(self):
        market, side = TABLE_MARKETS["T4"]
        exp = expansion_coeffs(market, side)
        for row in cmd_table("T4"):
            assert row.price_bs == exp.c0
            assert row.coeff1 == exp.c1
            assert row.coeff2 == exp.c2_at(row.n)

    def test_printed_anchors_call_table(self):
        last = cmd_table("T1")[-1]
        assert last.n == 100000
        assert abs(last.price_n - 26.3842) <= 5e-4
        assert abs(last.scaled1 - (-0.7050)) <= 5e-4
        assert abs(last.scaled2 - 0.6746) <= 5e-4
        assert abs(last.price_bs - 26.3864) <= 5e-5
        assert abs(last.coeff1 - (-0.7071)) <= 5e-5

    def test_printed_anchors_zero_rate_call_table(self):
        row = cmd_table("T2")[1]
        assert row.n == 5000
        assert abs(row.scaled2 - 0.9868) <= 5e-4
        assert abs(row.coeff2 - 1.0069) <= 5e-4

    def test_printed_anchors_put_table(self):
        row = cmd_table("T4")[0]
        assert row.n == 1000
        assert abs(row.price_n - 23.4800) <= 5e-4
        assert abs(row.coeff1 - (-3.6413)) <= 5e-5

    def test_expansion_computed_once(self, monkeypatch):
        """cmd_table hands its expansion to residual_scan instead of
        letting it compute the same coefficients again."""
        import lookback.asymptotics as asymptotics
        import lookback.cli as cli

        calls = []
        original = asymptotics.expansion_coeffs

        def counting(market, side):
            calls.append(side)
            return original(market, side)

        monkeypatch.setattr(cli, "expansion_coeffs", counting)
        monkeypatch.setattr(asymptotics, "expansion_coeffs", counting)
        cmd_table("T1")
        assert len(calls) == 1

    def test_unknown_table(self):
        with pytest.raises(DomainError):
            cmd_table("T9")


class TestCmdFigure5:
    def test_scan_shape_and_anchors(self):
        rows = cmd_figure5(50)
        assert [r[0] for r in rows] == list(range(2, 51))
        by_n = {n: price for n, price, _ in rows}
        assert abs(by_n[2] - 26.03214307) <= 5e-8
        assert abs(by_n[50] - 26.29339471) <= 5e-8

    def test_constant_column(self):
        rows = cmd_figure5(5)
        constants = {c for _, _, c in rows}
        assert constants == {bs_price(T1, "call")}

    @pytest.mark.parametrize("n_max", [1, 5001])
    def test_rejects_out_of_range(self, n_max):
        with pytest.raises(DomainError):
            cmd_figure5(n_max)


class TestCmdCdfBench:
    def test_median_rule_is_exact_for_fair_coin(self):
        (n, exact, approx, err, err_scaled), = cmd_cdf_bench(
            [201], (0.5, 0.0), "median"
        )
        assert n == 201
        assert approx == 0.5
        assert abs(exact - 0.5) <= 1e-13
        assert err <= 1e-13

    def test_scaled_column_identity(self):
        rows = cmd_cdf_bench([200, 400, 800], (0.5, 0.1), 0.55)
        for n, _, _, err, err_scaled in rows:
            assert err_scaled == err * n**2.5

    def test_deep_tail_saturates(self):
        """At n = 6400 with j = 0.55 n the tail is ~8 deviations out and
        both the exact CDF and the expansion saturate in double precision."""
        (_, exact, approx, err, _), = cmd_cdf_bench([6400], (0.5, 0.1), 0.55)
        assert err <= 1e-9

    def test_rejects_unsorted_grid(self):
        with pytest.raises(DomainError):
            cmd_cdf_bench([400, 200], (0.5, 0.0), 0.55)


PRICE_ARGS = [
    "price", "--spot", "80", "--extremum", "60", "--sigma", "0.2",
    "--rate", "0.08", "--tau", "1.27", "--side", "call",
]


class TestMainOutput:
    def test_csv_layout(self, tmp_path, capsys):
        out = tmp_path / "t2.csv"
        assert main(["table", "--table", "T2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        text = out.read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0] == "# schema: lookback.table.v1"
        assert lines[1] == "n,price_n,price_bs,scaled1,coeff1,scaled2,coeff2"
        assert "\r" not in text and ";" not in text
        body = list(csv.reader(lines[2:-1]))
        assert len(body) == len(TABLE_N_VALUES)
        want = cmd_table("T2")
        for parsed, row in zip(body, want):
            assert int(parsed[0]) == row.n
            # 10 significant digits round-trip within 5 units of the 10th
            assert abs(float(parsed[1]) - row.price_n) <= 5e-9 * abs(row.price_n)

    def test_csv_stdout(self, capsys):
        assert main(PRICE_ARGS + ["--n", "2..5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "# schema: lookback.price.v1"
        assert lines[1] == "n,price"
        assert [int(line.split(",")[0]) for line in lines[2:]] == [2, 3, 4, 5]

    @pytest.mark.parametrize("args,schema_id,n_values", [
        (PRICE_ARGS + ["--n", "100,200"], "lookback.price.v1", [100, 200]),
        (["table", "--table", "T3"], "lookback.table.v1", list(TABLE_N_VALUES)),
        (["figure5", "--n-max", "4"], "lookback.figure5.v1", [2, 3, 4]),
        (["cdf-bench", "--n", "200,400", "--p-drift", "0.1"], "lookback.cdf_bench.v1",
         [200, 400]),
    ], ids=["price", "table", "figure5", "cdf-bench"])
    def test_json_validates_against_shipped_schema(self, tmp_path, args, schema_id,
                                                   n_values):
        out = tmp_path / "rows.json"
        assert main(args + ["--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        import importlib.resources as resources

        schema_text = (
            resources.files("lookback") / "schemas" / "cli_output.schema.json"
        ).read_text(encoding="utf-8")
        jsonschema.validate(payload, json.loads(schema_text))
        assert payload["schema"] == schema_id
        assert [row["n"] for row in payload["rows"]] == n_values
        if schema_id == "lookback.price.v1":
            (_, want), = cmd_price(_config(n_values=(100,)))
            assert abs(payload["rows"][0]["price"] - want) <= 1e-8

    def test_runs_are_deterministic(self, tmp_path):
        paths = []
        for tag in ("a", "b", "c"):
            path = tmp_path / f"{tag}.csv"
            assert main(["figure5", "--n-max", "40", "--out", str(path)]) == 0
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_rewrite_replaces_a_longer_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        out.write_text("x" * 10_000, encoding="utf-8")
        assert main(PRICE_ARGS + ["--n", "2..5", "--out", str(out)]) == 0
        assert main(PRICE_ARGS + ["--n", "2..5"]) == 0
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_out_to_a_character_device(self):
        assert main(PRICE_ARGS + ["--n", "2", "--out", os.devnull]) == 0

    def test_cdf_bench_csv(self, capsys):
        code = main(["cdf-bench", "--n", "200,400", "--p-base", "0.5",
                     "--p-drift", "0.1", "--j-rule", "0.55"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "# schema: lookback.cdf_bench.v1"
        assert lines[1] == "n,exact,expansion,err,err_scaled"
        assert len(lines) == 4


class TestMainErrors:
    def test_domain_error_exits_2(self, capsys):
        code = main(["price", "--spot", "80", "--extremum", "60", "--sigma",
                     "-0.2", "--rate", "0.08", "--tau", "1.27", "--side",
                     "call", "--n", "100"])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "DomainError"

    def test_model_error_exits_2(self, capsys):
        code = main(["price", "--spot", "80", "--extremum", "60", "--sigma",
                     "0.01", "--rate", "5.0", "--tau", "1.0", "--side",
                     "call", "--n", "1"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ModelError"

    def test_reduced_where_rho_prime_rounds_to_zero_exits_2(self, capsys):
        """At s = sigma sqrt(tau/n) = 36.4, just below where tree_params
        refuses, rho' = P rounds to 0: the reduced form refuses as for an
        overflowing rho'^-(f+1), where the other methods print 100."""
        code = main(["price", "--spot", "100", "--extremum", "100", "--sigma",
                     "325.79936930779445", "--rate", "0", "--tau", "0.06532231456178274",
                     "--side", "call", "--n", "5", "--method", "reduced"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "ModelError"

    @pytest.mark.parametrize("market", [
        ["--extremum", "0.052350084557848446", "--sigma", "8.81057726899749", "--rate",
         "0.6729320088219917", "--tau", "9.005464675884113", "--side", "call"],
        ["--extremum", "100", "--sigma", "0.5", "--rate", "0.4999999995", "--tau", "1",
         "--side", "put"],
    ])
    def test_reduced_below_its_no_arbitrage_bound_exits_2(self, capsys, market):
        """Where the reduced form's terms cancel below 0 (a call at s = 26.4
        priced -23.2, a put at r tau/n just below s priced -6.9e-6) it
        refuses, where closed and tree print 100 and 1.888e-8."""
        code = main(["price", "--spot", "100", *market, "--n", "1", "--method", "reduced"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "ModelError"

    @pytest.mark.parametrize("p_base", ["1e-300", "1e-100"])
    def test_cdf_bench_past_the_expansion_float_range_exits_2(self, capsys, p_base):
        code = main(["cdf-bench", "--n", "100", "--p-base", p_base, "--p-drift", "0",
                     "--j-rule", "0.5"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "ModelError"

    def test_n_past_the_float_range_exits_2(self, capsys):
        """n = 10^400 exited 1 with an OverflowError traceback."""
        code = main(["price", "--spot", "80", "--extremum", "60", "--sigma", "0.2", "--rate",
                     "0.08", "--tau", "1.27", "--side", "call", "--n", str(10**400),
                     "--method", "expansion"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "ModelError"

    def test_bs_put_where_power_overflows_exits_0(self, capsys):
        code = main(["price", "--spot", "1", "--extremum", "1e100", "--sigma",
                     "0.2", "--rate", "0.08", "--tau", "1.27", "--side", "put",
                     "--n", "1", "--method", "bs"])
        assert code == 0
        price = float(capsys.readouterr().out.splitlines()[-1].split(",")[1])
        assert math.isfinite(price) and price > 0.0

    def test_expansion_put_where_b4_power_overflows_exits_0(self, capsys):
        code = main(["price", "--spot", "1.48", "--extremum", "2.52", "--sigma",
                     "0.0022", "--rate", "0.21", "--tau", "0.0011", "--side", "put",
                     "--n", "100", "--method", "expansion"])
        assert code == 0
        price = float(capsys.readouterr().out.splitlines()[-1].split(",")[1])
        assert math.isfinite(price) and price > 0.0

    def test_nonfinite_spot_exits_2(self, capsys):
        args = PRICE_ARGS + ["--n", "100"]
        args[args.index("--spot") + 1] = "inf"
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "DomainError"

    def test_overflowing_ratio_exits_2(self, capsys):
        args = PRICE_ARGS + ["--n", "100"]
        args[args.index("--spot") + 1] = "1e-300"
        args[args.index("--extremum") + 1] = "1e300"
        args[args.index("--side") + 1] = "put"
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("rate", ["0", "0.05"])
    @pytest.mark.parametrize("sigma", ["1e-300", "1e-160", "1e-150", "100", "400", "1000", "1e5",
                                       "1e10"])
    @pytest.mark.parametrize("method", ["bs", "expansion", "reduced", "closed", "tree"])
    @pytest.mark.parametrize("side,extremum", [("call", "60"), ("put", "100")])
    def test_extreme_sigma_prices_or_refuses(self, capsys, side, extremum, method,
                                             sigma, rate):
        """Where sigma^2 underflows, e^s overflows or a lattice weight rounds
        to 0 or 1, a method either prints a
        finite price within the no-arbitrage bounds or exits 2 with a
        one-line ModelError/DomainError record, never a traceback or nan."""
        code = main(["price", "--spot", "80", "--extremum", extremum, "--tau",
                     "1.27", "--n", "100", "--side", side, "--method", method,
                     "--sigma", sigma, "--rate", rate])
        out, err = capsys.readouterr()
        if code == 0:
            price = float(out.splitlines()[-1].split(",")[1])
            assert math.isfinite(price) and price >= 0.0
            assert side == "put" or price <= 80.0
        else:
            assert code == 2 and out == ""
            assert err.count("\n") == 1
            assert json.loads(err)["error"] in ("ModelError", "DomainError")

    @pytest.mark.parametrize("args", [
        ["--n", "10,20", "--j-rule", "nan"],
        ["--n", "10,20", "--j-rule", "inf"],
        ["--n", "10,20", "--j-rule=-inf"],
        ["--n", "0,5"],
        ["--n", "5..3"],
    ])
    def test_cdf_bench_outside_domain_exits_2(self, capsys, args):
        assert main(["cdf-bench", *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "DomainError"

    def test_budget_error_exits_3(self, capsys):
        code = main(PRICE_ARGS + ["--n", "100,6000", "--method", "tree"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "BudgetError"

    @pytest.mark.parametrize("args", [
        PRICE_ARGS + ["--n", "100000000000000000000", "--method", "reduced"],
        ["cdf-bench", "--n", "1000000000000000000000"],
    ])
    def test_n_above_the_cdf_cap_exits_3(self, capsys, args):
        assert main(args) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == "BudgetError"

    @pytest.mark.parametrize("args", [
        PRICE_ARGS + ["--n", "1000000000,2000000000", "--method", "reduced"],
        ["cdf-bench", "--n", "1000000000,2000000000"],
    ])
    def test_grid_past_the_cdf_cap_prices_nothing(self, capsys, monkeypatch, args):
        """A grid that runs past CDF_MAX_N is refused before its first n,
        which is within the cap, is priced."""
        calls = []
        for name in ("price_closed_reduced", "price_closed_reduced_grid", "binom_cdf_exact"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(name))
        assert main(args) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == "BudgetError"
        assert calls == []

    def test_malformed_n_list_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(PRICE_ARGS + ["--n", "abc"])
        assert excinfo.value.code == 2
        capsys.readouterr()
