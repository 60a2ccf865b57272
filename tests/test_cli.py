import json

import pytest

import fanocalc
from fanocalc import schubert
from fanocalc.cli import MAX_M_VALUES, MAX_POWER_BITS, build_parser, main, parse_schubert_expr, run
from fanocalc.schubert import GrassmannContext, sigma

G25 = GrassmannContext(2, 5)


# -- expression grammar ---------------------------------------------------------

def test_expr_power():
    assert parse_schubert_expr(G25, "s[1]^2") == sigma(G25, 2) + sigma(G25, 1, 1)


def test_expr_sum_and_product():
    expected = 3 * sigma(G25, 3, 1) + sigma(G25, 2)
    assert parse_schubert_expr(G25, "3 * s[1,1]*s[2] + s[2]") == expected


def test_expr_integer_literal():
    assert parse_schubert_expr(G25, "2") == 2 * G25.one()


def test_expr_integer_terms_meet_the_unit_class():
    assert parse_schubert_expr(G25, "2^3 + s[1]") == 8 * G25.one() + sigma(G25, 1)
    assert parse_schubert_expr(G25, "s[1]*2^2*3") == 12 * sigma(G25, 1)
    assert parse_schubert_expr(G25, "0^0") == G25.one()


def test_expr_integer_powers_make_no_products(monkeypatch):
    calls = []
    real_multiply = schubert.multiply

    def counting_multiply(x, y):
        calls.append(1)
        return real_multiply(x, y)

    monkeypatch.setattr(schubert, "multiply", counting_multiply)
    G12 = GrassmannContext.from_projective(1, 2)
    value = parse_schubert_expr(G12, "2^20000*s[1]^2")
    assert value == 2**20000 * sigma(G12, 1, 1)
    assert len(calls) == 2


def test_expr_integer_power_bit_limit():
    # 2^e has e + 1 bits: the limit itself passes, one bit more is refused
    at_limit = parse_schubert_expr(G25, f"2^{MAX_POWER_BITS - 1}")
    assert at_limit == 2 ** (MAX_POWER_BITS - 1) * G25.one()
    for expr in (f"2^{MAX_POWER_BITS}", f"3*4^{MAX_POWER_BITS // 2}", f"2^{MAX_POWER_BITS // 2}^2"):
        with pytest.raises(ValueError, match="exceeds"):
            parse_schubert_expr(G25, expr)


def test_expr_whitespace_insensitive():
    assert parse_schubert_expr(G25, " s[ 2 , 1 ] ") == sigma(G25, 2, 1)


def test_expr_rejects_garbage():
    with pytest.raises(ValueError):
        parse_schubert_expr(G25, "s[1] - s[2]")
    with pytest.raises(ValueError):
        parse_schubert_expr(G25, "s[1]^")


# -- command execution ------------------------------------------------------------

def test_schubert_integrate_command():
    result = run(["schubert", "integrate", "--gr", "1,4", "--expr", "s[1]^6"])
    assert result.status == "ok"
    assert result.result == 5


def test_bound_E_command_payload():
    result = run(["bound", "E", "--target", "V4-quartic", "--twist", "2"])
    assert result.status == "ok"
    assert result.result == {"E": 88, "twist": 2, "verdict": "bounded"}


def test_bound_E_defaults_to_cotangent_twist():
    result = run(["bound", "E", "--target", "A2"])
    assert result.result == {"E": 16, "twist": 3, "verdict": "bounded"}


def test_bound_max_m_answers_for_a_huge_c3():
    # a scan up to the root bound would visit about 4.5e18 multipliers
    result = run(["bound", "max-m", "--target", "V4-quartic", "--twist", "2", "--h3x", "1",
                  "--kappa", "-1", "--c2hx", "1", "--c3x", str(10**20)])
    assert result.status == "ok"
    assert result.result == {"m_max": 1656503, "twist": 2}


def test_wps_lmin_command():
    result = run(["wps", "lmin", "1,1,1,1,2"])
    assert result.result == 3


def test_report_chain_command():
    result = run(["report", "lines-cubic"])
    payload = result.result
    assert payload["lines_through_general_point"] == 6
    assert payload["cl_self_intersection"] == 5
    assert payload["ramification_degree"] == 30
    assert payload["closed_form_identity"] is True


def test_chern_top_integrate_command():
    result = run(["chern", "top", "--taut", "1,3", "--sym", "3", "--integrate"])
    assert result.result == 27


def test_rr_chi3_command():
    result = run([
        "rr", "chi3", "--d3", "4", "--kd2", "-4", "--kkd", "4", "--c2d", "24", "--c1c2", "24",
    ])
    assert result.result == {"chi": "5", "integral": True}


def test_db_lookup_and_feasible_m():
    assert run(["db", "lookup", "A5"]).result["facts"]["lines_through_general_point"] == "3"
    result = run([
        "bound", "feasible-m", "--rx", "1", "--ry", "1", "--m-max", "10", "--witnesses",
    ])
    assert result.result["feasible"] == [1]
    assert any(
        w["source"] == [0, -1] and w["target"] == [0, -1]
        for w in result.result["witnesses"]["1"]
    )


def test_bound_quadric_command():
    result = run(["bound", "quadric", "--h3x", "2", "--kappa", "-1"])
    assert result.result == {"threshold": 13, "m_bound": 13, "degree_bound": 2197}


def test_bound_neg_lines_via_hypersurface_degree():
    result = run(["bound", "neg-lines", "--hypersurface-degree", "4"])
    assert result.result == {"j": 2, "m_bound": 2}


def test_json_output_is_deterministic(capsys):
    argv = ["--json", "bound", "E", "--target", "V4-quartic", "--twist", "2"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {"command", "status", "inputs", "result", "provenance"}
    assert doc["result"]["E"] == 88
    assert doc["provenance"]


def test_json_prints_integers_over_4300_digits(capsys):
    argv = ["--json", "schubert", "integrate", "--gr", "1,2", "--expr", "2^20000*s[1]^2"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == 2**20000


def test_domain_error_exit_code(capsys):
    assert main(["db", "lookup", "NOPE"]) == 1
    err = capsys.readouterr().err
    assert "unknown Fano family" in err


def test_domain_error_json_document(capsys):
    assert main(["--json", "db", "lookup", "NOPE"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error"
    assert "NOPE" in doc["message"]


def test_usage_error_exit_code(capsys):
    assert main(["schubert", "unknown-op"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,command",
    [
        (["schubert", "integrate", "--gr", "1,4"], "schubert integrate"),
        (["schubert", "unknown-op"], "schubert"),
        ([], ""),
    ],
)
def test_usage_error_json_document(capsys, argv, command):
    assert main(["--json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["command"] == command
    assert doc["status"] == "error"
    assert set(doc) == {"command", "status", "message"}
    assert doc["message"]


def test_usage_error_text_mode_keeps_argparse_output(capsys):
    assert main(["schubert", "integrate", "--gr", "1,4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: fanocalc schubert integrate")
    assert "fanocalc schubert integrate: error: " in captured.err
    assert "--expr" in captured.err


def _feasible_m_argv(m_min, m_max):
    return ["--json", "bound", "feasible-m", "--rx", "1", "--ry", "1",
            "--m-min", str(m_min), "--m-max", str(m_max)]


@pytest.mark.parametrize("m_max", [MAX_M_VALUES + 1, 10**9, 10**30])
def test_feasible_m_refuses_long_ranges_at_once(monkeypatch, capsys, m_max):
    def no_scan(*args):
        raise AssertionError("the range was scanned")

    monkeypatch.setattr(fanocalc, "feasible_multipliers", no_scan)
    assert main(_feasible_m_argv(1, m_max)) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error"
    assert f"spans {m_max} values" in doc["message"]


def test_feasible_m_scans_the_longest_allowed_range(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(fanocalc, "feasible_multipliers", lambda *args: seen.append(args[-1]) or set())
    assert main(_feasible_m_argv(10**12, 10**12 + MAX_M_VALUES - 1)) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"feasible": []}
    assert seen == [range(10**12, 10**12 + MAX_M_VALUES)]


def test_one_parser_parses_twice():
    # The op parser and its flags are added on the first selection only.
    parser = build_parser()
    for m in (7, 8):
        args = parser.parse_args(["wps", "generated", "1,2,3", "--m", str(m)])
        assert (args.command, args.m) == ("wps generated", m)


def test_db_validate_clean_exit(capsys):
    assert main(["db", "validate"]) == 0
    capsys.readouterr()


def test_db_override_path(tmp_path, capsys):
    table = tmp_path / "tiny.tsv"
    table.write_text("Q3\t3\t2\t-\t0\ttrue\t5\t-\tquadric\n", encoding="utf-8")
    result = run(["--db", str(table), "db", "list"])
    assert result.result == ["Q3"]
    result = run(["--db", str(table), "db", "lookup", "P3"])
    assert result.status == "error"


def test_schubert_mul_command():
    result = run(["schubert", "mul", "--gr", "1,4", "--lhs", "s[1]", "--rhs", "s[1]"])
    assert result.result["terms"] == {"1,1": 1, "2": 1}


def test_giambelli_command():
    result = run(["schubert", "giambelli", "--gr", "1,4", "--partition", "2,1"])
    assert result.result["terms"] == {"2,1": 1}


def test_chern_twist_split_command():
    result = run(["chern", "twist", "--split", "3:0,0", "--t", "2"])
    assert result.result == {"rank": 2, "chern": ["4*h", "4*h^2"]}
