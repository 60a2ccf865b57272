import argparse
import json
import traceback
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fanocalc
from fanocalc import schubert
from fanocalc.cli import (
    COMMANDS,
    GROUPS,
    MAX_M_VALUES,
    MAX_POWER_BITS,
    TOP_FLAGS,
    UsageError,
    build_parser,
    main,
    parse_schubert_expr,
    run,
)
from fanocalc.schubert import GrassmannContext, sigma
from oracles import schubert_expr_value

G25 = GrassmannContext(2, 5)
G36 = GrassmannContext(3, 6)


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


def test_expr_powers_bind_left_to_right():
    assert parse_schubert_expr(G25, "2^3^2") == 64 * G25.one()
    assert schubert_expr_value(G25.k, G25.cols, "2^3^2") == {(): 64}


@st.composite
def _expressions(draw, ctx):
    """A well-formed expression on ``ctx``: a sum of products of powers of
    in-box classes and small literals, with spaces anywhere between tokens."""
    def space():
        return draw(st.sampled_from(["", "", " ", "  "]))

    def atom():
        if draw(st.booleans()):
            return str(draw(st.integers(0, 5)))
        parts = sorted(draw(st.lists(st.integers(1, ctx.cols), max_size=ctx.rows)), reverse=True)
        return f"s[{','.join(map(str, parts))}]"

    def factor():
        exponents = draw(st.lists(st.sampled_from([0, 1, 2, 2, 3]), max_size=2))
        return "^".join([atom(), *map(str, exponents)])

    def term():
        return f"{space()}*{space()}".join(factor() for _ in range(draw(st.integers(1, 3))))

    return space() + f"{space()}+{space()}".join(
        term() for _ in range(draw(st.integers(1, 3)))) + space()


@pytest.mark.parametrize("ctx", [G25, G36], ids=["G(2,5)", "G(3,6)"])
@given(data=st.data())
def test_expr_matches_the_splitting_oracle(ctx, data):
    text = data.draw(_expressions(ctx))
    assert parse_schubert_expr(ctx, text).terms == schubert_expr_value(ctx.k, ctx.cols, text)


def test_expr_whitespace_insensitive():
    assert parse_schubert_expr(G25, " s[ 2 , 1 ] ") == sigma(G25, 2, 1)


def test_expr_rejects_garbage():
    with pytest.raises(ValueError):
        parse_schubert_expr(G25, "s[1] - s[2]")
    with pytest.raises(ValueError):
        parse_schubert_expr(G25, "s[1]^")


def test_expr_names_an_unexpected_token():
    with pytest.raises(ValueError, match="unexpected token '\\+'"):
        parse_schubert_expr(G25, "+ s[1]")


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


@pytest.mark.parametrize(
    "bug",
    [
        ZeroDivisionError("division by zero"),
        ArithmeticError("inexact"),
        RuntimeError("x"),
        KeyError("stray"),
    ],
)
def test_a_bug_is_not_a_domain_error(capsys, bug):
    # only ValueError and OSError are refusals; an unknown family is a ValueError,
    # and anything else, a stray KeyError from a kernel dict included, propagates
    def handler(args):
        raise bug

    command = "bound E"
    with mock.patch.dict(COMMANDS, {command: (handler, COMMANDS[command][1])}):
        with pytest.raises(type(bug)):
            main(["--json", "bound", "E", "--target", "V4-quartic"])
    assert capsys.readouterr().out == ""


# Every input that is a list of integers: the command line, with {} for the
# list, and the name of the input that the message gives.
INTEGER_LISTS = {
    "gr": (["schubert", "integrate", "--gr", "{}", "--expr", "s[1]"], "--gr"),
    "taut": (["chern", "dual", "--taut", "{}"], "--taut"),
    "split": (["chern", "dual", "--split", "{}"], "--split"),
    "split-dimension": (["chern", "dual", "--split", "{}:1"], "--split"),
    "split-parts": (["chern", "dual", "--split", "3:{}"], "--split parts"),
    "partition": (["schubert", "giambelli", "--gr", "1,4", "--partition", "{}"], "--partition"),
    "weights": (["wps", "normalize", "{}"], "weights"),
    "schubert-atom": (["schubert", "integrate", "--gr", "1,4", "--expr", "s[{}]"], "s[{}]"),
}


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("text", ["x", "1,,2", ":1"])
@pytest.mark.parametrize("argv,name", INTEGER_LISTS.values(), ids=INTEGER_LISTS)
def test_a_malformed_integer_list_names_its_input(capsys, argv, name, text, json_mode):
    argv = [arg.replace("{}", text) for arg in argv]
    assert main(["--json", *argv] if json_mode else argv) == 1
    captured = capsys.readouterr()
    if json_mode:
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["status"] == "error"
        message = doc["message"]
    else:
        assert captured.out == ""
        message = captured.err
    assert name.replace("{}", text) in message
    assert "int()" not in message


def test_a_base_past_the_index_size_is_a_domain_error(capsys):
    # 2^63 - 1 is past the index size; a tuple of 2^62 + 1 entries is refused
    # by CPython before it allocates anything.
    for n in (2**63 - 1, 2**62):
        assert main(["--json", "wps", "model", "--base", f"P{n}", "--k", "1"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "wps model" and doc["status"] == "error"
        assert f"'P{n}'" in doc["message"]


def test_usage_error_exit_code(capsys):
    assert main(["schubert", "unknown-op"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,command",
    [
        (["schubert", "integrate", "--gr", "1,4"], "schubert integrate"),
        (["schubert", "unknown-op"], "schubert"),
        ([], ""),
        (["db", "list", "--bogus"], "db list"),
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


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (["db", "lookup", "--", "--json"], 1, "error: unknown Fano family '--json'"),
        (["db", "list", "--json"], 2, "fanocalc db list: error: unrecognized arguments: --json"),
    ],
    ids=["value-after-dashes", "flag-after-op"],
)
def test_json_counts_only_before_the_group(capsys, argv, code, err):
    # after the group, --json is a value or an unknown flag: the answer stays text
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert err in captured.err


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
    # The parser keeps nothing of one parse for the next.
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


def test_schubert_mul_reads_gr_once(monkeypatch):
    # both factors live in the one ring object that --gr names
    same_ring = []
    monkeypatch.setattr(fanocalc, "multiply", lambda x, y: same_ring.append(x.ring is y.ring) or x)
    assert run(["schubert", "mul", "--gr", "1,4", "--lhs", "s[1]", "--rhs", "s[2]"]).status == "ok"
    assert same_ring == [True]


def test_max_m_reports_the_source_before_the_twist(tmp_path):
    # A1 here is not very ample and has no ambient model, so its twist cannot default
    table = tmp_path / "a1.tsv"
    table.write_text("A1\t2\t1\t-\t-\tfalse\t3\t-\tno ambient\n", encoding="utf-8")
    argv = ["--db", str(table), "bound", "max-m", "--target", "A1"]
    assert run([*argv, "--h3x", "1"]).message.startswith("source invariants incomplete")
    full = run([*argv, "--h3x", "1", "--kappa", "-1", "--c2hx", "1", "--c3x", "1"])
    assert full.message == "A1: not very ample and no weighted ambient model recorded"


def test_source_refuses_the_invariant_flags():
    argv = ["bound", "max-m", "--target", "V4-quartic", "--twist", "2", "--source", "V4-quartic"]
    for flag in ("--h3x", "--kappa", "--c2hx", "--c3x"):
        result = run([*argv, flag, "9"])
        assert (result.status, result.message) == (
            "error", f"--source reads the source invariants; drop {flag}")
    assert run([*argv, "--h3x", "9", "--c3x", "1"]).message.endswith("drop --h3x, --c3x")


@pytest.mark.parametrize(
    "extra", [["--r", "2"], ["--not-very-ample"], ["--r", "1", "--not-very-ample"]],
    ids=["r", "not-very-ample", "both"])
def test_conics_refuses_the_line_flags(extra):
    result = run(["db", "normal-bundles", "--conics", *extra])
    assert (result.status, result.message) == (
        "error", "--conics lists conic options: give it no --r or --not-very-ample")


@pytest.mark.parametrize(
    "argv,message",
    [(["--db", "", "db", "list"], "No such file"),
     (["bound", "max-m", "--target", "V4-quartic", "--source", "", "--h3x", "4", "--kappa", "-1",
       "--c2hx", "24", "--c3x", "1"], "--source reads the source invariants; drop --h3x")],
    ids=["db", "source"])
def test_an_empty_value_is_read_not_dropped(capsys, argv, message):
    assert main(["--json", *argv]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error" and message in doc["message"]


def test_giambelli_command():
    result = run(["schubert", "giambelli", "--gr", "1,4", "--partition", "2,1"])
    assert result.result["terms"] == {"2,1": 1}


def test_chern_twist_split_command():
    result = run(["chern", "twist", "--split", "3:0,0", "--t", "2"])
    assert result.result == {"rank": 2, "chern": ["4*h", "4*h^2"]}


# -- the parser against argparse ----------------------------------------------------

def test_abbreviated_flags_are_unknown(capsys):
    # --js once parsed as --json, yet the answer came out as text
    assert main(["--js", "db", "list"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fanocalc: error: unrecognized arguments: --js" in captured.err
    assert main(["--json", "bound", "E", "--tar", "A2"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert (doc["command"], doc["status"]) == ("bound E", "error")


def test_equals_form_and_negative_values():
    spaced = run(["bound", "max-m", "--target", "V4-quartic", "--twist", "2", "--h3x", "1",
                  "--kappa", "-1", "--c2hx", "1", "--c3x", "-3"])
    joined = run(["bound", "max-m", "--target=V4-quartic", "--twist=2", "--h3x=1",
                  "--kappa=-1", "--c2hx=1", "--c3x=-3"])
    assert spaced.status == "ok" and spaced == joined
    assert run(["wps", "generated", "--m", "7", "--", "1,2,3"]).result is True
    assert run(["bound", "neg-lines", "--j", "1", "--j", "2"]).inputs["j"] == 2


@pytest.mark.parametrize(
    "argv,prog",
    [
        ([], "fanocalc"),
        (["--db"], "fanocalc"),
        (["bogus"], "fanocalc"),
        (["schubert"], "fanocalc schubert"),
        (["schubert", "--bogus", "integrate"], "fanocalc schubert"),
        (["schubert", "integrate", "--gr", "1,4", "--expr", "s[1]", "--bogus"],
         "fanocalc schubert integrate"),
        (["schubert", "integrate", "--gr", "1,4", "--expr=s[1]", "s[2]"],
         "fanocalc schubert integrate"),
        (["db", "lookup"], "fanocalc db lookup"),
        (["chern", "top", "--taut", "1,3", "--integrate=yes"], "fanocalc chern top"),
    ],
)
def test_usage_errors_name_the_level_reached(capsys, argv, prog):
    with pytest.raises(UsageError) as exc:
        run(argv)
    assert (exc.value.code, exc.value.prog) == (2, prog)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {prog} [-h]")
    assert err.endswith(f"{prog}: error: {exc.value.message}\n")


@pytest.mark.parametrize(
    "argv,prog",
    [(["-h"], "fanocalc"), (["--json", "--help"], "fanocalc"), (["bound", "-h"], "fanocalc bound")],
)
def test_help_at_the_top_and_group_levels(capsys, argv, prog):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {prog} [-h]")
    assert "show this help message and exit" in out
    assert ("machine-readable output" in out) == (prog == "fanocalc")


class _ReferenceError(Exception):
    pass


class _Reference(argparse.ArgumentParser):
    def error(self, message):
        raise _ReferenceError(self.prog, message)


def _reference_parser() -> argparse.ArgumentParser:
    """argparse, built eagerly from the same table rows, with exact flag names only."""
    top = _Reference(prog="fanocalc", allow_abbrev=False)
    for names, kwargs in TOP_FLAGS:
        top.add_argument(*names, **kwargs)
    groups = top.add_subparsers(dest="group", required=True)
    ops = {g: groups.add_parser(g, allow_abbrev=False).add_subparsers(dest="op", required=True)
           for g in GROUPS}
    for command, (_handler, flags) in COMMANDS.items():
        group, _, op = command.partition(" ")
        parser = ops[group].add_parser(op, allow_abbrev=False)
        parser.set_defaults(command=command)
        for names, kwargs in flags:
            parser.add_argument(*names, **kwargs)
    return top


REFERENCE = _reference_parser()
# Values a flag or a positional may get: ints, negative ints, non-ints, flag-like words.
VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1,4", "s[1]^2", "3:1,2", "V4-quartic", "x", "1.5", "", "-a b", "a=b", "-x"]),
)


def _times(draw, required: bool) -> int:
    """How often a flag is given: a required one is rarely missing, an optional
    one often; a few come twice, and the last of them counts."""
    return draw(st.sampled_from([0] + [1] * 8 + [2] if required else [0, 0, 0, 1, 1, 2]))


@st.composite
def _argvs(draw, command):
    """An argv for ``command``: its flags in random order and form, some of them
    repeated or missing, maybe an unknown flag, and maybe one positional too
    few or too many."""
    chunks, positionals = [], []
    for names, kwargs in COMMANDS[command][1]:
        if not names[0].startswith("-"):
            positionals.append(draw(VALUES))
            continue
        for _ in range(_times(draw, kwargs.get("required"))):
            if "action" in kwargs:
                chunks.append([names[0]])
            elif draw(st.booleans()):
                chunks.append([names[0], draw(VALUES)])
            else:
                chunks.append([f"{names[0]}={draw(VALUES)}"])
    if draw(st.integers(0, 9)) == 0:
        chunks.append(["--bogus"])
    if positionals and draw(st.integers(0, 9)) == 0:
        positionals.pop()
    if draw(st.integers(0, 9)) == 0:
        positionals.append("extra")
    chunks = draw(st.permutations(chunks))
    for word in positionals:  # a positional may stand between any two flags
        chunks.insert(draw(st.integers(0, len(chunks))), [word])
    if positionals and draw(st.booleans()):  # or come last, after "--"
        chunks.remove([positionals[-1]])
        chunks.append(["--", positionals[-1]])
    head = draw(st.sampled_from([[], ["--json"], ["--db", "t.tsv"], ["--json", "--db=t.tsv"]]))
    return [*head, *command.split(" "), *sum(chunks, [])]


def _no_handler(args):
    return None, []


@pytest.mark.parametrize("command", COMMANDS)
@given(data=st.data())
def test_parser_agrees_with_argparse(command, data):
    """Either both parse, to the same namespace and the same ``inputs``, or both
    refuse at the same level.  argparse reports an unknown flag or an extra
    positional at the top (``fanocalc``); this parser at the op that met it."""
    argv = data.draw(_argvs(command))
    try:
        expected = vars(REFERENCE.parse_args(argv))
    except _ReferenceError as exc:
        prog, message = exc.args
        with pytest.raises(UsageError) as refused:
            run(argv)
        if not message.startswith("unrecognized arguments"):
            assert refused.value.prog == prog
        return
    parsed = vars(build_parser().parse_args(argv))
    assert parsed.pop("func") is COMMANDS[command][0]
    del expected["group"], expected["op"]
    assert parsed == expected
    with mock.patch.dict(COMMANDS, {command: (_no_handler, COMMANDS[command][1])}):
        result = run(argv)
    inputs = {k: v for k, v in expected.items() if k not in ("command", "json", "db")}
    assert (result.status, result.command, result.inputs) == ("ok", command, inputs)


# -- every chern command on valid-shaped values ------------------------------------

FANOCALC_DIR = Path(fanocalc.__file__).resolve().parent


@st.composite
def _chern_argvs(draw, command):
    """An argv for a ``chern`` row with small values of the right shape:
    ``--taut a,n`` with n <= 7, ``--split d:roots`` with d <= 8 and up to
    five roots in -3..3 (one of the two, rarely both or neither), ints in
    -1..5 for ``--k``, ``--sym`` and ``--ext``, -3..3 for ``--t``."""
    argv = command.split(" ")
    bundles = draw(st.sampled_from([["taut"], ["split"]] * 4 + [["taut", "split"], []]))
    for names, kwargs in COMMANDS[command][1]:
        flag = names[0]
        if flag in ("--taut", "--split"):
            if flag[2:] not in bundles:
                continue
            if flag == "--taut":
                n = draw(st.integers(0, 7))
                value = f"{draw(st.integers(-1, n))},{n}"
            else:
                roots = draw(st.lists(st.integers(-3, 3), max_size=5))
                value = f"{draw(st.integers(0, 8))}:{','.join(map(str, roots))}"
        elif "action" in kwargs:  # --integrate
            if draw(st.booleans()):
                argv.append(flag)
            continue
        elif flag == "--t":
            value = str(draw(st.integers(-3, 3)))
        elif kwargs.get("required") or draw(st.booleans()):
            value = str(draw(st.integers(-1, 5)))
        else:
            continue
        argv.append(f"{flag}={value}")  # a negative value would read as a flag
    return argv


@pytest.mark.parametrize("command", [c for c in COMMANDS if c.startswith("chern ")])
@given(data=st.data())
def test_chern_commands_answer_or_refuse_on_valid_shaped_values(command, data):
    """Each handler returns a result or raises a ``ValueError`` from a ``raise``
    line of fanocalc: never another exception, and never a ``ValueError`` out
    of a builtin that no check of the package meant.  Nothing here bounds
    the time a draw takes."""
    args = build_parser().parse_args(data.draw(_chern_argvs(command), label="argv"))
    try:
        result, provenance = args.func(args)
    except ValueError as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        assert Path(frame.filename).resolve().is_relative_to(FANOCALC_DIR), frame
        assert frame.line.startswith("raise "), frame
    else:
        assert result is not None and provenance
