"""Golden outputs of the ``fanocalc`` command line.

Every command of ``CORPUS`` runs through ``main`` twice, in text mode and
with ``--json``; standard output, standard error and the exit code must
equal the row recorded in ``tests/golden/cli.json``.  Usage errors and
``--help`` pin only the exit code (the parser's own wording of a message or
a help text may change without changing the command line), plus, under
``--json``, the ``command`` and ``status`` of the error document.  Regenerate the file after an intended change with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest

from fanocalc.cli import COMMANDS, build_parser, main

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FILE = GOLDEN / "cli.json"
TABLES = {
    "{tiny}": GOLDEN / "tiny.tsv",
    "{broken}": GOLDEN / "broken.tsv",
    "{bad_fact}": GOLDEN / "bad_fact.tsv",
}

CORPUS = """
schubert integrate --gr 1,4 --expr "s[1]^6"
schubert integrate --gr 1,4 --expr "2*3 + s[1]^6"
schubert integrate --gr 1,4 --expr 3
schubert integrate --gr 1,4 --expr "2^3*s[1]^6 + 0"
schubert integrate --gr 1,4 --expr "s[1]^6*2^2 + 1*0 + s[1]^2*s[1]^4"
schubert integrate --gr 1,2 --expr "2^20000*s[1]^2"
schubert integrate --gr 2,5 --expr "s[1]^3*s[2,1]^2 + 4*s[3]*s[3,3]"
schubert integrate --gr 1,4 --expr "s[1] - s[2]"
schubert integrate --gr 1,4 --expr "s[1]^"
schubert integrate --gr 1,4 --expr "s[1]^2 +"
schubert integrate --gr 1,4 --expr "s[1] s[2]"
schubert integrate --gr 14 --expr "s[1]"
schubert integrate --gr 4,1 --expr "s[1]"
schubert integrate --gr 1,4 --expr "s[x]"
schubert mul --gr 1,4 --lhs "s[1,1]" --rhs "s[2]"
schubert mul --gr 1,4 --lhs 2 --rhs "s[1] + 1"
schubert mul --gr 1,4 --lhs 0 --rhs "s[1]"
schubert mul --gr 2,5 --lhs "s[1]^3" --rhs "s[2,1]"
schubert pieri --gr 1,4 --expr "s[2,1]" --a 1
schubert pieri --gr 1,4 --expr "s[1] + 2" --a 2
schubert pieri --gr 1,4 --expr "s[1]" --a 9
schubert giambelli --gr 1,4 --partition 2,1
schubert giambelli --gr 2,5 --partition ""
schubert giambelli --gr 1,4 --partition 5
schubert giambelli --gr 1,4 --partition x
chern top --taut 1,3 --sym 3 --integrate
chern top --taut 3,8 --sym 3 --integrate
chern top --taut 1,4 --sym 3
chern top --taut 1,4 --ext 2 --integrate
chern top --taut 1,3
chern top --split 3:1,1,1 --integrate
chern top --split 3:1,1 --sym 2 --ext 2
chern top --split 3:1,,2
chern top --split 3:1,2 --sym 0
chern top --taut 1,4 --ext 0 --integrate
chern sym --taut 1,3 --k 2
chern sym --split 2:1,2 --k 3
chern sym --split 3:1,1,1,1,1 --k 2
chern sym --taut 1,3 --k 0
chern ext --taut 2,5 --k 2
chern ext --split 3:0,1,2 --k 2
chern dual --taut 1,3
chern dual --split 2:1,-1
chern twist --taut 1,3 --t 2
chern twist --split 3:0,0 --t 2
chern dual
chern dual --taut 1,3 --split 3:1
chern dual --split 3
chern dual --split x:1
chern dual --taut 13
rr chi3 --d3 4 --kd2 -4 --kkd 4 --c2d 24 --c1c2 24
rr chi3 --d3 1 --kd2 0 --kkd 0 --c2d 0 --c1c2 0
rr chi2 --dd 1 --dk -3 --kk 9 --c2 3
rr chi2 --dd 1 --dk 0 --kk 0 --c2 0
rr fano-invariants --r 1 --h3 4 --b3 60
rr fano-invariants --r 2 --h3 4 --b3 4
rr fano-invariants --r 5 --h3 1 --b3 0
rr fano-invariants --r 1 --h3 3 --b3 0
rr fano-invariants --r 2 --h3 1 --b3 3
rr fano-invariants --r 2 --h3 0 --b3 0
wps normalize 1,2,3
wps normalize 2,4,6,3
wps normalize 6,10,15
wps sing 1,2,3
wps sing 1,1,1,1,2
wps sing 1,1
wps canonical 1,1,1,1,2
wps generated 1,2,3 --m 5
wps generated 2,3 --m 1
wps lmin 1,1,1,1,2
wps lmin 1,1,1,2,3
wps lmin 1,2,3,5,7
wps lmin 2,4
wps lmin 1,x,3
wps model --base P3 --k 2
wps model --base veronese-cone --k 3
wps model --base quadric-4 --k 2
wps model --base projective-space-2 --k 3
wps model --base P0 --k 1
wps model --base torus --k 1
wps model --base P3 --k 0
wps model --base P² --k 2
wps normalize 1
wps normalize 0,1
wps normalize a,b
db lookup A5
db lookup V4-quartic
db lookup A1
db lookup NOPE
db list
db validate
db normal-bundles --r 1
db normal-bundles --r 2
db normal-bundles --r 1 --not-very-ample
db normal-bundles --conics
db normal-bundles --conics --r 2 --not-very-ample
db normal-bundles
db normal-bundles --r 3
db line-family-dim --n 4 --d 3
db line-family-dim --n 3 --d 5
--db {tiny} db list
--db {tiny} db lookup Q3
--db {tiny} db lookup P3
--db {broken} db list
--db {bad_fact} db validate
--db /nonexistent db list
bound E --target V4-quartic --twist 2
bound E --target A4 --twist 2
bound E --target A2 --twist 4
bound E --target A2
bound E --target P3
bound E --target V6 --twist 2
bound E --target A1
bound E --target NOPE
bound verdict --target V4-quartic
bound verdict --target A4 --twist 2
bound verdict --target V6
bound max-m --target V4-quartic --twist 2 --source V4-quartic
bound max-m --target V4-quartic --twist 2 --source V4-quartic --h3x 9
bound max-m --target V4-quartic --h3x 4 --kappa -1 --c2hx 24 --c3x 1000000
bound max-m --target A2 --source Q3
bound max-m --target V4-quartic --h3x 4
bound max-m --target V4-quartic --twist 2
bound max-m --target A4 --twist 2 --source V4-quartic
bound max-m --target V4-quartic --source V6
bound max-m --target V4-quartic --source NOPE
bound max-m --target V4-quartic --h3x 0 --kappa -1 --c2hx 1 --c3x 1
bound degree --m 2 --h3x 4 --h3y 4
bound degree --m 1 --h3x 1 --h3y 2
bound degree --m 0 --h3x 1 --h3y 1
bound ramification --ry 1 --k 2 --kappa -1
bound ramification --ry 1 --k 4 --kappa 3
bound ramification --ry 2 --k 4 --kappa -1
bound ramification --ry 2 --k 2 --kappa 5
bound ramification --ry 3 --k 2 --kappa -1
bound ramification --ry 1 --k 0 --kappa -1
bound ramification --ry 1 --k 2 --kappa -5
bound neg-lines --j 3
bound neg-lines --hypersurface-degree 4
bound neg-lines --j 0
bound neg-lines --hypersurface-degree 2
bound neg-lines --hypersurface-degree 5
bound neg-lines --j 3 --hypersurface-degree 4
bound neg-lines
bound neg-lines --hypersurface-degree 1
bound neg-lines --j -1
bound feasible-m --rx 1 --ry 1 --m-max 10 --witnesses
bound feasible-m --rx 2 --ry 1 --m-max 5
bound feasible-m --rx 1 --ry 2 --m-max 4 --not-very-ample --witnesses
bound feasible-m --rx 1 --ry 1 --m-min 5 --m-max 3
bound feasible-m --rx 1 --ry 1 --m-min 0 --m-max 3
bound feasible-m --rx 1 --ry 1 --m-max 1000000000
bound feasible-m --rx 3 --ry 1 --m-max 3
bound quadric --h3x 2 --kappa -1
bound quadric --h3x 1 --kappa -4
bound quadric --h3x 3 --kappa -1
bound quadric --h3x 1 --kappa -5
report lines-cubic
--help
schubert --help
bound max-m --help

bogus
schubert
schubert unknown-op
schubert integrate --gr 1,4
schubert pieri --gr 1,4 --expr "s[1]" --a x
schubert integrate --gr 1,4 --expr "s[1]" --bogus
chern sym --taut 1,3
db normal-bundles --very-ample --not-very-ample
wps generated 1,2,3
""".strip("\n").splitlines()


def _argv(line: str, json_mode: bool) -> list[str]:
    argv = shlex.split(line)
    for placeholder, path in TABLES.items():
        argv = [str(path) if arg == placeholder else arg for arg in argv]
    return ["--json", *argv] if json_mode else argv


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _row(line: str, json_mode: bool) -> dict:
    code, out, err = _run(_argv(line, json_mode))
    if code == 2 or "--help" in line:
        row = {"exit": code}
        if code == 2 and json_mode and out:
            doc = json.loads(out)
            row["document"] = {k: doc[k] for k in ("command", "status")}
        return row
    return {"exit": code, "stdout": out, "stderr": err}


def _key(line: str, json_mode: bool) -> str:
    return ("--json " if json_mode else "") + line


CASES = [(line, json_mode) for line in CORPUS for json_mode in (False, True)]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("line,json_mode", CASES, ids=[_key(*case) for case in CASES])
def test_cli_output_matches_golden(golden, line, json_mode):
    expected = golden[_key(line, json_mode)]
    code, out, err = _run(_argv(line, json_mode))
    assert code == expected["exit"]
    if "document" in expected:
        doc = json.loads(out)
        assert {k: doc[k] for k in ("command", "status")} == expected["document"]
        assert isinstance(doc["message"], str) and doc["message"]
        assert set(doc) == {"command", "status", "message"}
    elif "stdout" in expected:
        assert out == expected["stdout"]
        assert err == expected["stderr"]


def test_golden_file_matches_corpus(golden):
    assert set(golden) == {_key(*case) for case in CASES}


def test_every_subcommand_has_a_corpus_entry():
    covered = set()
    for line in CORPUS:
        words = [w for w in shlex.split(line) if not w.startswith("-") and "{" not in w]
        covered.add(" ".join(words[:2]))
    missing = set(COMMANDS) - covered
    assert not missing, f"subcommands without a golden row: {sorted(missing)}"


@pytest.mark.parametrize("command", COMMANDS)
def test_every_subcommand_parser_builds(capsys, command):
    # Every op prints its own usage and flags.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*command.split(" "), "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: fanocalc {command}")


if __name__ == "__main__":
    rows = {_key(*case): _row(*case) for case in CASES}
    GOLDEN_FILE.write_text(
        json.dumps(rows, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(rows)} rows to {GOLDEN_FILE}")
