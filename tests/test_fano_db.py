import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fanocalc
from fanocalc.fano_db import (
    FAMILY_NAMES,
    FanoDatabase,
    FanoRecord,
    conic_normal_bundle_degrees,
    default_database,
    expected_line_family_dim,
    line_normal_bundle_options,
    load_database,
    lookup,
    parse_table,
    validate,
)
from fanocalc.reports import lines_on_cubic_threefold
from fanocalc.wps import WeightVector


def test_every_shipped_record_validates():
    assert all(not validate(record) for record in default_database().records())


def test_database_covers_the_classification():
    names = set(default_database().names())
    assert set(FAMILY_NAMES) == names


def test_cubic_threefold_surface_multiples_match_the_derived_chain():
    # The A3 facts are read by no accessor; the line chain derives both.
    facts = lookup("A3").facts
    report = lines_on_cubic_threefold()
    for key in ("special_surface_multiple_expected", "special_surface_multiple_min"):
        assert int(facts[key]) == report[key]
    assert report["special_surface_multiple_expected"] == 30
    assert report["special_surface_multiple_min"] == 8


def test_lookup_examples():
    a5 = lookup("A5")
    assert a5.index == 2 and a5.H3 == 5
    assert a5.lines_through_general_point == 3
    assert a5.special_surface_multiple == 2

    quartic = lookup("V4-quartic")
    assert (quartic.index, quartic.H3, quartic.genus, quartic.b3) == (1, 4, 3, 60)

    p3 = lookup("P3")
    assert p3.index == 4 and p3.H3 == 1


def test_lookup_unknown_name():
    with pytest.raises(KeyError):
        lookup("V20")


def test_b3_only_where_tabulated():
    db = default_database()
    with_b3 = {name for name in db.names() if db.lookup(name).b3 is not None}
    assert with_b3 == {"V4-quartic", "A4", "A2", "P3", "Q3"}
    # values not computed in-package are flagged
    assert lookup("P3").facts["b3_source"] == "classical"
    assert lookup("Q3").facts["b3_source"] == "classical"


def test_both_v4_models_present():
    assert lookup("V4-quartic").very_ample
    assert not lookup("V4-double-quadric").very_ample
    assert lookup("V4-double-quadric").ambient == WeightVector((1, 1, 1, 1, 1, 2))


def test_mukai_umemura_record():
    special = lookup("V22-mu")
    assert special.special_surface_multiple == 1
    assert "non-reduced" in special.hilbert_scheme_notes
    assert lookup("V22").special_surface_multiple == 2


def test_non_very_ample_records_carry_ambient_models():
    db = default_database()
    for record in db.records():
        if not record.very_ample:
            assert record.ambient is not None, record.name


def test_index_one_h0_consistency():
    db = default_database()
    for record in db.records():
        if record.index == 1:
            assert record.h0_H == record.H3 // 2 + 3, record.name
        if record.index == 2:
            assert record.h0_H == record.H3 + 2, record.name


def test_h0_agrees_with_riemann_roch():
    # chi(O(H)) computed from intersection numbers equals the stored h0
    from fanocalc.riemann_roch import ThreefoldIntersectionData, chi_threefold

    db = default_database()
    for record in db.records():
        r, H3 = record.index, record.H3
        data = ThreefoldIntersectionData(
            D3=H3, KD2=-r * H3, KKD=r * r * H3, c2D=24 // r, c1c2=24
        )
        assert chi_threefold(data) == record.h0_H, record.name


def test_validate_flags_excluded_degree_20():
    record = FanoRecord("V20", 1, 20, 11, None, True, 13)
    assert any("20" in v for v in validate(record))


def test_validate_flags_odd_index_one_degree():
    record = FanoRecord("V7", 1, 7, None, None, True, 6)
    assert any("even" in v for v in validate(record))


def test_validate_flags_wrong_h0():
    record = FanoRecord("A3", 2, 3, None, None, True, 7)
    assert any("h0" in v for v in validate(record))


def test_validate_flags_very_ample_mismatch():
    record = FanoRecord("A2", 2, 2, None, 20, True, 4)
    assert any("very ample" in v for v in validate(record))


def test_shipped_a3_validates():
    assert validate(lookup("A3")) == []


def test_loader_rejects_invalid_table(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text(
        "V20\t1\t20\t11\t-\ttrue\t13\t-\tnot a real family\n", encoding="utf-8"
    )
    with pytest.raises(ValueError):
        load_database(bad)


def test_loader_rejects_duplicates():
    rows = parse_table("P3\t4\t1\t-\t0\ttrue\t4\t-\tone\nP3\t4\t1\t-\t0\ttrue\t4\t-\ttwo\n")
    with pytest.raises(ValueError):
        FanoDatabase(rows)


def test_load_from_explicit_path(tmp_path):
    table = tmp_path / "tiny.tsv"
    table.write_text(
        "# tiny\nQ3\t3\t2\t-\t0\ttrue\t5\t-\tquadric\n", encoding="utf-8"
    )
    # a pathlib.Path, a str and any other os.PathLike
    for path in (table, str(table), _PathLike(str(table))):
        assert load_database(path).names() == ["Q3"]


class _PathLike:
    def __init__(self, path: str) -> None:
        self.path = path

    def __fspath__(self) -> str:
        return self.path


def test_packaged_table_loads_from_a_copied_package(tmp_path):
    # the table is found next to the package's own files, wherever they are
    shutil.copytree(
        Path(fanocalc.__file__).parent, tmp_path / "fanocalc",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code = (
        "import fanocalc\n"
        "from fanocalc.fano_db import default_database\n"
        "print(fanocalc.__file__)\n"
        "print(len(default_database().names()))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, check=True,
    ).stdout.split("\n")
    assert Path(out[0]).parent == tmp_path / "fanocalc"
    assert out[1] == "19"


# -- normal bundle tables --------------------------------------------------------

def test_line_options_index_two_very_ample():
    assert line_normal_bundle_options(2, True) == {(0, 0), (1, -1)}


def test_line_options_index_one_very_ample():
    assert line_normal_bundle_options(1, True) == {(0, -1), (1, -2)}


def test_line_options_without_very_ampleness():
    assert (2, -2) in line_normal_bundle_options(2, False)


def test_line_options_reject_high_index():
    with pytest.raises(ValueError):
        line_normal_bundle_options(3, True)


def test_line_options_respect_adjunction():
    for r in (1, 2):
        for very_ample in (True, False):
            for a, b in line_normal_bundle_options(r, very_ample):
                assert a + b == r - 2


def test_conic_options():
    options = conic_normal_bundle_degrees()
    assert (0, 0) in options
    assert (4, -4) in options
    assert (3, -3) not in options
    assert options == {(a, -a) for a in (0, 1, 2, 4)}


# -- expected dimension of line families ---------------------------------------------

def test_expected_line_family_dims():
    assert expected_line_family_dim(3, 4) == -1
    assert expected_line_family_dim(4, 3) == 2
    assert expected_line_family_dim(3, 3) == 0


def test_expected_line_family_dim_rejects_bad_input():
    with pytest.raises(ValueError):
        expected_line_family_dim(1, 3)
    with pytest.raises(ValueError):
        expected_line_family_dim(3, 0)
