"""Command-line interface: output formats, exit codes, determinism."""

import json

import pytest

from latpath.cli import main

P3_INFO = """\
rank=3
nullity=3
loops=-
isthmuses=-
components=1
connectivity=2
fundamental_flats={1,2,3}r2|{4,5,6}r2
connected_flats={1,2,3}r2|{4,5,6}r2
bases=18
"""

U24_INFO = """\
rank=2
nullity=2
loops=-
isthmuses=-
components=1
connectivity=inf
fundamental_flats=-
connected_flats=-
bases=6
"""


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_info_pair(capsys):
    rc, out, _ = run(capsys, "info", "--pair", "EENENN", "NNENEE")
    assert rc == 0
    assert out == P3_INFO


def test_info_uniform(capsys):
    rc, out, _ = run(capsys, "info", "--pair", "EENN", "NNEE")
    assert rc == 0
    assert out == U24_INFO


def test_info_empty_pair(capsys):
    rc, out, _ = run(capsys, "info", "--pair", "", "")
    assert rc == 0
    assert "rank=0" in out and "bases=1" in out and "connectivity=inf" in out


def test_info_malformed_word(capsys):
    rc, _, err = run(capsys, "info", "--pair", "EXN", "NNE")
    assert rc == 2
    assert err == "error: invalid step 'X' at position 2\n"


def test_info_deterministic(capsys):
    _, first, _ = run(capsys, "info", "--pair", "EENEENEN", "NENEENEE")
    _, second, _ = run(capsys, "info", "--pair", "EENEENEN", "NENEENEE")
    assert first == second


def test_recognize_accepts(tmp_path, capsys):
    doc = tmp_path / "u24.json"
    doc.write_text(json.dumps({"ground": [1, 2, 3, 4],
                               "sets": [[2, 3, 4], [1, 3, 4]]}))
    rc, out, _ = run(capsys, "recognize", "--system", str(doc))
    assert rc == 0
    assert out == ("accepted\n"
                   "order=1,2,3,4\n"
                   "lower=EENN\n"
                   "upper=NNEE\n"
                   "component=1,2,3,4 lower=EENN upper=NNEE\n")


def test_recognize_rejects_prism(tmp_path, capsys):
    doc = tmp_path / "prism.json"
    doc.write_text(json.dumps({
        "ground": [1, 2, 3, 4, 5, 6],
        "sets": [[1, 2], [3, 4], [5, 6], [1, 2, 3, 4, 5, 6]]}))
    rc, out, _ = run(capsys, "recognize", "--system", str(doc))
    assert rc == 1
    assert out == ("rejected\n"
                   "component=1,2,3,4,5,6\n"
                   "step=5\n"
                   "reason=no class ordering satisfies the overlap conditions\n")


def test_recognize_foreign_element(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"ground": [1, 2], "sets": [[1, 5]]}))
    rc, _, err = run(capsys, "recognize", "--system", str(doc))
    assert rc == 2
    assert err == "error: element 5 in set 1 but not in ground\n"


def test_recognize_stdin(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"ground": [1, 2, 3, 4], "sets": [[2, 3, 4], [1, 3, 4]]})))
    rc, out, _ = run(capsys, "recognize", "--system", "-")
    assert rc == 0
    assert out.startswith("accepted\n")


def test_recognize_string_labels(tmp_path, capsys):
    doc = tmp_path / "named.json"
    doc.write_text(json.dumps({"ground": ["a", "b", "c", "d"],
                               "sets": [["b", "c", "d"], ["a", "c", "d"]]}))
    rc, out, _ = run(capsys, "recognize", "--system", str(doc))
    assert rc == 0
    assert "lower=EENN" in out and "upper=NNEE" in out


def test_transform_dual(capsys):
    rc, out, _ = run(capsys, "transform", "--pair", "EENN", "NNEE", "dual")
    assert rc == 0 and out == "EENN NNEE\n"


def test_transform_delete(capsys):
    rc, out, _ = run(capsys, "transform", "--pair", "EENN", "NNEE",
                     "delete", "4")
    assert rc == 0 and out == "ENN NNE\n"


def test_transform_contract(capsys):
    rc, out, _ = run(capsys, "transform", "--pair", "EENN", "NNEE",
                     "contract", "1")
    assert rc == 0 and out == "EEN NEE\n"


def test_transform_canonical(capsys):
    rc, out, _ = run(capsys, "transform", "--pair", "EENENN", "NNENEE",
                     "canonical")
    assert rc == 0 and out == "EENENN NNENEE\n"


def test_transform_restrict(capsys):
    rc, out, _ = run(capsys, "transform", "--pair", "EENENN", "NNENEE",
                     "restrict", "1", "3")
    assert rc == 0 and out == "ENN NNE\n"


def test_transform_sum(tmp_path, capsys):
    other = tmp_path / "pair.txt"
    other.write_text("EN NE\n")
    rc, out, _ = run(capsys, "transform", "--pair", "EENN", "NNEE",
                     "sum", str(other))
    assert rc == 0 and out == "EENNEN NNEENE\n"


def test_transform_out_of_range(capsys):
    rc, _, err = run(capsys, "transform", "--pair", "EENN", "NNEE",
                     "delete", "9")
    assert rc == 2
    assert err == "error: element 9 outside ground [1,4]\n"


def test_transform_pipes_compose(capsys):
    rc, out, _ = run(capsys, "transform", "--pair", "EENENN", "NNENEE", "dual")
    assert rc == 0
    lower, upper = out.split()
    rc, out2, _ = run(capsys, "transform", "--pair", lower, upper, "dual")
    assert rc == 0 and out2 == "EENENN NNENEE\n"


def test_class_pair(capsys):
    rc, out, _ = run(capsys, "class", "--pair", "EENENN", "NNENEE")
    assert rc == 0
    assert out == "is_lpm=true\ncatalan=false\nnotch=true\n"


def test_class_catalog_mn(capsys):
    rc, out, _ = run(capsys, "class", "--catalog", "Mn", "4")
    assert rc == 0
    assert out == ("name=Mn\n"
                   "params=4\n"
                   "realization=pair\n"
                   "note=bases biject with the paths weakly below the staircase\n"
                   "lower=EEEENNNN\n"
                   "upper=ENENENEN\n"
                   "is_lpm=true\n"
                   "catalan=true\n"
                   "notch=true\n")


def test_class_catalog_verify(capsys):
    rc, out, _ = run(capsys, "class", "--catalog", "An", "3", "--verify")
    assert rc == 0
    assert out.endswith("target=notch\n"
                        "not_in_class=true\n"
                        "minor_failures=-\n"
                        "verify=pass\n")


def test_class_unknown_catalog(capsys):
    rc, _, err = run(capsys, "class", "--catalog", "Zz", "1")
    assert rc == 2
    assert err == "error: unknown catalog name 'Zz'\n"


def test_catalog_list(capsys):
    rc, out, _ = run(capsys, "catalog-list")
    assert rc == 0
    rows = out.splitlines()
    assert len(rows) == 15
    assert rows[0].split("\t")[0] == "Mn"
    names = [r.split("\t")[0] for r in rows]
    assert names == ["Mn", "Pn", "W3", "Whirl3", "An", "Bnk", "Cnk", "Dn",
                     "En", "Fn", "Gn", "Hn", "PrismDualPair", "OtherEx1",
                     "OtherEx2"]


def test_info_system_matches_info_pair(tmp_path, capsys):
    """Recognition of an emitted standard presentation reports the same facts."""
    _, pair_report, _ = run(capsys, "info", "--pair", "EENEENEN", "NENEENEE")
    from latpath import BoundingPair, standard_presentation
    intervals = standard_presentation(
        BoundingPair("EENEENEN", "NENEENEE")).intervals
    doc = tmp_path / "sys.json"
    doc.write_text(json.dumps({
        "ground": list(range(1, 9)),
        "sets": [list(range(a, b + 1)) for a, b in intervals]}))
    _, sys_report, _ = run(capsys, "info", "--system", str(doc))
    assert sys_report == pair_report


def test_info_requires_an_input(capsys):
    with pytest.raises(SystemExit):
        main(["info"])


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    import latpath.cli as cli

    def boom(args):
        raise RuntimeError("simulated fault")
    monkeypatch.setattr(cli, "cmd_info", boom)
    rc, out, err = run(capsys, "info", "--pair", "EENN", "NNEE")
    assert rc == 3
    assert out == ""
    assert err == "error: internal error: RuntimeError: simulated fault\n"


def test_class_cap_past_table_limit_is_refused(capsys):
    rc, out, err = run(capsys, "class", "--catalog", "Mn", "13", "--verify",
                       "--cap", "64")
    assert rc == 2
    assert err.startswith("error: ") and "limit" in err
