"""Dataset ingestion, report generation, batch runs, and the CLI."""

import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from ellreg import certificates, harness, heights, lattice, weierstrass
from ellreg.cli import main
from ellreg.errors import ParseError, PointNotOnCurve, TorsionMismatch
from ellreg.harness import (
    HarnessConfig,
    analyze,
    batch,
    bundled_dataset_path,
    ingest,
    load_record,
    render_entries,
    report_from_dict,
    report_to_dict,
    run_batch,
)
from ellreg.points import multiply, point
from ellreg.weierstrass import curve

DATA = bundled_dataset_path()


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def test_bundled_dataset_shape():
    records = ingest(DATA)
    assert len(records) == 22
    labels = [r.label for r in records]
    assert len(set(labels)) == 22
    assert sum(len(r.gens) for r in records) == 20
    by_rank = {}
    for r in records:
        by_rank.setdefault(len(r.gens), []).append(r.label)
    assert len(by_rank[0]) == 6
    assert len(by_rank[1]) == 13
    assert by_rank[2] == ["389a1", "446d1"]
    assert by_rank[3] == ["5077a1"]


def test_ingest_parses_exact_rationals():
    records = {r.label: r for r in ingest(DATA)}
    rec = records["37a1"]
    assert rec.ainvs == (0, 0, 1, -1, 0)
    assert all(isinstance(a, Fraction) for a in rec.ainvs)
    assert rec.gens == ((Fraction(0), Fraction(0)),)
    assert rec.torsion_order == 1


def test_ingest_blank_lines_and_fractional_coordinates(tmp_path):
    c = curve((0, 0, 1, -1, 0))
    q = multiply(c, 8, point(0, 0))
    assert q.x.denominator > 1
    line = json.dumps(
        {
            "label": "q4",
            "ainvs": [0, 0, 1, -1, 0],
            "gens": [[f"{q.x.numerator}/{q.x.denominator}", f"{q.y.numerator}/{q.y.denominator}"]],
        }
    )
    path = tmp_path / "frac.jsonl"
    path.write_text("\n" + line + "\n\n")
    (rec,) = ingest(path)
    assert rec.gens[0] == (q.x, q.y)
    assert rec.torsion_order is None


def test_ingest_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"label": "a", "ainvs": [0,0,1,-1,0], "gens": []}\n{oops\n')
    with pytest.raises(ParseError) as info:
        ingest(path)
    assert info.value.line == 2


def test_ingest_rejects_duplicate_labels(tmp_path):
    line = '{"label": "a", "ainvs": [0, 0, 1, -1, 0], "gens": []}\n'
    path = tmp_path / "dup.jsonl"
    path.write_text(line + line)
    with pytest.raises(ParseError) as info:
        ingest(path)
    assert "duplicate" in str(info.value)
    assert info.value.line == 2


def test_ingest_rejects_off_curve_generator(tmp_path):
    path = tmp_path / "off.jsonl"
    path.write_text('{"label": "w", "ainvs": [0, 0, 1, -1, 0], "gens": [["1", "1"]]}\n')
    with pytest.raises(PointNotOnCurve) as info:
        ingest(path)
    assert "w" in str(info.value) and "generator 0" in str(info.value)


@pytest.mark.parametrize(
    "obj",
    [
        {"label": "a", "ainvs": [0, 0, 1, -1], "gens": []},
        {"label": "a", "ainvs": [0, 0, 1, -1, 0]},
        {"label": "", "ainvs": [0, 0, 1, -1, 0], "gens": []},
        {"label": "a", "ainvs": [0, 0, 1, -1, 0], "gens": [["0"]]},
        {"label": "a", "ainvs": [0, 0, 1, "x", 0], "gens": []},
        {"label": "a", "ainvs": [0, 0, 1, -1, 0], "gens": [], "torsion_order": 0},
        {"label": "a", "ainvs": [0, 0, 1, -1, 0], "gens": [], "extra": 1},
    ],
)
def test_load_record_rejects_malformed_objects(obj):
    with pytest.raises(ParseError):
        load_record(obj)


def test_load_record_accepts_valid_object():
    rec = load_record({"label": "a", "ainvs": [0, 0, 1, -1, 0], "gens": [["0", "0"]]})
    assert rec.gens == ((0, 0),)


# ---------------------------------------------------------------------------
# analysis reports
# ---------------------------------------------------------------------------


CERT_ORDER_RANK1 = [
    "gamma_inequality",
    "minkowski_weak",
    "minkowski_sharp",
    "vdc_lattice_check",
    "minima_floor[1]",
    "reg_floor_corollary",
    "vdc_reg_floor",
    "hs_height_floor",
    "szpiro_reg_floor",
    "ideal_norm_floor",
]


def test_analyze_37a1_report():
    records = {r.label: r for r in ingest(DATA)}
    rep = analyze(records["37a1"])
    assert rep.conductor == 37
    assert rep.sigma == 1.0
    assert rep.j == Fraction(110592, 37)
    assert rep.torsion_order == 1
    assert rep.rank == 1
    assert rep.reg_L.value == pytest.approx(0.0255557041199844, abs=1e-12)
    assert rep.reg.value == pytest.approx(2 * 0.0255557041199844, abs=2e-12)
    assert [c.name for c in rep.certificates] == CERT_ORDER_RANK1
    statuses = [c.status for c in rep.certificates]
    assert statuses[:3] == ["INDETERMINATE"] * 3  # rank-1 equalities
    assert statuses[3:] == ["PASS"] * 7
    lam1 = rep.minima.values[0]
    assert lam1 == pytest.approx(rep.reg_L.value, abs=1e-12)
    assert [row.T for row in rep.counting] == [math.ldexp(lam1, k) for k in range(7)]
    assert [row.count for row in rep.counting] == [3, 3, 5, 5, 9, 11, 17]
    assert [conv for conv, _ in rep.ratios] == ["lattice", "curve"]
    assert rep.ratios[1][1].lhs == pytest.approx(rep.reg.value, abs=1e-12)


def test_analyze_rank0_report():
    records = {r.label: r for r in ingest(DATA)}
    rep = analyze(records["11a1"])
    assert rep.rank == 0
    assert rep.gram.m == 0
    assert rep.reg_L.value == 1.0 and rep.reg_L.err == 0.0
    assert rep.reg.value == 1.0
    assert rep.minima.values == ()
    assert rep.counting == ()
    assert [c.name for c in rep.certificates] == ["ideal_norm_floor"]
    assert rep.ratios == ()
    assert rep.torsion_order == 5


def test_analyze_rank2_has_two_minima_floors():
    records = {r.label: r for r in ingest(DATA)}
    rep = analyze(records["389a1"])
    names = [c.name for c in rep.certificates]
    assert names.count("minima_floor[1]") == 1
    assert names.count("minima_floor[2]") == 1
    assert all(c.status == "PASS" for c in rep.certificates)
    assert rep.reg.value == pytest.approx(4 * rep.reg_L.value, abs=1e-15)


def test_analyze_torsion_mismatch():
    rec = load_record(
        {"label": "m", "ainvs": [0, 0, 1, -1, 0], "gens": [], "torsion_order": 2}
    )
    with pytest.raises(TorsionMismatch) as info:
        analyze(rec)
    assert "stated torsion order 2" in str(info.value)


def test_analyze_multiplicative_place_count():
    # conductor 389 is squarefree (multiplicative reduction), 27 is not
    records = {r.label: r for r in ingest(DATA)}
    rep = analyze(records["389a1"])
    assert [b["kodaira"] for b in rep.bad_primes] == ["I1"]
    rep0 = analyze(records["27a1"])
    assert all(not b["kodaira"].startswith("I1") for b in rep0.bad_primes)
    (cert,) = rep0.certificates
    assert cert.name == "ideal_norm_floor"
    assert cert.status == "INDETERMINATE"  # no multiplicative places at all


@pytest.mark.parametrize("label", ["11a1", "37a1", "389a1", "5077a1"])
def test_report_round_trip(label):
    records = {r.label: r for r in ingest(DATA)}
    rep = analyze(records[label])
    doc = json.loads(json.dumps(report_to_dict(rep)))
    assert report_from_dict(doc) == rep


def test_analyze_computes_each_fact_once(monkeypatch):
    calls = Counter()

    def count_calls(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        for mod in (weierstrass, heights, lattice, certificates, harness):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, wrapper)

    for fn in (
        weierstrass.minimal_model,
        lattice.lll_reduce,
        lattice._enumerate,
        lattice.regulator_L,
    ):
        count_calls(fn)
    records = {r.label: r for r in ingest(DATA)}
    for label in ("37a1", "5077a1"):
        calls.clear()
        analyze(records[label])
        assert calls["lll_reduce"] == 1, (label, calls)
        assert calls["_enumerate"] <= 2, (label, calls)
        assert calls["minimal_model"] <= 1, (label, calls)
        assert calls["regulator_L"] == 1, (label, calls)


def test_precision_floor_config():
    records = {r.label: r for r in ingest(DATA)}
    base = analyze(records["37a1"], HarnessConfig(precision=128))
    high = analyze(records["37a1"], HarnessConfig(precision=320))
    assert high.reg_L.value == pytest.approx(base.reg_L.value, abs=1e-13)


# ---------------------------------------------------------------------------
# batch runs and exit codes
# ---------------------------------------------------------------------------


def test_batch_bundled_passes_and_is_deterministic():
    entries, status = run_batch(DATA)
    assert status == 0
    assert [e["label"] for e in entries] == [r.label for r in ingest(DATA)]
    again, _ = run_batch(DATA)
    assert render_entries(entries) == render_entries(again)


def test_batch_corrupt_gram_fails():
    entries, status = run_batch(DATA, HarnessConfig(corrupt_gram=True))
    assert status == 2
    failed = {
        c["name"]
        for e in entries
        for c in e.get("certificates", ())
        if c["status"] == "FAIL"
    }
    assert "hs_height_floor" in failed


def test_batch_parse_error_exit_code(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text("not json\n")
    out = tmp_path / "out.json"
    assert batch(path, out_path=out) == 1
    doc = json.loads(out.read_text())
    assert doc[0]["error"]["type"] == "ParseError"
    assert doc[0]["error"]["line"] == 1


def test_batch_missing_file_exit_code(tmp_path):
    assert batch(tmp_path / "nope.jsonl", out_path=tmp_path / "o.json") == 1


def test_batch_analysis_error_entry(tmp_path):
    path = tmp_path / "mismatch.jsonl"
    path.write_text(
        '{"label": "m", "ainvs": [0, 0, 1, -1, 0], "gens": [], "torsion_order": 3}\n'
    )
    out = tmp_path / "out.json"
    assert batch(path, out_path=out) == 1
    doc = json.loads(out.read_text())
    assert doc[0]["label"] == "m"
    assert doc[0]["error"]["type"] == "TorsionMismatch"


def test_batch_torsion_generator_error_entry(tmp_path):
    path = tmp_path / "t2.jsonl"
    path.write_text('{"label": "t2", "ainvs": [0, 1, 0, 2, 0], "gens": [["0", "0"]]}\n')
    entries, status = run_batch(path)
    assert status == 1
    assert entries == [
        {
            "label": "t2",
            "error": {
                "type": "DegenerateLattice",
                "message": "generator 0 is a torsion point",
            },
        }
    ]


def test_batch_csv_summary(tmp_path):
    out = tmp_path / "out.csv"
    assert batch(DATA, out_path=out, csv_format=True) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("label,conductor,rank,")
    assert len(lines) == 23


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_certify_round_trip(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["certify", str(DATA), "--out", str(out1)]) == 0
    assert main(["--out", str(out2), "certify", str(DATA)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert len(doc) == 22
    assert set(doc[0]) == {"label", "certificates"}


def test_cli_analyze_writes_full_reports(tmp_path):
    out = tmp_path / "full.json"
    assert main(["analyze", str(DATA), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc[6]["label"] == "37a1"
    assert "gram" in doc[6] and "counting" in doc[6]


def test_cli_corrupt_gram_exit_two(tmp_path):
    out = tmp_path / "bad.json"
    assert main(["certify", str(DATA), "--corrupt-gram", "--out", str(out)]) == 2


def test_cli_count_and_minima(tmp_path, capsys):
    assert main(["count", "37a1", "--T", "0.25"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"label": "37a1", "T": 0.25, "count": 7}
    assert main(["minima", "389a1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["minima"]) == 2
    assert doc["minima"][0] == pytest.approx(0.16350038682579715, abs=1e-9)


def test_cli_count_respects_enum_cap(capsys):
    assert main(["count", "5077a1", "--T", "40"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 4633
    assert main(["count", "5077a1", "--T", "40", "--enum-cap", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lattice points exceeds the cap" in captured.err


def test_cli_count_rank0_returns_torsion(capsys):
    assert main(["count", "11a1", "--T", "5.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 5


def test_cli_unknown_label_and_missing_file(tmp_path, capsys):
    assert main(["count", "zzz", "--T", "1.0"]) == 1
    assert "zzz" in capsys.readouterr().err
    assert main(["analyze", str(tmp_path / "missing.jsonl")]) == 1


def test_cli_custom_data_flag(tmp_path, capsys):
    path = tmp_path / "one.jsonl"
    path.write_text('{"label": "c", "ainvs": [0, 0, 1, 1, 0], "gens": [["0", "0"]]}\n')
    assert main(["count", "c", "--T", "1.0", "--data", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "c"


def test_cli_certify_csv(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["certify", str(DATA), "--csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "label,name,status,lhs,rhs,margin,err_budget,note"
    assert sum(1 for line in lines if line.startswith("37a1,")) == 10
