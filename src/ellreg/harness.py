"""Dataset ingestion, per-curve analysis reports, and batch processing.

The input format is JSON lines: one record per non-blank line with fields
``label`` (unique string), ``ainvs`` (five integers or rational strings),
``gens`` (list of ``[x, y]`` rational pairs, possibly empty), and an
optional ``torsion_order`` cross-check.  ``analyze`` turns one record into
a deterministic report holding every computed invariant, the height Gram
matrix with error bounds, both regulator conventions, successive minima,
a point-counting table, and the full list of inequality certificates.

Serialization is lossless: rationals travel as ``"num/den"`` strings and
every inexact real carries an explicit error field.
"""

import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from importlib import resources

from .certificates import (
    BoundParams,
    Certificate,
    RatioReport,
    gamma_inequality,
    hs_height_floor,
    ideal_norm_floor,
    minima_floor,
    minkowski_certificate,
    reg_floor_corollary,
    stored_c0,
    szpiro_reg_floor,
    theorem1_ratio,
    vdc_lattice_check,
    vdc_reg_floor,
)
from .errors import EllregError, ParseError, PointNotOnCurve, TorsionMismatch
from .heights import (
    DEFAULT_PRECISION,
    GramLattice,
    HeightValue,
    gram_matrix,
    torsion_subgroup,
)
from .lattice import (
    DEFAULT_ENUM_CAP,
    MinimaProfile,
    asymptotic_constant,
    count_grid,
    reg_convert,
    regulator_L,
    successive_minima,
)
from .points import on_curve, point
from .weierstrass import (
    curve,
    invariant_heights,
    local_data,
    szpiro_quotient,
)

__all__ = [
    "AnalysisReport",
    "CountingRow",
    "CurveRecord",
    "HarnessConfig",
    "analyze",
    "batch",
    "bundled_dataset_path",
    "ingest",
    "load_record",
    "report_from_dict",
    "report_to_dict",
]


# ---------------------------------------------------------------------------
# records and configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveRecord:
    """One ingested dataset row: a labeled curve with its generators."""

    label: str
    ainvs: tuple
    gens: tuple
    torsion_order: int | None = None


@dataclass(frozen=True)
class HarnessConfig:
    """Knobs shared by every analysis in a batch run."""

    precision: int = DEFAULT_PRECISION
    target_err: float = 1e-12
    enum_cap: int = DEFAULT_ENUM_CAP
    corrupt_gram: bool = False

    def __post_init__(self):
        if int(self.precision) != self.precision or self.precision < 32:
            raise ValueError("precision must be an integer of at least 32 bits")
        if self.target_err <= 0:
            raise ValueError("target error must be positive")
        if self.enum_cap < 1:
            raise ValueError("enumeration cap must be positive")


# The counting grid is T = 2^k * lambda_1^2 for 0 <= k <= K_MAX.
K_MAX = 6


def _parse_rational(value, where):
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: not a rational: {value!r}") from exc
    raise ParseError(f"{where}: expected an integer or 'num/den' string")


def _parse_record(obj, lineno):
    if not isinstance(obj, dict):
        raise ParseError("record must be a JSON object", line=lineno)
    unknown = set(obj) - {"label", "ainvs", "gens", "torsion_order"}
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}", line=lineno)
    label = obj.get("label")
    if not isinstance(label, str) or not label:
        raise ParseError("missing or empty label", line=lineno)
    ainvs = obj.get("ainvs")
    if not isinstance(ainvs, list) or len(ainvs) != 5:
        raise ParseError(f"{label}: ainvs must be a list of five entries", line=lineno)
    ai = tuple(_parse_rational(a, f"{label}: a-invariant {i}") for i, a in enumerate(ainvs))
    gens_raw = obj.get("gens")
    if not isinstance(gens_raw, list):
        raise ParseError(f"{label}: gens must be a list", line=lineno)
    gens = []
    for i, g in enumerate(gens_raw):
        if not isinstance(g, list) or len(g) != 2:
            raise ParseError(f"{label}: generator {i} must be an [x, y] pair", line=lineno)
        x = _parse_rational(g[0], f"{label}: generator {i} x")
        y = _parse_rational(g[1], f"{label}: generator {i} y")
        gens.append((x, y))
    tors = obj.get("torsion_order")
    if tors is not None and (isinstance(tors, bool) or not isinstance(tors, int) or tors < 1):
        raise ParseError(f"{label}: torsion_order must be a positive integer", line=lineno)
    return CurveRecord(label, ai, tuple(gens), tors)


def load_record(obj):
    """Build a validated CurveRecord from an already-decoded JSON object."""
    rec = _parse_record(obj, None)
    _validate_record(rec)
    return rec


def _validate_record(rec):
    c = curve(rec.ainvs)
    for i, (x, y) in enumerate(rec.gens):
        if not on_curve(c, point(x, y)):
            raise PointNotOnCurve(f"{rec.label}: generator {i} ({x}, {y}) is not on the curve")
    return c


def ingest(path):
    """Read a JSON-lines dataset into a list of CurveRecord.

    Raises ParseError (with the 1-based line number) on malformed rows or
    duplicate labels, and PointNotOnCurve when a generator fails the curve
    equation.  An empty gens list is a valid rank-0 record.
    """
    records = []
    seen = set()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            try:
                rec = _parse_record(obj, lineno)
            except ParseError as exc:
                if exc.line is None:
                    raise ParseError(str(exc.args[0] if exc.args else exc), line=lineno) from exc
                raise
            if rec.label in seen:
                raise ParseError(f"duplicate label {rec.label!r}", line=lineno)
            seen.add(rec.label)
            _validate_record(rec)
            records.append(rec)
    return records


def bundled_dataset_path():
    """Filesystem path of the curve dataset shipped with the package."""
    return str(resources.files("ellreg").joinpath("data/curves.jsonl"))


# ---------------------------------------------------------------------------
# analysis reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountingRow:
    """One row of the point-counting table: bound, exact count, prediction."""

    T: float
    count: int
    expected: float


@dataclass(frozen=True)
class AnalysisReport:
    """Everything computed for one curve, in a fixed deterministic layout."""

    label: str
    ainvs: tuple
    minimal_ainvs: tuple
    disc_min: Fraction
    conductor: int
    j: Fraction
    sigma: float
    h_delta: float
    h_j: float
    h_e: float
    h: float
    torsion_order: int
    torsion_invariants: tuple
    bad_primes: tuple
    rank: int
    gens: tuple
    gram: GramLattice
    reg_L: HeightValue
    reg: HeightValue
    minima: MinimaProfile
    counting: tuple
    certificates: tuple
    ratios: tuple


# Gram corruption used by the --corrupt-gram test hook: a uniform rescale
# this drastic keeps the matrix positive definite (so every lattice-level
# theorem still holds for it) while pushing the observed minima and the
# regulator far below the curve-level floors, which must then FAIL.
_CORRUPT_SCALE = 1e-16


def _corrupted(gram):
    scale = _CORRUPT_SCALE
    vals = tuple(tuple(v * scale for v in row) for row in gram.values)
    errs = tuple(tuple(e * scale for e in row) for row in gram.errs)
    return GramLattice(vals, errs)


def analyze(rec, config=None):
    """Full deterministic analysis of one curve record.

    Certificate order is fixed: gamma, Minkowski weak and sharp, the
    volume counting check, the per-index minima floors, both regulator
    floors from counting, the two curve-level floors, and the prime-sum
    floor.  The counting grid is T = 2^k * lambda_1^2 for 0 <= k <= K_MAX,
    counted in one enumeration.  Raises TorsionMismatch when a stated
    torsion_order disagrees with the computed one.
    """
    config = config or HarnessConfig()
    c = _validate_record(rec)
    cmin = c.minimal[0]
    heights = invariant_heights(c)
    sigma = szpiro_quotient(c)
    locals_ = local_data(c)
    tors = torsion_subgroup(c)
    if rec.torsion_order is not None and rec.torsion_order != tors.order:
        raise TorsionMismatch(
            f"{rec.label}: stated torsion order {rec.torsion_order},"
            f" computed {tors.order}"
        )
    m = len(rec.gens)
    gens_pts = [point(x, y) for x, y in rec.gens]
    gram = gram_matrix(c, gens_pts, config.target_err, config.precision)
    if config.corrupt_gram and m >= 1:
        gram = _corrupted(gram)
    reg_l = regulator_L(gram)
    reg = HeightValue(reg_convert(reg_l.value, m), math.ldexp(reg_l.err, m))
    mult_places = sum(1 for red in locals_ if red.split is not None)
    params = BoundParams(
        d=1,
        m=m,
        sigma=sigma,
        h_e=heights.h_e,
        h=heights.h,
        S=mult_places,
        tors=tors.order,
    )

    certs = []
    ratios = []
    if m >= 1:
        profile = successive_minima(gram, cap=config.enum_cap)
        lam1 = profile.values[0]
        grid = [math.ldexp(lam1, k) for k in range(K_MAX + 1)]
        pairs = count_grid(gram, grid, include_zero=True, cap=config.enum_cap)
        c_e = asymptotic_constant(m, tors.order, reg_l.value)
        counting = tuple(
            CountingRow(p.H, tors.order * p.C, c_e * p.H ** (m / 2.0)) for p in pairs
        )
        certs.append(gamma_inequality(m))
        certs.extend(minkowski_certificate(profile, reg_l))
        certs.append(vdc_lattice_check(pairs[-1], m, reg_l))
        pair = pairs[0]  # the count at lambda_1^2
        note = "count over the lattice, zero included"
        for i in range(1, m + 1):
            _, cert = minima_floor(pair, i, observed_sq=profile.values[i - 1])
            certs.append(replace(cert, note=note))
        _, cert = reg_floor_corollary(pair.H, pair.C, m, observed_reg=reg_l.value)
        certs.append(replace(cert, note=note))
        _, cert = vdc_reg_floor(pair.H, pair.C, m, tors=1, observed_reg=reg_l.value)
        certs.append(replace(cert, note=note))
        _, cert = hs_height_floor(params, observed_sq=lam1)
        certs.append(cert)
        _, cert = szpiro_reg_floor(params, observed_reg=reg_l.value)
        certs.append(cert)
        for convention, value in (("lattice", reg_l.value), ("curve", reg.value)):
            ratios.append((convention, theorem1_ratio(params, value)))
    else:
        profile = MinimaProfile((), ())
        counting = ()
    certs.append(ideal_norm_floor(params.S, 1, stored_c0()["c0"]))

    return AnalysisReport(
        label=rec.label,
        ainvs=rec.ainvs,
        minimal_ainvs=tuple(Fraction(a) for a in cmin.ainvs()),
        disc_min=Fraction(cmin.disc),
        conductor=math.prod(red.p**red.f for red in locals_),
        j=Fraction(cmin.j),
        sigma=sigma,
        h_delta=heights.h_delta,
        h_j=heights.h_j,
        h_e=heights.h_e,
        h=heights.h,
        torsion_order=tors.order,
        torsion_invariants=tuple(tors.invariants),
        bad_primes=tuple(
            {"p": red.p, "kodaira": red.kodaira, "f": red.f, "tamagawa": red.c}
            for red in locals_
        ),
        rank=m,
        gens=rec.gens,
        gram=gram,
        reg_L=reg_l,
        reg=reg,
        minima=profile,
        counting=counting,
        certificates=tuple(certs),
        ratios=tuple(ratios),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _frac_str(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _hv_dict(hv):
    return {"value": hv.value, "err": hv.err}


def report_to_dict(rep):
    """JSON-ready dict; rationals as 'num/den', reals with an err field."""
    return {
        "label": rep.label,
        "ainvs": [_frac_str(a) for a in rep.ainvs],
        "minimal_ainvs": [_frac_str(a) for a in rep.minimal_ainvs],
        "disc_min": _frac_str(rep.disc_min),
        "conductor": rep.conductor,
        "j": _frac_str(rep.j),
        "sigma": rep.sigma,
        "h_delta": rep.h_delta,
        "h_j": rep.h_j,
        "h_e": rep.h_e,
        "h": rep.h,
        "torsion_order": rep.torsion_order,
        "torsion_invariants": list(rep.torsion_invariants),
        "bad_primes": [dict(b) for b in rep.bad_primes],
        "rank": rep.rank,
        "gens": [[_frac_str(x), _frac_str(y)] for x, y in rep.gens],
        "gram": {
            "values": [list(row) for row in rep.gram.values],
            "errs": [list(row) for row in rep.gram.errs],
        },
        "reg_L": _hv_dict(rep.reg_L),
        "reg": _hv_dict(rep.reg),
        "minima": {
            "values": list(rep.minima.values),
            "vectors": [list(v) for v in rep.minima.vectors],
        },
        "counting": [asdict(row) for row in rep.counting],
        "certificates": [asdict(cert) for cert in rep.certificates],
        "ratios": [
            {"convention": conv, **asdict(rr)} for conv, rr in rep.ratios
        ],
    }


def report_from_dict(doc):
    """Inverse of report_to_dict; reconstructs the exact same report."""
    ratios = []
    for entry in doc["ratios"]:
        entry = dict(entry)
        conv = entry.pop("convention")
        ratios.append((conv, RatioReport(**entry)))
    return AnalysisReport(
        label=doc["label"],
        ainvs=tuple(Fraction(a) for a in doc["ainvs"]),
        minimal_ainvs=tuple(Fraction(a) for a in doc["minimal_ainvs"]),
        disc_min=Fraction(doc["disc_min"]),
        conductor=doc["conductor"],
        j=Fraction(doc["j"]),
        sigma=doc["sigma"],
        h_delta=doc["h_delta"],
        h_j=doc["h_j"],
        h_e=doc["h_e"],
        h=doc["h"],
        torsion_order=doc["torsion_order"],
        torsion_invariants=tuple(doc["torsion_invariants"]),
        bad_primes=tuple(dict(b) for b in doc["bad_primes"]),
        rank=doc["rank"],
        gens=tuple((Fraction(x), Fraction(y)) for x, y in doc["gens"]),
        gram=GramLattice(doc["gram"]["values"], doc["gram"]["errs"]),
        reg_L=HeightValue(**doc["reg_L"]),
        reg=HeightValue(**doc["reg"]),
        minima=MinimaProfile(doc["minima"]["values"], doc["minima"]["vectors"]),
        counting=tuple(CountingRow(**row) for row in doc["counting"]),
        certificates=tuple(Certificate(**c) for c in doc["certificates"]),
        ratios=tuple(ratios),
    )


# ---------------------------------------------------------------------------
# batch driver
# ---------------------------------------------------------------------------


def _error_dict(exc, label=None):
    out = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError) and exc.line is not None:
        out["line"] = exc.line
    if label is not None:
        out["label"] = label
    return out


def _analyze_entry(rec, config):
    try:
        return report_to_dict(analyze(rec, config))
    except EllregError as exc:
        return {"label": rec.label, "error": _error_dict(exc)}


_CSV_FIELDS = [
    "label",
    "conductor",
    "rank",
    "torsion_order",
    "sigma",
    "h_e",
    "reg_L",
    "reg",
    "lambda1_sq",
    "pass",
    "fail",
    "indeterminate",
    "error",
]


def _csv_text(entries):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for entry in entries:
        if "error" in entry:
            writer.writerow(
                {
                    "label": entry.get("label", ""),
                    "error": entry["error"]["message"],
                }
            )
            continue
        statuses = [c["status"] for c in entry["certificates"]]
        minima = entry["minima"]["values"]
        writer.writerow(
            {
                "label": entry["label"],
                "conductor": entry["conductor"],
                "rank": entry["rank"],
                "torsion_order": entry["torsion_order"],
                "sigma": repr(entry["sigma"]),
                "h_e": repr(entry["h_e"]),
                "reg_L": repr(entry["reg_L"]["value"]),
                "reg": repr(entry["reg"]["value"]),
                "lambda1_sq": repr(minima[0]) if minima else "",
                "pass": statuses.count("PASS"),
                "fail": statuses.count("FAIL"),
                "indeterminate": statuses.count("INDETERMINATE"),
                "error": "",
            }
        )
    return buf.getvalue()


def render_entries(entries, csv_format=False):
    """Serialize a list of report or error entries deterministically."""
    if csv_format:
        return _csv_text(entries)
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"


def write_text(text, out_path):
    """Write text to the file out_path, or to stdout when it is None."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def exit_status(entries):
    """0 when every certificate passed, 2 on any FAIL, 1 on errors."""
    any_fail = any(
        c["status"] == "FAIL"
        for entry in entries
        if "certificates" in entry
        for c in entry["certificates"]
    )
    if any_fail:
        return 2
    if any("error" in entry for entry in entries):
        return 1
    return 0


def run_batch(path, config=None):
    """Analyze every record of a dataset; returns (entries, exit_status).

    Entries follow the input order; a curve whose analysis raises an
    EllregError gets an error entry.  Parse and I/O failures yield a single
    error entry and status 1.
    """
    config = config or HarnessConfig()
    try:
        records = ingest(path)
    except (ParseError, PointNotOnCurve, OSError) as exc:
        return [{"error": _error_dict(exc)}], 1
    entries = [_analyze_entry(rec, config) for rec in records]
    return entries, exit_status(entries)


def batch(path, out_path=None, config=None, csv_format=False):
    """Analyze a dataset file and write the report document.

    Writes a JSON array (or a CSV summary) of per-curve entries to
    out_path, or stdout when out_path is None.  Returns the exit status:
    0 with no FAIL certificates and no errors, 2 on any FAIL, 1 on errors.
    """
    entries, status = run_batch(path, config)
    write_text(render_entries(entries, csv_format), out_path)
    return status
