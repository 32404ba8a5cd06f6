"""Output checks, run by run.py after the benchmark process has ended.

Each check compares the program's output with a computation made apart
from it (ref.py) or with a property the method must have:

- every generator's Gram diagonal agrees with the doubling-limit height
  within that oracle's error plus the certified error;
- squared successive minima, their vectors and every counting row equal
  a box enumeration of the same Gram matrix;
- the torsion order divides #E(F_p) for three good odd primes p, counted
  over every pair (x, y), and is a multiple of the order of the torsion
  point the generator built the curve around;
- no certificate is FAIL, and every report round-trips through
  report_from_dict;
- rows with dependent generators end in DegenerateLattice, and rows with
  a torsion generator end in an error;
- in tall_points, each group P, Q, P+Q, P-Q satisfies the parallelogram
  law within the sum of its certified errors, and every height equals
  c^T G c for its coefficient vector c within the propagated errors.
"""

import json
import math

import ref

ULP = 2.0 ** -52


def _dump(obj):
    return json.dumps(obj, sort_keys=True)


class Checker:
    def __init__(self, ellreg):
        self.errors = ellreg.errors
        self.harness = ellreg.harness
        self.heights = ellreg.heights
        self.points = ellreg.points
        self.weierstrass = ellreg.weierstrass
        self.grams = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def fail(self, label, what):
        self.problems.append(f"{label}: {what}")

    # -- catalog and high_rank ------------------------------------------------

    def reports(self, records, meta, doc):
        entries = json.loads(doc)
        if len(entries) != len(records):
            self.fail("round", f"{len(entries)} entries for {len(records)} records")
            return
        for rec, row, entry in zip(records, meta, entries):
            self.attempted += 1
            label = rec["label"]
            if entry.get("label") != label:
                self.fail(label, f"entry labelled {entry.get('label')!r}")
                continue
            kind = row["kind"]
            err = entry.get("error")
            if kind == "torsion_gen":
                self._torsion_row(label, err)
            elif kind == "dependent":
                if not err or err["type"] != "DegenerateLattice":
                    self.fail(label, f"dependent generators gave {err or 'a report'}")
            elif err:
                self.fail(label, f"unexpected error {err}")
            else:
                self._report(rec, row, entry)

    def _torsion_row(self, label, err):
        if err is None:
            self.fail(label, "a torsion generator gave a report")
        elif err["type"] == "ValueError" and "torsion" in err["message"]:
            self.failed += 1  # the untyped error the batch driver cannot catch
        elif not issubclass(getattr(self.errors, err["type"], type(None)), self.errors.EllregError):
            self.fail(label, f"torsion generator gave {err}")

    def _report(self, rec, row, entry):
        label = rec["label"]
        for cert in entry["certificates"]:
            if cert["status"] == "FAIL":
                self.fail(label, f"certificate {cert['name']} is FAIL")
        back = self.harness.report_to_dict(self.harness.report_from_dict(entry))
        if _dump(back) != _dump(entry):
            self.fail(label, "report does not round-trip through report_from_dict")
        gram = entry["gram"]
        for i, (oval, oerr) in enumerate(row["oracle"]):
            diff = abs(gram["values"][i][i] - oval)
            if diff > oerr + gram["errs"][i][i]:
                self.fail(label, f"Gram[{i}][{i}] {gram['values'][i][i]} vs doubling limit {oval} +- {oerr}")
        tors = entry["torsion_order"]
        known = row.get("torsion_point_order")
        if known and tors % known:
            self.fail(label, f"torsion order {tors} is not a multiple of the order {known} of (0, 0)")
        ints = ref.Model(rec["ainvs"]).integral_ainvs()
        disc = int(ref.Model(ints).disc)
        for p in ref.good_odd_primes(disc, 3):
            if ref.count_mod_p(ints, p) % tors:
                self.fail(label, f"torsion order {tors} does not divide #E(F_{p})")
        if entry["rank"]:
            self._lattice(label, gram["values"], entry)

    def _lattice(self, label, values, entry):
        box = ref.BoxLattice(values)
        want = [float(v) for v in box.minima()]
        minima = entry["minima"]
        if want != minima["values"]:
            self.fail(label, f"minima {minima['values']} vs box enumeration {want}")
        for value, vec in zip(minima["values"], minima["vectors"]):
            if float(box.qexact(vec)) != value:
                self.fail(label, f"minimum {value} not realised by {vec}")
        rows = entry["counting"]
        counts = box.counts([row["T"] for row in rows])
        for row, n in zip(rows, counts):
            if row["count"] != entry["torsion_order"] * n:
                self.fail(label, f"count {row['count']} at T={row['T']} vs box {n}")

    # -- tall_points ----------------------------------------------------------

    def _gram(self, label, ainvs, gens):
        """The program's Gram matrix of a tall_points curve's generators."""
        if label not in self.grams:
            c = self.weierstrass.curve(ainvs)
            g = self.heights.gram_matrix(c, [self.points.point(x, y) for x, y in gens])
            self.grams[label] = (g.values, g.errs)
        return self.grams[label]

    def tall(self, records, meta, doc, curves):
        entries = json.loads(doc)
        if len(entries) != len(records):
            self.fail("round", f"{len(entries)} entries for {len(records)} records")
            return
        for rec, row, entry in zip(records, meta, entries):
            label = rec["label"]
            hs = entry["heights"]
            self.attempted += len(hs)
            if entry["label"] != label or len(hs) != 4:
                self.fail(label, "malformed height entry")
                continue
            (hp, ep), (hq, eq), (hsum, esum), (hdif, edif) = hs
            resid = hsum + hdif - 2 * hp - 2 * hq
            tol = esum + edif + 2 * ep + 2 * eq + 8 * ULP * (abs(hsum) + abs(hdif) + 2 * abs(hp) + 2 * abs(hq))
            if abs(resid) > tol:
                self.fail(label, f"parallelogram residual {resid:.3e} > {tol:.3e}")
            vals, errs = self._gram(row["curve"], *curves[row["curve"]])
            m = len(vals)
            for coeffs, (h, e) in zip(row["coeffs"], hs):
                q = sum(coeffs[i] * vals[i][j] * coeffs[j] for i in range(m) for j in range(m))
                qerr = sum(abs(coeffs[i] * coeffs[j]) * errs[i][j] for i in range(m) for j in range(m))
                scale = sum(abs(coeffs[i] * vals[i][j] * coeffs[j]) for i in range(m) for j in range(m))
                if abs(h - q) > e + qerr + 4 * m * m * ULP * scale:
                    self.fail(label, f"h({coeffs}) = {h} vs c^T G c = {q} +- {qerr}")

    def summary(self):
        return not self.problems, self.attempted, self.failed


def tail_percentile(latencies, pct):
    """Nearest-rank percentile of the latencies."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]
