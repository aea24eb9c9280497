"""Command-line surface: build models, verify the classification claims, and
emit reports as text, JSON or CSV.

Commands
--------
invariant-dims   dimensions of the invariant bracket space + torus checks
classify-bracket family membership and normal form of a bracket tuple
reproduce        regenerate table3 | table4 | prop12 | maxmodel and diff
model-report     full dossier for one model spec

Exit codes: 0 success / exact match, 1 verification mismatch, 2 usage error,
3 internal check failed (an exact certificate of the computation did not hold).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

from .poly import Poly
from .quaternion import format_rat, rat
from . import models as M
from . import geometry as G
from . import forms as F


_DATA_CACHE: dict[str, dict] = {}


def _load_data(name: str) -> dict:
    # imported here: only reproduce table3 | table4 | prop12 read packaged data
    from importlib import resources
    if name not in _DATA_CACHE:
        with resources.files("qhlab.data").joinpath(name).open("r", encoding="utf-8") as fh:
            _DATA_CACHE[name] = json.load(fh)
    return _DATA_CACHE[name]


def _usage_error(message: str):
    """Print one qhlab: line to stderr and exit 2; never returns."""
    print(f"qhlab: {message}", file=sys.stderr)
    raise SystemExit(2)


def _rational(text: str, what: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        _usage_error(f"{what} is not a rational number: {text!r}")


def _poly_json(p: Poly) -> dict:
    coeffs = [[list(mono), format_rat(c)]
              for mono, c in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                                    reverse=True)]
    return {"string": p.to_string(), "coefficients": coeffs}


def _suite(checks: list[tuple[str, bool, str]]) -> dict:
    return {
        "passed": sum(1 for _, ok, _ in checks if ok),
        "failed": sum(1 for _, ok, _ in checks if not ok),
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
    }


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_invariant_dims(ns) -> tuple[dict, int]:
    n = ns.n
    if not 2 <= n <= 5:
        _usage_error(f"--n must be between 2 and 5, got {n}")
    hor, ver = M.bracket_space_dims(n)
    checks = [
        (f"horizontal bracket space dim (n={n})", hor == 5, f"computed {hor}, expected 5"),
        (f"vertical bracket space dim (n={n})", ver == 4, f"computed {ver}, expected 4"),
        (f"total invariant bracket space (n={n})", hor + ver == 9,
         f"computed {hor + ver}, expected 9"),
    ]
    if n <= 3:  # the torus checks are stated for small n; both ideals
        for which in ("sp1", "spn"):
            d = M.inadmissible_hom_dim(n, which)
            checks.append((f"torus({which}) equivariant maps (n={n})", d == 0,
                           f"computed {d}, expected 0"))
    report = {
        "command": "invariant-dims", "n": n,
        "models": [{"model": "bracket-space", "n": n,
                    "extras": {"horizontal": hor, "vertical": ver}}],
        "suite": _suite(checks),
    }
    return report, 0 if report["suite"]["failed"] == 0 else 1


def cmd_classify_bracket(ns) -> tuple[dict, int]:
    if ns.n is not None:
        _usage_error("--n does not apply to classify-bracket, whose Jacobi equations "
                     "and normal forms do not depend on n")
    params = tuple(_rational(x, "bracket parameter") for x in ns.params)
    entry: dict = {"model": "bracket", "n": 3,
                   "extras": {"params": [format_rat(x) for x in params]}}
    checks = []
    violated = M.violated_equations(params)
    if violated:
        entry["extras"]["violates"] = [str(e) + " = 0" for e in violated]
        checks.append(("input satisfies the Jacobi equations", False,
                       "violates " + "; ".join(str(e) + " = 0" for e in violated)))
    else:
        entry["family"] = sorted(M.in_families(params))
        if not any(params):
            entry["extras"]["flat"] = True
            entry["canonical"] = {"name": "flat (excluded from the normal-form table)"}
            checks.append(("flat bracket recognized", True, "all parameters zero"))
        else:
            nf = M.normalize(params)
            entry["canonical"] = {
                "name": nf.name,
                "tuple": [format_rat(x) for x in nf.canonical],
                "s": format_rat(nf.s),
                "t_sq": format_rat(nf.t_sq),
            }
            ok = M.apply_scaling(params, nf.s, nf.t_sq) == nf.canonical
            checks.append(("scaling witness reproduces the canonical tuple", ok,
                           f"s={format_rat(nf.s)}, t^2={format_rat(nf.t_sq)}"))
    report = {"command": "classify-bracket", "n": 3, "models": [entry],
              "suite": _suite(checks)}
    return report, 0 if report["suite"]["failed"] == 0 else 1


def _reproduce_table3() -> list[tuple[str, bool, str]]:
    data = _load_data("expected_table3.json")
    rng = random.Random(20260809)
    checks = []
    for ex in data["examples"]:
        params = tuple(rat(x) for x in ex["input"])
        nf = M.normalize(params)
        got = [format_rat(x) for x in nf.canonical]
        ok = (nf.name == ex["name"] and got == ex["canonical"]
              and format_rat(nf.s) == ex["s"] and format_rat(nf.t_sq) == ex["t_sq"])
        checks.append((f"normalize{tuple(ex['input'])}", ok,
                       f"-> {nf.name} {got}, s={format_rat(nf.s)}, t^2={format_rat(nf.t_sq)}"))

    def rand() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def nonzero() -> Fraction:
        while True:
            x = rand()
            if x:
                return x

    samples = []
    for _ in range(25):
        b2 = nonzero()
        samples.append(("F1", (nonzero(), 2 * b2, b2, rat(0), rat(0))))
        samples.append(("F1", (nonzero(), rat(0), rat(0), rat(0), rat(0))))
        samples.append(("F2", (rat(0), rand(), rand(), rat(0), rat(0))))
        g = nonzero()
        samples.append(("F3", (rat(0), rat(0), rand(), g, g)))
        samples.append(("F4", (rat(0), rat(0), rand(), rand(), rat(0))))
    expected_rows = data["rows"]
    for fam, params in samples:
        if not any(params):
            continue
        nf = M.normalize(params)
        patt = expected_rows[nf.name]
        ok = fam in M.in_families(params)
        for slot, want in zip(nf.canonical, patt):
            if want == "beta":
                continue
            ok = ok and slot == rat(want)
        ok = ok and M.apply_scaling(params, nf.s, nf.t_sq) == nf.canonical
        checks.append((f"{fam} sample {tuple(map(format_rat, params))}", ok,
                       f"-> {nf.name}"))
    return checks


def _reproduce_table4(n: int) -> list[tuple[str, bool, str]]:
    data = _load_data("expected_table4.json")
    checks = []
    cal = F._calibration_scales(n)
    checks.append((f"theta calibration on H4 matches nominal targets (n={n})",
                   cal.kh_matches_nominal and cal.eh_matches_nominal,
                   f"targets used: f_KH ~ {cal.target_kh}, f_EH ~ {cal.target_eh}"))
    for kind in M.TABLE4_KINDS:
        row = F.table4_row(kind, n)
        exp_eh = Poly.parse(data["rows"][kind]["f_EH"])
        exp_kh = Poly.parse(data["rows"][kind]["f_KH"])
        ok_eh = row.f_eh == exp_eh
        ok_kh = row.f_kh == exp_kh
        checks.append((f"{kind} f_EH (n={n})", ok_eh,
                       f"computed {row.f_eh}, reference {exp_eh}"))
        checks.append((f"{kind} f_KH (n={n})", ok_kh,
                       f"computed {row.f_kh}, reference {exp_kh}"))
    return checks


_GRID = [(Fraction(a), Fraction(b))
         for a in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
         for b in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
         if a != b]
_SPECIAL = [(Fraction(2), Fraction(1)), (Fraction(1), Fraction(1, 2)),
            (Fraction(2), Fraction(3)), (Fraction(1), Fraction(3, 2)),
            (Fraction(4), Fraction(3)), (Fraction(4), Fraction(1)),
            (Fraction(1), Fraction(1))]


def _beta_matches(pattern: str | None, beta) -> bool:
    if pattern is None or pattern == "any":
        return True
    if pattern == "other":
        return False  # handled as the fallback row
    return any(beta == rat(chunk) for chunk in pattern.split(","))


def _condition_holds(cond: str, c1, c2) -> bool:
    if cond == "all":
        return True
    if cond == "none":
        return False
    if cond == "c1=2*c2":
        return c1 == 2 * c2
    raise ValueError(f"unknown condition {cond!r}")


def _prop12_expected(kind: str, beta, c1, c2) -> tuple[bool, bool, bool]:
    """(einstein, conformally_flat, locally_symmetric) from the embedded table."""
    data = _load_data("expected_riemannian.json")
    out = []
    for flag in ("einstein", "conformally_flat", "locally_symmetric"):
        rows = [r for r in data[flag] if r["model"] == kind]
        if not rows:
            raise ValueError(kind)
        match = next((r for r in rows if _beta_matches(r.get("beta"), beta)), None)
        if match is None:
            match = next(r for r in rows if r.get("beta") == "other")
        out.append(_condition_holds(match["condition"], c1, c2))
    return tuple(out)


def _reproduce_prop12(n: int, betas: list[Fraction] | None = None) -> list[tuple[str, bool, str]]:
    checks = []
    if betas is None:
        betas = [Fraction(b) for b in (-1, 0, 1, 2)]
    cases = [("H1+", None), ("H1-", None), ("H2", None), ("H4", None)]
    cases += [("H3", b) for b in betas]
    cases += [("H5", b) for b in betas]
    points = _GRID + [p for p in _SPECIAL if p not in _GRID]
    for kind, beta in cases:
        # one curvature over the whole metric cone, its certificates holding
        # as identities in c1, c2, read at each point
        model = M.symbolic_model(M.ModelSpec(kind, n, beta=beta))
        cur = G.curvature(G.GroupData.from_model(model))
        bad = []
        flags = G.riemann_flags(cur, [{"c1": c1, "c2": c2} for c1, c2 in points])
        for (c1, c2), (einstein, conf_flat, loc_sym) in zip(points, flags):
            got = (einstein is not None, conf_flat, loc_sym)
            want = _prop12_expected(kind, beta, c1, c2)
            if got != want:
                bad.append(f"({format_rat(c1)},{format_rat(c2)}): got {got} want {want}")
        del cur  # freed before the next case is built
        label = kind if beta is None else f"{kind}^{format_rat(beta)}"
        checks.append((f"{label} flags over {len(points)} points", not bad,
                       "; ".join(bad) if bad else "einstein/CF/symmetric all match"))
    return checks


def _reproduce_maxmodel() -> list[tuple[str, bool, str]]:
    rng = random.Random(4177)
    checks = []
    samples = []
    while len(samples) < 40:
        cp = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        c = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        if (cp, c) not in samples:
            samples.append((cp, c))
    for _ in range(10):
        c = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        samples.append((2 * c, c))
    bad = []
    for i, (cp, c) in enumerate(samples):
        n = 3 if i % 5 == 0 else 2
        holds = M.maxmodel_jacobi_holds(n, cp, c)
        if holds != (cp == 2 * c):
            bad.append(f"(c'={format_rat(cp)}, c={format_rat(c)}, n={n})")
    checks.append(("Jacobi iff c' = 2c over 50 samples (10 on the locus)",
                   not bad, "; ".join(bad) if bad else "exact"))
    return checks


def cmd_reproduce(ns) -> tuple[dict, int]:
    which = ns.table
    if ns.n is not None and which in ("table3", "maxmodel"):
        _usage_error(f"--n does not apply to reproduce {which}, whose inputs are fixed")
    n = 3 if ns.n is None else ns.n
    min_n = {"table4": 3, "prop12": 2}.get(which)
    if min_n is not None and n < min_n:
        _usage_error(f"reproduce {which} needs --n >= {min_n}, got {n}")
    betas = None
    if ns.beta is not None:
        if which != "prop12":
            _usage_error(f"--beta applies only to reproduce prop12, not {which}")
        betas = [_rational(c.strip(), "--beta value") for c in ns.beta.split(",") if c.strip()]
        if not betas:
            _usage_error("--beta has no values")
    if which == "table3":
        checks = _reproduce_table3()
    elif which == "table4":
        checks = _reproduce_table4(n)
    elif which == "prop12":
        checks = _reproduce_prop12(n, betas)
    elif which == "maxmodel":
        checks = _reproduce_maxmodel()
    else:
        raise SystemExit(2)
    report = {"command": f"reproduce {which}", "n": n, "suite": _suite(checks)}
    return report, 0 if report["suite"]["failed"] == 0 else 1


def _parse_grid(text: str) -> list[tuple[Fraction, Fraction]]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        point = chunk.split(",")
        if len(point) != 2:
            _usage_error(f"--grid point is not c1,c2: {chunk!r}")
        c1, c2 = (_rational(x.strip(), "--grid value") for x in point)
        if c1 <= 0 or c2 <= 0:
            _usage_error(f"--grid point is not positive: {chunk!r}")
        out.append((c1, c2))
    if not out:
        _usage_error("--grid has no points")
    return out


def cmd_model_report(ns) -> tuple[dict, int]:
    try:
        spec = M.ModelSpec.parse(ns.spec)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        _usage_error(f"invalid model spec: {exc}")
    # the H kinds' curvature and, at n >= 3, their and QHP/QHH's class points
    reads_points = spec.kind in M.TABLE4_KINDS and (spec.n >= 3 or spec.kind in M.H_KINDS)
    if ns.grid is not None and not reads_points:
        _usage_error(f"--grid: model-report of {spec.kind} at n={spec.n} reads no metric "
                     "point (only the H kinds, and QHP/QHH at n >= 3, do)")
    grid = _parse_grid(ns.grid) if ns.grid is not None else [(spec.c1, spec.c2)]
    model = M.build_model(spec)
    dims = M.dims(spec.n)
    entry: dict = {
        "model": spec.to_string(), "n": spec.n,
        "dims": {**dims, "dim_g": model.g.dim},
        "extras": {},
    }
    checks: list[tuple[str, bool, str]] = []
    if spec.kind == "TwistedTheta":
        expected = dims["d"] - 2
        checks.append(("twisted symmetry dimension = d_n - 2",
                       model.g.dim == expected,
                       f"dim g = {model.g.dim}, d_n - 2 = {expected}"))
        entry["extras"]["twist_variant"] = "output"
        entry["extras"]["equivariance"] = "centralizer so(2)+sp(n-1) only"
    elif spec.kind in ("FlatMax", "MaxCurved"):
        checks.append(("maximal model dimension = D_n", model.g.dim == dims["D"],
                       f"dim g = {model.g.dim}, D_n = {dims['D']}"))
    else:
        checks.append(("model dimension = d_n", model.g.dim == dims["d"],
                       f"dim g = {model.g.dim}, d_n = {dims['d']}"))
    riemannian, class_points = spec.kind in M.H_KINDS, spec.n >= 3 and reads_points
    if riemannian:
        params = M.table3_tuple(spec.kind, spec.beta)
        entry["family"] = sorted(M.in_families(params))
        entry["canonical"] = {"name": spec.kind,
                              "tuple": [format_rat(x) for x in params]}
        entry["riemannian"] = riem = []
    if class_points:
        row = F.table4_row(spec.kind, spec.n)
        entry["f_EH"] = _poly_json(row.f_eh)
        entry["f_KH"] = _poly_json(row.f_kh)
        loci = F.genuine_loci(spec.kind, spec.n)
        entry["genuine_EH_locus"] = _poly_json(loci.p_eh)
        entry["genuine_KH_locus"] = _poly_json(loci.p_kh)
        entry["class_points"] = cps = []
    for c1, c2 in grid if reads_points else ():
        point = model.with_metric(c1, c2)
        if riemannian:
            cur = G.curvature(G.GroupData.from_model(point))
            cls = G.classify(cur, M.model_groups(spec.n))
            riem.append({
                "c1": format_rat(c1), "c2": format_rat(c2),
                "einstein": format_rat(cls.einstein) if cls.einstein is not None else None,
                "conformally_flat": cls.conformally_flat,
                "locally_symmetric": cls.locally_symmetric,
                "constant_sectional": (format_rat(cls.constant_sectional)
                                       if cls.constant_sectional is not None else None),
                "blocks": [[b["size"],
                            "flat" if b["flat"] else
                            (format_rat(b["constant_sectional"])
                             if b["constant_sectional"] is not None else "mixed")]
                           for b in cls.product_blocks],
            })
        if class_points:
            rpt = F.first_order_tests(point)
            cls = rpt.satisfied_class()
            cps.append({
                "c1": format_rat(c1), "c2": format_rat(c2),
                "beta": format_rat(spec.beta) if spec.beta is not None else None,
                "class": cls,
                "identities": {
                    "d_omega_zero": rpt.d_omega_zero, "lcqk": rpt.lcqk,
                    "kh": rpt.kh_identity and rpt.xi_equal,
                    "qkt": rpt.qkt_identity,
                    "xi_ratio": format_rat(rpt.xi_ratio) if rpt.xi_ratio is not None else None,
                },
            })
            checks.append((f"torsion identity resolved at ({format_rat(c1)},{format_rat(c2)})",
                           cls != "UNRESOLVED", f"class {cls}"))
    report = {"command": "model-report", "n": spec.n, "models": [entry],
              "suite": _suite(checks)}
    return report, 0 if report["suite"]["failed"] == 0 else 1


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def render_text(report: dict) -> str:
    lines = [f"# {report['command']}"]
    for entry in report.get("models", []):
        lines.append(f"model: {entry['model']} (n={entry['n']})")
        if "dims" in entry:
            d = entry["dims"]
            lines.append(f"  dims: D={d['D']} d={d['d']} delta={d['delta']}"
                         + (f" dim(g)={d['dim_g']}" if "dim_g" in d else ""))
        if "family" in entry:
            lines.append(f"  family: {', '.join(entry['family']) or '(none)'}")
        if "canonical" in entry and entry["canonical"]:
            c = entry["canonical"]
            extra = ""
            if "tuple" in c:
                extra = " (" + ", ".join(c["tuple"]) + ")"
            if "s" in c:
                extra += f"  s={c['s']} t^2={c['t_sq']}"
            lines.append(f"  canonical: {c['name']}{extra}")
        for key in ("f_EH", "f_KH", "genuine_EH_locus", "genuine_KH_locus"):
            if key in entry:
                lines.append(f"  {key}: {entry[key]['string']}")
        for row in entry.get("riemannian", []):
            blocks = " x ".join(f"{b[0]}d[{b[1]}]" for b in row["blocks"])
            lines.append(f"  riemannian (c1={row['c1']}, c2={row['c2']}): "
                         f"einstein={row['einstein']} CF={row['conformally_flat']} "
                         f"symmetric={row['locally_symmetric']} blocks={blocks}")
        for cp in entry.get("class_points", []):
            lines.append(f"  class (c1={cp['c1']}, c2={cp['c2']}): {cp['class']}  "
                         f"identities={cp['identities']}")
        for key, val in entry.get("extras", {}).items():
            lines.append(f"  {key}: {val}")
    suite = report["suite"]
    lines.append(f"suite: {suite['passed']} passed, {suite['failed']} failed")
    for chk in suite["checks"]:
        mark = "PASS" if chk["ok"] else "FAIL"
        lines.append(f"  [{mark}] {chk['name']}: {chk['detail']}")
    return "\n".join(lines) + "\n"


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "name", "ok", "detail"])
    for chk in report["suite"]["checks"]:
        writer.writerow(["check", chk["name"], chk["ok"], chk["detail"]])
    for entry in report.get("models", []):
        for cp in entry.get("class_points", []):
            writer.writerow(["class-point",
                             f"{entry['model']} ({cp['c1']},{cp['c2']})",
                             cp["class"], json.dumps(cp["identities"], sort_keys=True)])
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qhlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--out", default=None, help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant-dims", help="invariant bracket space dimensions")
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(func=cmd_invariant_dims)

    p = sub.add_parser("classify-bracket", help="family membership and normal form")
    p.add_argument("params", nargs=5, help="alpha beta1 beta2 gamma1 gamma2 (rationals)")
    p.add_argument("--n", type=int, default=None,
                   help="not accepted: the result does not depend on n")
    p.set_defaults(func=cmd_classify_bracket)

    p = sub.add_parser("reproduce", help="regenerate a reference table and diff")
    p.add_argument("table", choices=("table3", "table4", "prop12", "maxmodel"))
    p.add_argument("--n", type=int, default=None, help="table4 and prop12 only (default 3)")
    p.add_argument("--beta", default=None,
                   help='prop12 only: beta values for the H3/H5 families, e.g. "-1,0,1,2"')
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("model-report", help="full dossier for one model")
    p.add_argument("--spec", required=True,
                   help="e.g. H3:beta=2:n=3:c1=1:c2=1 or QHH:n=4:c1=1:c2=3/2")
    p.add_argument("--grid", default=None, help='metric points "c1,c2;c1,c2;..."')
    p.set_defaults(func=cmd_model_report)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        report, code = ns.func(ns)
    except AssertionError as exc:  # a failed certificate is not a paper mismatch
        print("qhlab: internal check failed: " + " ".join(str(exc).split()), file=sys.stderr)
        return 3
    text = {"text": render_text, "json": render_json, "csv": render_csv}[ns.format](report)
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # a bad --out path is a usage error
            print(f"qhlab: cannot write report to {ns.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
