"""Command-line front end.

Every verb validates its flags, runs the corresponding library operation and
emits a deterministic report (json, csv or table).  Exit codes: 0 on success
(and when all assertions of an assertion verb hold), 1 on a computation or
assertion failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from fermatcalc import bounds, fermat_hodge, ioformats
from fermatcalc.exactnum import CyclotomicNumber
from fermatcalc.idealcalc import ColonIdeal, FermatContext, buchberger
from fermatcalc.multipoly import (
    MonomialOrder,
    Polynomial,
    divide,
    lex_order,
    pair_leader_order,
)


def _context(args) -> FermatContext:
    return FermatContext(args.n, args.d)


def _parse_alpha(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"bad exponent list {text!r}")


def _parse_coeffs(text: str, conductor: int) -> tuple[CyclotomicNumber, ...]:
    return tuple(
        ioformats.parse_cyclotomic_expr(part, conductor) for part in text.split(",")
    )


def _parse_order(text: str | None, nvars: int) -> MonomialOrder | None:
    if text is None:
        return None
    priority = tuple(int(v) for v in text.split(","))
    if len(priority) != nvars:
        raise ValueError(f"order must list all {nvars} variables")
    return MonomialOrder(priority)


def _class_poly(args, ctx: FermatContext) -> Polynomial:
    if getattr(args, "alpha", None):
        return fermat_hodge.linear_cycle_poly(_parse_alpha(args.alpha), ctx)
    if getattr(args, "a", None):
        coeffs = _parse_coeffs(args.a, ctx.m)
        scale = (
            ioformats.parse_cyclotomic_expr(args.c_lambda, ctx.m)
            if getattr(args, "c_lambda", None)
            else CyclotomicNumber.one()
        )
        spec = fermat_hodge.ProductClassSpec(coeffs, scale)
        return fermat_hodge.product_class_poly(spec, ctx)
    if getattr(args, "poly", None):
        with open(args.poly, encoding="utf-8") as fh:
            return ioformats.polynomial_from_json(json.load(fh))
    raise ValueError("specify a class via --alpha, --a or --poly")


def _binomial_forms(ctx: FermatContext, coeffs) -> list[Polynomial]:
    forms = []
    for j, a in enumerate(coeffs):
        x = Polynomial.variable(ctx.nvars, 2 * j)
        y = Polynomial.variable(ctx.nvars, 2 * j + 1)
        forms.append(x - y.scale(a))
    return forms


def _pairing_json(result) -> dict:
    return {
        "c": ioformats.cyclotomic_to_json(result.c),
        "c_rational": ioformats.frac_str(result.c_rational),
        "intersection": ioformats.cyclotomic_to_json(result.intersection),
        "intersection_rational": ioformats.frac_str(result.intersection_rational),
        "non_socle_terms": len(result.non_socle.terms),
        "normalization": "linear cycle scale fixed to 1",
    }


def _bound_report_json(report) -> dict:
    payload = {
        "value": report.value,
        "bound_linear": report.bound_linear,
        "bound_second": report.bound_second,
        "classification": report.classification,
    }
    if report.j1_dim is not None:
        payload["j1_dim"] = report.j1_dim
        payload["j1_basis"] = [ioformats.polynomial_to_json(b) for b in report.j1_basis]
    return payload


def _certificate_json(cert) -> tuple[dict, tuple]:
    rows = [
        {
            "pairing": [v for pair in r.pairing for v in pair],
            "alpha": list(r.alpha),
            "c": ioformats.cyclotomic_to_json(r.c),
            "c_rational": ioformats.frac_str(r.c_rational),
            "flag": r.flag,
        }
        for r in cert.rows
    ]
    payload = {
        "verdict": cert.verdict,
        "rows": rows,
        "normalization": "linear cycle scale fixed to 1",
    }
    if cert.counterexample is not None:
        payload["counterexample"] = {
            "pairing": [v for pair in cert.counterexample.pairing for v in pair],
            "alpha": list(cert.counterexample.alpha),
        }
    csv_rows = [
        (
            ";".join(f"{p}-{q}" for p, q in r.pairing),
            ";".join(str(a) for a in r.alpha),
            f"{r.c.m}:" + ";".join(str(c) for c in r.c.coords),
            ioformats.frac_str(r.c_rational) or "",
            r.flag,
        )
        for r in cert.rows
    ]
    return payload, (("pairing", "alpha", "c", "c_rational", "flag"), csv_rows)


# ---------------------------------------------------------------------------
# Verb handlers: each returns (payload, csv_spec_or_None, exit_code)
# ---------------------------------------------------------------------------


def _run_hilbert(args):
    ctx = _context(args)
    p = _class_poly(args, ctx)
    order = _parse_order(args.order, ctx.nvars)
    ci = ColonIdeal(p, ctx, order)
    if args.degree is not None:
        return ioformats.slice_to_json(ci.slice(args.degree)), None, 0
    return ioformats.profile_to_json(ci.hilbert_profile()), None, 0


def _run_tangent(args):
    ctx = _context(args)
    p = _class_poly(args, ctx)
    order = _parse_order(args.order, ctx.nvars)
    report = bounds.tangent_codim(p, ctx, order)
    return _bound_report_json(report), None, 0


def _run_linear_cycle(args):
    ctx = _context(args)
    alpha = _parse_alpha(args.alpha)
    poly = fermat_hodge.linear_cycle_poly(alpha, ctx)
    payload = {
        "alpha": list(alpha),
        "pairing": [v for pair in fermat_hodge.default_pairing(ctx.n) for v in pair],
        "polynomial": ioformats.polynomial_to_json(poly),
    }
    return payload, None, 0


def _run_pair(args):
    ctx = _context(args)
    p = _class_poly(args, ctx)
    if args.alpha2:
        q = fermat_hodge.linear_cycle_poly(_parse_alpha(args.alpha2), ctx)
    elif args.a2:
        coeffs = _parse_coeffs(args.a2, ctx.m)
        scale = (
            ioformats.parse_cyclotomic_expr(args.c_lambda2, ctx.m)
            if args.c_lambda2
            else CyclotomicNumber.one()
        )
        q = fermat_hodge.product_class_poly(
            fermat_hodge.ProductClassSpec(coeffs, scale), ctx
        )
    else:
        raise ValueError("specify the second class via --alpha2 or --a2")
    result = fermat_hodge.pair_classes(p, q, ctx)
    return _pairing_json(result), None, 0


def _run_certify(args):
    ctx = _context(args)
    p = _class_poly(args, ctx)
    cert = fermat_hodge.rationality_certificate(
        p, ctx, all_coordinate_pairings=args.all_pairings, jobs=args.jobs
    )
    payload, csv_spec = _certificate_json(cert)
    return payload, csv_spec, 0


def _run_recover(args):
    ctx = _context(args)
    p = _class_poly(args, ctx)
    spec = fermat_hodge.recover_product_structure(p, ctx)
    payload = {
        "a": [ioformats.cyclotomic_to_json(v) for v in spec.a],
        "c_lambda": ioformats.cyclotomic_to_json(spec.c_lambda),
        "pairing": [v for pair in spec.pairing for v in pair],
    }
    return payload, None, 0


def _run_prop11(args):
    conductor = 2 * args.d
    a = ioformats.parse_cyclotomic_expr(args.a, conductor)
    report = fermat_hodge.rationality_scan(a, args.d)
    payload = {
        "d": args.d,
        "a": ioformats.cyclotomic_to_json(report.a),
        "direct": report.direct,
        "scan": report.scan,
        "cross_ratio": ioformats.cyclotomic_to_json(report.cross_ratio),
        "cross_ratio_rational": report.cross_ratio_rational,
        "witness": (
            None
            if report.witness is None
            else {
                "r": report.witness[0],
                "s": report.witness[1],
                "value": ioformats.cyclotomic_to_json(report.witness[2]),
            }
        ),
    }
    return payload, None, 0


def _run_plane(args):
    ctx = _context(args)
    if args.forms:
        with open(args.forms, encoding="utf-8") as fh:
            forms = [ioformats.polynomial_from_json(o) for o in json.load(fh)]
    elif args.a:
        forms = _binomial_forms(ctx, _parse_coeffs(args.a, ctx.m))
    else:
        raise ValueError("specify the plane via --a or --forms FILE")
    report = fermat_hodge.plane_in_fermat(forms, ctx)
    payload = {"contained": report.contained}
    if report.contained:
        payload.update(
            {
                "socle": report.socle,
                "socle_ok": report.socle_ok,
                "quotients": [ioformats.polynomial_to_json(q) for q in report.quotients],
            }
        )
    return payload, None, 0


def _run_dan_ci(args):
    ctx = _context(args)
    if args.decomp:
        with open(args.decomp, encoding="utf-8") as fh:
            obj = json.load(fh)
        f = [ioformats.polynomial_from_json(o) for o in obj["f"]]
        g = [ioformats.polynomial_from_json(o) for o in obj["g"]]
    else:
        f, g = _standard_decomposition(args, ctx)
    report = fermat_hodge.complete_intersection_ideal(f, g, ctx)
    payload = {
        "dims": list(report.dims),
        "socle": report.socle,
        "socle_ok": report.socle_ok,
        "square_member": report.square.member,
        "square_witness_terms": len(report.square.witness or ()),
        "tangent": _bound_report_json(report.tangent),
    }
    return payload, None, 0


def _standard_decomposition(args, ctx: FermatContext):
    """Build the f_i, g_i pairs for --type 1,...,1 or 1,...,1,2 from --a."""
    if not args.type or not args.a:
        raise ValueError("specify --type and --a, or --decomp FILE")
    degrees = _parse_alpha(args.type)
    half = ctx.n // 2 + 1
    if len(degrees) != half or set(degrees[:-1]) - {1} or degrees[-1] not in (1, 2):
        raise ValueError("supported types are 1,...,1 and 1,...,1,2")
    coeffs = _parse_coeffs(args.a, ctx.m)
    expected = half + (1 if degrees[-1] == 2 else 0)
    if len(coeffs) != expected:
        raise ValueError(f"--type {args.type} needs {expected} coefficients")
    f, g = [], []
    order = lex_order(ctx.nvars)
    for j, deg in enumerate(degrees):
        x = Polynomial.variable(ctx.nvars, 2 * j)
        y = Polynomial.variable(ctx.nvars, 2 * j + 1)
        pair_sum = Polynomial(
            ctx.nvars,
            [
                (tuple(ctx.d if t == 2 * j else 0 for t in range(ctx.nvars)), 1),
                (tuple(ctx.d if t == 2 * j + 1 else 0 for t in range(ctx.nvars)), 1),
            ],
        )
        if deg == 1:
            fi = x - y.scale(coeffs[j])
        else:
            fi = (x - y.scale(coeffs[j])) * (x - y.scale(coeffs[j + 1]))
        quotients, remainder = divide(pair_sum, [fi], order)
        if not remainder.is_zero():
            raise ValueError(
                f"factor {j} does not divide its Fermat pair sum; "
                "its roots must be d-th roots of -1"
            )
        f.append(fi)
        g.append(quotients[0])
    return f, g


def _run_special(args):
    ctx = _context(args)
    coeffs = _parse_coeffs(args.a, ctx.m)
    result = fermat_hodge.special_family(args.d, coeffs, ctx)
    cert_payload, _ = _certificate_json(result.certificate)
    payload = {
        "a": [ioformats.cyclotomic_to_json(v) for v in result.spec.a],
        "c_a": ioformats.cyclotomic_to_json(result.spec.c_lambda),
        "normalization_alpha": list(result.normalization_alpha),
        "j1_dim": result.j1_dim,
        "certificate": cert_payload,
    }
    return payload, None, 0


def _run_scan_bounds(args):
    report = bounds.scan_divisor_minima(args.n, args.d, jobs=args.jobs)
    payload = {
        "n": report.n,
        "d": report.d,
        "sigma": report.sigma,
        "min": report.min_value,
        "min_attainers_count": report.min_count,
        "second_min": report.second_min,
        "second_attainers_count": report.second_count,
        "assertions": list(report.assertions),
        "min_attainers": [
            {"shape": list(shape), "count": count} for shape, count in report.min_attainers
        ],
        "second_attainers": [
            {"shape": list(shape), "count": count}
            for shape, count in report.second_attainers
        ],
        "exchange_checks": report.exchange_checks,
    }
    return payload, None, 0 if report.all_hold else 1


def _run_groebner(args):
    ctx = _context(args)
    if args.gens:
        with open(args.gens, encoding="utf-8") as fh:
            gens = [ioformats.polynomial_from_json(o) for o in json.load(fh)]
        if not gens:
            raise ValueError("empty generator file")
    elif args.a:
        gens = _binomial_forms(ctx, _parse_coeffs(args.a, ctx.m))
        for j in range(1, ctx.nvars, 2):
            gens.append(
                Polynomial.monomial(
                    ctx.nvars,
                    tuple(ctx.d - 1 if t == j else 0 for t in range(ctx.nvars)),
                )
            )
    else:
        raise ValueError("specify generators via --a or --gens FILE")
    nvars = gens[0].nvars
    order = _parse_order(args.order, nvars) or pair_leader_order(nvars)
    cap = args.cap if args.cap is not None else 2 * (ctx.d - 1)
    result = buchberger(gens, order, cap)
    payload = {
        "basis": [ioformats.polynomial_to_json(b) for b in result.basis],
        "added": len(result.added),
        "truncated": result.truncated,
    }
    return payload, None, 0


# ---------------------------------------------------------------------------
# Parser assembly and output
# ---------------------------------------------------------------------------


def _emit(payload: dict, csv_spec, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        if csv_spec is not None:
            header, rows = csv_spec
            writer.writerow(header)
            writer.writerows(rows)
        else:
            writer.writerow(("key", "value"))
            for key, value in sorted(_flatten(payload).items()):
                writer.writerow((key, value))
    else:  # table
        for key, value in sorted(_flatten(payload).items()):
            out.write(f"{key}: {value}\n")


def _flatten(payload, prefix: str = "") -> dict:
    flat: dict[str, str] = {}
    if isinstance(payload, dict):
        for key in payload:
            flat.update(_flatten(payload[key], f"{prefix}{key}."))
    else:
        value = json.dumps(payload, sort_keys=True) if isinstance(payload, (list, dict)) else payload
        flat[prefix[:-1]] = value
    return flat


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return min(jobs, os.cpu_count() or 1)


def _add_common(sub, n=True, d=True):
    if n:
        sub.add_argument("--n", type=int, required=True, help="even dimension")
    if d:
        sub.add_argument("--d", type=int, required=True, help="degree")
    sub.add_argument("--output", choices=("json", "csv", "table"), default="json")
    sub.add_argument(
        "--jobs", type=_jobs, default=1,
        help="worker processes for scans (at least 1, capped at the CPU count)",
    )


def _add_class_flags(sub, suffix=""):
    sub.add_argument(f"--alpha{suffix}", help="linear-cycle exponents, e.g. 1,3")
    sub.add_argument(f"--a{suffix}", help="product-class coefficients, e.g. z,2")
    sub.add_argument(f"--c-lambda{suffix}", dest=f"c_lambda{suffix}", help="class scale")
    if not suffix:
        sub.add_argument("--poly", help="polynomial JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermatcalc",
        description="Exact Hodge-class computations on Fermat hypersurfaces",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("hilbert", help="Hilbert profile of a class's quotient algebra")
    _add_common(p)
    _add_class_flags(p)
    p.add_argument("--order", help="variable priority, e.g. 0,2,1,3")
    p.add_argument(
        "--degree", type=int, help="return the colon-ideal slice at this degree instead"
    )
    p.set_defaults(handler=_run_hilbert)

    p = sub.add_parser("tangent", help="tangent codimension and bound classification")
    _add_common(p)
    _add_class_flags(p)
    p.add_argument("--order", help="variable priority")
    p.set_defaults(handler=_run_tangent)

    p = sub.add_parser("linear-cycle", help="class polynomial of a linear cycle")
    _add_common(p)
    p.add_argument("--alpha", required=True)
    p.set_defaults(handler=_run_linear_cycle)

    p = sub.add_parser("pair", help="intersection pairing of two classes")
    _add_common(p)
    _add_class_flags(p)
    _add_class_flags(p, suffix="2")
    p.set_defaults(handler=_run_pair)

    p = sub.add_parser("certify", help="rationality certificate over linear cycles")
    _add_common(p)
    _add_class_flags(p)
    p.add_argument("--all-pairings", action="store_true")
    p.set_defaults(handler=_run_certify)

    p = sub.add_parser("recover", help="recover product structure from a class")
    _add_common(p)
    _add_class_flags(p)
    p.set_defaults(handler=_run_recover)

    p = sub.add_parser("prop11", help="rationality scan on a single coefficient")
    _add_common(p, n=False)
    p.add_argument("--a", required=True, help="cyclotomic literal, e.g. 'z' or '3/2'")
    p.set_defaults(handler=_run_prop11)

    p = sub.add_parser("plane", help="test containment of a linear subspace")
    _add_common(p)
    p.add_argument("--a", help="binomial coefficients for x_{2i}-a_i*x_{2i+1}")
    p.add_argument("--forms", help="JSON file with linear forms")
    p.set_defaults(handler=_run_plane)

    p = sub.add_parser("dan-ci", help="complete-intersection ideal checks")
    _add_common(p)
    p.add_argument("--type", help="complete intersection type, e.g. 1,1 or 1,2")
    p.add_argument("--a", help="factor coefficients")
    p.add_argument("--decomp", help="JSON file with f/g polynomial lists")
    p.set_defaults(handler=_run_dan_ci)

    p = sub.add_parser("special", help="special unit family member with certificate")
    _add_common(p)
    p.add_argument("--a", required=True, help="unit-family coefficients")
    p.set_defaults(handler=_run_special)

    p = sub.add_parser("scan-bounds", help="exhaustive divisor-minimum scan")
    _add_common(p)
    p.set_defaults(handler=_run_scan_bounds)

    p = sub.add_parser("groebner", help="degree-truncated Buchberger completion")
    _add_common(p)
    p.add_argument("--a", help="binomial coefficients for the paired system")
    p.add_argument("--gens", help="JSON file with generators")
    p.add_argument("--order", help="variable priority")
    p.add_argument("--cap", type=int, help="degree cap (default 2(d-1))")
    p.set_defaults(handler=_run_groebner)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, csv_spec, code = args.handler(args)
    except (ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, csv_spec, args.output, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
