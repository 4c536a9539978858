"""Command-line front end.

Every verb validates its flags, runs the corresponding library operation and
emits a deterministic report (json, csv or table).  Exit codes: 0 on success
(and when all assertions of an assertion verb hold), 1 on a computation or
assertion failure or a value the library rejects, 2 when argparse cannot
parse the command line, 3 when an internal consistency check fails (a result
that contradicts the theorem it implements).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from itertools import accumulate

from fermatcalc import bounds, fermat_hodge, ioformats
from fermatcalc.exactnum import CyclotomicNumber, check_conductor
from fermatcalc.idealcalc import (
    ColonIdeal,
    FermatContext,
    buchberger,
    check_class_size,
    check_colon_size,
    check_groebner_size,
)
from fermatcalc.multipoly import (
    MonomialOrder,
    Polynomial,
    geometric_factor,
    pair_leader_order,
)


def _parse_alpha(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"bad exponent list {text!r}")


def _parse_coeffs(text: str, conductor: int) -> tuple[CyclotomicNumber, ...]:
    return tuple(
        ioformats.parse_cyclotomic_expr(part, conductor) for part in text.split(",")
    )


def _check_literal_socle(ctx: FermatContext, pairs: int, text: str) -> None:
    """Count `pairs` products over the field of the `--a` literal before it is
    evaluated: a power such as (1+z)^4000 over Q(zeta_3000) takes seconds."""
    m = ioformats.literal_conductor(text, ctx.m)
    check_conductor(m)
    fermat_hodge.check_socle_size(ctx, pairs, m)


def _parse_order(text: str | None, nvars: int) -> MonomialOrder | None:
    if text is None:
        return None
    try:
        priority = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"bad variable order {text!r}")
    if len(priority) != nvars:
        raise ValueError(f"order must list all {nvars} variables")
    return MonomialOrder(priority)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # a RuntimeError, which would exit 3
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _class_poly(args, ctx: FermatContext, suffix: str = "") -> Polynomial:
    alpha, a, c_lambda = (getattr(args, f + suffix) for f in ("alpha", "a", "c_lambda"))
    if alpha:
        return fermat_hodge.linear_cycle_poly(_parse_alpha(alpha), ctx)
    if a:
        coeffs = _parse_coeffs(a, ctx.m)
        scale = (
            ioformats.parse_cyclotomic_expr(c_lambda, ctx.m)
            if c_lambda
            else CyclotomicNumber.one()
        )
        spec = fermat_hodge.ProductClassSpec(coeffs, scale)
        return fermat_hodge.product_class_poly(spec, ctx)
    if suffix:
        raise ValueError("specify the second class via --alpha2 or --a2")
    if args.poly:
        return ioformats.polynomial_from_json(_read_json(args.poly))
    raise ValueError("specify a class via --alpha, --a or --poly")


def _binomial_forms(ctx: FermatContext, pairs) -> list[Polynomial]:
    """The forms x_{2j} - a*x_{2j+1} for each (j, a) in `pairs`."""
    forms = []
    for j, a in pairs:
        if 2 * j + 1 >= ctx.nvars:
            raise ValueError(f"at most {ctx.nvars // 2} coefficients, one per coordinate pair")
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


def _certificate_json(cert) -> dict:
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
    return payload


def _certificate_csv(cert) -> tuple:
    return ("pairing", "alpha", "c", "c_rational", "flag"), [
        (
            ";".join(f"{p}-{q}" for p, q in r.pairing),
            ";".join(str(a) for a in r.alpha),
            f"{r.c.m}:" + ";".join(ioformats.coordinate_strings(r.c)),
            ioformats.frac_str(r.c_rational) or "",
            r.flag,
        )
        for r in cert.rows
    ]


# ---------------------------------------------------------------------------
# Verb handlers (args, ctx): each returns (payload, csv_spec_or_None, exit_code)
# ---------------------------------------------------------------------------


def _run_hilbert(args, ctx):
    check_colon_size(ctx)  # before building a class that may already be too large
    if args.degree is not None and args.degree > ctx.sigma:  # (J : P)_k is all of S_k there
        raise ValueError(f"slice degree must lie in 0..{ctx.sigma}")
    p = _class_poly(args, ctx)
    order = _parse_order(args.order, ctx.nvars)
    ci = ColonIdeal(p, ctx, order)
    if args.degree is not None:
        return ioformats.slice_to_json(ci.slice(args.degree)), None, 0
    return ioformats.profile_to_json(ci.hilbert_profile()), None, 0


def _run_tangent(args, ctx):
    check_colon_size(ctx)
    p = _class_poly(args, ctx)
    order = _parse_order(args.order, ctx.nvars)
    report = bounds.tangent_codim(p, ctx, order)
    return _bound_report_json(report), None, 0


def _run_linear_cycle(args, ctx):
    check_class_size(ctx)
    alpha = _parse_alpha(args.alpha)
    poly = fermat_hodge.linear_cycle_poly(alpha, ctx)
    payload = {
        "alpha": list(alpha),
        "pairing": [v for pair in fermat_hodge.default_pairing(ctx.n) for v in pair],
        "polynomial": ioformats.polynomial_to_json(poly),
    }
    return payload, None, 0


def _run_pair(args, ctx):
    check_class_size(ctx)
    p = _class_poly(args, ctx)
    q = _class_poly(args, ctx, "2")
    result = fermat_hodge.pair_classes(p, q, ctx)
    return _pairing_json(result), None, 0


def _run_certify(args, ctx):
    check_class_size(ctx)  # the certificate builds a linear cycle per row
    p = _class_poly(args, ctx)
    cert = fermat_hodge.rationality_certificate(
        p, ctx, all_coordinate_pairings=args.all_pairings
    )
    csv_spec = _certificate_csv(cert) if args.output == "csv" else None  # only csv prints rows
    return _certificate_json(cert), csv_spec, 0


def _run_recover(args, ctx):
    check_colon_size(ctx)  # bounds the class build; the recogniser itself eliminates nothing
    p = _class_poly(args, ctx)
    spec = fermat_hodge.recover_product_structure(p, ctx)
    payload = {
        "a": [ioformats.cyclotomic_to_json(v) for v in spec.a],
        "c_lambda": ioformats.cyclotomic_to_json(spec.c_lambda),
        "pairing": [v for pair in spec.pairing for v in pair],
    }
    return payload, None, 0


def _run_prop11(args, ctx):
    conductor = 2 * args.d
    if args.d >= 3:  # the scan refuses d < 3 first; else count before evaluating the literal
        fermat_hodge.check_prop11_size(args.d, conductor)
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


def _run_plane(args, ctx):
    # plane_in_fermat counts the forms' products once they are parsed
    if args.forms:
        forms = ioformats.polynomials_from_json(_read_json(args.forms))
    elif args.a:
        _check_literal_socle(ctx, fermat_hodge.plane_term_pairs(ctx), args.a)
        forms = _binomial_forms(ctx, enumerate(_parse_coeffs(args.a, ctx.m)))
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


def _run_dan_ci(args, ctx):
    # complete_intersection_ideal counts a file's products once it is parsed
    if args.decomp:
        # that count does not grow with d, but the socle check's passes over the
        # sigma + 2 degrees do: h binomials times d-term cofactors over Q bound them
        fermat_hodge.check_socle_size(ctx, (ctx.n // 2 + 1) * 2 * ctx.d, 1)
        f, g = ioformats.decomposition_from_json(_read_json(args.decomp))
    else:
        if args.a:  # a binomial f_i times its d-term g_i
            _check_literal_socle(ctx, (ctx.n // 2 + 1) * 2 * ctx.d, args.a)
        f, g = _standard_decomposition(args, ctx)
    report = fermat_hodge.complete_intersection_ideal(f, g, ctx)
    payload = {
        "dims": list(report.dims),
        "socle": report.socle,
        "socle_ok": report.socle_ok,
        "square_member": report.square.member,
        "square_witness_terms": len(report.square.witness),
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
    quadric = degrees[-1] == 2
    if len(coeffs) != half + quadric:
        raise ValueError(f"--type {args.type} needs {half + quadric} coefficients")
    # a quadric factor is the product of two binomials on the last pair
    f = _binomial_forms(ctx, zip([*range(half), half - 1], coeffs))
    if quadric:
        f[-2:] = [f[-2] * f[-1]]
    # each g_i is a form in two variables of degree d - deg f_i: count the
    # products of F = sum f_i g_i at that many terms before dividing
    fermat_hodge.check_socle_size(
        ctx, sum(len(fi.terms) * (ctx.d - fi.homogeneous_degree() + 1) for fi in f),
        math.lcm(*(c.m for fi in f for c in fi.terms.values())))
    # x^d + y^d = (x - a y) G(a) exactly when a^d = -1, and then G(a) = (x - b y) g for b != a
    for j, a in enumerate(coeffs):
        if a ** ctx.d != -1 or (j == half and a == coeffs[-2]):
            raise ValueError(f"factor {min(j, half - 1)} does not divide its Fermat pair sum; "
                             "its roots must be d-th roots of -1")
    g = [geometric_factor(ctx.nvars, 2 * j, 2 * j + 1, a, ctx.d + 2 - deg)
         for j, (a, deg) in enumerate(zip(coeffs, degrees))]
    if quadric:  # h_t = a^t + b h_(t-1) over G(a)'s terms a^t x^(d-2-t) y^t, t ascending
        b, terms = coeffs[-1], g[-1].terms
        g[-1] = Polynomial(ctx.nvars, zip(terms, accumulate(terms.values(), lambda h, p: p + b * h)))
    return f, g


def _run_special(args, ctx):
    check_colon_size(ctx)  # bounds d before --a is parsed over Q(zeta_2d)
    coeffs = _parse_coeffs(args.a, ctx.m)
    result = fermat_hodge.special_family(args.d, coeffs, ctx)
    payload = {
        "a": [ioformats.cyclotomic_to_json(v) for v in result.spec.a],
        "c_a": ioformats.cyclotomic_to_json(result.spec.c_lambda),
        "normalization_alpha": list(result.normalization_alpha),
        "j1_dim": result.j1_dim,
        "certificate": _certificate_json(result.certificate),
    }
    return payload, None, 0


def _run_scan_bounds(args, ctx):
    report = bounds.scan_divisor_minima(args.n, args.d)
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


def _run_groebner(args, ctx):
    if args.gens:
        gens = ioformats.polynomials_from_json(_read_json(args.gens))
        if len({g.nvars for g in gens}) != 1:
            raise ValueError("generators must be one or more polynomials in the same variables")
    elif args.a:
        check_groebner_size(len(args.a.split(",")) + ctx.nvars // 2, ctx.nvars)
        gens = _binomial_forms(ctx, enumerate(_parse_coeffs(args.a, ctx.m)))
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
    return jobs


def _add_common(sub, n=True):
    if n:
        sub.add_argument("--n", type=int, required=True, help="even dimension")
    sub.add_argument("--d", type=int, required=True, help="degree")
    sub.add_argument("--output", choices=("json", "csv", "table"), default="json")
    sub.add_argument(
        "--jobs", type=_jobs, default=1,
        help="accepted for compatibility (at least 1) and ignored; every verb "
        "runs in one process",
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


# argparse keeps no state between parses, so one parser serves every request
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        ctx = FermatContext(args.n, args.d) if "n" in vars(args) else None
        payload, csv_spec, code = args.handler(args, ctx)
    except (ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3
    _emit(payload, csv_spec, args.output, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
