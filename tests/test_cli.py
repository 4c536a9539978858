import argparse
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fermatcalc import bounds
from fermatcalc.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_tangent_json(capsys):
    code, out = run(capsys, "tangent", "--n", "2", "--d", "5", "--alpha", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert payload["classification"] == "attains-linear-minimum"
    assert payload["j1_dim"] == 2


def test_hilbert_product_class(capsys):
    code, out = run(capsys, "hilbert", "--n", "2", "--d", "5", "--a", "z,2")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 2, 3, 4, 3, 2, 1]


def test_hilbert_degree_slice(capsys):
    code, out = run(
        capsys, "hilbert", "--n", "2", "--d", "5", "--alpha", "1,1", "--degree", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 1 and payload["dim"] == 2
    assert len(payload["basis"]) == 2


def test_linear_cycle_round_trips_through_polynomial_json(capsys, tmp_path):
    code, out = run(capsys, "linear-cycle", "--n", "2", "--d", "5", "--alpha", "1,3")
    assert code == 0
    poly = json.loads(out)["polynomial"]
    path = tmp_path / "class.json"
    path.write_text(json.dumps(poly), encoding="utf-8")
    code, out = run(capsys, "tangent", "--n", "2", "--d", "5", "--poly", str(path))
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_hilbert_of_a_class_divisible_by_its_prime(capsys, tmp_path):
    from fermatcalc.fermat_hodge import linear_cycle_poly
    from fermatcalc.idealcalc import FermatContext
    from fermatcalc.ioformats import polynomial_to_json

    p = linear_cycle_poly((1, 3), FermatContext(2, 5))
    path = tmp_path / "class.json"
    path.write_text(json.dumps(polynomial_to_json(p.scale(2147483951))), encoding="utf-8")
    code, out = run(capsys, "hilbert", "--n", "2", "--d", "5", "--poly", str(path))
    assert code == 0
    assert json.loads(out)["dims"] == [1, 2, 3, 4, 3, 2, 1]
    assert run(capsys, "hilbert", "--n", "2", "--d", "5", "--alpha", "1,3") == (0, out)


@pytest.mark.parametrize("verb", ["hilbert", "tangent", "recover"])
def test_colon_verbs_refuse_a_catalecticant_above_the_envelope(capsys, verb):
    import time

    start = time.perf_counter()
    code = main([verb, "--n", "40", "--d", "40", "--alpha", ",".join(["1"] * 21)])
    assert time.perf_counter() - start < 1
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: (n, d) = (40, 40) has ") and err.count("\n") == 1
    assert "above the colon limit of 1000" in err


@pytest.mark.parametrize("verb,cls", [("hilbert", "--alpha"), ("tangent", "--alpha"),
                                      ("recover", "--alpha"), ("special", "--a")])
def test_colon_verbs_refuse_a_huge_dimension_before_counting_columns(capsys, verb, cls):
    # n + 2 > 1000 capped columns at every degree 1..sigma, so nothing is counted:
    # the inclusion-exclusion count alone ran for minutes and then overflowed
    # the digit limit when printed
    start = time.perf_counter()
    code = main([verb, "--n", "20000", "--d", "5", cls, "1"])
    assert time.perf_counter() - start < 1
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1 and "digits" not in err
    assert err == ("error: (n, d) = (20000, 5) has at least 20002 capped columns at degree "
                   "15001, above the colon limit of 1000\n")


def test_linear_cycle_refuses_a_huge_dimension_at_once(capsys):
    start = time.perf_counter()
    code = main(["linear-cycle", "--n", "1000000000", "--d", "5", "--alpha", "1"])
    assert time.perf_counter() - start < 0.1
    assert code == 1
    assert capsys.readouterr() == ("", "error: (n, d) = (1000000000, 5) has (d-1)^(n/2+1) = "
                                       "4^500000001 terms per linear cycle, above the class "
                                       "limit of 4096\n")


@pytest.mark.parametrize("verb", ["certify", "pair", "linear-cycle"])
def test_class_verbs_refuse_a_linear_cycle_above_the_class_limit(capsys, verb):
    import time

    ones = ",".join(["1"] * 21)
    argv = [verb, "--n", "40", "--d", "40", "--alpha", ones]
    if verb == "pair":
        argv += ["--alpha2", ones]
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == (
        "error: (n, d) = (40, 40) has (d-1)^(n/2+1) = 39^21 terms per linear cycle, "
        "above the class limit of 4096\n"
    )


@pytest.mark.parametrize(
    "blob",
    [
        {"vars": 4, "m": 10, "terms": [{"exp": "3300", "coeff": ["1", "0", "0", "0"]}]},
        [{"vars": 4, "m": 10, "terms": []}],
        {"vars": 4, "m": 10, "terms": [{"exp": [3, 3, 0, 0], "coeff": None}]},
    ],
    ids=["string-exp", "top-level-list", "null-coeff"],
)
def test_malformed_polynomial_json_exits_one(capsys, tmp_path, blob):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    code = main(["tangent", "--n", "2", "--d", "5", "--poly", str(path)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,blob,expected",
    [
        (["dan-ci", "--decomp"], [1, 2], "decomposition must be an object"),
        (["dan-ci", "--decomp"], {"f": 3, "g": []}, "list of polynomials"),
        (["dan-ci", "--decomp"], {"x": 1}, 'missing the key "f"'),
        (["dan-ci", "--decomp"], {"f": []}, 'missing the key "g"'),
        (["plane", "--forms"], 3, "list of polynomials"),
        (["groebner", "--gens"], 3, "list of polynomials"),
    ],
    ids=["decomp-list", "decomp-int-f", "decomp-no-f", "decomp-no-g", "forms-int", "gens-int"],
)
def test_malformed_polynomial_lists_exit_one(capsys, tmp_path, argv, blob, expected):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    code = main([argv[0], "--n", "2", "--d", "5", argv[1], str(path)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err



def test_json_booleans_in_a_class_exit_one(capsys, tmp_path):
    path = tmp_path / "class.json"
    blob = {"vars": 4, "m": True, "terms": [{"exp": [3, False, 3, False], "coeff": [True]}]}
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["hilbert", "--n", "2", "--d", "5", "--poly", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: polynomial must be an object")


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--n", "2", "--d", "5", "--a", "2^100000000,1"],
        ["prop11", "--d", "5", "--a", "2^1000000"],
        ["certify", "--n", "2", "--d", "5", "--a", "3^100000,1"],
    ],
    ids=["hilbert", "prop11", "certify"],
)
def test_unprintable_powers_are_refused_before_the_verb_runs(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: parse error at position")
    assert f"power has more than {sys.get_int_max_str_digits()} digits" in err


def test_powers_of_z_reduce_for_any_exponent(capsys):
    outputs = []
    for a in ("z^1000000001,1", "z,1"):
        assert main(["certify", "--n", "2", "--d", "5", "--a", a]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

def test_pair_verb(capsys):
    code, out = run(
        capsys, "pair", "--n", "2", "--d", "5", "--alpha", "1,1", "--alpha2", "1,3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["c_rational"] is not None
    assert "non_socle_terms" not in payload


def test_pair_reads_its_second_class_with_its_own_scale(capsys):
    from fermatcalc.exactnum import CyclotomicNumber, zeta
    from fermatcalc.fermat_hodge import (
        ProductClassSpec,
        linear_cycle_poly,
        pair_classes,
        product_class_poly,
    )
    from fermatcalc.idealcalc import FermatContext
    from fermatcalc.ioformats import cyclotomic_from_json

    argv = ["pair", "--n", "2", "--d", "5", "--alpha", "1,1", "--a2", "z,1"]
    code, out = run(capsys, *argv)
    assert code == 0
    c = cyclotomic_from_json(json.loads(out)["c"])
    code, out = run(capsys, *argv, "--c-lambda2", "3")
    assert code == 0
    assert cyclotomic_from_json(json.loads(out)["c"]) == c * 3
    ctx = FermatContext(2, 5)
    one = CyclotomicNumber.one()
    q = product_class_poly(ProductClassSpec((zeta(10), one), one), ctx)
    assert pair_classes(linear_cycle_poly((1, 1), ctx), q, ctx).c == c
    assert main(argv[:-2]) == 1
    assert capsys.readouterr() == ("", "error: specify the second class via --alpha2 or --a2\n")


def test_certify_csv(capsys):
    code, out = run(
        capsys,
        "certify", "--n", "2", "--d", "5", "--alpha", "1,1", "--output", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "pairing,alpha,c,c_rational,flag"
    assert len(lines) == 1 + 25
    assert all(line.endswith(("rational", "zero")) for line in lines[1:])


def test_zero_pairings_serialize_at_conductor_one(capsys):
    argv = [
        "certify", "--n", "2", "--d", "5", "--a=-2*z^7,-2*z^2", "--c-lambda", "2*z^3",
        "--all-pairings",
    ]
    code, out = run(capsys, *argv, "--output", "csv")
    assert code == 0
    zeros = [line.split(",") for line in out.splitlines() if line.endswith(",zero")]
    assert len(zeros) == 5
    assert all(row[2] == "1:0" and row[3] == "0" for row in zeros)
    code, out = run(capsys, *argv)
    rows = [r for r in json.loads(out)["rows"] if r["flag"] == "zero"]
    assert len(rows) == 5
    assert all(r["c"] == {"m": 1, "coords": ["0"]} for r in rows)


def test_recover_verb(capsys):
    code, out = run(capsys, "recover", "--n", "2", "--d", "5", "--a", "2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["pairing"] == [0, 1, 2, 3]
    assert payload["a"][0]["coords"] == ["2"]


def test_recover_keeps_each_coefficient_conductor(capsys):
    # the class's products mix conductor-1 and conductor-8 coefficients; the
    # rational -1 and 3/2 print at conductor 1, the rational -3 (from 3z^4)
    # at conductor 8, as each was computed
    code, out = run(
        capsys, "recover", "--n", "6", "--d", "4", "--a=-z^2,-1,1/2*z^7,3*z^4", "--c-lambda", "3/2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == [
        {"coords": ["0", "0", "-1", "0"], "m": 8},
        {"coords": ["-1"], "m": 1},
        {"coords": ["0", "0", "0", "-1/2"], "m": 8},
        {"coords": ["-3", "0", "0", "0"], "m": 8},
    ]
    assert payload["c_lambda"] == {"coords": ["3/2"], "m": 1}


def test_recover_and_special_run_no_elimination(capsys, monkeypatch):
    from fermatcalc import echelon, idealcalc

    def refuse(*args, **kwargs):
        raise AssertionError("an exact elimination ran")

    monkeypatch.setattr(idealcalc.ColonIdeal, "_kernel_data", refuse)
    monkeypatch.setattr(echelon, "echelon", refuse)
    monkeypatch.setattr(idealcalc, "echelon", refuse)
    code, out = run(capsys, "recover", "--n", "4", "--d", "5", "--a", "z,0,3/2*z^4", "--c-lambda", "i")
    assert code == 0
    payload = json.loads(out)
    assert payload["pairing"] == [0, 1, 2, 3, 4, 5]
    assert payload["a"][1] == {"coords": ["0"], "m": 1}
    assert payload["c_lambda"] == {"coords": ["0", "1"], "m": 4}
    code, out = run(capsys, "special", "--n", "4", "--d", "4", "--a", "z*(3+4i)/5,z,z*i")
    assert code == 0 and json.loads(out)["j1_dim"] == 3


def near_products(n, d):
    """A product class with its lex-least term, neither the lead nor a one-step
    neighbour of it, perturbed in value, and with that term moved one unit
    from x_1 to x_2, off the lattice of the pairs (0, 1), (2, 3), ..."""
    from fermatcalc.exactnum import CyclotomicNumber, root_of_unity
    from fermatcalc.fermat_hodge import ProductClassSpec, product_class_poly
    from fermatcalc.idealcalc import FermatContext
    from fermatcalc.multipoly import Polynomial

    ctx = FermatContext(n, d)
    a = tuple(root_of_unity(ctx.m, 2 * j + 1) for j in range(n // 2 + 1))
    p = product_class_poly(ProductClassSpec(a, CyclotomicNumber.from_rational(3)), ctx)
    interior = min(p.terms)
    assert sum(interior[1::2]) >= 2  # at least two steps from the lead
    perturbed = dict(p.terms)
    perturbed[interior] = perturbed[interior] + 1
    moved = dict(p.terms)
    off = list(interior)
    off[1], off[2] = off[1] - 1, off[2] + 1
    moved[tuple(off)] = moved.pop(interior)
    return ctx, [Polynomial(ctx.nvars, perturbed), Polynomial(ctx.nvars, moved)]


@pytest.mark.parametrize("n,d", [(2, 3), (2, 5), (4, 4), (2, 9)])
def test_a_perturbed_or_moved_interior_term_is_no_product(n, d, capsys, tmp_path):
    from fermatcalc.idealcalc import product_structure
    from fermatcalc.ioformats import polynomial_to_json

    from conftest import recover_by_elimination

    ctx, classes = near_products(n, d)
    for q in classes:
        assert product_structure(q, ctx) is None
        with pytest.raises(ValueError, match="product s"):
            recover_by_elimination(q, ctx)
        path = tmp_path / "near.json"
        path.write_text(json.dumps(polynomial_to_json(q)), encoding="utf-8")
        assert main(["recover", "--n", str(n), "--d", str(d), "--poly", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: no product structure\n")


@pytest.mark.parametrize("verb", ["hilbert", "tangent", "recover"])
def test_a_product_request_builds_its_class_once_and_scales_nothing(verb, capsys, monkeypatch):
    from fermatcalc import fermat_hodge, idealcalc
    from fermatcalc.multipoly import Polynomial

    built = []

    def counted(*args):
        built.append(args)
        return pairing_product(*args)

    def refuse(*args):
        raise AssertionError("Polynomial.scale ran")

    pairing_product = idealcalc.pairing_product
    for owner in (fermat_hodge, idealcalc):
        monkeypatch.setattr(owner, "pairing_product", counted)
    monkeypatch.setattr(Polynomial, "scale", refuse)
    for flags in (["--n", "4", "--d", "5", "--alpha", "1,3,5"],
                  ["--n", "2", "--d", "9", "--a", "z,-3/2*z^5", "--c-lambda", "3/2"]):
        built.clear()
        assert run(capsys, verb, *flags)[0] == 0
        assert len(built) == 1


def patch_elimination(monkeypatch, hook):
    """Route the mod-p and exact eliminations of the colon verbs through
    `hook(name)`, which may raise or record."""
    from fermatcalc import echelon, idealcalc

    def through(name, f):
        return lambda *args, **kwargs: hook(name) or f(*args, **kwargs)

    for owner, name in ((echelon, "echelon"), (idealcalc, "echelon"), (idealcalc, "reaches_rank_mod_p")):
        monkeypatch.setattr(owner, name, through(name, getattr(owner, name)))
    monkeypatch.setattr(idealcalc.ColonIdeal, "_multiplication_rows",
                        through("rows", idealcalc.ColonIdeal._multiplication_rows))
    monkeypatch.setattr(idealcalc._Reduction, "avoiding",
                        staticmethod(through("avoiding", idealcalc._Reduction.avoiding)))


def test_product_colon_verbs_build_no_rows(capsys, monkeypatch, tmp_path):
    def refuse(name):
        raise AssertionError(f"{name} ran on a product class")

    patch_elimination(monkeypatch, refuse)
    for n, d, flags in ((4, 5, ["--alpha", "1,3,5"]),
                        (2, 9, ["--a", "z,-3/2*z^5", "--c-lambda", "3/2"])):
        common = ["--n", str(n), "--d", str(d), *flags]
        sigma = (d - 2) * (n // 2 + 1)
        for argv in ([["hilbert", *common], ["tangent", *common]]
                     + [["hilbert", *common, "--degree", str(k)] for k in range(sigma + 1)]):
            assert run(capsys, *argv)[0] == 0, argv
    # a dense 40-term class still takes the elimination route
    import random

    from fermatcalc.idealcalc import FermatContext
    from fermatcalc.ioformats import polynomial_to_json

    from conftest import random_reduced_class

    ran = set()
    monkeypatch.undo()
    patch_elimination(monkeypatch, ran.add)
    dense = random_reduced_class(FermatContext(4, 4), random.Random(5), terms=40)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(polynomial_to_json(dense)), encoding="utf-8")
    assert run(capsys, "hilbert", "--n", "4", "--d", "4", "--poly", str(path), "--degree", "4")[0] == 0
    # 21 capped targets of degree sigma + 4 for 90 columns: no mod-p pass can reach full rank
    assert ran == {"echelon", "rows"}
    ran.clear()
    assert run(capsys, "hilbert", "--n", "4", "--d", "4", "--poly", str(path))[0] == 0
    assert ran == {"reaches_rank_mod_p", "rows", "avoiding"}  # full rank mod p at sigma/2


def test_prop11_verb(capsys):
    code, out = run(capsys, "prop11", "--d", "5", "--a", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["direct"] is False and payload["scan"] is False
    assert payload["cross_ratio_rational"] is False
    assert payload["witness"] is not None


def test_plane_verb(capsys):
    code, out = run(capsys, "plane", "--n", "2", "--d", "5", "--a", "z,z^3")
    assert code == 0
    payload = json.loads(out)
    assert payload["contained"] is True and payload["socle"] == 6
    code, out = run(capsys, "plane", "--n", "2", "--d", "5", "--a", "2,z")
    assert code == 0
    assert json.loads(out)["contained"] is False


def test_dan_ci_verb(capsys):
    code, out = run(
        capsys, "dan-ci", "--n", "2", "--d", "5", "--type", "1,2", "--a", "z,z,z^3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"][5] == 3
    assert payload["square_member"] is True
    assert payload["tangent"]["classification"] == "attains-second-minimum"


def test_special_verb(capsys):
    code, out = run(
        capsys, "special", "--n", "2", "--d", "4", "--a", "z*(3+4i)/5,z"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["verdict"] == "all rational"
    assert payload["j1_dim"] == 2


def test_scan_bounds_exit_codes(capsys):
    code, out = run(capsys, "scan-bounds", "--n", "2", "--d", "6")
    assert code == 0
    assert json.loads(out)["assertions"] == [True, True, True, True]
    # the degenerate quartic surface fails the characterizations: exit 1
    code, out = run(capsys, "scan-bounds", "--n", "2", "--d", "4")
    assert code == 1
    assert json.loads(out)["assertions"][1] is False


def test_groebner_verb(capsys):
    code, out = run(capsys, "groebner", "--n", "2", "--d", "5", "--a", "z,3/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["added"] == 0 and payload["truncated"] is False


@pytest.mark.parametrize("n,d,a,cap", [(2, 5, "z,3/2", None), (2, 5, "z,3/2", 6),
                                       (4, 4, "z^3,-2,z", None), (4, 7, "1/2", 7)])
def test_groebner_coprime_leads_form_no_s_polynomial(capsys, monkeypatch, n, d, a, cap):
    # x_2j - a_j x_2j+1 and the powers x_2j+1^(d-1) lead with pairwise coprime
    # monomials, so the monic generators are the basis (Buchberger's first criterion)
    from fermatcalc import idealcalc
    from fermatcalc.ioformats import parse_cyclotomic_expr, polynomial_to_json
    from fermatcalc.multipoly import Polynomial, leading_term, pair_leader_order

    def refuse(*args):
        raise AssertionError("an S-polynomial was formed")

    monkeypatch.setattr(idealcalc, "s_polynomial", refuse)
    argv = ["groebner", "--n", str(n), "--d", str(d), "--a", a]
    code, out = run(capsys, *argv, *(["--cap", str(cap)] if cap is not None else []))
    assert code == 0
    nvars, m = n + 2, 2 * d
    gens = [Polynomial.variable(nvars, 2 * j)
            - Polynomial.variable(nvars, 2 * j + 1).scale(parse_cyclotomic_expr(c, m))
            for j, c in enumerate(a.split(","))]
    gens += [Polynomial.monomial(nvars, tuple(d - 1 if t == v else 0 for t in range(nvars)))
             for v in range(1, nvars, 2)]
    monic = [g.scale(leading_term(g, pair_leader_order(nvars))[1].inverse()) for g in gens]
    degrees = [g.homogeneous_degree() for g in gens]
    cap = 2 * (d - 1) if cap is None else cap
    truncated = any(x + y > cap for i, x in enumerate(degrees) for y in degrees[:i])
    assert json.loads(out) == {"basis": [polynomial_to_json(g) for g in monic], "added": 0,
                               "truncated": truncated}


def test_groebner_refuses_a_huge_dimension_at_once(capsys):
    start = time.perf_counter()
    code = main(["groebner", "--n", "1000000", "--d", "5", "--a", "z"])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert capsys.readouterr() == ("", "error: 500002 generators in 1000002 variables need "
                                       "C(500002, 2) * 1000002 = 125001000002500002 pair-scan "
                                       "steps, above the groebner limit of 100000\n")


def test_hilbert_profile_is_order_invariant(capsys):
    base = run(capsys, "hilbert", "--n", "2", "--d", "5", "--alpha", "1,3")[1]
    permuted = run(
        capsys,
        "hilbert", "--n", "2", "--d", "5", "--alpha", "1,3", "--order", "0,2,1,3",
    )[1]
    assert json.loads(base)["dims"] == json.loads(permuted)["dims"]


def test_certify_all_pairings(capsys):
    code, out = run(
        capsys,
        "certify", "--n", "2", "--d", "4", "--alpha", "1,1", "--all-pairings",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 3 * 16
    assert payload["verdict"] == "all rational"


def test_prop11_plain_i_at_degree_six_satisfies_the_direct_condition(capsys):
    # i^6 = -1, so for a = i both the scan and the direct condition hold;
    # the genuine scan-only survivors need a non-root unit factor
    code, out = run(capsys, "prop11", "--d", "6", "--a", "i")
    assert code == 0
    payload = json.loads(out)
    assert payload["scan"] is True and payload["direct"] is True


def test_readme_examples_of_rejected_values_exit_one(capsys):
    assert main(["hilbert", "--n", "3", "--d", "5", "--alpha", "1,1"]) == 1
    assert capsys.readouterr().err == "error: dimension n must be a positive even integer\n"
    assert main(["hilbert", "--n", "2", "--d", "5"]) == 1
    assert capsys.readouterr().err == "error: specify a class via --alpha, --a or --poly\n"


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["tangent", "--n", "2"])  # missing --d
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["hilbert", "--n", "two", "--d", "5"])  # the README's wrong-type example
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-verb"])
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as err:
            main(["tangent", "--n", "2", "--d", "5", "--alpha", "1,1", "--jobs", jobs])
        assert err.value.code == 2


# every verb, a usage error and a pair with --a2, on small inputs
ONE_PROCESS = [
    ["hilbert", "--n", "2", "--d", "4", "--alpha", "1,1"],
    ["tangent", "--n", "2", "--d", "5", "--a", "z,2", "--output", "table"],
    ["linear-cycle", "--n", "2", "--d", "5", "--alpha", "1,3"],
    ["pair", "--n", "2", "--d", "5", "--alpha", "1,1", "--a2", "z,1", "--c-lambda2", "3"],
    ["certify", "--n", "2", "--d", "4", "--alpha", "1,1", "--output", "csv"],
    ["recover", "--n", "2", "--d", "5", "--a", "2,1"],
    ["prop11", "--d", "5", "--a", "2"],
    ["plane", "--n", "2", "--d", "5", "--a", "z,z^3"],
    ["dan-ci", "--n", "2", "--d", "5", "--type", "1,2", "--a", "z,z,z^3"],
    ["special", "--n", "2", "--d", "4", "--a", "z*(3+4i)/5,z"],
    ["scan-bounds", "--n", "2", "--d", "4", "--output", "csv"],
    ["groebner", "--n", "2", "--d", "5", "--a", "z,3/2"],
    ["tangent", "--n", "2"],
]


def test_requests_in_one_process_do_not_depend_on_their_order(capsys):
    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    forward = [outcome(argv) for argv in ONE_PROCESS]
    backward = [outcome(argv) for argv in reversed(ONE_PROCESS)]
    assert forward == backward[::-1]
    assert [code for code, _, _ in forward] == [0] * 10 + [1, 0, 2]
    assert "the following arguments are required: --d" in forward[-1][2]


def test_jobs_is_accepted_and_ignored(capsys):
    # every verb runs in one process, so even a huge value starts nothing
    for argv in (
        ["certify", "--n", "2", "--d", "4", "--alpha", "1,1"],
        ["scan-bounds", "--n", "2", "--d", "5"],
    ):
        plain = run(capsys, *argv)
        assert run(capsys, *argv, "--jobs", "2") == plain
        assert run(capsys, *argv, "--jobs", "1000000") == plain


def test_importing_the_library_loads_no_multiprocessing():
    code = (
        "import sys, fermatcalc, fermatcalc.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src, "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
    )
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("exc", [RuntimeError, ArithmeticError])
def test_internal_check_failures_exit_three(exc, capsys, monkeypatch):
    def contradiction(*args, **kwargs):
        raise exc("slice has the wrong dimension")

    monkeypatch.setattr(bounds, "tangent_codim", contradiction)
    code = main(["tangent", "--n", "2", "--d", "5", "--alpha", "1,1"])
    assert code == 3
    assert capsys.readouterr() == (
        "", "error: internal check failed: slice has the wrong dimension\n"
    )


def test_division_by_zero_still_exits_one(capsys):
    # ZeroDivisionError is an ArithmeticError, but it is the input's fault
    code = main(
        ["pair", "--n", "2", "--d", "5", "--alpha", "1,1", "--a2", "1,1", "--c-lambda2", "1/0"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_computation_errors_exit_one(capsys):
    code = main(["tangent", "--n", "2", "--d", "5", "--alpha", "2,1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = main(["special", "--n", "2", "--d", "4", "--a", "2,z"])
    assert code == 1


def test_slice_degree_above_sigma_is_refused_before_the_class_is_built(capsys):
    # above sigma = 6 all of S_k lies in J : P; the slice at 100000 would
    # list every monomial of that degree
    t0 = time.perf_counter()
    code = main(["hilbert", "--n", "2", "--d", "5", "--alpha", "1,1", "--degree", "100000"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert capsys.readouterr() == ("", "error: slice degree must lie in 0..6\n")


def test_slice_degree_sigma_is_the_top_slice(capsys):
    # S/(J : P) is one-dimensional in degree sigma: 83 of the 84 monomials
    code, out = run(capsys, "hilbert", "--n", "2", "--d", "5", "--alpha", "1,1", "--degree", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 6 and payload["dim"] == 83 == len(payload["basis"])


@pytest.mark.parametrize("argv,err", [
    (["scan-bounds", "--n", "12", "--d", "12"],
     "(n, d) = (12, 12) needs C(n+d, n+2) (n+2)^2 = 384406176 steps, "
     "above the scan limit of 300000000"),
    # z^600 = -1 would send the scan through all 600^2 pairs of odd roots
    (["prop11", "--d", "600", "--a", "z"],
     "d = 600 over Q(zeta_1200) needs d^2 phi^3 = 11796480000000 steps, "
     "above the prop11 limit of 20000000"),
    # refused at conductor 2d, before --a is evaluated over Q(zeta_6000)
    (["prop11", "--d", "3000", "--a", "z"],
     "d = 3000 over Q(zeta_6000) needs d^2 phi^3 = 36864000000000000 steps, "
     "above the prop11 limit of 20000000"),
    # 20,706 sorted vectors, but each of its 102 orbits of degree sigma tests 202^2 moves
    (["scan-bounds", "--n", "200", "--d", "4"],
     "(n, d) = (200, 4) needs C(n+d, n+2) (n+2)^2 = 844887624 steps, "
     "above the scan limit of 300000000"),
    # evaluating (1+z)^4000 over Q(zeta_3000) alone takes seconds, so each verb
    # counts its work over the literal's field first
    (["prop11", "--d", "1500", "--a", "(1+z)^4000"],
     "d = 1500 over Q(zeta_3000) needs d^2 phi^3 = 1152000000000000 steps, "
     "above the prop11 limit of 20000000"),
    (["plane", "--n", "2", "--d", "1500", "--a", "(1+z)^4000,z"],
     "(n, d) = (2, 1500) over Q(zeta_3000) needs 12000 term pairs (phi+128)^2 = "
     "10334208000 steps, above the socle-check limit of 1000000000"),
    (["dan-ci", "--n", "2", "--d", "1500", "--type", "1,1", "--a", "(1+z)^4000,z"],
     "(n, d) = (2, 1500) over Q(zeta_3000) needs 6000 term pairs (phi+128)^2 = "
     "5167104000 steps, above the socle-check limit of 1000000000"),
])
def test_runaway_scans_are_refused_at_once(argv, err, capsys, monkeypatch):
    from fermatcalc import ioformats

    def refuse(*args):
        raise AssertionError("the literal was parsed")

    monkeypatch.setattr(ioformats, "parse_cyclotomic_expr", refuse)
    t0 = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_prop11_still_counts_the_conductor_of_its_literal(capsys):
    # i at odd d passes the count at 2d = 58 and is refused at L = lcm(4, 58)
    code = main(["prop11", "--d", "29", "--a", "i"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: d = 29 over Q(zeta_116) needs d^2 phi^3 = "
                                       "147693056 steps, above the prop11 limit of 20000000\n")


@pytest.mark.parametrize("argv,work,err", [
    # the family's colon ideal is refused before its class and certificate are built
    (["special", "--n", "8", "--d", "4", "--a", "z,z,z,z,z"], "pairing_product",
     "(n, d) = (8, 4) has 1452 capped columns at degree 5, above the colon limit of 1000"),
    # 4913 rows, each a product of two 4096-term classes
    (["certify", "--n", "4", "--d", "17", "--alpha", "1,1,1"], "_certificate_row",
     "(n, d) = (4, 17) with 4096 class terms needs rows * |P| * (d-1)^(n/2+1) = "
     "82426462208 term pairs, above the certificate limit of 20000000"),
    (["plane", "--n", "2", "--d", "1000", "--a", "z,z"], "_socle_check",
     "(n, d) = (2, 1000) over Q(zeta_2000) needs 8000 term pairs (phi+128)^2 = "
     "6889472000 steps, above the socle-check limit of 1000000000"),
    (["dan-ci", "--n", "2", "--d", "700", "--type", "1,1", "--a", "z,z"], "_socle_check",
     "(n, d) = (2, 700) over Q(zeta_1400) needs 2800 term pairs (phi+128)^2 = "
     "1035059200 steps, above the socle-check limit of 1000000000"),
    # refused over Q(zeta_6000), which a literal naming z is parsed over, before parsing builds it
    (["plane", "--n", "2", "--d", "3000", "--a", "z,z"], "_socle_check",
     "(n, d) = (2, 3000) over Q(zeta_6000) needs 24000 term pairs (phi+128)^2 = "
     "71663616000 steps, above the socle-check limit of 1000000000"),
    (["dan-ci", "--n", "2", "--d", "3000", "--type", "1,2", "--a", "z,z,z"], "_socle_check",
     "(n, d) = (2, 3000) over Q(zeta_6000) needs 12000 term pairs (phi+128)^2 = "
     "35831808000 steps, above the socle-check limit of 1000000000"),
    # and over the conductor of a parsed --forms file, before the echelon
    (["plane", "--n", "2", "--d", "3000", "--forms", "forms6000.json"], "_socle_check",
     "(n, d) = (2, 3000) over Q(zeta_6000) needs 24000 term pairs (phi+128)^2 = "
     "71663616000 steps, above the socle-check limit of 1000000000"),
    # a parsed --decomp file's term counts: (2 x 85) + (2 x 85) products
    (["dan-ci", "--n", "2", "--d", "3000", "--decomp", "decomp6000.json"], "_socle_check",
     "(n, d) = (2, 3000) over Q(zeta_6000) needs 340 term pairs (phi+128)^2 = "
     "1015234560 steps, above the socle-check limit of 1000000000"),
    # rational binomial forms, which no field of a literal bounds
    (["plane", "--n", "2", "--d", "20000", "--forms", "rational.json"], "_socle_check",
     "(n, d) = (2, 20000) over Q(zeta_1) needs 160000 term pairs (phi+128)^2 = "
     "2662560000 steps, above the socle-check limit of 1000000000"),
    # a 4-product decomposition: the socle check's sigma + 2 degrees grow with d
    (["dan-ci", "--n", "2", "--d", "100000000", "--decomp", "ci.json"], "_socle_check",
     "(n, d) = (2, 100000000) over Q(zeta_1) needs 400000000 term pairs (phi+128)^2 = "
     "6656400000000 steps, above the socle-check limit of 1000000000"),
])
def test_runaway_classes_and_ideals_are_refused_before_the_work(argv, work, err, capsys,
                                                                 monkeypatch, tmp_path):
    from fermatcalc import exactnum, fermat_hodge

    def refuse(*args):
        raise AssertionError(f"{work} ran")

    build = exactnum._Field

    def refuse_field(m):
        if m > 1000:
            raise AssertionError(f"Q(zeta_{m}) was built")
        return build(m)

    monkeypatch.setattr(fermat_hodge, work, refuse)
    if not any(arg.endswith(".json") for arg in argv):
        # a literal is counted before it is evaluated over its field; a file is
        # parsed first, which builds Q(zeta_6000) in about 1 ms
        monkeypatch.setattr(exactnum, "_Field", refuse_field)
    monkeypatch.chdir(tmp_path)
    one, minus_zeta = [1] + [0] * 1599, [0, -1] + [0] * 1598  # in Q(zeta_6000)

    def binomial(j, m=6000, a=one, b=minus_zeta):
        exps = [[int(v == 2 * j) for v in range(4)], [int(v == 2 * j + 1) for v in range(4)]]
        return {"vars": 4, "m": m,
                "terms": [{"exp": exps[0], "coeff": a}, {"exp": exps[1], "coeff": b}]}

    cofactor = {"vars": 4, "m": 6000,
                "terms": [{"exp": [2999 - k, k, 0, 0], "coeff": one} for k in range(85)]}
    forms = [binomial(0), binomial(1)]
    Path("forms6000.json").write_text(json.dumps(forms), encoding="utf-8")
    decomp = {"f": forms, "g": [cofactor, cofactor]}
    Path("decomp6000.json").write_text(json.dumps(decomp), encoding="utf-8")
    rational = [binomial(j, 1, ["1"], ["-1"]) for j in (0, 1)]
    Path("rational.json").write_text(json.dumps(rational), encoding="utf-8")

    def monomials(*exps):
        return {"vars": 4, "m": 1, "terms": [{"exp": e, "coeff": ["1"]} for e in exps]}

    d = 100000000  # f = (x0, x1^d + x2^d + x3^d), g = (x0^(d-1), 1)
    ci = {"f": [monomials([1, 0, 0, 0]), monomials([0, d, 0, 0], [0, 0, d, 0], [0, 0, 0, d])],
          "g": [monomials([d - 1, 0, 0, 0]), monomials([0, 0, 0, 0])]}
    Path("ci.json").write_text(json.dumps(ci), encoding="utf-8")
    t0 = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("d,steps", [(509, 1028228832), (521, 1092590208), (541, 1205697248)])
def test_dan_ci_quadric_type_is_refused_before_it_divides(d, steps, capsys, monkeypatch):
    # the pre-count (n/2+1) 2d = 4d products passes over Q(zeta_2d); the real
    # sum |f_i| |g_i| = 2d + 3(d-1) does not, and is counted before any cofactor
    # g_i is built (every g_i starts from a geometric factor)
    from fermatcalc import cli

    def refuse(*args):
        raise AssertionError("a cofactor was built")

    monkeypatch.setattr(cli, "geometric_factor", refuse)
    t0 = time.perf_counter()
    code = main(["dan-ci", "--n", "2", "--d", str(d), "--type", "1,2", "--a", "z,z,z^3"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert capsys.readouterr() == ("", f"error: (n, d) = (2, {d}) over Q(zeta_{2 * d}) needs "
                                       f"{5 * d - 3} term pairs (phi+128)^2 = {steps} steps, "
                                       "above the socle-check limit of 1000000000\n")


@pytest.mark.parametrize("argv,err", [
    # Q(zeta_60000) would need 9.6e8 reduction steps
    (["groebner", "--n", "2", "--d", "30000", "--a", "z,z"],
     "conductor 60000 needs (max(2 phi - 2, m) + 1) phi = 960016000 reduction steps modulo "
     "Phi_m, above the field limit of 20000000"),
    # a short file naming a large conductor is refused on its coordinate count
    (["hilbert", "--n", "2", "--d", "5", "--poly", "m3001.json"],
     "expected 3000 coordinates for conductor 3001, got 1"),
    (["hilbert", "--n", "2", "--d", "5", "--poly", "m1000003.json"],
     "expected 1000002 coordinates for conductor 1000003, got 1"),
    # a conductor above the field limit is refused before euler_phi's trial division,
    # which takes 31 s at m = 10^16 + 61 and grows as sqrt(m)
    (["hilbert", "--n", "2", "--d", "5", "--poly", "m10000000000000061.json"],
     "conductor 10000000000000061 needs at least m + 1 = 10000000000000062 reduction "
     "steps modulo Phi_m, above the field limit of 20000000"),
    (["plane", "--n", "2", "--d", "5", "--forms", "list10000000000000061.json"],
     "conductor 10000000000000061 needs at least m + 1 = 10000000000000062 reduction "
     "steps modulo Phi_m, above the field limit of 20000000"),
    (["dan-ci", "--n", "2", "--d", "5", "--decomp", "decomp10000000000000061.json"],
     "conductor 10000000000000061 needs at least m + 1 = 10000000000000062 reduction "
     "steps modulo Phi_m, above the field limit of 20000000"),
    (["prop11", "--d", "50000000000053", "--a", "z"],
     "conductor 100000000000106 needs at least m + 1 = 100000000000107 reduction steps "
     "modulo Phi_m, above the field limit of 20000000"),
    (["groebner", "--n", "2", "--d", "50000000000053", "--a", "z,z"],
     "conductor 100000000000106 needs at least m + 1 = 100000000000107 reduction steps "
     "modulo Phi_m, above the field limit of 20000000"),
])
def test_runaway_fields_are_refused_at_once(argv, err, capsys, monkeypatch, tmp_path):
    from fermatcalc import exactnum

    build = exactnum._Field

    def refuse(m):
        if m > 1000:
            raise AssertionError(f"Q(zeta_{m}) was built")
        return build(m)

    monkeypatch.setattr(exactnum, "_Field", refuse)
    monkeypatch.chdir(tmp_path)
    for m in (3001, 1000003, 10000000000000061):
        poly = {"vars": 4, "m": m, "terms": [{"exp": [3, 3, 0, 0], "coeff": ["1"]}]}
        Path(f"m{m}.json").write_text(json.dumps(poly), encoding="utf-8")
    Path("list10000000000000061.json").write_text(json.dumps([poly, poly]), encoding="utf-8")
    decomp = {"f": [poly, poly], "g": [poly, poly]}
    Path("decomp10000000000000061.json").write_text(json.dumps(decomp), encoding="utf-8")
    t0 = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_groebner_over_q_zeta_6000_keeps_its_output_in_little_memory(capsys):
    # Q(zeta_6000) has phi = 1600: a dense table of its powers would hold
    # 9.6e6 entries (a 78 MB traced peak), where a product needs only the 7
    # nonzero coefficients of Phi_6000.  Tracing covers the build of
    # Phi_6000 = Phi_30(x^200) too.
    tracemalloc.start()
    try:
        code = main(["groebner", "--n", "2", "--d", "3000", "--a", "z,z"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (
        110040, "5f491860443e363c71eae29ac70c7387ee7bb00d12534f5f934487b3d4790163")
    assert peak < 8_000_000


@pytest.mark.parametrize("verb,flag", [
    ("hilbert", "--poly"), ("plane", "--forms"), ("dan-ci", "--decomp"), ("groebner", "--gens"),
])
def test_deeply_nested_json_exits_one(verb, flag, capsys, tmp_path):
    # the decoder's RecursionError is a RuntimeError, which would exit 3 as a failed check
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    t0 = time.perf_counter()
    code = main([verb, "--n", "2", "--d", "5", flag, str(path)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {path}: JSON nested too deeply\n")


def test_bad_variable_order_is_refused(capsys):
    code = main(["hilbert", "--n", "2", "--d", "5", "--alpha", "1,1", "--order", "a,b"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: bad variable order 'a,b'\n")


def test_groebner_refuses_generators_in_different_variables(capsys, tmp_path):
    # the default order is built for the first generator's variables
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(FUZZ_FILES["mixed_vars"]), encoding="utf-8")
    code = main(["groebner", "--n", "2", "--d", "3", "--gens", str(path)])
    assert code == 1
    assert capsys.readouterr() == (
        "", "error: generators must be one or more polynomials in the same variables\n"
    )


def test_negative_degree_is_refused(capsys):
    code = main(["hilbert", "--n", "2", "--d", "5", "--alpha", "1,1", "--degree", "-1"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: negative degree\n")


MALFORMED = [
    ["hilbert", "--n", "2", "--d", "5", "--alpha", "2,2"],  # even exponents
    ["hilbert", "--n", "2", "--d", "5", "--alpha", "1,1", "--order", "0,1"],
    ["tangent", "--n", "2", "--d", "5", "--a", "q"],  # bad literal
    ["tangent", "--n", "2", "--d", "5"],  # no class given
    ["linear-cycle", "--n", "2", "--d", "5", "--alpha", "1"],  # wrong length
    ["pair", "--n", "2", "--d", "5", "--alpha", "1,1"],  # missing second class
    ["certify", "--n", "2", "--d", "5", "--alpha", "1,11"],  # out of range
    ["recover", "--n", "2", "--d", "5", "--poly", "/nonexistent.json"],
    ["prop11", "--d", "2", "--a", "1"],  # degree too small
    ["plane", "--n", "2", "--d", "5", "--a", "z"],  # wrong form count
    ["plane", "--n", "2", "--d", "5", "--a", "z,z,z"],  # more forms than coordinate pairs
    ["plane", "--n", "2", "--d", "5"],  # no plane given
    ["groebner", "--n", "2", "--d", "5"],  # no generators given
    ["dan-ci", "--n", "2", "--d", "5", "--type", "3,1", "--a", "z,z"],
    ["dan-ci", "--n", "2", "--d", "5", "--type", "1,1", "--a", "2,z"],  # non-root
    ["special", "--n", "3", "--d", "4", "--a", "z"],  # odd dimension
    ["scan-bounds", "--n", "3", "--d", "5"],
    ["groebner", "--n", "2", "--d", "5", "--a", "z,z", "--cap", "0"],
    ["groebner", "--n", "2", "--d", "5", "--a", "z,z,z"],  # more binomials than pairs
]


@pytest.mark.parametrize("argv", MALFORMED, ids=lambda a: " ".join(a[:1] + a[5:7]))
def test_malformed_inputs_fail_cleanly(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_plane_accepts_a_forms_file(capsys, tmp_path):
    from fermatcalc.exactnum import zeta
    from fermatcalc.ioformats import polynomial_to_json
    from fermatcalc.multipoly import Polynomial

    z = zeta(10)
    x = [Polynomial.variable(4, i) for i in range(4)]
    forms = [x[0] - x[1].scale(z), x[2] - x[3].scale(z**3)]
    path = tmp_path / "forms.json"
    path.write_text(json.dumps([polynomial_to_json(f) for f in forms]), encoding="utf-8")
    code, out = run(capsys, "plane", "--n", "2", "--d", "5", "--forms", str(path))
    assert code == 0 and json.loads(out)["contained"] is True


def test_dan_ci_accepts_a_decomposition_file(capsys, tmp_path):
    from fermatcalc.exactnum import zeta
    from fermatcalc.idealcalc import FermatContext
    from fermatcalc.ioformats import polynomial_to_json
    from fermatcalc.multipoly import Polynomial, divide, lex_order

    ctx = FermatContext(2, 5)
    z = zeta(10)
    x = [Polynomial.variable(4, i) for i in range(4)]
    f = [x[0] - x[1].scale(z), x[2] - x[3].scale(z**3)]
    g = []
    for j, fi in enumerate(f):
        pair_sum = Polynomial(
            4,
            [
                (tuple(5 if t == 2 * j else 0 for t in range(4)), 1),
                (tuple(5 if t == 2 * j + 1 else 0 for t in range(4)), 1),
            ],
        )
        q, r = divide(pair_sum, [fi], lex_order(4))
        assert r.is_zero()
        g.append(q[0])
    path = tmp_path / "decomp.json"
    path.write_text(
        json.dumps(
            {
                "f": [polynomial_to_json(v) for v in f],
                "g": [polynomial_to_json(v) for v in g],
            }
        ),
        encoding="utf-8",
    )
    code, out = run(capsys, "dan-ci", "--n", "2", "--d", "5", "--decomp", str(path))
    assert code == 0
    assert json.loads(out)["dims"] == [1, 2, 3, 4, 3, 2, 1, 0]


def _division_decomposition(ctx, coeffs, quadric):
    """The f_i of `--type 1,...,1[,2]` and, for each, the quotient of its Fermat
    pair sum x_2j^d + x_2j+1^d by multivariate division, or None when the
    remainder is not 0: the reference for the closed-form cofactors."""
    from fermatcalc.multipoly import Polynomial, divide, lex_order

    half = ctx.n // 2 + 1
    x = [Polynomial.variable(ctx.nvars, i) for i in range(ctx.nvars)]
    f = [x[2 * j] - x[2 * j + 1].scale(a) for j, a in zip([*range(half), half - 1], coeffs)]
    if quadric:
        f[-2:] = [f[-2] * f[-1]]
    g = []
    for j, fi in enumerate(f):
        quotients, remainder = divide(x[2 * j] ** ctx.d + x[2 * j + 1] ** ctx.d, [fi],
                                      lex_order(ctx.nvars))
        g.append(quotients[0] if remainder.is_zero() else None)
    return f, g


def _root_literals(d):
    """Literals of d-th roots of -1 over Q(zeta_2d): the odd powers of z, -1
    at odd d, and +-i when i^d = -1."""
    roots = [f"z^{k}" for k in range(1, 2 * d, 2)]
    return roots + (["-1"] if d % 2 else []) + (["i", "-i"] if d % 4 == 2 else [])


@pytest.mark.parametrize("n,d", [(2, 5), (2, 6), (2, 7), (4, 4), (4, 5), (6, 4)])
def test_closed_form_cofactors_are_the_division_quotients(n, d):
    from fermatcalc import cli
    from fermatcalc.idealcalc import FermatContext
    from fermatcalc.ioformats import parse_cyclotomic_expr

    ctx = FermatContext(n, d)
    half, roots, rng = n // 2 + 1, _root_literals(d), random.Random(f"dan-ci {n} {d}")
    draws = [[rng.choice(roots) for _ in range(half + 1)] for _ in range(6)]
    draws += [[root] * (half + 1) for root in roots]  # a repeated quadric root is refused
    if d == 6:  # a = z, b = z^5: h_2 = z^2 + z^6 + z^10 = 0
        draws.append(["z"] * (half - 1) + ["z", "z^5"])
    for quadric in (False, True):
        for literals in draws:
            literals = literals[:half + quadric]
            args = argparse.Namespace(type=",".join(["1"] * (half - 1) + [str(1 + quadric)]),
                                      a=",".join(literals))
            coeffs = [parse_cyclotomic_expr(v, ctx.m) for v in literals]
            f, g = _division_decomposition(ctx, coeffs, quadric)
            if None in g:  # only a repeated quadric root fails among d-th roots of -1
                assert quadric and g.index(None) == half - 1 and coeffs[-1] == coeffs[-2]
                with pytest.raises(ValueError, match=f"^factor {half - 1} does not divide"):
                    cli._standard_decomposition(args, ctx)
                continue
            got_f, got_g = cli._standard_decomposition(args, ctx)
            assert got_f == f and got_g == g, literals  # == also matches the term counts
    if d == 6:  # the zero h_2 leaves no term, as in the division quotient
        g = cli._standard_decomposition(argparse.Namespace(type="1,2", a="z,z,z^5"), ctx)[1]
        assert len(g[-1].terms) == d - 2


@pytest.mark.parametrize("n,d,typ,literals", [
    (2, 5, "1,1", "2,z"), (2, 5, "1,1", "z,1"), (2, 5, "1,1", "z^2,z^4"), (2, 5, "1,1", "0,z"),
    (2, 5, "1,2", "z,z,z"), (2, 5, "1,2", "z,z^3,z^3"), (2, 5, "1,2", "z,z^2,z^3"),
    (2, 5, "1,2", "z^2,z,z"), (2, 5, "1,2", "z,z^3,2"), (2, 6, "1,2", "i,i,i"),
    (2, 6, "1,2", "1,z,z^5"), (4, 4, "1,1,2", "z,z^2,z,z^3"), (4, 4, "1,1,2", "z,z^3,z^5,z^5"),
    (4, 5, "1,1,1", "z,z,z^2"), (6, 4, "1,1,1,2", "z,z,z,z^7,z^7"),
])
def test_non_roots_and_a_repeated_quadric_root_are_refused(n, d, typ, literals, capsys):
    from fermatcalc.idealcalc import FermatContext
    from fermatcalc.ioformats import parse_cyclotomic_expr

    ctx = FermatContext(n, d)
    coeffs = [parse_cyclotomic_expr(v, ctx.m) for v in literals.split(",")]
    _, g = _division_decomposition(ctx, coeffs, typ.endswith("2"))
    assert None in g
    assert main(["dan-ci", "--n", str(n), "--d", str(d), "--type", typ, "--a", literals]) == 1
    assert capsys.readouterr() == ("", f"error: factor {g.index(None)} does not divide its "
                                       "Fermat pair sum; its roots must be d-th roots of -1\n")


def test_groebner_accepts_a_generators_file(capsys, tmp_path):
    from fermatcalc.ioformats import polynomial_to_json
    from fermatcalc.multipoly import Polynomial

    gens = [
        Polynomial(2, [((2, 0), 1), ((0, 2), -1)]),
        Polynomial.monomial(2, (1, 1)),
    ]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([polynomial_to_json(g) for g in gens]), encoding="utf-8")
    code, out = run(
        capsys,
        "groebner", "--n", "2", "--d", "5", "--gens", str(path),
        "--order", "0,1", "--cap", "6",
    )
    assert code == 0
    assert json.loads(out)["added"] == 1


def test_output_is_deterministic(capsys):
    runs = {run(capsys, "certify", "--n", "2", "--d", "4", "--alpha", "1,1")[1] for _ in range(3)}
    assert len(runs) == 1
    table = run(capsys, "scan-bounds", "--n", "2", "--d", "5", "--output", "table")[1]
    assert table == run(capsys, "scan-bounds", "--n", "2", "--d", "5", "--output", "table")[1]


README = Path(__file__).resolve().parent.parent / "README.md"
README_EXAMPLES = [
    line.strip()
    for line in README.read_text(encoding="utf-8").splitlines()
    if line.startswith("fermatcalc ")
]


def test_readme_lists_every_verb():
    verbs = {shlex.split(line)[1] for line in README_EXAMPLES}
    assert verbs == {
        "tangent", "hilbert", "pair", "certify", "special", "prop11", "plane",
        "dan-ci", "scan-bounds", "groebner", "recover", "linear-cycle",
    }


@pytest.mark.parametrize("line", README_EXAMPLES)
def test_readme_examples_run(line, capsys):
    code, out = run(capsys, *shlex.split(line)[1:])
    assert code == 0
    if line == "fermatcalc hilbert --n 4 --d 5 --alpha 1,3,7":
        profile = (1, 3, 6, 10, 12, 12, 10, 6, 3, 1)
        assert f"Hilbert profile {profile}" in README.read_text(encoding="utf-8")
        assert tuple(json.loads(out)["dims"]) == profile


README_LIBRARY = (
    README.read_text(encoding="utf-8")
    .split("## Library use", 1)[1]
    .split("```python\n", 1)[1]
    .split("```", 1)[0]
    .splitlines()
)


def test_readme_library_block_runs():
    # the comment on an expression line is its value's repr, or the error it raises
    import ast
    import re

    namespace = {}
    checked = []
    for line in README_LIBRARY:
        code, _, comment = line.partition("  # ")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        if comment.startswith("ValueError: "):
            with pytest.raises(ValueError, match=re.escape(comment.removeprefix("ValueError: "))):
                eval(code, namespace)
        elif isinstance(ast.parse(code).body[0], ast.Expr):
            assert repr(eval(code, namespace)) == comment, line
        else:
            exec(code, namespace)
            continue
        checked.append(code)
    assert checked == ["ci.hilbert_profile().dims", "[str(f) for f in ci.slice(1).basis]",
                       "ci.rank(7)", "ci.quotient_monomials(10**5)", "ci.slice(7)",
                       "pair_classes(p, q, ctx).c_rational"]


# ---------------------------------------------------------------------------
# argv fuzz: every verb, small (n, d), a fixed vocabulary of flags and values
# ---------------------------------------------------------------------------

# n = 4 only with d = 3: `certify --all-pairings` at (4, 4) alone takes 6-8 s
FUZZ_VALID = [("2", "3"), ("2", "4"), ("2", "5"), ("2", "6"), ("4", "3")]
FUZZ_INVALID = [("2", "-1"), ("2", "0"), ("2", "2"), ("2", "x"), ("4", "2"), ("3", "5"),
                ("0", "4"), ("-2", "5"), ("1.5", "5")]
FUZZ_VALUES = {
    # a repeated --n or --d overrides the pair drawn first, so neither may reach n = 4, d >= 4
    "--n": ["-2", "0", "1.5", "2", "3", "x"],
    "--d": ["-1", "0", "2", "3", "x"],
    "--alpha": ["1", "1,1", "1,3", "1,1,1", "2,2", "1,11", "-1,1", "0,1", "", ",", "a"],
    "--a": ["z", "z,2", "0,1", "z,z,z", "z,z^3,z^5", "1/0", "q", "", "(", "z^-1", "i,1", "2**3"],
    "--c-lambda": ["0", "z", "1/2", "q", "z^10"],
    "--order": ["0,1,2,3", "3,2,1,0", "0,1", "0,0,1,1", "0,1,2,9", "-1,0,1,2", "a", ""],
    "--degree": ["-1", "0", "1", "2", "99"],
    "--cap": ["-1", "0", "1", "4", "x"],
    "--type": ["1,1", "1,2", "2,1", "3", "1,1,1", "1,1,2", "", "x"],
    "--output": ["json", "csv", "table", "xml"],
    "--jobs": ["1", "2", "0"],
}
FUZZ_FILES = {
    "class": {"vars": 4, "m": 10, "terms": [{"exp": [1, 2, 0, 3], "coeff": ["1", "0", "0", "0"]}]},
    "short_exp": {"vars": 4, "m": 10, "terms": [{"exp": [1], "coeff": ["1"]}]},
    "zero_m": {"vars": 4, "m": 0, "terms": [{"exp": [3, 3, 0, 0], "coeff": ["1"]}]},
    "negative_exp": {"vars": 4, "m": 10, "terms": [{"exp": [-1, 3, 2, 2], "coeff": ["1"]}]},
    "forms": [{"vars": 4, "m": 10, "terms": [{"exp": [1, 0, 0, 0], "coeff": ["1"]}]}],
    "zero_form": [{"vars": 4, "m": 1, "terms": []}],
    "mixed_vars": [{"vars": 4, "m": 1, "terms": [{"exp": [1, 0, 0, 0], "coeff": ["1"]}]},
                   {"vars": 2, "m": 1, "terms": [{"exp": [1, 0], "coeff": ["1"]}]}],
    "decomp": {"f": [], "g": []},
    "empty_list": [],
    "empty_object": {},
    "number": 3,
}
FILE_FLAGS = ("--poly", "--forms", "--decomp", "--gens")
VERB_FLAGS = {
    name: [o for action in sub._actions for o in action.option_strings if o.startswith("--")]
    for name, sub in build_parser()._subparsers._group_actions[0].choices.items()
}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = [str(root / "missing.json"), str(root)]
    (root / "not_json.json").write_text("not json", encoding="utf-8")
    paths.append(str(root / "not_json.json"))
    for name, value in FUZZ_FILES.items():
        (root / f"{name}.json").write_text(json.dumps(value), encoding="utf-8")
        paths.append(str(root / f"{name}.json"))
    return paths


def fuzz_value(flag, data, paths):
    base = flag.removesuffix("2")  # the second class draws the first class's values
    if base in FILE_FLAGS:
        return data.draw(st.sampled_from(paths))
    return data.draw(st.sampled_from(FUZZ_VALUES[base]))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_argv_fuzz_exits_with_a_documented_code_and_no_traceback(fuzz_paths, data):
    import contextlib
    import io

    verb = data.draw(st.sampled_from(sorted(VERB_FLAGS)), label="verb")
    n, d = data.draw(st.sampled_from(FUZZ_VALID) | st.sampled_from(FUZZ_INVALID), label="n, d")
    argv = [verb]
    if data.draw(st.integers(0, 9), label="omit --n/--d") > 0:
        argv += ["--n", n, "--d", d] if "--n" in VERB_FLAGS[verb] else ["--d", d]
    other = [f for f in VERB_FLAGS[verb] if f not in ("--n", "--d", "--help")]
    foreign = sorted({f for flags in VERB_FLAGS.values() for f in flags} - {"--help"})
    for flag in data.draw(st.lists(st.sampled_from(other), max_size=4, unique=True), label="flags"):
        argv += [flag] if flag == "--all-pairings" else [flag, fuzz_value(flag, data, fuzz_paths)]
    if data.draw(st.integers(0, 9), label="foreign flag") == 0:
        flag = data.draw(st.sampled_from(foreign))
        argv += [flag] if flag == "--all-pairings" else [flag, fuzz_value(flag, data, fuzz_paths)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 3 or (code == 1 and verb != "scan-bounds"):  # scan-bounds exits 1 on a failed assertion
        assert err.getvalue().startswith("error: ") and out.getvalue() == "", argv
