import json
import os

import pytest

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


def test_pair_verb(capsys):
    code, out = run(
        capsys, "pair", "--n", "2", "--d", "5", "--alpha", "1,1", "--alpha2", "1,3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["c_rational"] is not None
    assert payload["non_socle_terms"] == 0


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


def test_recover_verb(capsys):
    code, out = run(capsys, "recover", "--n", "2", "--d", "5", "--a", "2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["pairing"] == [0, 1, 2, 3]
    assert payload["a"][0]["coords"] == ["2"]


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


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["tangent", "--n", "2"])  # missing --d
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-verb"])
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as err:
            main(["tangent", "--n", "2", "--d", "5", "--alpha", "1,1", "--jobs", jobs])
        assert err.value.code == 2


def test_jobs_is_capped_at_the_cpu_count():
    # parsed only: a large value must never reach a process pool
    args = build_parser().parse_args(["scan-bounds", "--n", "2", "--d", "5", "--jobs", "1000000"])
    assert args.jobs == (os.cpu_count() or 1)


def test_computation_errors_exit_one(capsys):
    code = main(["tangent", "--n", "2", "--d", "5", "--alpha", "2,1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = main(["special", "--n", "2", "--d", "4", "--a", "2,z"])
    assert code == 1


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
    ["plane", "--n", "2", "--d", "5"],  # no plane given
    ["groebner", "--n", "2", "--d", "5"],  # no generators given
    ["dan-ci", "--n", "2", "--d", "5", "--type", "3,1", "--a", "z,z"],
    ["dan-ci", "--n", "2", "--d", "5", "--type", "1,1", "--a", "2,z"],  # non-root
    ["special", "--n", "3", "--d", "4", "--a", "z"],  # odd dimension
    ["scan-bounds", "--n", "3", "--d", "5"],
    ["groebner", "--n", "2", "--d", "5", "--a", "z,z", "--cap", "0"],
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
