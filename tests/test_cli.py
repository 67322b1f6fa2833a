import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genus2covers.cli import _group_law_pairs, emit, main
from genus2covers.curve import CurveData, cassels_image, random_point
from genus2covers.errors import ExhaustedAttempts, Genus2Error
from genus2covers.etale import EtaleAlgebra, all_two_torsion, weil_pairing
from genus2covers.fields import Field
from genus2covers.torsion import TorsionActionCtx

CURVE = "[5,1,2,1,1,3,1]"
CURVE11 = "[4,8,1,5,3,0,1]"
DELTA1 = '["1","0","0","0","0","0"]'
CURVE_Q = '["1","0","0","0","0","1","1"]'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_curve_info(capsys):
    code, data = run(capsys, "curve-info", "--field", "F101", "--curve", CURVE)
    assert code == 0
    assert data["splitting_degree"] == 4
    assert len(data["roots"]) == 6


def test_curve_info_degree4_at_large_p(capsys):
    # p = 40000003 = 3 (mod 4): the degree-4 modulus search skips the binomials
    code, data = run(capsys, "curve-info", "--field", "F40000003", "--curve", CURVE)
    assert code == 0
    assert data["splitting_degree"] == 4
    assert len(set(data["roots"])) == 6


def test_curve_info_splitting_degrees(capsys):
    # x^6 - 1 over F7 splits completely
    code, data = run(capsys, "curve-info", "--field", "F7",
                     "--curve", "[-1,0,0,0,0,0,1]")
    assert code == 0
    assert data["splitting_degree"] == 1
    assert sorted(data["roots"]) == ["1", "2", "3", "4", "5", "6"]


def test_curve_info_rejects_nonseparable(capsys):
    # (x-1)^2(x^4+3) has a double root
    code, data = run(capsys, "curve-info", "--field", "F11",
                     "--curve", "[3,5,3,0,1,9,1]")
    assert code == 2
    assert "gcd" in data["error"]


def test_curve_info_rejects_eight_coefficients(capsys):
    code, data = run(capsys, "curve-info", "--field", "F11",
                     "--curve", "[5,1,2,1,1,3,1,1]")
    assert code == 2
    assert data["kind"] == "bad-curve"
    assert "7 coefficients" in data["error"]


@pytest.mark.parametrize("argv, kind, code", [
    (["curve-info", "--field", "Fabc", "--curve", CURVE11], "bad-field", 1),
    (["curve-info", "--field", "F100", "--curve", CURVE11], "bad-field", 1),
    (["curve-info", "--field", "F2", "--curve", CURVE11], "bad-field", 1),
    (["curve-info", "--field", "F7^2", "--curve", "[3,1,0,0,0,0,1]"], "bad-field", 1),
    (["curve-info", "--field", "F11", "--curve", "[5,1,2"], "bad-curve", 2),
    (["curve-info", "--field", "F11", "--curve", "no/such/curve.json"], "bad-curve", 2),
    (["curve-info", "--field", "F11", "--curve", '[4,8,1,5,3,0,"x"]'], "bad-curve", 2),
    (["twist", "--field", "F11", "--curve", CURVE11, "--delta", "[1,2", "--n", "1"],
     "bad-delta", 1),
    (["twist", "--field", "F11", "--curve", CURVE11, "--delta", "[1,2,3]", "--n", "1"],
     "bad-delta", 1),
    (["twist", "--field", "F11", "--curve", CURVE11, "--delta", DELTA1, "--n", "abc"],
     "bad-delta", 1),
    (["twist", "--field", "F11", "--curve", CURVE11, "--delta", '["0","0","0","0","0","0"]',
      "--n", "0"], "bad-delta", 1),
    (["model", "--field", "Q", "--curve", CURVE_Q, "--which", "jacobian"], "bad-field", 1),
    (["twist", "--field", "Q", "--curve", CURVE_Q, "--delta", DELTA1, "--n", "1",
      "--descend"], "bad-field", 1),
    (["verify", "--field", "Q", "--curve", CURVE_Q, "--suite", "all"], "bad-field", 1),
    (["model", "--field", "F101", "--curve", CURVE, "--which", "vdelta",
      "--delta", '["0","0","0","0","0","0"]'], "bad-delta", 1),
    (["search", "--field", "F11", "--curve", CURVE11, "--model-ref",
      '{"delta": ["1","0","0","0","0","0"], "n": "1", "quadrics_ground": []}'],
     "bad-model-ref", 1),
    (["search", "--field", "F11", "--curve", CURVE11, "--model-ref",
      '{"delta": ["0","0","0","0","0","0"], "matrices": []}'], "bad-model-ref", 1),
    # (p^6 - 1)/(p - 1) points of P^5(F_p) pass the scan budget above p = 31,
    # refused before the bundle is read; at p = 31 the missing bundle is the error
    (["search", "--field", "F1009", "--curve", CURVE11, "--model-ref", "missing.json"],
     "bad-field", 1),
    (["search", "--field", "F37", "--curve", CURVE11, "--model-ref", "missing.json"],
     "bad-field", 1),
    (["search", "--field", "F31", "--curve", CURVE11, "--model-ref", "missing.json"],
     "bad-model-ref", 1),
    # over Q the (2B + 1)^6 tuples pass the walk's budget above B = 5, refused
    # before the bundle is read; at B = 5 the missing bundle is the error
    (["search", "--field", "Q", "--model-ref", "missing.json", "--bound", "6"],
     "bad-bound", 1),
    (["search", "--field", "Q", "--model-ref", "missing.json", "--bound", "5"],
     "bad-model-ref", 1),
    (["search", "--field", "Q", "--model-ref", '{"matrices": []}', "--bound", "-1"],
     "bad-bound", 1),
    # --bound is a height bound over Q; over F_p, at any value, it is refused
    # before the bundle is read
    (["search", "--field", "F7", "--curve", CURVE11, "--model-ref", "missing.json",
      "--bound", "1"], "bad-bound", 1),
    (["search", "--field", "F7", "--curve", CURVE11, "--model-ref", "missing.json",
      "--bound", "0"], "bad-bound", 1),
    (["search", "--field", "F7", "--curve", CURVE11, "--model-ref", "missing.json",
      "--bound", "-5"], "bad-bound", 1),
    # syntax the parser refuses, and a --curve that search over F_p needs and
    # search over Q, which reads only the bundle's matrices, does not take
    (["search", "--field", "F7", "--model-ref", "missing.json"], "bad-usage", 1),
    (["search", "--field", "Q", "--curve", CURVE_Q, "--model-ref", "missing.json"],
     "bad-usage", 1),
    (["model", "--field", "F101", "--curve", CURVE, "--which", "nope"], "bad-usage", 1),
    (["search", "--field", "Q", "--model-ref", "missing.json", "--bound", "abc"],
     "bad-usage", 1),
    (["curve-info", "--field", "F101"], "bad-usage", 1),
    (["no-such-command"], "bad-usage", 1),
    # an --out that cannot be opened is refused before the command runs, on stdout
    (["curve-info", "--field", "F11", "--curve", CURVE11, "--out", "no/such/dir/out.json"],
     "bad-usage", 1),
    (["curve-info", "--field", "F11", "--curve", CURVE11, "--out", "."], "bad-usage", 1),
], ids=["field-not-a-number", "field-not-prime", "field-char-2", "field-extension",
        "curve-malformed-json", "curve-missing-file", "curve-bad-coefficient",
        "delta-malformed-json", "delta-three-entries", "n-not-a-number",
        "delta-norm-zero", "model-over-Q", "twist-over-Q", "verify-over-Q",
        "vdelta-norm-zero", "twist-bundle-without-forms", "vdelta-bundle-norm-zero",
        "search-above-budget-1009", "search-above-budget-37", "search-at-budget-31",
        "search-Q-above-bound-5", "search-Q-at-bound-5", "search-Q-negative-bound",
        "search-F7-bound-1", "search-F7-bound-0", "search-F7-negative-bound",
        "search-F7-without-curve", "search-Q-with-curve", "model-unknown-kind",
        "search-bound-not-a-number", "curve-info-without-curve", "unknown-command",
        "out-missing-directory", "out-is-a-directory"])
def test_input_errors(capsys, argv, kind, code):
    got, data = run(capsys, *argv)
    assert got == code
    assert data["kind"] == kind


def test_twist_bundle_with_norm_zero_delta(capsys, tmp_path):
    """A real 72-form twist bundle whose delta and n are set to zero is a bad
    bundle, not an internal error."""
    bundle = tmp_path / "twist.json"
    assert main(["twist", "--field", "F11", "--curve", CURVE11, "--delta", DELTA1,
                 "--n", "1", "--descend", "--out", str(bundle)]) == 0
    data = json.loads(bundle.read_text())
    assert len(data["quadrics_ground"]) == 72
    data["delta"], data["n"] = ["0"] * 6, "0"
    bundle.write_text(json.dumps(data))
    code, out = run(capsys, "search", "--field", "F11", "--curve", CURVE11,
                    "--model-ref", str(bundle))
    assert (code, out["kind"], out["error"]) == (1, "bad-model-ref", "N(delta) = 0")


def test_curve_info_irreducible_sextic(capsys):
    code, data = run(capsys, "curve-info", "--field", "F5",
                     "--curve", "[2,1,0,0,0,0,1]")
    if code == 0:
        assert data["splitting_degree"] == 6
    else:
        pytest.skip("candidate was not irreducible/separable")


def test_model_jacobian(capsys):
    code, data = run(capsys, "model", "--field", "F101", "--curve", CURVE,
                     "--which", "jacobian")
    assert code == 0
    assert len(data["quadrics"]) == 72
    assert data["verification"]["rank"] == 72
    assert data["verification"]["kernel_dimension"] == 72
    assert data["verification"]["even_only_dimension"] == 21
    assert data["verification"]["vanishes"] is True


def test_model_jacobian_samples_once(capsys, rref_calls, sampled_classes):
    """The model reads its fourteen b_i b_j forms and both kernel dimensions
    from one reduction at 150 classes, checks the forms at 50 more and
    vanishing at 200; building no roots leaves the three greedy picks and
    the rank of the 72 generators, one reduction per [-1]-parity block, as
    the other reductions.  Only the sampled values span all 136 columns."""
    assert main(["model", "--field", "F101", "--curve", CURVE, "--which", "jacobian"]) == 0
    assert json.loads(capsys.readouterr().out)["verification"]["kernel_dimension"] == 72
    assert len(sampled_classes) == 400
    assert len(rref_calls) == 6
    assert [s for s in rref_calls if s[1] == 136] == [(300, 136)]
    assert rref_calls[-2:] == [(42, 76), (30, 60)]


def test_model_desing_p5(capsys):
    code, data = run(capsys, "model", "--field", "F101", "--curve", CURVE,
                     "--which", "desing-p5")
    assert code == 0
    assert len(data["matrices"]) == 3
    assert data["verification"]["forms_vanish"] is True


def test_model_vdelta_trivial(capsys):
    code, data = run(capsys, "model", "--field", "F101", "--curve", CURVE,
                     "--which", "vdelta", "--delta", '["1","0","0","0","0","0"]')
    assert code == 0
    assert len(data["matrices"]) == 3
    # delta = 1 gives T, RT, R^2T: top-left of the first matrix is f1
    assert data["matrices"][0][0][0] == "1"  # f1 of the reference curve


def test_twist_command_and_exit_codes(capsys, tmp_path):
    code, data = run(capsys, "twist", "--field", "F101", "--curve", CURVE,
                     "--delta", '["3","0","0","0","0","0"]', "--n", "27",
                     "--check", "--descend")
    assert code == 0
    assert len(data["quadrics_splitting"]) == 72
    assert len(data["quadrics_ground"]) == 72
    assert data["check"]["vanish_at_pullbacks"] is True
    assert data["check"]["cocycle_matches_action"] is True
    # norm violation -> exit 3 with both values printed
    code, data = run(capsys, "twist", "--field", "F101", "--curve", CURVE,
                     "--delta", '["3","0","0","0","0","0"]', "--n", "5")
    assert code == 3
    assert "N(delta)" in data["error"]
    # t_I = 0 -> exit 4 (the kernel pair (1, -1))
    code, data = run(capsys, "twist", "--field", "F101", "--curve", CURVE,
                     "--delta", '["1","0","0","0","0","0"]', "--n", "-1")
    assert code == 4
    assert data["partitions"]


def test_char3_twist_completes_the_identity_piece(capsys):
    """Over F_3 the sixteen identity-piece candidates of this curve span 11
    dimensions; the even diagonal slice completes them to 12, and the
    trivial twist descends with every check true."""
    code, data = run(capsys, "twist", "--field", "F3", "--curve", "[2,2,0,2,0,1,1]",
                     "--delta", DELTA1, "--n", "1", "--descend", "--check")
    assert code == 0, data
    assert len(data["quadrics_ground"]) == 72
    assert data["check"]["rank"] == 72 and all(data["check"].values())


@pytest.mark.parametrize("field, curve", [("F7", "[4,0,0,0,0,0,3]"),
                                          ("F3", "[1,1,2,0,2,2,1]")])
def test_twist_checks_sample_past_a_working_field_without_generic_classes(
        capsys, field, curve):
    """3x^6 + 4 splits over F_7 with f(x) = 0 at every x but 0, and the F_3
    curve's splitting field F_9 has no two x with f(x) a nonzero square: no
    class over the working field is generic, so the checks sample over its
    quadratic extension."""
    code, data = run(capsys, "twist", "--field", field, "--curve", curve, "--delta", DELTA1,
                     "--n", "1", "--descend", "--check")
    assert code == 0 and all(data["check"].values()), data
    code, data = run(capsys, "verify", "--field", field, "--curve", curve, "--suite", "twist")
    assert code == 0 and data["ok"], data


@pytest.mark.parametrize("p", [3, 5, 7])
@settings(max_examples=8, deadline=None)
@given(data=st.data(), cassels=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_small_characteristic_twists_end_in_a_documented_outcome(p, data, cassels, seed):
    """`twist --descend --check` at p = 3, 5 and 7, on the trivial datum or
    a Cassels datum: every check true, or a vanishing t_I (exit 4), never
    an internal error."""
    F = Field.prime(p)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=6, max_size=6))
    coeffs.append(data.draw(st.integers(1, p - 1)))
    try:
        curve = CurveData(F, coeffs)
        delta, n = ([1, 0, 0, 0, 0, 0], 1) if not cassels else cassels_image(
            random_point(curve, F, random.Random(seed)))
    except (ExhaustedAttempts, Genus2Error):   # f not separable, or too few points
        assume(False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["twist", "--field", f"F{p}", "--curve", json.dumps(coeffs),
                     "--delta", json.dumps([F.fmt(c) for c in delta]), "--n", F.fmt(n),
                     "--descend", "--check"])
    data = json.loads(out.getvalue())
    if code == 4:
        assert data["kind"] == "t-vanishes" and data["partitions"]
    else:
        assert code == 0, data
        assert all(data["check"].values())


def test_verify_suites(capsys):
    for suite in ("quadrics", "diagonal"):
        code, data = run(capsys, "verify", "--field", "F101", "--curve", CURVE,
                         "--suite", suite)
        assert code == 0
        assert data["ok"] is True


def test_verify_diagonal_ranks_generators_in_one_reduction(capsys, rref_calls):
    """The independence of the 72 untwisted generators and their span of
    the lifted Jacobian forms come from two ranks, each one reduction per
    [-1]-parity block; the etale algebra inverts only the Vandermonde matrix
    S, and the torsion context inverts the c-basis change G once.  Only the
    Jacobian's sampled values span all 136 columns."""
    assert main(["verify", "--field", "F101", "--curve", CURVE, "--suite", "diagonal"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert len(rref_calls) == 13
    assert [s for s in rref_calls if s[1] == 136] == [(300, 136)]
    assert rref_calls[-4:] == [(42, 76, 4), (30, 60, 4), (84, 76, 4), (60, 60, 4)]


def pairwise_group_law(ctx, pts):
    """The reference for ``cli._group_law_pairs``: one Mat product and one
    negation per pair."""
    ok = 0
    for P in pts:
        for Q in pts:
            rhs = ctx.t10_matrix(P + Q)
            if weil_pairing(P, Q) == -1:
                rhs = -rhs
            ok += (ctx.t10_matrix(P) * ctx.t10_matrix(Q)).rows == rhs.rows
    return ok


@pytest.mark.parametrize("field, coeffs", [(101, [5, 1, 2, 1, 1, 3, 1]),
                                           (31, [7, 3, 12, 9, 20, 10, 1])],
                         ids=["splitting-degree-4", "split-over-F31"])
def test_group_law_pairs_match_pairwise_products(field, coeffs):
    """The stacked product counts the pairs the 225 separate products count,
    also when one T10 matrix is replaced by twice itself."""
    F = Field.prime(field)
    ctx = TorsionActionCtx(EtaleAlgebra(CurveData(F, coeffs)))
    pts = all_two_torsion()
    assert _group_law_pairs(ctx, pts) == pairwise_group_law(ctx, pts) == 225
    wrong = SimpleNamespace(K=ctx.K, t10_matrix=lambda P: ctx.t10_matrix(P).scale(2)
                            if P == pts[3] else ctx.t10_matrix(P))
    assert _group_law_pairs(wrong, pts) == pairwise_group_law(wrong, pts) < 225


def test_verify_action_on_split_curve(capsys):
    # y^2 = prod (x - a), a = 1..6 over F31: all two-torsion rational
    code, data = run(capsys, "verify", "--field", "F31",
                     "--curve", "[7,3,12,9,20,10,1]", "--suite", "action")
    assert code == 0
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["action.mp_square_identity"]["passed"] == 15
    assert by_name["action.group_law_pairs"]["passed"] == 225


def test_search_twist_bundle_counts_jacobian(capsys, tmp_path):
    curve11 = "[4,8,1,5,3,0,1]"
    code, bundle = run(capsys, "twist", "--field", "F11", "--curve", curve11,
                       "--delta", '["1","0","0","0","0","0"]', "--n", "1",
                       "--descend")
    assert code == 0
    ref = tmp_path / "tw.json"
    ref.write_text(json.dumps(bundle))
    code, data = run(capsys, "search", "--field", "F11", "--curve", curve11,
                     "--model-ref", str(ref))
    assert code == 0
    from genus2covers.curve import CurveData
    from genus2covers.fields import Field
    from genus2covers.twist import count_jacobian_points
    F = Field.prime(11)
    cur = CurveData(F, [F.parse(c) for c in json.loads(curve11)])
    assert data["count"] == count_jacobian_points(cur)


def test_search_builds_no_twisted_model(capsys, tmp_path, monkeypatch):
    """search on a twist bundle reads the covering map from the EpsilonChoice:
    with TwistModel refused, its output is the same byte for byte.  delta = 2
    is a non-square in F_11, so the working field is F_121."""
    from genus2covers.twist import TwistModel
    ref = tmp_path / "tw.json"
    assert main(["twist", "--field", "F11", "--curve", CURVE11, "--delta",
                 '["2","0","0","0","0","0"]', "--n", "8", "--descend", "--out", str(ref)]) == 0
    argv = ["search", "--field", "F11", "--curve", CURVE11, "--model-ref", str(ref)]
    assert main(argv) == 0
    plain = capsys.readouterr().out

    def refuse(self, *args, **kwargs):
        raise AssertionError("search built a TwistModel")

    monkeypatch.setattr(TwistModel, "__init__", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == plain
    assert json.loads(plain)["count"] > 0


def test_commands_build_only_the_working_context(capsys, tmp_path, monkeypatch):
    """twist and search build the torsion context of the working field only
    (delta = 2 is a non-square in F_11: F_121, not F_11), and verify --suite
    twist builds one context per field for all its twist data."""
    from genus2covers.torsion import TorsionActionCtx
    built = []
    init = TorsionActionCtx.__init__

    def recording(self, algebra):
        built.append(algebra.splitting.spec_string())
        init(self, algebra)

    monkeypatch.setattr(TorsionActionCtx, "__init__", recording)
    ref = tmp_path / "tw.json"
    assert main(["twist", "--field", "F11", "--curve", CURVE11, "--delta",
                 '["2","0","0","0","0","0"]', "--n", "8", "--descend", "--out", str(ref)]) == 0
    assert built == ["F11^2"]
    assert main(["search", "--field", "F11", "--curve", CURVE11, "--model-ref", str(ref)]) == 0
    assert built == ["F11^2"] * 2
    assert json.loads(capsys.readouterr().out)["count"] > 0
    built.clear()
    for seed in ("0", "3"):
        assert main(["verify", "--field", "F101", "--curve", CURVE, "--suite", "twist",
                     "--seed", seed]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]
        assert len(built) == len(set(built)) and built[0] == "F101^4"
        built.clear()


def test_search_vdelta_bundle(capsys, tmp_path):
    curve11 = "[4,8,1,5,3,0,1]"  # prod (x-a), a in {1,2,3,4,5,7} over F11
    code, data = run(capsys, "model", "--field", "F11", "--curve", curve11,
                     "--which", "vdelta", "--delta", '["1","0","0","0","0","0"]')
    assert code == 0
    ref = tmp_path / "vd.json"
    ref.write_text(json.dumps(data))
    mats = [[[int(v) for v in row] for row in M] for M in data["matrices"]]
    code, data = run(capsys, "search", "--field", "F11", "--curve", curve11,
                     "--model-ref", str(ref))
    assert code == 0
    assert data["count"] == len(data["points"]) > 0
    for pt in data["points"]:
        x = [int(v) for v in pt]
        assert all(sum(M[i][j] * x[i] * x[j] for i in range(6) for j in range(6)) % 11 == 0
                   for M in mats)


@pytest.mark.parametrize("field, content", [
    ("F11", None), ("F11", '{"matrices": ['), ("F11", '{"matrices": []}'),
    ("F11", '{"matrices": [], "delta": 5}'),
    ("F11", '{"quadrics_ground": [{}], "delta": ' + DELTA1 + ', "n": "1"}'),
    ("Q", '{"matrices": [[["1"]]]}'),
    ("F13", '{"field": "F11", "matrices": [], "delta": ' + DELTA1 + '}'),
    ("F11", '{"field": "F13^2", "matrices": [], "delta": ' + DELTA1 + '}'),
    ("Q", '{"field": "F11", "matrices": []}'),
    ("F11", '{"field": "Q", "matrices": [], "delta": ' + DELTA1 + '}'),
    ("F11", json.dumps({"quadrics_ground": [{"entries": [[0, 0, "1"], [0, 10, "1"]]}] * 72,
                        "delta": json.loads(DELTA1), "n": "1"})),
    ("F11", json.dumps({"quadrics_ground": [{"entries": [[0, 0, "1"]]}] * 72,
                        "delta": json.loads(DELTA1), "n": "1"})),
], ids=["missing-file", "malformed-json", "no-delta", "delta-not-a-list",
        "form-without-entries", "matrix-not-6x6", "vdelta-from-F11-at-F13",
        "bundle-from-F13^2-at-F11", "vdelta-from-F11-at-Q", "bundle-from-Q-at-F11",
        "form-of-both-parities", "forms-of-rank-1"])
def test_search_bad_model_ref(capsys, tmp_path, field, content):
    ref = tmp_path / "ref.json"
    if content is not None:
        ref.write_text(content)
    # --bound is refused over F_p, and --curve over Q
    extra = ["--bound", "1"] if field == "Q" else ["--curve", CURVE11]
    code, data = run(capsys, "search", "--field", field, "--model-ref", str(ref), *extra)
    assert code == 1
    assert data["kind"] == "bad-model-ref"


def test_search_refuses_a_bundle_from_another_field(capsys, tmp_path):
    """Real F_11 bundles, twist and V_delta, are refused at F_13, F_7 and
    Q, and so is the twist bundle at Q without its "field"; at F_11 it
    gives #J(F_11) = 176 points."""
    for which, argv in (("twist", ["--delta", DELTA1, "--n", "1", "--descend"]),
                        ("vdelta", ["--which", "vdelta", "--delta", DELTA1])):
        bundle = tmp_path / f"{which}.json"
        cmd = "twist" if which == "twist" else "model"
        assert main([cmd, "--field", "F11", "--curve", CURVE11, *argv,
                     "--out", str(bundle)]) == 0
        for field in ("F13", "F7", "Q"):
            curve = [] if field == "Q" else ["--curve", CURVE11]
            code, data = run(capsys, "search", "--field", field, *curve,
                             "--model-ref", str(bundle))
            assert (code, data["kind"]) == (1, "bad-model-ref")
    bundle = json.loads((tmp_path / "twist.json").read_text())
    del bundle["field"]
    code, data = run(capsys, "search", "--field", "Q", "--model-ref", json.dumps(bundle))
    assert (code, data["kind"]) == (1, "bad-model-ref")
    code, data = run(capsys, "search", "--field", "F11", "--curve", CURVE11,
                     "--model-ref", json.dumps(bundle))
    assert (code, data["count"]) == (0, 176)


def test_search_rational_bound_zero(capsys, tmp_path):
    bundle = {"matrices": [[["1" if i == j else "0" for j in range(6)]
                            for i in range(6)]],
              "delta": ["1", "0", "0", "0", "0", "0"]}
    ref = tmp_path / "m.json"
    ref.write_text(json.dumps(bundle))
    code, data = run(capsys, "search", "--field", "Q", "--model-ref", str(ref),
                     "--bound", "0")
    assert code == 0
    assert data["count"] == 0
    # an omitted bound over Q is 0
    assert run(capsys, "search", "--field", "Q", "--model-ref", str(ref)) == (code, data)


def test_byte_identical_reruns(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code = main(["verify", "--field", "F101", "--curve", CURVE,
                     "--suite", "diagonal", "--seed", "7", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_unknown_flag_rejected(capsys):
    code, data = run(capsys, "verify", "--field", "F101", "--curve", CURVE, "--bogus")
    assert code == 1
    assert data["kind"] == "bad-usage" and "--bogus" in data["error"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--help"])
    assert exc.value.code == 0
    assert "--model-ref" in capsys.readouterr().out


def test_degree8_twist_output_is_pinned(capsys):
    """The stdout of a Cassels twist rebuilt at working degree 8 (p = 101),
    pinned by its SHA-256: any change to the linear-algebra kernels that
    moves a pivot or a digit of the descent shows here."""
    code = main(["twist", "--field", "F101", "--curve", '["1","14","94","98","2","5","21"]',
                 "--delta", '["37","24","1","0","0","0"]', "--n", "16", "--seed", "1",
                 "--descend"])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "204fb7a693c412b5828d5695a9b6d9f2d78fe7a83d85ebb1305bd5081f3424f4"


@pytest.mark.parametrize("argv, digest", [
    (["model", "--which", "jacobian", "--field", "F4294967311", "--curve", CURVE, "--seed", "1"],
     "99bd05fb1ce55d5f6565a03ed8a866be7c74bf9496409d5dbf5deaf709187ce9"),
    (["twist", "--field", "F2147483647", "--curve", '["35","0","0","2147483635","0","0","1"]',
      "--delta", '["1","0","0","0","0","0"]', "--n", "1", "--descend", "--check"],
     "7e7c21cd9377c00883e5fc538b305294578dd68cf0e955c6ef88b114bf974192"),
], ids=["jacobian-p-above-2^32", "twist-degree3-p-2^31-1"])
def test_above_bound_outputs_are_pinned(argv, digest, capsys):
    """Commands whose kernels run on Python-int arrays, past the int64
    bound: row reduction over F_p at p > 2^32, and every kernel of a twist
    over F_{(2^31-1)^3}.  Pinned by the SHA-256 of their stdout."""
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


CURVE_D6_1999 = "[1172,1636,510,880,1973,1309,1170]"
CURVE_D4_BIG = ("[1985165968,1878903661,1985540679,2083544178,1641855439,"
                "52941341,2118719909]")


@pytest.mark.parametrize("argv, digest", [
    (["curve-info", "--field", "F1999", "--curve", CURVE_D6_1999],
     "1247c6de015e360c345288987566c2e8cbbb19b81eb92931dfa784f0e2fc4597"),
    (["curve-info", "--field", "F2147483647", "--curve", CURVE_D4_BIG],
     "c7c5ef25182eb02e35850e965eacf26f1a11c43ee845bfb65aba4bd1cf794cdb"),
], ids=["degree6-p-1999", "degree4-p-2^31-1"])
def test_curve_info_roots_are_pinned(argv, digest, capsys):
    """The six roots over F_{1999^6} and over F_{(2^31-1)^4}, pinned by the
    SHA-256 of the stdout of `curve-info` as square-and-multiply root
    finding printed it."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(set(json.loads(out)["roots"])) == 6
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["model", "--which", "kummer-p3", "--field", "F101", "--curve", CURVE],
     "e65ec3f7d73b62ae52035b467d4575cfcbe4766843c77ef5aaba0a5c98a57d39"),
    (["model", "--which", "kummer-p9", "--field", "F101", "--curve", CURVE],
     "7441dee8f91b054443e257bb8e18ed923f25e8053ad65f17b21542b3c1560ce1"),
    (["model", "--which", "weddle", "--field", "F101", "--curve", CURVE],
     "fc40be9b08039b0b72c8152460fb64318c7d6c3f009e2bc7fbdea9818d8873af"),
    (["model", "--which", "desing-p5", "--field", "F101", "--curve", CURVE],
     "cfc5e07fc8eaf4b04187876564617d261c0ac6a0e43fd5f3b992c1bd63b4a97c"),
    (["verify", "--suite", "action", "--field", "F101", "--curve", CURVE],
     "da1e3be102d7158b2f79ff4151d963624dc63487fb3bdbb4ccdbcf74a662e3a5"),
    (["verify", "--suite", "action", "--field", "F1009",
      "--curve", "[400,414,335,194,623,440,63]", "--seed", "1"],
     "f7f808a0ca8e9c797bdb855ddeea91184544a13f24d49834a174f6a02264444e"),
], ids=["kummer-p3", "kummer-p9", "weddle", "desing-p5", "action-p101", "action-p1009"])
def test_kummer_tower_outputs_are_pinned(argv, digest, capsys):
    """The Kummer-tower models and the two-torsion action checks, pinned by
    the SHA-256 of their stdout."""
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_model_kummer_p9_samples_nothing(capsys, rref_calls, sampled_classes):
    """The 21 quadrics of P^9 are the Veronese quadrics (one greedy pick)
    and the Kummer quadric; their rank is the second reduction, on the 76
    pure columns, since every one of them is even."""
    assert main(["model", "--field", "F101", "--curve", CURVE, "--which", "kummer-p9"]) == 0
    v = json.loads(capsys.readouterr().out)["verification"]
    assert v["count"] == v["rank"] == 21
    assert len(sampled_classes) == 0
    assert len(rref_calls) == 2
    assert rref_calls[-1] == (21, 76)   # the pure block alone


_THREADS = ("import os, genus2covers; "
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_import_starts_no_blas_threads(preset):
    """Importing the package starts no OpenBLAS worker thread and leaves
    OPENBLAS_NUM_THREADS unset; a value set before the import is kept."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    threads, value = subprocess.run([sys.executable, "-c", _THREADS], env=env, check=True,
                                    capture_output=True, text=True).stdout.split()
    assert value == str(preset)
    if preset is None:
        assert threads == "1"


def test_emit_matches_json_dumps(capsys, tmp_path):
    """The streamed writer gives the bytes of json.dumps plus a newline, on
    stdout and with --out, for a payload of many blocks of 4096 chunks."""
    payload = {"z": [[i, str(i * 7919 % 101), {"b": None, "a": [True, 1.5, "x\né"]}]
                     for i in range(2000)], "a": {}, "m": []}
    want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert len(list(json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload))) > 3 * 4096
    emit(payload, SimpleNamespace(out=None))
    assert capsys.readouterr().out == want
    path = tmp_path / "payload.json"
    emit(payload, SimpleNamespace(out=str(path)))
    assert path.read_bytes() == want.encode("utf-8")


_PEAK = ("import os, sys, tracemalloc\n"
         "from genus2covers.cli import main\n"
         "sys.stdout = open(os.devnull, 'w')\n"
         "tracemalloc.start()\n"
         "assert main(sys.argv[1:]) == 0\n"
         "print(tracemalloc.get_traced_memory()[1], file=sys.stderr)\n")


@pytest.mark.parametrize("argv, bound_mb", [
    (["twist", "--field", "F101", "--curve", '["1","14","94","98","2","5","21"]',
      "--delta", '["37","24","1","0","0","0"]', "--n", "16", "--seed", "1", "--descend"], 3.2),
    (["model", "--field", "F101", "--curve", CURVE, "--which", "jacobian"], 3.1),
], ids=["twist-degree8", "jacobian-p101"])
def test_traced_memory_peak_is_bounded(argv, bound_mb):
    """The peak of the memory Python and numpy allocate for one job after
    import, from tracemalloc in a fresh process: the JSON text is streamed,
    the sampled monomials are one array and the composition tensor is built
    on its parity blocks only (4.2 MB and 3.6 MB when they were not)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    peak = subprocess.run([sys.executable, "-c", _PEAK, *argv], env=env, check=True,
                          capture_output=True, text=True).stderr.split()[-1]
    assert int(peak) < bound_mb * 2 ** 20


def test_closed_stdout_ends_without_a_traceback():
    """A reader that closes stdout after the first bytes of a long output
    (the degree-8 twist, about 0.5 MB, more than a pipe holds) gets exit 1
    and nothing on stderr: no BrokenPipeError traceback, neither from the
    writes nor from the flush at interpreter exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "genus2covers.cli", "twist", "--field", "F101",
         "--curve", '["1","14","94","98","2","5","21"]', "--delta", '["37","24","1","0","0","0"]',
         "--n", "16", "--seed", "1", "--descend"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(16) == b'{\n  "covering_ma'
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert stderr == b""
