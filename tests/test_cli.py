import json

import pytest

from hopfsl2.cli import main, parse_label, parse_scalar_expr
from hopfsl2.algebra import AlgebraParams
from hopfsl2.cyclo import ParseError, root_of_unity


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_scalar_expr_parsing():
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    assert parse_scalar_expr("q^2", p) == p.qpow(2)
    assert parse_scalar_expr("-1", p) == -p.one
    assert parse_scalar_expr("sq", p) == p.sqrt_q
    assert parse_scalar_expr("z8^3", p) == root_of_unity(8, 3)
    assert parse_scalar_expr("3/7", p).as_fraction().numerator == 3
    round_trip = parse_scalar_expr(p.sqrt_q.serialize(), p)
    assert round_trip == p.sqrt_q
    with pytest.raises(ParseError):
        parse_scalar_expr("frobnitz", p)


def test_label_parsing():
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    lbl = parse_label("Vr(sq,1,1;0;r=2)", p)
    assert lbl.kind == "Vr" and lbl.r == 2 and lbl.g1 == p.sqrt_q
    lbl2 = parse_label("VI(z9,1,1;0;k=0)", p)
    assert lbl2.kind == "VI" and lbl2.kseed.is_zero()
    with pytest.raises(ParseError):
        parse_label("Vx(1,1,1;0)", p)


def test_cli_verify_axioms(capsys):
    code, rep = run_cli(
        capsys, "verify-axioms", "--n", "3", "--n1", "1", "--beta", "1,1,1",
        "--seed", "7", "--n-random", "5", "--m", "1",
    )
    assert code == 0 and rep["pass"] is True
    assert rep["results"]["coassociativity"]["ok"] is True


def test_cli_verify_axioms_flags_failure(capsys):
    code, rep = run_cli(
        capsys, "verify-axioms", "--n", "4", "--n1", "2", "--beta", "1,1,1",
        "--seed", "1", "--n-random", "2",
    )
    assert code == 1 and rep["pass"] is False


def test_cli_fuse(capsys):
    code, rep = run_cli(
        capsys, "fuse", "--n", "3", "--n1", "1", "--beta", "0,0,1",
        "--left", "Vr(sq,1,1;0)", "--right", "Vr(sq,1,1;0)",
    )
    assert code == 0
    decomp = rep["results"]["decomposition"]
    assert sum(decomp.values()) == 2  # z3 + trivial


def test_cli_build_module(capsys):
    code, rep = run_cli(
        capsys, "build-module", "--n", "3", "--n1", "1", "--beta", "0,0,1",
        "--kind", "Vr", "--g1", "sq", "--i", "0",
    )
    assert code == 0
    assert rep["results"]["dim"] == 2
    assert rep["results"]["failed_relations"] == []
    assert len(rep["results"]["matrices"]["x"]) == 2


def test_cli_build_module_with_seed_index(capsys):
    code, rep = run_cli(
        capsys, "build-module", "--n", "3", "--n1", "1", "--beta", "1,0,0",
        "--extra-orders", "9", "--kind", "VI", "--g1", "z9", "--kseed-index", "0",
    )
    assert code == 0 and rep["results"]["dim"] == 3


@pytest.mark.parametrize("index", ["1", "2", "-1"])
def test_cli_build_module_seed_index_out_of_range_is_a_usage_error(capsys, index):
    # at extra orders 9 and 4 the VI character of z9 has one solved seed
    code = main([
        "build-module", "--n", "3", "--n1", "1", "--beta", "1,0,0", "--kind", "VI", "--g1", "z9",
        "--kseed-index", index, "--extra-orders", "9", "4",
    ])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"error: --kseed-index {index} is out of range: the solve gave 1 seed(s)" in captured.err


@pytest.mark.parametrize("n", ["3", "2"])
def test_cli_radford_with_a_disagreeing_n_is_a_usage_error(capsys, n):
    # --N 4 --n1 1 fix Radford's n = 4/gcd(4, 1) = 4
    code = main(["verify-relations", "--suite", "radford", "--n", n, "--n1", "1", "--N", "4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"error: --suite radford at --N 4 --n1 1 has n = 4, not --n {n}" in captured.err


def test_cli_vk_label_sugar(capsys):
    code, rep = run_cli(
        capsys, "fuse", "--n", "3", "--n1", "1", "--beta", "0,0,1",
        "--left", "V2(sq,1,1;0)", "--right", "V2(sq,1,1;0)",
    )
    assert code == 0 and sum(rep["results"]["decomposition"].values()) == 2
    # the literal (1,1,1;0) data names no valid 2-dimensional simple: usage error
    assert main(["fuse", "--n", "3", "--n1", "1", "--beta", "0,0,1",
                 "--left", "V2(1,1,1;0)", "--right", "V2(1,1,1;0)"]) == 2


def test_cli_label_with_a_stray_r_names_no_module(tmp_path, capsys):
    """r belongs to Vr labels only: a --left flag with one is a usage error,
    and a labels file with one is a failed check with a report."""
    stray = "V0(1,1,1;0;r=3)"
    assert main(["fuse", "--n", "3", "--n1", "1", "--beta", "0,0,1",
                 "--left", stray, "--right", "V0(1,1,1;0)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"--left {stray} names no simple module" in captured.err
    labels = tmp_path / "labels.txt"
    labels.write_text(f"{stray}\n")
    code = main(["fusion-table", "--n", "3", "--n1", "1", "--beta", "0,0,1",
                 "--labels-file", str(labels)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1 and rep["error"] == {"class": "WrongType", "message": "V0 label takes no r"}


def test_cli_fusion_table(tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    labels.write_text("V0(1,1,1;0)\nVr(sq,1,1;0)\n")
    code, rep = run_cli(
        capsys, "fusion-table", "--n", "3", "--n1", "1", "--beta", "0,0,1",
        "--labels-file", str(labels),
    )
    assert code == 0
    assert "0,1" in rep["results"]["table"]


def test_cli_verify_relations_suite(capsys):
    code, rep = run_cli(
        capsys, "verify-relations", "--suite", "thm5.5",
        "--n", "3", "--n1", "1", "--beta", "0,0,1", "--extra-orders", "8",
    )
    assert code == 0 and rep["pass"] is True


@pytest.mark.parametrize("suite", ["thm5.15", "thm5.19"])
def test_cli_verify_relations_over_a_repeated_root_seed(capsys, suite):
    # at n = 6, beta (1,1,1) the VI/VII seed sextics are squares of cubics
    code, rep = run_cli(
        capsys, "verify-relations", "--suite", suite, "--n", "6", "--n1", "1", "--beta", "1,1,1",
    )
    assert code == 0 and rep["pass"] is True


def test_cli_integral_and_idempotents(capsys, tmp_path):
    code, rep = run_cli(
        capsys, "integral-check", "--n", "3", "--n1", "1", "--beta", "1,1,1", "--m", "1",
    )
    assert code == 0 and rep["results"]["checked_monomials"] == 54
    out = tmp_path / "r.json"
    code, rep = run_cli(
        capsys, "idempotents", "--n", "3", "--n1", "1", "--beta", "1,1,1",
        "--m", "2", "--n2", "1", "--n3", "1", "--out", str(out),
    )
    assert code == 0
    assert rep["results"]["count"] == 4
    assert rep["results"]["block_dimensions"] == [27, 27, 27, 27]
    assert json.loads(out.read_text())["pass"] is True


def test_cli_compare_rings(capsys):
    code, rep = run_cli(
        capsys, "compare-rings", "--n", "3", "--n1", "1", "--N", "6",
        "--beta-a", "1,1,0", "--beta-b", "1,0,0",
    )
    assert code == 0 and rep["results"]["equal"] is True


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nn1 = 1\nbeta = 1,1,1  # full config echoed into the report\nseed = 7\nn-random = 4\n")
    code, rep = run_cli(capsys, "verify-axioms", "--config", str(cfg))
    assert code == 0 and rep["config"]["n"] == 3 and rep["config"]["seed"] == 7
    # explicit flags override the file
    code, rep = run_cli(capsys, "verify-axioms", "--config", str(cfg), "--seed", "9")
    assert code == 0 and rep["config"]["seed"] == 9


def test_cli_usage_error(capsys):
    assert main(["fuse", "--n", "3"]) == 2


@pytest.mark.parametrize(
    "args, named",
    [
        (["fuse", "--left", "V0", "--right", "V0(1,1,1;0)"], "'V0'"),
        (["fuse", "--left", "V0(1,1,1;x)", "--right", "V0(1,1,1;0)"], "'V0(1,1,1;x)'"),
        (["fuse", "--left", "Vr(sq,1,1;0;r=)", "--right", "V0(1,1,1;0)"], "'Vr(sq,1,1;0;r=)'"),
        (["build-module", "--kind", "V0", "--g1", "z0"], "'z0'"),
        (["build-module", "--kind", "V0", "--g1", "q^x"], "'q^x'"),
    ],
    ids=["no-parenthesis", "bad-i", "empty-r", "root-order-0", "bad-exponent"],
)
def test_cli_parse_error_names_the_offending_text(capsys, args, named):
    assert main([args[0], "--n", "3", "--n1", "1", *args[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_cli_library_arithmetic_error_is_a_failed_check(monkeypatch, capsys):
    """A math failure of the library exits 1 with a report, not a traceback."""
    import hopfsl2.cli as cli
    from hopfsl2.fusion import NoIntegerSolution

    def failing_fuse(*args, **kwargs):
        raise NoIntegerSolution("trace system is inconsistent (missing candidate?)")

    monkeypatch.setattr(cli, "fuse", failing_fuse)
    code = main(["fuse", "--n", "3", "--n1", "1", "--beta", "0,0,1",
                 "--left", "Vr(sq,1,1;0)", "--right", "Vr(sq,1,1;0)"])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert code == 1
    assert rep["schema"] == "hopfsl2/report-v1" and rep["command"] == "fuse"
    assert rep["pass"] is False
    assert rep["error"] == {
        "class": "NoIntegerSolution",
        "message": "trace system is inconsistent (missing candidate?)",
    }
    assert "error: NoIntegerSolution: trace system is inconsistent" in captured.err


def test_cli_typed_library_error_exits_1_with_report(tmp_path, capsys):
    """A typed ValueError of the library (here WrongType: the label names no
    module) is a failed check with a report, not a usage error."""
    labels = tmp_path / "labels.txt"
    labels.write_text("Vr(sq,1,1;1)\n")
    code = main(["fusion-table", "--n", "3", "--n1", "1", "--beta", "0,0,1",
                 "--labels-file", str(labels)])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert code == 1
    assert rep["schema"] == "hopfsl2/report-v1" and rep["command"] == "fusion-table"
    assert rep["pass"] is False
    assert rep["error"] == {"class": "WrongType", "message": "Vr requires beta3''(i) != 0"}
    assert "error: WrongType: Vr requires beta3''(i) != 0" in captured.err


def test_cli_build_module_of_a_missing_kind_exits_1_with_error_block(capsys):
    """At beta = 0 the character (1, 1, 1) has no V_I module, so its seed
    solve is a typed error with a report, not a seed list to index into."""
    code = main(["build-module", "--n", "3", "--n1", "1", "--beta", "0,0,0", "--kind", "VI",
                 "--g1", "1", "--kseed-index", "1"])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert code == 1 and rep["command"] == "build-module" and rep["pass"] is False
    assert rep["error"] == {"class": "WrongType", "message": "VI requires beta1'' != 0"}
    assert "error: WrongType: VI requires beta1'' != 0" in captured.err


def test_cli_library_error_in_a_quotient_suite_exits_1_with_error_block(monkeypatch, capsys):
    """A library error inside a quotient suite is a failed check with the
    report's top-level error block, not a row of the results."""
    from hopfsl2.fusion import RankDeficient
    from hopfsl2.grothendieck import GelakiContext

    def failing_power(self):
        raise RankDeficient("candidate trace vectors are linearly dependent (rank < 2)")

    monkeypatch.setattr(GelakiContext, "verify_xstar_power", failing_power)
    code = main(["verify-relations", "--suite", "cor-gelaki", "--n", "3", "--n1", "1",
                 "--beta", "1,0,0", "--N", "6"])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert code == 1
    assert rep["command"] == "verify-relations" and rep["pass"] is False
    assert "results" not in rep
    assert rep["error"] == {
        "class": "RankDeficient",
        "message": "candidate trace vectors are linearly dependent (rank < 2)",
    }
    assert "error: RankDeficient: candidate trace vectors are linearly dependent" in captured.err


@pytest.mark.parametrize(
    "command, method, error",
    [
        ("integral-check", "check_integral", "IntegralCheckFailed"),
        ("idempotents", "central_idempotents", "PreconditionViolated"),
    ],
)
def test_cli_quotient_command_error_has_the_one_error_shape(monkeypatch, capsys, command, method, error):
    """A typed error of a quotient command reaches the report's top-level
    error block and stderr, as every other command's does."""
    from hopfsl2 import algebra
    from hopfsl2.algebra import QuotientParams

    def failing(self):
        raise getattr(algebra, error)("forced failure")

    monkeypatch.setattr(QuotientParams, method, failing)
    code = main([command, "--n", "3", "--n1", "1", "--beta", "1,1,1", "--m", "1"])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert code == 1
    assert rep["command"] == command and rep["pass"] is False
    assert "results" not in rep
    assert rep["error"] == {"class": error, "message": "forced failure"}
    assert f"error: {error}: forced failure" in captured.err
