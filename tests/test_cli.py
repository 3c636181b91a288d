import hashlib
import json

import numpy as np
import pytest

from fqlab import cli
from fqlab.cli import main
from fqlab.lemma_oracles import LEMMAS
from pools import peak_bytes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_json_dump(capsys):
    code, out, _ = run_cli(capsys, "field", "2^4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 2 and data["m"] == 4 and data["q"] == 16
    assert len(data["modulus"]) == 5 and data["modulus"][-1] == 1


def test_field_text(capsys):
    code, out, _ = run_cli(capsys, "field", "7")
    assert code == 0 and "q = 7" in out


def test_setop_prod_example(capsys):
    code, out, _ = run_cli(capsys, "setop", "prod", "--field", "7^1",
                           "--a", "1,2", "--b", "3")
    assert code == 0 and out.strip() == "3,6"


def test_setop_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "setop", "sum", "--field", "3^2",
                           "--a", "1,2", "--b", "3", "--format", "json")
    data = json.loads(out)
    assert data["field"] == "3^2" and data["members"]


def test_energy_commands(capsys):
    code, out, _ = run_cli(capsys, "energy", "add", "--field", "7^1", "--set", "0,1,2")
    assert code == 0 and out.strip() == "19"
    code, out, _ = run_cli(capsys, "energy", "mul", "--field", "7^1",
                           "--x", "1,2,4", "--y", "1,2,4", "--format", "json")
    assert json.loads(out)["energy"] == 27


def test_verify_single_instance(capsys):
    code, out, _ = run_cli(capsys, "verify", "rbfq", "--field", "2^2",
                           "--set", "0,1,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "ExactPass" and data["lemma"] == "rbfq"


def test_verify_single_basic_shift_bound_takes_alpha(capsys):
    code, out, _ = run_cli(capsys, "verify", "basic_shift_bound", "--field", "7",
                           "--set", "1,2,3,5", "--alpha", "2", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["lemma"] == "basic_shift_bound"
    assert data["verdict"] == "MeasuredRatio" and data["instance"]["alpha"] == 2


def test_verify_batch_jsonl_deterministic(capsys):
    args = ("verify", "ruzsa_triangle", "--trials", "5", "--seed", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert len(lines) == 5
    assert all(json.loads(line)["verdict"] == "ExactPass" for line in lines)


def test_verify_csv_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "plunnecke", "--trials", "4",
                           "--seed", "1", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "lemma,instances,exact_pass,witness_found,measured,fail"
    assert lines[1].startswith("plunnecke,4,4,")


def test_trace_single(capsys):
    code, out, _ = run_cli(capsys, "trace", "--field", "13^1",
                           "--set", "1,2,4,8,9", "--alpha", "1")
    assert code == 0
    data = json.loads(out)
    assert data["case"] in {"1.1", "1.2", "2", "3", "4.1", "4.2", "4.3"}
    assert data["certificates"]["slice"]["mass_strict"] is True


def test_trace_batch_deterministic(capsys):
    args = ("trace", "--trials", "3", "--seed", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 3


def test_survey_command(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    code, _, _ = run_cli(capsys, "survey", "--fields", "7^1,13^1", "--sizes", "3",
                         "--trials", "2", "--seed", "2", "--out", out)
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "# fq-expander-lab v1" and len(lines) == 2 + 4


def test_survey_random_alpha_policy_is_seeded(tmp_path, capsys):
    outs = [str(tmp_path / f"s{i}.csv") for i in (1, 2)]
    for out in outs:
        code, _, _ = run_cli(capsys, "survey", "--fields", "7^1,2^4", "--sizes", "3,5",
                             "--trials", "3", "--seed", "4", "--alpha-policy", "random",
                             "--out", out)
        assert code == 0
    for suffix in ("", ".summary.json"):
        first, second = (open(out + suffix, "rb").read() for out in outs)
        assert first == second
    rows = open(outs[0]).read().splitlines()[2:]
    assert len(rows) == 12
    for row in rows:
        field, _, _, _, alpha = row.split(",")[:5]
        assert 1 <= int(alpha) < {"7^1": 7, "2^4": 16}[field]


def test_cover_command(capsys):
    code, out, _ = run_cli(capsys, "cover", "--field", "5^1",
                           "--target", "0,1,2,3,4", "--tile", "0,1",
                           "--format", "json")
    data = json.loads(out)
    assert data["count"] == 3 and len(data["shifts"]) == 3


def test_domain_error_exit_code_and_stderr(capsys):
    code, _, err = run_cli(capsys, "setop", "ratio", "--field", "7^1",
                           "--a", "1", "--b", "0,1")
    assert code == 1 and err.startswith("ZeroDivisorInRatio")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["setop", "prod", "--field", "7^1", "--a", "1", "--b", "2",
              "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("energy", "add", "--field", "7^1"),
    ("verify", "rbcard", "--field", "7^1", "--sets", "1,2,3;1;2"),
    ("trace", "--set", "1,2,4"),
    ("verify", "rbfq", "--set", "0,1,2"),
    ("verify", "plunnecke_refined", "--field", "13", "--sets", "1,2,3,4;1;2", "--eps", "abc"),
    ("verify", "plunnecke_refined", "--field", "13", "--sets", "1,2,3,4;1;2", "--eps", "1/0"),
    # refused before Fraction reads them: it would build 10**999999999 for the first
    ("verify", "plunnecke_refined", "--field", "13", "--sets", "1,2,3,4;1;2",
     "--eps", "1e999999999"),
    ("verify", "plunnecke_refined", "--field", "13", "--sets", "1,2,3,4;1;2", "--eps", "1e400"),
    ("verify", "plunnecke_refined", "--field", "13", "--sets", "1,2,3,4;1;2", "--eps", "1" * 41),
    ("verify", "plunnecke_refined", "--field", "13", "--sets", "1,2,3,4;1;2", "--eps", " 1/4"),
    ("verify", "plunnecke_refined", "--field", "13", "--sets", "1,2,3,4;1;2", "--eps", "1_0/3"),
    ("survey", "--fields", "7", "--sizes", "abc", "--out", "no-such-dir/s.csv"),
    ("verify", "nosuch"),
    ("energy", "mul", "--field", "7^1", "--x", "1,2"),
])
def test_usage_errors_found_after_parsing_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and len(err.splitlines()[-1]) < 150


@pytest.mark.parametrize("argv", [
    ("trace", "--trials", "0"),
    ("trace", "--trials", "-2"),
    ("verify", "rbfq", "--trials", "0"),
    ("survey", "--fields", "7", "--sizes", "3", "--trials", "0", "--out", "no-such-dir/s.csv"),
    ("trace", "--field", "5^2", "--set", "1,2,3,4,9", "--kappa", "-2"),
    ("trace", "--field", "5^2", "--set", "1,2,3,4,9", "--kappa", "0"),
])
def test_trials_and_kappa_below_1_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --" in err and "must be at least 1" in err


@pytest.mark.parametrize("argv, cap, error", [
    (("setop", "sum", "--field", "7", "--a", "1,x", "--b", "2"), None, "MalformedLiteral"),
    (("setop", "sum", "--field", "7", "--a", "1,9", "--b", "2"), None, "ElementOutOfRange"),
    (("field", "7"), "abc", "InvalidCap"),
    (("setop", "sum", "--field", "7^x", "--a", "1", "--b", "2"), None, "MalformedDescriptor"),
    (("verify", "rbcard", "--field", "7", "--sets", "1,2;1;2", "--r", "0"), None, "ZeroElement"),
    (("verify", "rbcard", "--field", "7", "--sets", "1,2;1;2", "--r", "14"), None, "ZeroElement"),
    (("verify", "rbcard", "--field", "7", "--sets", "1,2;1;2", "--r", "8"), None,
     "ElementOutOfRange"),
    (("verify", "rbcard", "--field", "7", "--sets", "1,2;1;2", "--r", "-1"), None,
     "ElementOutOfRange"),
    (("verify", "dyadic_energy", "--field", "7", "--sets", "1;1,2"), None, "SecondSetLarger"),
    (("verify", "rudnev", "--field", "7", "--sets", "1;1,2"), None, "SecondSetLarger"),
    # |X||Y| < 2 and Y = {0}: outside the shapes the slice certifies
    (("verify", "dyadic_energy", "--field", "7", "--sets", "1;0"), None, "NotApplicable"),
    (("survey", "--fields", "7", "--sizes", "1", "--out", "no-such-dir/s.csv"), None,
     "InvalidSurveyConfig"),
    (("survey", "--fields", "7", "--sizes", "3", "--samplers", "foo",
      "--out", "no-such-dir/s.csv"), None, "InvalidSurveyConfig"),
    # q - 1 records a set: refused before any set is drawn, so no output is written
    (("survey", "--fields", "2^20", "--sizes", "1048576", "--samplers", "uniform",
      "--alpha-policy", "sweep", "--out", "no-such-dir/s.csv"), None, "BudgetExceeded"),
    # every draw from F_5^* is {1,2,3,4}, degenerate at alpha = 2
    (("trace", "--field", "5", "--alpha", "2", "--trials", "1"), None, "TraceDegenerate"),
    (("trace", "--field", "2^2"), None, "SizeInfeasible"),
    (("trace", "--field", "3"), None, "SizeInfeasible"),
    (("trace", "--field", "2^4", "--set", "1,2,3,5,7,9", "--alpha", "17"), None,
     "ElementOutOfRange"),
    (("trace", "--field", "2^4", "--set", "1,2,3,5,7,9", "--alpha", "-1"), None,
     "ElementOutOfRange"),
    # a 40-character decimal is read, and its 79-character fraction clipped in the message
    (("verify", "plunnecke_refined", "--field", "13", "--sets", "1,2,3,4;1;2",
      "--eps", "1." + "9" * 38), None, "EpsilonOutOfRange"),
    (("field", "1000000000000000003"), None, "FieldTooLarge"),
    (("field", "2^100000000"), None, "FieldTooLarge"),
    (("field", "2^" + "1" * 5000), None, "FieldTooLarge"),  # past int()'s 4300 digits
    (("setop", "sum", "--field", "7", "--a", "x" * 5000, "--b", "1"), None, "MalformedLiteral"),
    # an --out that cannot be opened, on every command that takes one
    (("field", "7", "--out", "no-such-dir/x.json"), None, "IoFailure"),
    (("setop", "sum", "--field", "7", "--a", "1", "--b", "2", "--out", "no-such-dir/x"), None,
     "IoFailure"),
    (("energy", "add", "--field", "7", "--set", "1,2", "--out", "no-such-dir/x"), None,
     "IoFailure"),
    (("verify", "rbfq", "--trials", "1", "--out", "no-such-dir/x"), None, "IoFailure"),
    (("trace", "--trials", "1", "--out", "no-such-dir/x"), None, "IoFailure"),
    (("cover", "--field", "7", "--target", "1", "--tile", "1", "--out", "no-such-dir/x"), None,
     "IoFailure"),
    (("survey", "--fields", "7", "--sizes", "3", "--out", "no-such-dir/s.csv"), None,
     "IoFailure"),
    # set-literal integers past int64, on every command that reads a literal
    (("setop", "sum", "--field", "7", "--a", "99999999999999999999999", "--b", "1"), None,
     "ElementOutOfRange"),
    (("trace", "--field", "7", "--set", "1,2,-99999999999999999999999"), None,
     "ElementOutOfRange"),
    (("verify", "ruzsa_triangle", "--field", "7", "--sets", "1;2;99999999999999999999999"), None,
     "ElementOutOfRange"),
    (("cover", "--field", "7", "--target", "1", "--tile", "18446744073709551616"), None,
     "ElementOutOfRange"),
    # an empty list of fields, sizes or samplers would write a header-only survey
    (("survey", "--fields", "", "--sizes", "3", "--out", "no-such-dir/s.csv"), None,
     "InvalidSurveyConfig"),
    (("survey", "--fields", "7", "--sizes", "", "--out", "no-such-dir/s.csv"), None,
     "InvalidSurveyConfig"),
    (("survey", "--fields", "7", "--sizes", "3", "--samplers", "", "--out", "no-such-dir/s.csv"),
     None, "InvalidSurveyConfig"),
])
def test_bad_input_is_a_domain_error(monkeypatch, capsys, argv, cap, error):
    if cap is not None:
        monkeypatch.setenv("FQLAB_CAP", cap)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"{error}: ") and len(err.splitlines()) == 1 and len(err) < 150


@pytest.mark.parametrize("argv", [
    ("trace", "--seed", "-1", "--trials", "1"),
    ("verify", "rbfq", "--seed", "-1", "--trials", "1"),
    ("survey", "--fields", "7", "--sizes", "3", "--seed", "-1", "--out", "no-such-dir/s.csv"),
])
def test_a_negative_seed_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "error: argument --seed: must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("descriptor, error", [
    pytest.param("2^" + "1" * 5000, "FieldTooLarge: q = 2^m exceeds cap 1048576 for every m >= 21",
                 id="huge m"),
    pytest.param("1" * 5000, "FieldTooLarge: the characteristic p exceeds cap 1048576",
                 id="huge p"),
    # build_field checks p before m
    pytest.param("4^" + "1" * 5000, "NotPrime: 4 is not prime", id="composite p, huge m"),
    pytest.param("3^-" + "1" * 4000, "DegreeZero: extension degree must be >= 1, got -111",
                 id="long negative m"),
    pytest.param("-" + "1" * 4000, "NotPrime: -111", id="long negative p"),
    pytest.param("x" * 5000, "MalformedDescriptor: expected a field like 7 or 3^2, got 'xxx",
                 id="long malformed"),
])
def test_a_huge_descriptor_is_judged_by_its_value_and_echoed_short(capsys, descriptor, error):
    code, out, err = run_cli(capsys, "field", descriptor)
    assert code == 1 and out == ""
    assert err.startswith(error) and len(err) < 150


def test_one_parser_serves_every_run(capsys):
    usage = ("setop", "sum", "--field", "7", "--a", "1")
    with pytest.raises(SystemExit):
        main(list(usage))
    first = capsys.readouterr()
    assert run_cli(capsys, *usage, "--b", "2") == (0, "3\n", "")
    with pytest.raises(SystemExit):
        main(list(usage))
    assert capsys.readouterr() == first and first.err.startswith("usage: fqlab setop")
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv", [
    ("field", "7", "--format", "csv"),
    ("setop", "sum", "--field", "7", "--a", "1", "--b", "2", "--format", "csv"),
    ("energy", "add", "--field", "7", "--set", "1,2", "--format", "csv"),
    ("cover", "--field", "7", "--target", "1", "--tile", "1", "--format", "csv"),
    ("verify", "rbfq", "--trials", "1", "--format", "text"),
    ("trace", "--trials", "1", "--format", "text"),
    ("trace", "--trials", "1", "--format", "csv"),
])
def test_format_a_command_does_not_write_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _wrong_set_counts():
    """One set too few for every single-instance lemma, one too many where no
    trailing "Bs" takes the rest, and any set for the batch-only lemmas."""
    for lemma, (_, set_params) in LEMMAS.items():
        counts = [len(set_params) - 1] + ([] if "Bs" in set_params else [len(set_params) + 1])
        for n in counts if set_params else [1]:
            yield ("verify", lemma, "--field", "7", "--r", "1", "--sets", ";".join(["1"] * n))


@pytest.mark.parametrize("argv", [
    ("verify", "energy_cs", "--field", "7", "--set", "1,2"),
    ("verify", "ruzsa_triangle", "--field", "7", "--sets", "1;2"),
    ("verify", "plunnecke", "--field", "7", "--sets", "1,2"),
    ("verify", "rbfq", "--field", "7", "--sets", "1,2;3"),
    *_wrong_set_counts(),
])
def test_wrong_set_count_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and ("set(s)" in err or "not supported" in err)


def test_out_flag_writes_file(tmp_path, capsys):
    path = str(tmp_path / "dump.json")
    code, out, _ = run_cli(capsys, "field", "3^2", "--format", "json", "--out", path)
    assert code == 0 and out == ""
    assert json.load(open(path))["q"] == 9


def test_emitted_json_reparses(capsys):
    _, out, _ = run_cli(capsys, "verify", "all", "--trials", "1", "--seed", "0")
    for line in out.strip().splitlines():
        json.loads(line)


def test_a_trace_batch_holds_its_json_lines_not_its_traces(capsys):
    # each ProofTrace keeps q-length bitmasks on its slice and popular sets
    argv = ["trace", "--field", "2^16", "--trials", "30", "--seed", "0"]
    assert main(argv) == 0  # builds the field and its caches
    first = capsys.readouterr().out
    peak, code = peak_bytes(lambda: main(argv))
    assert code == 0 and capsys.readouterr().out == first
    assert peak < 4_000_000  # 8.7 MB while the batch kept its 30 traces


def test_trace_batch_output_is_frozen(capsys):
    code, out, _ = run_cli(capsys, "trace", "--trials", "20", "--seed", "5")
    cases = {json.loads(line)["case"] for line in out.splitlines()}
    assert code == 0 and cases == {"1.1", "2", "3", "4.1"}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "38f66146f50b8a98234541772563578e82182b7e48ba7dd1a8235d8ad873305c")


# (field, set, alpha, kappa) -> (case, sha256 of the trace's stdout), for the
# branches the seeded batch above does not reach; 4.2 once with R(A~) the whole
# field and once with R(A~) = F_5 inside 5^2, where kappa = 1 gives 4.3 instead
FROZEN_TRACES = {
    ("2^4", "1,5,6,8,9,10,11,12,14", 3, 1):
        ("1.2", "79ec80d470dbfbd0a85cb2c28dcfc2f6e8fe233c041a86cf5b6601b8e9c1efd9"),
    ("2^4", "1,2,3,4,7,10,11,13,15", 10, 1):
        ("4.2", "34e363dc34f4c5c5074cede6d64b468eba5ed3f9197ecde7485254216a8410e0"),
    ("5^2", "1,2,3,4,9", 1, 2):
        ("4.2", "3ab2e556d8b77e166b6a103baaf899e89abcd84eb820ca47d3736dfc3a8bbe0e"),
    ("5^2", "1,2,3,4,9", 1, 1):
        ("4.3", "b337b34b3bfea3d77674530558ed600033e7fcea52dde60cd100d23b01fd0319"),
}


@pytest.mark.parametrize("field, members, alpha, kappa", sorted(FROZEN_TRACES))
def test_explicit_trace_output_is_frozen(capsys, field, members, alpha, kappa):
    argv = ("trace", "--field", field, "--set", members,
            "--alpha", str(alpha), "--kappa", str(kappa))
    code, out, _ = run_cli(capsys, *argv)
    case, digest = FROZEN_TRACES[field, members, alpha, kappa]
    assert code == 0 and json.loads(out)["case"] == case
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_large_explicit_trace_output_is_frozen(capsys):
    # 160 uniform elements of 2^12: large enough that the subset searches and
    # covers run their greedy paths over many steps
    rng = np.random.default_rng([4096, 160])
    members = sorted(int(v) for v in rng.choice(np.arange(1, 4096), 160, replace=False))
    code, out, _ = run_cli(capsys, "trace", "--field", "2^12", "--set", ",".join(map(str, members)))
    assert code == 0 and json.loads(out)["case"] == "4.2"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "78801c59c46d9bb67f4a200e005be620921d9b5ed87984583aa8c445e6910e38")


def test_quotient_subfield_batch_is_frozen(capsys):
    # forty trials reach both the 1+R and the X*R witness
    argv = ("verify", "quotient_subfield", "--trials", "40", "--seed", "3")
    code, out, _ = run_cli(capsys, *argv)
    hypotheses = {(json.loads(line)["witness"] or {}).get("hypothesis")
                  for line in out.splitlines()}
    assert code == 0 and {"1+R", "X*R"} <= hypotheses
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c476a91b2e7068904cd780d58e1eddb2c014af1f99deba3c4dd86e6a366678f3")
