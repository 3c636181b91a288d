import hashlib
import json

import pytest

from fqlab.cli import main
from fqlab.lemma_oracles import LEMMAS


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
    ("survey", "--fields", "7", "--sizes", "abc", "--out", "no-such-dir/s.csv"),
])
def test_usage_errors_found_after_parsing_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cap, error", [
    (("setop", "sum", "--field", "7", "--a", "1,x", "--b", "2"), None, "MalformedLiteral"),
    (("setop", "sum", "--field", "7", "--a", "1,9", "--b", "2"), None, "ElementOutOfRange"),
    (("field", "7"), "abc", "InvalidCap"),
    (("setop", "sum", "--field", "7^x", "--a", "1", "--b", "2"), None, "MalformedDescriptor"),
    (("verify", "rbcard", "--field", "7", "--sets", "1,2;1;2", "--r", "0"), None, "ZeroElement"),
    (("verify", "rbcard", "--field", "7", "--sets", "1,2;1;2", "--r", "14"), None, "ZeroElement"),
    (("verify", "dyadic_energy", "--field", "7", "--sets", "1;1,2"), None, "SecondSetLarger"),
    (("verify", "rudnev", "--field", "7", "--sets", "1;1,2"), None, "SecondSetLarger"),
    (("survey", "--fields", "7", "--sizes", "1", "--out", "no-such-dir/s.csv"), None,
     "InvalidSurveyConfig"),
    (("survey", "--fields", "7", "--sizes", "3", "--trials", "0", "--out", "no-such-dir/s.csv"),
     None, "InvalidSurveyConfig"),
    (("survey", "--fields", "7", "--sizes", "3", "--samplers", "foo",
      "--out", "no-such-dir/s.csv"), None, "InvalidSurveyConfig"),
    # every draw from F_5^* is {1,2,3,4}, degenerate at alpha = 2
    (("trace", "--field", "5", "--alpha", "2", "--trials", "1"), None, "TraceDegenerate"),
    (("trace", "--field", "2^2"), None, "SizeInfeasible"),
    (("trace", "--field", "3"), None, "SizeInfeasible"),
])
def test_bad_input_is_a_domain_error(monkeypatch, capsys, argv, cap, error):
    if cap is not None:
        monkeypatch.setenv("FQLAB_CAP", cap)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"{error}: ") and len(err.splitlines()) == 1


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


def test_quotient_subfield_batch_is_frozen(capsys):
    # forty trials reach both the 1+R and the X*R witness
    argv = ("verify", "quotient_subfield", "--trials", "40", "--seed", "3")
    code, out, _ = run_cli(capsys, *argv)
    hypotheses = {(json.loads(line)["witness"] or {}).get("hypothesis")
                  for line in out.splitlines()}
    assert code == 0 and {"1+R", "X*R"} <= hypotheses
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c476a91b2e7068904cd780d58e1eddb2c014af1f99deba3c4dd86e6a366678f3")
