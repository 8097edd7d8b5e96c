"""End-to-end CLI runs: every subcommand, manifests, reproducibility, and
error exit codes."""
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zetadist import cli
from zetadist.arith import ArithmeticFunction, GrowthBound

MODULE = [sys.executable, "-m", "zetadist.cli"]
# the child interpreters import zetadist from this checkout, as pytest does
SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run(*argv, check=True):
    proc = subprocess.run(
        MODULE + list(argv), capture_output=True, text=True, timeout=600, env=ENV
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def run_in_process(argv, capsys):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


def manifest_of(path):
    return json.loads(path.with_name(path.name + ".manifest.json").read_text())


def test_gen_roundtrip(tmp_path):
    run("--out", str(tmp_path), "gen", "--gen", "ezstar", "--max", "8")
    out = tmp_path / "function.json"
    obj = json.loads(out.read_text())
    assert obj["coeffs"][1] == ["1", "2"]
    man = manifest_of(out)
    assert man["tool_version"]
    assert man["source"].startswith("gen:ezstar")
    assert man["wall_time_s"] >= 0.0
    assert man["command"] == ["--out", str(tmp_path), "gen", "--gen", "ezstar", "--max", "8"]


def test_gen_accepts_json_file(tmp_path):
    run("--out", str(tmp_path), "gen", "--gen", "ones", "--max", "6")
    src = tmp_path / "function.json"
    proc = run("inverse", "--a", str(src), "--max", "6")
    obj = json.loads(proc.stdout)
    # inverse of all-ones is the Moebius sequence
    assert [c[0] for c in obj["coeffs"]] == ["1", "-1", "-1", "0", "-1", "1"]


def test_convolve(tmp_path):
    proc = run("convolve", "--a", "ones", "--b", "ones", "--max", "6")
    obj = json.loads(proc.stdout)
    assert [c[0] for c in obj["coeffs"]] == ["1", "2", "2", "3", "2", "4"]


def test_acoeffs_worked_value():
    proc = run("acoeffs", "--gen", "ezstar", "--max", "12")
    last = proc.stdout.strip().splitlines()[-1]
    assert last.startswith("12,")
    assert "(-1/4)*log(2) + (-1/8)*log(3)" in last  # -(1/8) log 12


def test_eval_csv_format():
    proc = run("eval", "--gen", "ones", "--sigma", "2", "--t", "0:1:3", "--max", "1000")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "sigma,t,re,im,tail_bound,N"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert abs(float(first[2]) - math.pi**2 / 6) < 2e-3


def test_eval_manifest_records_n_used(tmp_path):
    run("--out", str(tmp_path), "eval", "--gen", "ones", "--sigma", "2", "--tol", "1e-3",
        "--t", "0:1:3", "--max", "2000")
    out = tmp_path / "eval.csv"
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert {row[5] for row in rows} == {"1001"}
    assert manifest_of(out)["N"] == 1001


def test_cf_trivial_point():
    proc = run("cf", "--gen", "ones", "--sigma", "2", "--t", "0", "--max", "1000")
    row = proc.stdout.strip().splitlines()[1].split(",")
    assert float(row[2]) == 1.0 and float(row[3]) == 0.0


def test_cf_manifest_records_n_used(tmp_path):
    # without --N the default truncation 10^5 applies, not --max
    run("--out", str(tmp_path), "cf", "--gen", "ones", "--max", "200000", "--sigma", "2", "--t", "0")
    assert manifest_of(tmp_path / "cf.csv")["N"] == 100000
    # --N beyond the stored coefficients is cut to --max
    run("--out", str(tmp_path), "cf", "--gen", "ones", "--max", "1000", "--N", "5000",
        "--sigma", "2", "--t", "0")
    assert manifest_of(tmp_path / "cf.csv")["N"] == 1000


def test_negative_t_grid_without_equals():
    spaced = run("eval", "--gen", "ones", "--sigma", "2", "--t", "-1:1:3", "--max", "100").stdout
    joined = run("eval", "--gen", "ones", "--sigma", "2", "--t=-1:1:3", "--max", "100").stdout
    assert spaced == joined
    assert len(spaced.strip().splitlines()) == 4


@pytest.mark.parametrize("grid", ("0:1:0", "0:1:-3"))
def test_t_grid_without_a_step_is_refused(grid, capsys):
    rc = cli.main(["eval", "--gen", "ones", "--sigma", "2", "--t", grid, "--max", "16"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_t_grid_of_one_step_is_its_start(capsys):
    rc, out = run_in_process(["eval", "--gen", "ones", "--sigma", "2", "--t", "0.5:1:1", "--max", "16"], capsys)
    rc1, one = run_in_process(["eval", "--gen", "ones", "--sigma", "2", "--t", "0.5", "--max", "16"], capsys)
    assert rc == rc1 == 0 and out == one and len(out.splitlines()) == 2


def test_zeros_json():
    proc = run("zeros", "--gen", "oneplusq:2:4", "--rect", "1.7,2.3,4.0,5.0", "--max", "16")
    obj = json.loads(proc.stdout)
    assert obj["winding"] == 1
    assert obj["status"] == "certified"


def test_sigma0_json():
    proc = run("sigma0", "--gen", "oneplusq:2:4", "--height", "10", "--sigma-hi", "4",
               "--tol", "1e-3", "--max", "16")
    obj = json.loads(proc.stdout)
    lo, hi = obj["bracket"]
    assert lo <= 2.0 <= hi and hi - lo <= 1e-3


def test_sigma0_manifest_records_n_used(tmp_path):
    run("--out", str(tmp_path), "sigma0", "--gen", "oneplusq:2:4", "--height", "10",
        "--sigma-hi", "4", "--max", "16")
    out = tmp_path / "sigma0.json"
    assert "N=16" in json.loads(out.read_text())["certificate"]
    assert manifest_of(out)["N"] == 16


def test_dist_head():
    proc = run("dist", "--gen", "oneplusq:2", "--sigma", "2", "--tol", "1e-9",
               "--head", "2", "--max", "16")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n,x,pmf"
    assert float(lines[1].split(",")[2]) == pytest.approx(0.8, abs=1e-12)


def test_moments_json():
    proc = run("moments", "--gen", "oneplusq:2", "--sigma", "2", "--max", "65536")
    obj = json.loads(proc.stdout)
    assert obj["method"] == "analytic"
    assert abs(obj["mean"] - (-math.log(2) / 5)) < 1e-9


def test_moments_direct_method():
    proc = run("moments", "--gen", "oneplusq:2", "--sigma", "2",
               "--method", "direct", "--tol", "1e-9", "--max", "16")
    obj = json.loads(proc.stdout)
    assert obj["method"] == "direct"
    assert abs(obj["mean"] - (-math.log(2) / 5)) < 1e-12


def test_moments_direct_manifest_records_law_n(tmp_path):
    # oneplusq:2 is supported on {1, 2}, so the law stops at N=2 whatever --max is
    run("--out", str(tmp_path), "moments", "--gen", "oneplusq:2", "--sigma", "2",
        "--method", "direct", "--tol", "1e-9", "--max", "64")
    assert manifest_of(tmp_path / "moments.json")["N"] == 2


@pytest.mark.parametrize("coeffs", (["-1", "1", "1", "1"], ["1", "-1/2", "1", "1"]), ids=("a1<0", "a2<0"))
def test_moments_refuse_coefficients_that_define_no_law(coeffs, tmp_path, capsys):
    # both methods describe the law, so both refuse what defines none
    path = tmp_path / "f.json"
    path.write_text(ArithmeticFunction([Fraction(c) for c in coeffs], growth=GrowthBound(1.0, 0.0)).to_json())
    errors = []
    for method in ("analytic", "direct"):
        rc = cli.main(["moments", "--gen", str(path), "--sigma", "2", "--method", method, "--max", "4"])
        out, err = capsys.readouterr()
        assert rc == 1 and out == "", method
        errors.append(err)
    assert errors[0] == errors[1]
    assert json.loads(errors[0])["error"] == "NotDistributionError"


def test_sample_reproducible(tmp_path):
    args = ("sample", "--gen", "oneplusq:2", "--sigma", "2", "--count", "64",
            "--seed", "99", "--tol", "1e-9", "--max", "16")
    a = run(*args).stdout
    b = run(*args).stdout
    assert a == b
    assert len(a.strip().splitlines()) == 64
    out = tmp_path / "samples.txt"
    run("--out", str(tmp_path), *args)
    man = manifest_of(out)
    assert man["seed"] == 99
    assert man["rng_algorithm"] == "numpy-PCG64"


def test_levy_csv():
    proc = run("levy", "--gen", "oneplusq:2", "--sigma", "2", "--max", "64")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n,position,mass"
    row4 = next(l for l in lines if l.startswith("4,"))
    assert float(row4.split(",")[2]) == pytest.approx(-1.0 / 32.0, abs=1e-12)


def test_classify_json():
    proc = run("classify", "--gen", "oneplusq:2", "--height", "30", "--max", "4096")
    obj = json.loads(proc.stdout)
    assert obj["verdict"] == "case2_1"
    assert obj["negative_witness"] == 4
    assert obj["height_T"] == 30.0
    assert obj["scan_depth"] == 4096


def test_paper_tables_flags_only_known():
    proc = run("paper-tables", "--max", "32")
    assert proc.returncode == 0
    text = proc.stdout
    assert "KNOWN-DISCREPANCY" in text
    assert "MISMATCH" not in text.replace("KNOWN-DISCREPANCY", "")
    assert "ezstar A(8)" in text
    assert text.strip().splitlines()[-1].startswith("summary: 0 unexpected mismatches")


def test_exact_outputs_reproducible(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        run("--out", str(d), "acoeffs", "--gen", "ezstar", "--max", "24")
    assert (d1 / "acoeffs.csv").read_bytes() == (d2 / "acoeffs.csv").read_bytes()


def test_domain_error_exit_code():
    proc = run("eval", "--gen", "nope", "--sigma", "2", check=False)
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert "error" in err and "message" in err


def test_resource_error_exit_code():
    proc = run("dist", "--gen", "ones", "--sigma", "2", "--tol", "1e-12",
               "--max", "10000", check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "ResourceLimitError"


def test_io_error_exit_code():
    proc = run("eval", "--gen", "missing_file.json", "--sigma", "2", check=False)
    assert proc.returncode == 3


def test_malformed_inputs_are_domain_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run("eval", "--gen", str(bad), "--sigma", "2", check=False)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "DomainError"

    proc = run("zeros", "--gen", "ones", "--rect", "1.5,oops,0,1", check=False)
    assert proc.returncode == 1
    assert "rect" in json.loads(proc.stderr)["message"]

    proc = run("eval", "--gen", "ones", "--sigma", "2", "--t", "0:x:5", check=False)
    assert proc.returncode == 1


SUBCOMMAND_GOLDEN = [
    (("gen", "--gen", "ones", "--max", "8"), "function.json"),
    (("convolve", "--a", "ones", "--b", "ones", "--max", "8"), "convolution.json"),
    (("inverse", "--a", "ones", "--max", "8"), "inverse.json"),
    (("acoeffs", "--gen", "ones", "--max", "8"), "acoeffs.csv"),
    (("eval", "--gen", "ones", "--sigma", "2", "--max", "64"), "eval.csv"),
    (("cf", "--gen", "ones", "--sigma", "2", "--t", "1", "--max", "64"), "cf.csv"),
    (("zeros", "--gen", "oneplusq:2:4", "--rect", "1.7,2.3,4,5", "--max", "16"), "zeros.json"),
    (("sigma0", "--gen", "oneplusq:2", "--height", "5", "--sigma-hi", "3", "--max", "16"), "sigma0.json"),
    (("dist", "--gen", "oneplusq:2", "--sigma", "2", "--tol", "1e-9", "--max", "16"), "dist.csv"),
    (("moments", "--gen", "oneplusq:2", "--sigma", "2", "--max", "64"), "moments.json"),
    (("sample", "--gen", "oneplusq:2", "--sigma", "2", "--count", "4", "--seed", "1",
      "--tol", "1e-9", "--max", "16"), "samples.txt"),
    (("levy", "--gen", "oneplusq:2", "--sigma", "2", "--max", "64"), "levy.csv"),
    (("classify", "--gen", "oneplusq:2", "--height", "5", "--sigma-hi", "3", "--max", "64"),
     "classification.json"),
    (("paper-tables", "--max", "16"), "paper-tables.txt"),
]


def test_every_subcommand_writes_output_and_manifest(tmp_path, capsys):
    # in process: the manifest records the argv cli.main parsed, not the host's
    for i, (argv, filename) in enumerate(SUBCOMMAND_GOLDEN):
        full = ["--out", str(tmp_path / f"run{i}"), *argv]
        assert run_in_process(full, capsys) == (0, ""), argv[0]
        out = tmp_path / f"run{i}" / filename
        assert out.exists(), argv[0]
        man = manifest_of(out)
        assert set(man) == {"command", "source", "N", "seed", "tolerances",
                            "tool_version", "rng_algorithm", "wall_time_s"}, argv[0]
        assert man["command"] == full, argv[0]


def test_threads_flag_sampling():
    a = run("--threads", "2", "sample", "--gen", "oneplusq:2", "--sigma", "2",
            "--count", "10", "--seed", "5", "--tol", "1e-9", "--max", "16").stdout
    b = run("--threads", "2", "sample", "--gen", "oneplusq:2", "--sigma", "2",
            "--count", "10", "--seed", "5", "--tol", "1e-9", "--max", "16").stdout
    assert a == b


def test_threads_beyond_count_start_no_streams(capsys):
    # the draws are defined by (seed, threads); threads beyond --count draw
    # nothing, so 10^12 of them give the output of --count streams at once
    law = ["sample", "--gen", "oneplusq:2", "--sigma", "2", "--count", "5", "--seed", "5",
           "--tol", "1e-9", "--max", "16"]
    huge = run_in_process(["--threads", "1000000000000", *law], capsys)
    assert huge[0] == 0 and huge == run_in_process(["--threads", "5", *law], capsys)


# sha256 (first 16 hex digits) of each subcommand's stdout, read before the
# subcommands returned their rows to main.  Floats are compared at 12
# significant digits: float outputs are reproducible bit for bit only on the
# same binary.  The classify digest is of that output with its uncertified
# "observed_abscissa" key removed; the zeros digest is of that output with
# "winding_integral" [w, 0.0] renamed to "winding_sum" w and "quad_error" to
# "rounding_bound".
STDOUT_DIGESTS = {
    "gen": "0b1dc305d2ad34c6",
    "convolve": "d99b3082e71aa099",
    "inverse": "69d242174eb1a399",
    "acoeffs": "94f87e67f2fcec5f",
    "eval": "f2aff97a81a78d26",
    "cf": "ea24743e4c81e377",
    "zeros": "eac1ebe47a2f7d48",
    "sigma0": "e0b2d783a0b63f8e",
    "dist": "ac9dad6fb2fd57ee",
    "moments": "1776152291207f05",
    "sample": "64d3ffec884fefb7",
    "levy": "e547136f96a57a20",
    "classify": "a43210c61e8cf915",
    "paper-tables": "c89a3c89e37be588",
}
FLOAT_LITERAL = re.compile(r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")


def test_stdout_unchanged(capsys):
    assert sorted(STDOUT_DIGESTS) == sorted(argv[0] for argv, _ in SUBCOMMAND_GOLDEN)
    for argv, _ in SUBCOMMAND_GOLDEN:
        rc, out = run_in_process(argv, capsys)
        text = FLOAT_LITERAL.sub(lambda m: "%.12g" % float(m.group()), out)
        assert rc == 0 and hashlib.sha256(text.encode()).hexdigest()[:16] == STDOUT_DIGESTS[argv[0]], argv[0]


def test_json_input_is_used_at_its_own_length(tmp_path, capsys):
    # --max sizes generators only; a shorter JSON file is read at its length
    path = tmp_path / "ones8.json"
    path.write_text(ArithmeticFunction([1] * 8, name="ones").to_json())
    ones8 = str(path)
    rc, out = run_in_process(["acoeffs", "--gen", ones8, "--max", "20"], capsys)
    assert rc == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == [str(n) for n in range(2, 9)]
    for i, (argv, filename) in enumerate([
        (["gen", "--gen", ones8, "--max", "3"], "function.json"),
        (["inverse", "--a", ones8, "--max", "3"], "inverse.json"),
        (["convolve", "--a", ones8, "--b", "ones", "--max", "20"], "convolution.json"),
        (["acoeffs", "--gen", ones8, "--max", "20"], "acoeffs.csv"),
    ]):
        outdir = tmp_path / f"run{i}"
        assert run_in_process(["--out", str(outdir), *argv], capsys)[0] == 0, argv[0]
        assert manifest_of(outdir / filename)["N"] == 8, argv[0]
    assert len(json.loads((tmp_path / "run0" / "function.json").read_text())["coeffs"]) == 8


def test_sigma0_rejects_nonpositive_tol(capsys):
    rc = cli.main(["sigma0", "--gen", "oneplusq:2:4", "--height", "10", "--sigma-hi", "4",
                   "--max", "16", "--tol", "0"])
    err = json.loads(capsys.readouterr().err)
    assert rc == 1
    assert err["error"] == "DomainError" and err["message"].startswith("tol=")


def test_paper_tables_mismatch_exits_1(monkeypatch, capsys):
    # a wrong table must still reach the output and set the exit code
    real = cli.von_mangoldt
    monkeypatch.setattr(cli, "von_mangoldt", lambda fn: real(cli.generate(cli.parse_spec("absmu", len(fn)))))
    rc, out = run_in_process(["paper-tables", "--max", "8"], capsys)
    assert rc == 1
    assert out.splitlines()[-1].startswith("summary: ") and "MISMATCH" in out


def test_spec_is_not_shadowed_by_a_path(tmp_path, monkeypatch, capsys):
    # a file or directory named like a generator spec must not shadow it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ones").mkdir()
    (tmp_path / "ezstar").write_text("")
    rc, out = run_in_process(["gen", "--gen", "ones", "--max", "4"], capsys)
    assert rc == 0 and json.loads(out)["name"] == "ones"
    rc, out = run_in_process(["acoeffs", "--gen", "ezstar", "--max", "4"], capsys)
    assert rc == 0 and out.splitlines()[3].startswith("4,(7/4)*log(2),")
    # a path spelled as one still names the path: a directory cannot be read,
    # an empty file is malformed
    assert run_in_process(["gen", "--gen", "./ones", "--max", "4"], capsys)[0] == 3
    assert run_in_process(["acoeffs", "--gen", "./ezstar", "--max", "4"], capsys)[0] == 1
    # text that is neither a spec nor a path is a bad spec
    assert cli.main(["gen", "--gen", "ezstr", "--max", "4"]) == 1
    assert "bad generator spec 'ezstr'" in capsys.readouterr().err


def test_json_file_named_like_a_spec(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ones").write_text(ArithmeticFunction([1, 0, 5], name="mine").to_json())
    (tmp_path / "mine.json").write_text(ArithmeticFunction([1, 0, 5], name="mine").to_json())
    for text in ("./ones", "mine.json"):
        rc, out = run_in_process(["gen", "--gen", text, "--max", "8"], capsys)
        assert rc == 0 and json.loads(out)["coeffs"] == [["1", "1"], ["0", "1"], ["5", "1"]], text
    rc, out = run_in_process(["gen", "--gen", "ones", "--max", "8"], capsys)
    assert rc == 0 and json.loads(out)["name"] == "ones" and len(json.loads(out)["coeffs"]) == 8


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_main_leaves_no_cyclic_garbage(capsys):
    import gc

    argv = ["gen", "--gen", "ones", "--max", "4"]
    run_in_process(argv, capsys)
    gc.collect()
    run_in_process(argv, capsys)
    assert gc.collect() == 0


def test_dist_with_underflowing_a1(tmp_path, capsys):
    path = tmp_path / "tiny_a1.json"
    path.write_text(ArithmeticFunction([Fraction(1, 10**400), 1, 1], growth=GrowthBound(1.0, 0.0),
                                       support_limit=3).to_json())
    rc, out = run_in_process(["dist", "--gen", str(path), "--sigma", "2", "--tol", "1e-3"], capsys)
    assert rc == 0
    pmf = [float(row.split(",")[2]) for row in out.splitlines()[1:]]
    assert len(pmf) == 3 and pmf[0] == 0.0 and abs(sum(pmf) - 1.0) < 1e-15


@pytest.mark.parametrize("limit", (2, 0, -3, 2.5, "x"))
def test_bad_finite_support_is_a_malformed_file(tmp_path, limit, capsys):
    path = tmp_path / "support.json"
    obj = json.loads(ArithmeticFunction([1, 1, 1, 1], growth=GrowthBound(1.0, 0.0)).to_json())
    path.write_text(json.dumps({**obj, "finite_support": limit}))
    rc = cli.main(["eval", "--gen", str(path), "--sigma", "2", "--tol", "1e-6"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "DomainError" and "malformed function file" in err["message"]


def test_t_grid_warns_once_without_certificate(tmp_path, capsys):
    # one kernel call per --t grid, so one warning per command
    path = tmp_path / "plain.json"
    path.write_text(ArithmeticFunction([1, 1, 1, 1]).to_json())
    with pytest.warns(UserWarning, match="no growth certificate") as caught:
        rc, out = run_in_process(["eval", "--gen", str(path), "--sigma", "2", "--t=0:1:5"], capsys)
    assert rc == 0 and len(out.splitlines()) == 6
    assert len(caught) == 1


def test_length_above_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("ZETADIST_MAX_N", "1000")
    assert run_in_process(["gen", "--gen", "ones", "--max", "1000"], capsys)[0] == 0
    rc = cli.main(["gen", "--gen", "ones", "--max", "1001"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "ResourceLimitError"


@pytest.mark.parametrize("argv", [
    ["zeros", "--gen", "ones", "--rect", "1.5,2,0,inf", "--max", "16"],
    ["zeros", "--gen", "ones", "--rect", "1.5,inf,0,1", "--max", "16"],
    ["sigma0", "--gen", "oneplusq:2:4", "--height", "inf", "--sigma-hi", "4", "--max", "16"],
    ["eval", "--gen", "ones", "--sigma", "inf", "--t", "1", "--max", "16"],
    ["cf", "--gen", "ones", "--sigma", "2", "--t", "inf", "--max", "16"],
    ["moments", "--gen", "ones", "--sigma", "inf", "--max", "16"],
    ["levy", "--gen", "ones", "--sigma", "inf", "--max", "16"],
    ["dist", "--gen", "ones", "--sigma", "2", "--tol", "nan", "--max", "16"],
    ["eval", "--gen", "ones", "--sigma", "2", "--tol", "0", "--max", "16"],
    ["sample", "--gen", "ones", "--sigma", "3", "--count", "5", "--seed", "1", "--tol", "1e-3", "--max", "1000",
     "--max-tail-mass", "nan"],
], ids=["zeros-height", "zeros-width", "sigma0-height", "eval-sigma", "cf-t", "moments-sigma", "levy-sigma",
        "dist-tol", "eval-tol", "sample-max-tail-mass"])
def test_non_finite_input_is_a_domain_error(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert json.loads(captured.err)["error"] == "DomainError"


@pytest.mark.parametrize("argv", [
    ["dist", "--sigma", "2", "--tol", "1e-3"],
    ["eval", "--sigma", "2"],
    ["classify", "--height", "5"],
], ids=["dist", "eval", "classify"])
def test_coefficient_beyond_float_range_is_one_error_line(tmp_path, argv, capsys):
    path = tmp_path / "huge.json"
    path.write_text(ArithmeticFunction([1, Fraction(10**400), 1], growth=GrowthBound(1.0, 0.0),
                                       support_limit=3).to_json())
    rc = cli.main([argv[0], "--gen", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "OverflowError" and "a(2)" in err["message"]


@pytest.mark.parametrize("argv, name", [
    (["levy", "--sigma", "2"], "l(4)"),
    (["moments", "--sigma", "2", "--method", "analytic"], "l(4)"),
    (["acoeffs"], "A(4)"),
], ids=["levy", "moments", "acoeffs"])
def test_log_coefficient_beyond_float_range_is_named(tmp_path, argv, name, capsys):
    # a(1) = 10^-300 and a(2) = 1 give l(2) = 10^300, a float, and
    # l(4) = -l(2)^2/2 = -5 10^599, beyond the float range
    path = tmp_path / "tiny_a1.json"
    path.write_text(ArithmeticFunction([Fraction(1, 10**300), 1] + [0] * 6, growth=GrowthBound(1e300, 0.0)).to_json())
    rc = cli.main([argv[0], "--gen", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "OverflowError" and err["message"] == f"{name} lies beyond the float range"


def test_manifest_records_only_tolerances_used(tmp_path, capsys):
    def tolerances(argv, filename):
        assert run_in_process(["--out", str(tmp_path), *argv], capsys)[0] == 0
        return manifest_of(tmp_path / filename)["tolerances"]

    law = ["--gen", "ones", "--sigma", "2", "--max", "1000"]
    # the analytic route reads no tolerance; --N overrides --tol
    assert tolerances(["moments", *law, "--method", "analytic", "--tol", "1e-4"], "moments.json") == {}
    assert tolerances(["eval", *law, "--N", "10", "--tol", "1e-9"], "eval.csv") == {}
    assert tolerances(["moments", *law, "--method", "direct", "--tol", "1e-2"], "moments.json") == {"tol": 1e-2}
    assert tolerances(["eval", *law, "--tol", "1e-2"], "eval.csv") == {"tol": 1e-2}
