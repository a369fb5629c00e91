import shlex
import subprocess
import sys

import pytest

from ossprim import cli


def run_cli(argv_str, check=True):
    proc = subprocess.run([sys.executable, "-m", "ossprim.cli"] + shlex.split(argv_str),
                          capture_output=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_parse_kv_round_trips():
    text = "a=1\nb=hello world\nprob=0.25\n"
    assert cli.parse_kv(text) == {"a": "1", "b": "hello world", "prob": "0.25"}


def test_kv_output_parses():
    proc = run_cli("prp eval --bits 8 --seed 00 --x 5 --format kv")
    kv = cli.parse_kv(proc.stdout.decode())
    assert kv.keys() == {"y"}
    assert 0 <= int(kv["y"]) < 256


def test_prp_eval_inverse_consistency_via_cli():
    y = cli.parse_kv(run_cli("prp eval --bits 8 --seed 0a --x 77 --format kv").stdout.decode())["y"]
    x = cli.parse_kv(run_cli(f"prp inv --bits 8 --seed 0a --z {y} --format kv").stdout.decode())["x"]
    assert int(x) == 77


def test_owp_file_round_trip(tmp_path):
    pk = tmp_path / "pk.bin"
    sk = tmp_path / "sk.bin"
    run_cli(f"owp gen --bits 10 --seed 0c --out-pk {pk} --out-sk {sk} --format kv")
    y = cli.parse_kv(run_cli(f"owp eval --bits 10 --pk {pk} --x 100 --format kv").stdout.decode())["y"]
    x = cli.parse_kv(run_cli(f"owp invert --bits 10 --sk {sk} --y {y} --format kv").stdout.decode())["x"]
    assert int(x) == 100
    assert b"MOCK-IO" in pk.read_bytes()


def test_oss_instance_file_round_trip(tmp_path):
    inst = tmp_path / "inst.bin"
    run_cli(f"oss gen --tiny 6,3,6 --seed 07 --out-inst {inst} --format kv")
    y1 = cli.parse_kv(run_cli(f"oss hash --inst {inst} --x 5 --format kv").stdout.decode())["y"]
    y2 = cli.parse_kv(run_cli("oss hash --tiny 6,3,6 --seed 07 --x 5 --format kv").stdout.decode())["y"]
    assert y1 == y2
    run_cli(f"oss selfreduce --inst {inst} --seed2 02 --out-inst {tmp_path/'sr.bin'} --format kv")
    run_cli(f"oss p --inst {tmp_path/'sr.bin'} --x 9 --format kv")


def test_exit_codes():
    assert run_cli("prp eval --bits 4 --seed 00 --x 99", check=False).returncode == 1
    assert run_cli("prp eval --bits 4", check=False).returncode == 2
    assert run_cli("definitely-not-a-command", check=False).returncode == 2


def test_perm_statement_arity_is_a_contract_error():
    proc = run_cli("perm apply --desc 'swap 8' --x 1", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr


def test_truncated_instance_file_is_a_contract_error(tmp_path):
    inst = tmp_path / "inst.bin"
    run_cli(f"oss gen --tiny 6,3,6 --seed 07 --out-inst {inst} --format kv")
    inst.write_bytes(inst.read_bytes()[:40])
    proc = run_cli(f"oss hash --inst {inst} --x 5", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: truncated instance file") and b"Traceback" not in proc.stderr


def _out_of_range_entry(blob):
    return blob[:13] + b"\xff\xff\xff\x7f" + blob[17:]


def _duplicated_entry(blob):
    return blob[:17] + blob[13:17] + blob[21:]


@pytest.mark.parametrize("corrupt", [_out_of_range_entry, _duplicated_entry])
def test_instance_table_not_a_permutation_is_a_contract_error(tmp_path, corrupt):
    # bytes 13..20 hold the first two u32 entries of the 2^4-entry pi table
    inst = tmp_path / "inst.bin"
    run_cli(f"oss gen --tiny 4,2,4 --seed 07 --out-inst {inst} --format kv")
    blob = inst.read_bytes()
    assert blob[13:17] != blob[17:21]
    inst.write_bytes(corrupt(blob))
    proc = run_cli(f"oss hash --inst {inst} --x 1", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: table is not a permutation") and b"Traceback" not in proc.stderr


def test_params_file_missing_keys_is_a_contract_error(tmp_path):
    params = tmp_path / "params.txt"
    params.write_text("u=4\nv=8\n")
    proc = run_cli(f"lwe keygen --params-file {params} --seed 01", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr


def test_perm_verify_failure_exit_code():
    ok = run_cli("perm verify --desc 'transp 8 0 5' --format kv")
    assert cli.parse_kv(ok.stdout.decode())["ok"] == "1"


@pytest.mark.parametrize("example", cli.DOC_EXAMPLES)
def test_documented_examples_are_deterministic(example):
    # acceptance criterion: byte-identical machine-readable output across runs
    first = run_cli(example).stdout
    second = run_cli(example).stdout
    assert first == second and first
    cli.parse_kv(first.decode())  # every documented example is kv-parseable
