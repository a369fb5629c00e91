import argparse
import contextlib
import hashlib
import io
import resource
import shlex
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from checkout import src_env
from ossprim import cli, oss, permdecomp as pd, prng


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_cli(argv_str, check=True):
    # cli.main in this process, returned as a finished process: stdout and
    # stderr as bytes, and a SystemExit (argparse's usage errors) as its code
    streams = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True) for _ in range(2)]
    with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
        try:
            code = cli.main(shlex.split(argv_str))
        except SystemExit as e:
            code = e.code
    proc = subprocess.CompletedProcess(argv_str, code, *(s.buffer.getvalue() for s in streams))
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def run_process(argv_str, check=True, timeout=None, dev=False, capped=False):
    # a fresh `python -m ossprim.cli`, for tests of the process itself;
    # dev: a file-handling command runs under -X dev, which reports unclosed files;
    # capped: the command runs with at most 2 GiB of address space
    proc = subprocess.run([sys.executable] + (["-X", "dev"] if dev else []) + ["-m", "ossprim.cli"]
                          + shlex.split(argv_str), capture_output=True, timeout=timeout, env=src_env(),
                          preexec_fn=_cap_address_space if capped else None)
    if check:
        assert proc.returncode == 0, proc.stderr
    if dev:
        assert b"ResourceWarning" not in proc.stderr, proc.stderr
    return proc


def _scipy_loaded_after(code):
    # run in a fresh interpreter: did the code load any scipy module?
    code = ("import sys\n" + code +
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_exact_path_never_imports_scipy():
    # scipy serves only lockstep batches and chi-square checks: the CLI and exact keys load without it
    assert not _scipy_loaded_after(
        "import ossprim.cli\n"
        "from ossprim import nsprp\n"
        "k = nsprp.make_prp_key(bytes(32), 100)\n"
        "assert all(nsprp.prp_inverse(k, nsprp.prp_forward(k, x)) == x for x in range(100))\n")


def test_scalar_gauss_draws_never_import_scipy():
    # one-lane draws run fastpath's ndtri port; only lockstep batches load scipy
    assert not _scipy_loaded_after(
        "from ossprim import nsprp, oss\n"
        "k = nsprp.make_scale_prp_key(bytes(32), 64)\n"
        "assert nsprp.prp_inverse(k, nsprp.prp_forward(k, 5)) == 5\n"
        "inst = oss.oss_gen(oss.OssParams.paper_preset(2), bytes(32))\n"
        "y, u = oss.oss_p(inst, 12345)\n"
        "assert oss.oss_p_inv(inst, y, u) == 12345\n")
    assert _scipy_loaded_after(
        "import numpy as np\n"
        "from ossprim import nsprp\n"
        "k = nsprp.make_scale_prp_key(bytes(32), 64)\n"
        "nsprp.prp_forward_batch(k, np.arange(8, dtype=np.uint64))\n")


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
    run_process(f"owp gen --bits 10 --seed 0c --out-pk {pk} --out-sk {sk} --format kv", dev=True)
    y = cli.parse_kv(run_process(f"owp eval --bits 10 --pk {pk} --x 100 --format kv",
                                 dev=True).stdout.decode())["y"]
    x = cli.parse_kv(run_process(f"owp invert --bits 10 --sk {sk} --y {y} --format kv",
                                 dev=True).stdout.decode())["x"]
    assert int(x) == 100
    assert b"MOCK-IO" in pk.read_bytes()


def test_owp_secret_key_with_bad_bits_is_a_contract_error(tmp_path):
    sk = tmp_path / "sk.bin"
    run_process(f"owp gen --bits 6 --seed 0c --out-sk {sk} --format kv", dev=True)
    blob = sk.read_bytes()
    sk.write_bytes(blob[:5] + bytes([blob[5] ^ 0x40]) + blob[6:])  # bits u16: 6 -> 70
    proc = run_process(f"owp invert --sk {sk} --y 3", check=False, dev=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr


def test_owp_secret_key_exact_above_20_bits_is_a_contract_error(tmp_path):
    sk = tmp_path / "sk.bin"
    run_process(f"owp gen --bits 6 --seed 0c --out-sk {sk} --format kv", dev=True)
    blob = sk.read_bytes()
    sk.write_bytes(blob[:5] + bytes([blob[5] ^ 0x10]) + blob[6:])  # bits u16: 6 -> 22, still exact
    proc = run_process(f"owp invert --sk {sk} --y 3", check=False, timeout=30, dev=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr


def test_merge_exact_above_2_20_points_is_a_contract_error():
    proc = run_cli("merge eval --n0 1048576 --n1 1 --b 0 --x 0", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: exact keys cover at most 2^20 points")
    assert b"Traceback" not in proc.stderr


def test_owp_gen_above_64_bits_is_an_error():
    proc = run_cli("owp gen --bits 70 --seed 0c", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr


def test_oss_instance_file_round_trip(tmp_path):
    inst = tmp_path / "inst.bin"
    run_process(f"oss gen --tiny 6,3,6 --seed 07 --out-inst {inst} --format kv", dev=True)
    y1 = cli.parse_kv(run_process(f"oss hash --inst {inst} --x 5 --format kv", dev=True).stdout.decode())["y"]
    y2 = cli.parse_kv(run_cli("oss hash --tiny 6,3,6 --seed 07 --x 5 --format kv").stdout.decode())["y"]
    assert y1 == y2
    run_process(f"oss selfreduce --inst {inst} --seed2 02 --out-inst {tmp_path/'sr.bin'} --format kv",
                dev=True)
    run_process(f"oss p --inst {tmp_path/'sr.bin'} --x 9 --format kv", dev=True)


def test_oracle_mode_instance_file_with_d_flag_round_trips(tmp_path):
    # --d only shapes a standard-mode instance: an oracle-mode file records no d
    inst = tmp_path / "inst.bin"
    run_process(f"oss gen --tiny 8,4,8 --d 10 --seed 07 --out-inst {inst} --format kv", dev=True)
    y1 = cli.parse_kv(run_process(f"oss hash --inst {inst} --x 1 --format kv", dev=True).stdout.decode())["y"]
    y2 = cli.parse_kv(run_cli("oss hash --tiny 8,4,8 --seed 07 --x 1 --format kv").stdout.decode())["y"]
    assert y1 == y2


@pytest.mark.parametrize("d", [64, 40])
def test_wide_outer_permutation_on_a_small_instance_evaluates(d):
    # a 2^d outer table fits no instance file, so even an n = 8 instance takes a lazy key
    proc = run_process(f"oss hash --tiny 8,4,8 --mode standard --d {d} --seed 07 --x 5 --format kv",
                       check=False, timeout=120, capped=True)
    assert proc.returncode == 0 and b"Traceback" not in proc.stderr, proc.stderr
    assert 0 <= int(cli.parse_kv(proc.stdout.decode())["y"]) < 1 << d


def test_exit_codes():
    # the smoke test of `python -m ossprim.cli` itself
    assert run_process("prp eval --bits 4 --seed 00 --x 99", check=False).returncode == 1
    assert run_process("prp eval --bits 4", check=False).returncode == 2
    assert run_process("definitely-not-a-command", check=False).returncode == 2


def test_hypergeom_negative_kappa_is_a_range_error():
    proc = run_cli("hypergeom sample --N 12 --t 5 --s 7 --r 1 --kappa -3", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: kappa must be >= 0") and b"Traceback" not in proc.stderr


@pytest.mark.parametrize("args,message", [
    ("--N 1000000000000 --t 500000000000 --s 500000000000 --r 1 --kappa 8", b"error: exact draws cover"),
    ("--N 12 --t 5 --s 7 --r 1 --kappa 100000000000", b"error: kappa must be <= "),
])
def test_hypergeom_beyond_the_exact_caps_is_a_range_error(args, message):
    # refused before the sieve or 2^kappa is allocated, so 2 GiB of address space is plenty
    proc = run_process(f"hypergeom sample {args}", check=False, timeout=120, capped=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith(message) and b"Traceback" not in proc.stderr, proc.stderr


def test_perm_statement_arity_is_a_contract_error():
    proc = run_cli("perm apply --desc 'swap 8' --x 1", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, message", [
    ("perm verify --desc 'add 0 1'", b"error: domain size 0 must be >= 1"),
    ("perm apply --desc 'add -3 1' --x 1", b"error: domain size -3 must be >= 1"),
    ("perm apply --desc 'swap 8 3' --x 99", b"error: --x outside [0, 8)"),
    ("perm apply --desc 'swap 8 3' --x -1", b"error: --x outside [0, 8)"),
    ("perm apply --desc 'swap 1 0' --x 0", b"error: swap 0 outside [0, 0)"),
    ("prp eval --bits 4 --seed 00 --x 16", b"error: --x outside [0, 16)"),
    ("prp inv --bits 4 --seed 00 --z -1", b"error: --z outside [0, 16)"),
    ("prp permute-eval --bits 4 --seed 0a --z 15 --c 1 --x 9", b"error: --z outside [0, 15)"),
    ("prp permute-eval --bits 4 --seed 0a --z 6 --c 1 --x 16", b"error: --x outside [0, 16)"),
    ("merge eval --n0 3 --n1 5 --seed 0b --b 0 --x 3", b"error: --x outside [0, 3)"),
    ("merge eval --n0 3 --n1 5 --seed 0b --b 1 --x -1", b"error: --x outside [0, 5)"),
    ("merge inv --n0 3 --n1 5 --seed 0b --z 8", b"error: --z outside [0, 8)"),
    ("owp eval --bits 8 --seed 0c --x 256", b"error: --x outside [0, 256)"),
    ("owp invert --bits 8 --seed 0c --y -1", b"error: --y outside [0, 256)"),
])
def test_perm_domain_and_point_outside_their_range_are_errors(argv, message):
    proc = run_cli(argv, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(message) and b"Traceback" not in proc.stderr


@pytest.mark.parametrize("x", [5, -1])
def test_merge_permute_eval_point_outside_its_range_is_an_error(x):
    # --x is a flat index of [0, N), not an index within a pile
    proc = run_cli(f"merge permute-eval --n0 1 --n1 1 --z 0 --c 1 --x {x}", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: --x outside [0, 2)") and b"Traceback" not in proc.stderr


def test_truncated_instance_file_is_a_contract_error(tmp_path):
    inst = tmp_path / "inst.bin"
    run_process(f"oss gen --tiny 6,3,6 --seed 07 --out-inst {inst} --format kv", dev=True)
    inst.write_bytes(inst.read_bytes()[:40])
    proc = run_process(f"oss hash --inst {inst} --x 5", check=False, dev=True)
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
    run_process(f"oss gen --tiny 4,2,4 --seed 07 --out-inst {inst} --format kv", dev=True)
    blob = inst.read_bytes()
    assert blob[13:17] != blob[17:21]
    inst.write_bytes(corrupt(blob))
    proc = run_process(f"oss hash --inst {inst} --x 1", check=False, dev=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: table is not a permutation") and b"Traceback" not in proc.stderr


def test_lwe_keygen_writes_its_files(tmp_path):
    pk, td = tmp_path / "pk.bin", tmp_path / "td.bin"
    run_process(f"lwe keygen --preset micro --seed 0d --out-pk {pk} --out-td {td} --format kv", dev=True)
    assert b"INSECURE-DEMO" in pk.read_bytes() and td.read_bytes()


# the 4,2,4 instance file: a 13-byte header and 2^4 u32 pi entries, then the
# u32 coset count and 2^2 entries of 40 bytes: y u64, matrix length u32, the
# 4 x 2 matrix (u16 rows, u16 cols, one u64 word per column) and the shift u64
_COUNT = 77


def _coset_entries(blob):
    return [blob[_COUNT + 4 + 40 * i:_COUNT + 44 + 40 * i] for i in range(4)]


def _with_entries(blob, entries):
    return blob[:_COUNT] + struct.pack("<I", len(entries)) + b"".join(entries)


def _relabelled(entry, y):
    return struct.pack("<Q", y) + entry[8:]


def _one_coset(blob):
    return _with_entries(blob, _coset_entries(blob)[:1])


def _five_cosets(blob):
    entries = _coset_entries(blob)
    return _with_entries(blob, entries + [_relabelled(entries[0], 4)])


def _swapped_ys(blob):
    e = _coset_entries(blob)
    return _with_entries(blob, [e[1], e[0], e[2], e[3]])


def _repeated_y(blob):
    e = _coset_entries(blob)
    return _with_entries(blob, [e[0], _relabelled(e[1], 0), e[2], e[3]])


def _y_out_of_range(blob):
    e = _coset_entries(blob)
    return _with_entries(blob, e[:3] + [_relabelled(e[3], 1 << 40)])


def _one_column_matrix(blob):
    e = _coset_entries(blob)
    narrow = struct.pack("<QIHH", 0, 12, 4, 1) + e[0][16:24] + e[0][32:]
    return _with_entries(blob, [narrow] + e[1:])


def _rank_one_matrix(blob):
    e = _coset_entries(blob)
    twin = e[0][:24] + e[0][16:24] + e[0][32:]
    return _with_entries(blob, [twin] + e[1:])


@pytest.mark.parametrize("corrupt, message", [
    (_one_coset, b"error: 1 cosets where 2^2 are due"),
    (_five_cosets, b"error: 5 cosets where 2^2 are due"),
    (_swapped_ys, b"error: coset entry 0 is labelled y = 1"),
    (_repeated_y, b"error: coset entry 1 is labelled y = 0"),
    (_y_out_of_range, b"error: coset entry 3 is labelled y = 1099511627776"),
    (_one_column_matrix, b"error: coset matrix of y = 0 is not a full-column-rank 4 x 2 matrix"),
    (_rank_one_matrix, b"error: coset matrix of y = 0 is not a full-column-rank 4 x 2 matrix"),
])
def test_instance_coset_table_corruption_is_a_contract_error(tmp_path, corrupt, message):
    inst = tmp_path / "inst.bin"
    run_process(f"oss gen --tiny 4,2,4 --seed 07 --out-inst {inst} --format kv", dev=True)
    blob = inst.read_bytes()
    assert blob[_COUNT:_COUNT + 4] == struct.pack("<I", 4) and _with_entries(blob, _coset_entries(blob)) == blob
    inst.write_bytes(corrupt(blob))
    proc = run_process(f"oss hash --inst {inst} --x 1", check=False, dev=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith(message) and b"Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, flag", [
    ("prp eval --bits 4 --seed zz --x 1", b"--seed"),
    ("merge eval --n0 2 --n1 2 --seed 123 --b 0 --x 1", b"--seed"),
    ("oss selfreduce --seed2 0g", b"--seed2"),
    ("oss hash --tiny 8,4 --x 1", b"--tiny"),
    ("oss hash --tiny 8,4,8,1 --x 1", b"--tiny"),
    ("oss hash --tiny 8,x,8 --x 1", b"--tiny"),
    ("prp eval --bits -1 --x 0", b"--bits"),
    ("prp decompose --bits -4", b"--bits"),
    ("prp decompose --bits 4 --limit -1", b"--limit"),
    ("perm verify --desc 'cycle 16 2 9' --budget -5", b"--budget"),
    ("qsim sign --message 1a0", b"--message"),
    ("qsim sign --message ''", b"--message"),
])
def test_malformed_flags_are_usage_errors(argv, flag):
    proc = run_cli(argv, check=False)
    assert proc.returncode == 2
    assert b"error: argument " + flag + b":" in proc.stderr and b"Traceback" not in proc.stderr


# the flags of each subcommand: exactly the ones its handler reads
SUBCOMMAND_FLAGS = {
    "prp eval": "--bits --format --out --seed --x",
    "prp inv": "--bits --format --out --seed --z",
    "prp permute-eval": "--bits --c --format --out --seed --x --z",
    "prp decompose": "--bits --format --limit --out --seed",
    "merge eval": "--b --format --n0 --n1 --out --seed --x",
    "merge inv": "--format --n0 --n1 --out --seed --z",
    "merge permute-eval": "--c --format --n0 --n1 --out --seed --x --z",
    "perm apply": "--desc --format --out --x",
    "perm verify": "--budget --desc --format --out",
    "hypergeom sample": "--N --format --kappa --out --r --s --t",
    "owp gen": "--bits --format --out --out-pk --out-sk --seed",
    "owp eval": "--bits --format --out --pk --seed --x",
    "owp invert": "--bits --format --out --seed --sk --y",
    "oss gen": "--d --format --lambda --mode --out --out-inst --preset --seed --tiny",
    "oss hash": "--d --format --inst --lambda --mode --out --preset --seed --tiny --x",
    "oss p": "--d --format --inst --lambda --mode --out --preset --seed --tiny --x",
    "oss pinv": "--d --format --inst --lambda --mode --out --preset --seed --tiny --u --y",
    "oss selfreduce": "--d --format --inst --lambda --mode --out --out-inst --preset --seed --seed2 --tiny",
    "oss bloat": "--d --format --inst --lambda --mode --out --preset --s --seed --tiny --v --y",
    "oss embed-cpf": "--format --k --l --n --out --seed --x",
    "lwe keygen": "--format --out --out-pk --out-td --params-file --preset --seed",
    "lwe eval": "--format --out --params-file --preset --seed --x",
    "lwe invert": "--format --out --params-file --preset --seed --y",
    "qsim noncollapse": "--branch --format --k --n --out --r --seed",
    "qsim sign": "--format --m --message --n --out --seed",
    "verify-all": "--format --level --out",
}


def _subcommand_flags(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        flags = (s for a in parser._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings)
        yield " ".join(path), " ".join(sorted(flags))
    for action in subs:
        for name, sp in action.choices.items():
            yield from _subcommand_flags(sp, path + (name,))


def test_every_subcommand_declares_its_flags():
    assert dict(_subcommand_flags(cli.build_parser())) == SUBCOMMAND_FLAGS


@pytest.mark.parametrize("argv, flag", [
    ("perm apply --desc 'swap 8 3' --x 1 --seed 00", b"--seed"),
    ("perm verify --desc 'cycle 16 2 9' --seed 00", b"--seed"),
    ("hypergeom sample --N 12 --t 5 --s 7 --r 1 --seed 00", b"--seed"),
    ("verify-all --seed 00", b"--seed"),
    ("oss gen --inst missing.bin", b"--inst"),
    ("oss embed-cpf --preset tiny", b"--preset"),
    ("oss embed-cpf --lambda 2", b"--lambda"),
    ("oss embed-cpf --tiny 8,4,8", b"--tiny"),
    ("oss embed-cpf --mode oracle", b"--mode"),
    ("oss embed-cpf --d 10", b"--d"),
    ("oss embed-cpf --inst missing.bin", b"--inst"),
])
def test_flags_a_command_never_reads_are_usage_errors(argv, flag):
    proc = run_cli(argv, check=False)
    assert proc.returncode == 2
    assert b"unrecognized arguments: " + flag in proc.stderr and b"Traceback" not in proc.stderr


def test_embed_cpf_builds_and_reads_no_instance(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("oss embed-cpf needs no OSS instance")

    monkeypatch.setattr(oss, "oss_gen", refuse)
    monkeypatch.setattr(oss, "deserialize_instance", refuse)
    assert cli.main(["oss", "embed-cpf", "--format", "kv"]) == 0
    assert capsys.readouterr().out == "y=9\nu=183\n"


@pytest.mark.parametrize("argv, params", [
    ("oss hash --preset paper --lambda 2 --seed 07 --x 5", oss.OssParams.paper_preset(2)),
    ("oss hash --mode standard --tiny 8,4,8 --d 10 --seed 07 --x 5",
     oss.OssParams.tiny(8, 4, 8, mode=oss.MODE_STANDARD, d=10)),
])
def test_oss_instance_flags_match_the_library(argv, params):
    kv = cli.parse_kv(run_cli(argv + " --format kv").stdout.decode())
    assert kv == {"y": str(oss.oss_hash(oss.oss_gen(params, prng.key_from_hex("07").seed), 5))}


def test_qsim_sign_message_verifies_every_bit():
    kv = cli.parse_kv(run_cli("qsim sign --message 101 --format kv").stdout.decode())
    assert [kv[f"verified{i}"] for i in range(3)] == ["1", "1", "1"]


def test_out_file_holds_the_stdout_bytes(tmp_path):
    out = tmp_path / "out.txt"
    stdout = run_cli("prp eval --bits 8 --seed 00 --x 5").stdout
    assert run_process(f"prp eval --bits 8 --seed 00 --x 5 --out {out}", dev=True).stdout == b""
    assert out.read_bytes() == stdout


@pytest.mark.parametrize("argv, message", [
    ("oss embed-cpf --n 8 --l 0", b"error: --l must lie in [1, --n = 8], got 0"),
    ("oss embed-cpf --n 8 --l 9", b"error: --l must lie in [1, --n = 8], got 9"),
    ("oss embed-cpf --n 8 --l 3", b"error: --n = 8 is not a multiple of --l = 3"),
])
def test_embed_cpf_slice_count_outside_its_range_is_a_contract_error(argv, message):
    proc = run_cli(argv, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(message) and b"Traceback" not in proc.stderr


@pytest.mark.parametrize("n", [64, 40])
def test_embed_cpf_wide_slice_is_refused_before_its_table(n):
    # a 2^n table overflows (n = 64) or exhausts 2 GiB of address space (n = 40)
    proc = run_process(f"oss embed-cpf --n {n} --l 1", check=False, timeout=120, capped=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: --n above 16") and b"Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("argv, message", [
    ("oss pinv --tiny 8,4,8 --seed 07 --y 3 --u 272", b"error: --u outside [0, 2^8)"),
    ("oss pinv --tiny 8,4,8 --seed 07 --y 3 --u -1", b"error: --u outside [0, 2^8)"),
    ("oss bloat --tiny 8,4,8 --seed 07 --s 2 --y 3 --v 256", b"error: --v outside [0, 2^8)"),
    ("oss bloat --tiny 8,4,8 --seed 07 --s 2 --y 99 --v 129", b"error: --y outside [0, 16)"),
    ("oss pinv --tiny 8,4,8 --seed 07 --y 16 --u 3", b"error: --y outside [0, 16)"),
    ("oss hash --tiny 6,3,6 --seed 07 --x 999", b"error: --x outside [0, 64)"),
    ("oss p --tiny 6,3,6 --seed 07 --x -1", b"error: --x outside [0, 64)"),
    ("oss embed-cpf --seed 01 --x 999", b"error: --x outside [0, 256)"),
    ("lwe eval --preset micro --seed 0d --x 145", b"error: --x outside [0, 128)"),
    ("lwe eval --preset micro --seed 0d --x -111", b"error: --x outside [0, 128)"),
    ("lwe invert --preset micro --seed 0d --y 9999", b"error: --y outside [0, 512)"),
    ("merge permute-eval --n0 3 --n1 5 --seed 0b --z 7 --c 1 --x 0", b"error: --z outside [0, 7)"),
])
def test_oracle_inputs_outside_their_range_are_errors(argv, message):
    proc = run_cli(argv, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(message) and b"Traceback" not in proc.stderr


def test_params_file_missing_keys_is_a_contract_error(tmp_path):
    params = tmp_path / "params.txt"
    params.write_text("u=4\nv=8\n")
    proc = run_process(f"lwe keygen --params-file {params} --seed 01", check=False, dev=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, steps", [
    ("prp decompose --bits 4 --seed 01 --limit 8 --format kv", [1, 4, 6, 5, 3, 2, 1, 0]),
    ("prp decompose --bits 24 --seed 01 --limit 4 --format kv", [0, 1, 0, 4]),
])
def test_prp_decompose_steps_are_pinned(argv, steps):
    kv = cli.parse_kv(run_cli(argv).stdout.decode())
    assert kv == {f"step{i}": str(z) for i, z in enumerate(steps)}


# one statement of each op with 0 to 4 small arguments; affine's first
# argument is a bit count, so its arguments stay small to keep N <= 16
_perm_statements = st.sampled_from(sorted(pd._PERM_ARITY)).flatmap(
    lambda op: st.lists(st.integers(-2, 4) if op == "affine" else st.integers(-3, 16), max_size=4)
    .map(lambda nums: " ".join([op] + [str(v) for v in nums])))


@settings(max_examples=300, deadline=None)
@given(st.lists(_perm_statements, min_size=1, max_size=2), st.sampled_from(["apply", "verify"]),
       st.integers(-3, 20))
def test_perm_commands_never_raise(statements, cmd, x):
    # any statement, well formed or not, exits 0 or 1 through main's handler
    argv = ["perm", cmd, "--desc=" + "; ".join(statements)] + ([f"--x={x}"] if cmd == "apply" else [])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 1)


def test_perm_verify_failure_exit_code():
    ok = run_cli("perm verify --desc 'transp 8 0 5' --format kv")
    assert cli.parse_kv(ok.stdout.decode())["ok"] == "1"


# sha256 of each documented example's stdout: the CLI contract is these bytes,
# so a change that alters any of them must be a declared format change
DOC_EXAMPLE_SHA256 = {
    "prp eval --bits 16 --seed 00 --x 5 --format kv":
        "6877f1bd43cbc3070d991883d2329c16098bd468a532c61e8ce455c413bfcc49",
    "prp inv --bits 16 --seed 00 --z 37584 --format kv":
        "7d3c789cf2b757877f478a491b4baca53c2e1ae378a15a81ac164d8b963ff92e",
    "prp permute-eval --bits 4 --seed 0a --z 6 --c 1 --x 9 --format kv":
        "769e8b9aa7d498cdae79af440695e0aeca84843e9168e1e79eedc1eab13737c8",
    "merge eval --n0 8 --n1 8 --seed 0b --b 1 --x 3 --format kv":
        "06e14e72c627e4c283ee89728dca4bf0e6ff1c6172495895633e62503c9ae421",
    "merge inv --n0 8 --n1 8 --seed 0b --z 11 --format kv":
        "02943b33118ad25dd5162803dd4fc11d522e647d7776af40016002b7437ec430",
    "perm apply --desc 'transp 8 0 5; add 8 3' --x 2 --format kv":
        "64da2c80fec019f60b32bbccad0ade9e636d85ece2bdd5dc713be98ac26c9e1b",
    "perm verify --desc 'cycle 16 2 9' --format kv":
        "5d186e78cb1d10d8cd79700093333a372e58a878f300f96cd271974e66102ddb",
    "hypergeom sample --N 12 --t 5 --s 7 --r 19999 --kappa 16 --format kv":
        "7b519d327803fabd4c74e1b993360e8d48b414771a12d0a868d6edf7cfec50bb",
    "owp gen --bits 12 --seed 0c --format kv":
        "7fcf8558347f8d7b55c136bc6753c6c19ed43273fb6f3ad40d5ee4548643e1e9",
    "owp eval --bits 12 --seed 0c --x 100 --format kv":
        "3d3df3bdaa471d7350f10fdf0e9ad350f46559f666606a485d528de606b7420d",
    "owp invert --bits 12 --seed 0c --y 1723 --format kv":
        "9cd73dfa63d8cf30e36f6be2054d26162d07ffb8e5cab0bc051a839a195ab8fc",
    "oss hash --tiny 8,4,8 --seed 07 --x 5 --format kv":
        "9c2598b875c08a57013a6b5fb15c18acba7faa209a0419746f7bbc1cd606616f",
    "oss bloat --tiny 8,4,8 --seed 07 --s 2 --y 3 --v 129 --format kv":
        "1875e5c6396541cd100c8bbf49dc557ca0c98332141379b6e04316271fa8518f",
    "lwe eval --preset micro --seed 0d --x 17 --format kv":
        "7aeaa27a4152f39c10721c47defaaae2e1a559c785ee9c1e036e3af042fa92f9",
    "qsim noncollapse --n 6 --r 3 --k 6 --seed 0e --branch partial --format kv":
        "af5cb0a33c994d2f725d9c31e7b18eb905b310a7be121c7c4f3b7078047a9b0c",
    "qsim noncollapse --n 6 --r 3 --k 6 --seed 0e --branch full --format kv":
        "31c51ba55a30cc07e97f328b64386c9ba3cea8f16176f4ae25011728dd70555d",
    "qsim sign --n 8 --m 1 --seed 0f --format kv":
        "ac1016b2aa03d983beeceb7578e20bb34e05c3c08f25d0dc1e5eff1a8db410eb",
}


@pytest.mark.parametrize("example", cli.DOC_EXAMPLES)
def test_documented_examples_are_deterministic(example):
    # acceptance criterion: byte-identical machine-readable output across runs,
    # in two processes, whose string-hash seeds differ
    first = run_process(example).stdout
    second = run_process(example).stdout
    assert first == second and first
    assert hashlib.sha256(first).hexdigest() == DOC_EXAMPLE_SHA256[example]
    cli.parse_kv(first.decode())  # every documented example is kv-parseable


def test_perm_help_example_is_valid():
    g = pd.parse_perm(cli.PERM_DESC_EXAMPLE)
    kv = cli.parse_kv(run_cli(f"perm apply --desc '{cli.PERM_DESC_EXAMPLE}' --x 2 --format kv").stdout.decode())
    assert int(kv["y"]) == g.forward(2)
