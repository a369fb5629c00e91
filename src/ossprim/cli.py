"""Single command-line entry point: ossprim.

Subcommands cover key generation and evaluation for the PRP/merge layers,
the permutation description language, the trapdoor OWP, the coset hash
oracles, the LWE toy hash, the statevector demos, and verify-all, which runs
the desk-scale invariant suites.

Every randomized command is reproducible from --seed (a hex string expanded
through domain-tagged PRF streams per subsystem).  --format kv emits
line-oriented ``key=value`` output that round-trips through parse_kv.  Exit
codes: 0 success, 1 contract or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import hypergeom, lwehash, merge as merge_mod, nsprp, opprp, oss as oss_mod, permdecomp as pd, prng, qsim
from .errors import ContractError
from .oss import OssParams

DOC_EXAMPLES = [
    "prp eval --bits 16 --seed 00 --x 5 --format kv",
    "prp inv --bits 16 --seed 00 --z 37584 --format kv",
    "prp permute-eval --bits 4 --seed 0a --z 6 --c 1 --x 9 --format kv",
    "merge eval --n0 8 --n1 8 --seed 0b --b 1 --x 3 --format kv",
    "merge inv --n0 8 --n1 8 --seed 0b --z 11 --format kv",
    "perm apply --desc 'transp 8 0 5; add 8 3' --x 2 --format kv",
    "perm verify --desc 'cycle 16 2 9' --format kv",
    "hypergeom sample --N 12 --t 5 --s 7 --r 19999 --kappa 16 --format kv",
    "owp gen --bits 12 --seed 0c --format kv",
    "owp eval --bits 12 --seed 0c --x 100 --format kv",
    "owp invert --bits 12 --seed 0c --y 1723 --format kv",
    "oss hash --tiny 8,4,8 --seed 07 --x 5 --format kv",
    "oss bloat --tiny 8,4,8 --seed 07 --s 2 --y 3 --v 129 --format kv",
    "lwe eval --preset micro --seed 0d --x 17 --format kv",
    "qsim noncollapse --n 6 --r 3 --k 6 --seed 0e --branch partial --format kv",
    "qsim noncollapse --n 6 --r 3 --k 6 --seed 0e --branch full --format kv",
    "qsim sign --n 8 --m 1 --seed 0f --format kv",
]

PERM_DESC_EXAMPLE = "swap 8 3; transp 8 0 5; cycle 8 1 6; add 8 3; affine 3 10b 2"


def parse_kv(text: str) -> dict[str, str]:
    """Parse the machine-readable key=value line format."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ContractError(f"not a key=value line: {line!r}")
        out[key] = val
    return out


class _Out:
    def __init__(self, fmt: str):
        self.kv = fmt == "kv"
        self.lines: list[str] = []

    def emit(self, key: str, value, text: Optional[str] = None):
        if self.kv:
            self.lines.append(f"{key}={value}")
        else:
            self.lines.append(text if text is not None else f"{key} = {value}")

    def flush(self, out_path: Optional[str]) -> None:
        payload = "\n".join(self.lines) + "\n"
        if out_path:
            Path(out_path).write_text(payload)
        else:
            sys.stdout.write(payload)


# argparse turns these types' errors into usage errors (exit 2) naming the flag

def _hex_seed(text: str) -> bytes:
    try:
        return prng.key_from_hex(text).seed
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a hex string: {text!r}") from None


def _tiny_triple(text: str) -> tuple[int, int, int]:
    try:
        n, r, k = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not three integers n,r,k: {text!r}") from None
    return n, r, k


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"negative count: {n}")
    return n


# -- prp ----------------------------------------------------------------------------

def cmd_prp(args, out: _Out) -> int:
    k = nsprp.width_key(prng.PrfKey(args.seed, nsprp.PRP_TAG), args.bits)
    if args.sub == "eval":
        out.emit("y", nsprp.prp_forward(k, args.x))
    elif args.sub == "inv":
        out.emit("x", nsprp.prp_inverse(k, args.z))
    elif args.sub == "permute-eval":
        pk = nsprp.prp_permute(k, args.z, args.c)
        out.emit("y", nsprp.permuted_prp_forward(pk, args.x))
    elif args.sub == "decompose":
        for i, st in enumerate(nsprp.prp_decompose(k)):
            if i >= args.limit:
                break
            out.emit(f"step{i}", st.z)
    return 0


# -- merge --------------------------------------------------------------------------

def cmd_merge(args, out: _Out) -> int:
    k = merge_mod.make_merge_key(args.seed, args.n0, args.n1)
    if args.sub == "eval":
        out.emit("z", merge_mod.merge_forward(k, args.b, args.x))
    elif args.sub == "inv":
        b, x = merge_mod.merge_inverse(k, args.z)
        out.emit("b", b)
        out.emit("x", x)
    elif args.sub == "permute-eval":
        pmk = merge_mod.merge_permute(k, args.z, args.c)
        if pmk is None:
            out.emit("illegal", 1, "illegal swap (both preimages in one pile)")
            return 1
        b = 1 if args.x >= args.n0 else 0
        out.emit("z", merge_mod.permuted_merge_eval(pmk, b, args.x - args.n0 if b else args.x))
    return 0


# -- permutation language --------------------------------------------------------------

def cmd_perm(args, out: _Out) -> int:
    g = pd.parse_perm(args.desc)
    if args.sub == "apply":
        if not 0 <= args.x < g.n:
            raise ContractError(f"--x outside [0, {g.n})")
        out.emit("y", g.forward(args.x))
    elif args.sub == "verify":
        rep = pd.verify_decomposition(g, budget=args.budget)
        out.emit("ok", 1 if rep.ok else 0)
        out.emit("steps", rep.checked_steps)
        out.emit("length", g.length)
        if not rep.ok:
            out.emit("failure", rep.failures[0])
            return 1
    return 0


# -- hypergeom -------------------------------------------------------------------------

def cmd_hypergeom(args, out: _Out) -> int:
    p = hypergeom.HypergeomParams(args.N, args.t, args.s)
    out.emit("x", hypergeom.sample(p, args.r, args.kappa))
    return 0


# -- owp --------------------------------------------------------------------------------

def cmd_owp(args, out: _Out) -> int:
    if args.sub == "gen":
        keys = opprp.owp_gen(args.seed, args.bits)
        pk_blob = opprp.serialize_owp_public(keys)
        sk_blob = opprp.serialize_owp_secret(keys)
        if args.out_pk:
            Path(args.out_pk).write_bytes(pk_blob)
        if args.out_sk:
            Path(args.out_sk).write_bytes(sk_blob)
        out.emit("bits", args.bits)
        out.emit("pk_fingerprint", prng.prf_eval(prng.PrfKey(b"\x00" * 32, b"fp"), pk_blob, 8).hex())
        out.emit("label_present", 1 if opprp.MOCK_LABEL in pk_blob else 0)
    elif args.sub == "eval":
        pk = (opprp.deserialize_owp_public(Path(args.pk).read_bytes()) if args.pk
              else opprp.owp_gen(args.seed, args.bits).pk)
        out.emit("y", opprp.owp_forward(pk, args.x))
    elif args.sub == "invert":
        keys = (opprp.deserialize_owp_secret(Path(args.sk).read_bytes()) if args.sk
                else opprp.owp_gen(args.seed, args.bits))
        out.emit("x", opprp.owp_invert(keys.sk, args.y))
    return 0


# -- oss --------------------------------------------------------------------------------

def _oss_params(args) -> OssParams:
    d = args.d if args.mode == "standard" else None
    if args.preset == "paper":
        return OssParams.paper_preset(args.lam, mode=args.mode, d=d)
    return OssParams.tiny(*args.tiny, mode=args.mode, d=d)


def _oss_instance(args) -> oss_mod.OssInstance:
    if args.inst:
        return oss_mod.deserialize_instance(Path(args.inst).read_bytes())
    return oss_mod.oss_gen(_oss_params(args), args.seed)


def _k_vec(val: int, flag: str, k: int):
    """A --u or --v integer as a vector of Z2^k, refused outside [0, 2^k)."""
    if not 0 <= val < (1 << k):
        raise ContractError(f"{flag} outside [0, 2^{k})")
    return oss_mod.int_to_vec(val, k)


def cmd_oss(args, out: _Out) -> int:
    if args.sub == "embed-cpf":
        if not 1 <= args.l <= args.n:
            raise ContractError(f"--l must lie in [1, --n = {args.n}], got {args.l}")
        if args.n % args.l:
            raise ContractError(f"--n = {args.n} is not a multiple of --l = {args.l}")
        stream = prng.bit_stream(prng.PrfKey(args.seed, b"2to1"), b"h")
        h = oss_mod.random_two_to_one(args.n // args.l, stream)
        q = oss_mod.cpf_from_two_to_one(h, args.n // args.l, args.l)
        emb = oss_mod.embed_cpf(q, args.k or args.n, args.seed, validate=True)
        y, u = emb.p(args.x)
        out.emit("y", y)
        out.emit("u", oss_mod.vec_to_int(u))
        return 0
    if args.sub == "gen":
        inst = oss_mod.oss_gen(_oss_params(args), args.seed)
        blob = oss_mod.serialize_instance(inst)
        if args.out_inst:
            Path(args.out_inst).write_bytes(blob)
        out.emit("n", inst.params.n)
        out.emit("r", inst.params.r)
        out.emit("k", inst.params.k)
        out.emit("bytes", len(blob))
        return 0
    inst = _oss_instance(args)
    if args.sub == "hash":
        out.emit("y", oss_mod.oss_hash(inst, args.x))
    elif args.sub == "p":
        y, u = oss_mod.oss_p(inst, args.x)
        out.emit("y", y)
        out.emit("u", oss_mod.vec_to_int(u))
    elif args.sub == "pinv":
        x = oss_mod.oss_p_inv(inst, args.y, _k_vec(args.u, "--u", inst.params.k))
        out.emit("x", "bottom" if x is None else x)
    elif args.sub == "selfreduce":
        sr = oss_mod.self_reduce(inst, args.seed2)
        blob = oss_mod.serialize_instance(sr.instance)
        if args.out_inst:
            Path(args.out_inst).write_bytes(blob)
        out.emit("bytes", len(blob))
        out.emit("gamma_of_0", sr.back_map(0))
    elif args.sub == "bloat":
        dp = oss_mod.bloat_dual(inst, args.s)
        out.emit("accept", dp(args.y, _k_vec(args.v, "--v", inst.params.k)))
    return 0


# -- lwe --------------------------------------------------------------------------------

def _lwe_params(args) -> lwehash.LweParams:
    if args.params_file:
        return lwehash.parse_params(Path(args.params_file).read_text())
    return lwehash.MICRO if args.preset == "micro" else lwehash.INSECURE_DEMO


def _lwe_keys(args):
    p = _lwe_params(args)
    stream = prng.bit_stream(prng.PrfKey(args.seed, b"lwe"), b"keygen")
    return p, *lwehash.hashl_keygen(p, stream)


def cmd_lwe(args, out: _Out) -> int:
    if args.sub == "keygen":
        p, pk, td = _lwe_keys(args)
        pk_blob = lwehash.serialize_key(pk)
        td_blob = lwehash.serialize_trapdoor(p, td)
        if args.out_pk:
            Path(args.out_pk).write_bytes(pk_blob)
        if args.out_td:
            Path(args.out_td).write_bytes(td_blob)
        out.emit("domain_bits", p.domain_bits)
        out.emit("insecure_demo", 1 if lwehash.INSECURE_DEMO_MAGIC in pk_blob else 0)
    elif args.sub == "eval":
        p, pk, td = _lwe_keys(args)
        out.emit("y", lwehash.hashl_eval_packed(pk, args.x))
    elif args.sub == "invert":
        p, pk, _ = _lwe_keys(args)
        pre = lwehash.hashl_invert(pk, lwehash.unpack_range(p, args.y))
        out.emit("count", len(pre))
        for i, (t, f, b) in enumerate(pre):
            out.emit(f"preimage{i}", lwehash.pack_domain(p, t, f, b))
    return 0


# -- qsim -------------------------------------------------------------------------------

def cmd_qsim(args, out: _Out) -> int:
    if args.sub == "noncollapse":
        inst = oss_mod.oss_gen(OssParams.tiny(args.n, args.r, args.k), args.seed)
        prob = qsim.noncollapsing_experiment(inst, args.branch)
        out.emit("branch", args.branch)
        out.emit("accept_probability", repr(prob))
    elif args.sub == "sign":
        # multi-bit messages loop over independent one-bit instances
        rng = np.random.default_rng(int.from_bytes(args.seed, "big") & 0xFFFFFFFF)
        bits = args.message if args.message is not None else str(args.m)
        root = prng.PrfKey(args.seed, b"sign-demo")
        for i, ch in enumerate(bits):
            inst = oss_mod.oss_gen(OssParams.tiny(args.n, args.n // 2, args.n),
                                   prng.derive_key(root, b"bit%d" % i).seed)
            sig = qsim.oss_sign_demo(inst, int(ch), rng)
            okv = qsim.oss_verify_demo(inst, sig.y, int(ch), sig.x)
            out.emit(f"y{i}", sig.y)
            out.emit(f"x{i}", sig.x)
            out.emit(f"verified{i}", 1 if okv else 0)
            if not okv:
                return 1
    return 0


# -- verify-all --------------------------------------------------------------------------

def cmd_verify_all(args, out: _Out) -> int:
    from . import checks  # scipy.stats is heavy; keep it off the CLI start path

    results = checks.run_all(args.level)
    failed = 0
    for i, res in enumerate(results, start=1):
        if out.kv:
            out.emit(f"crit{i:02d}", "pass" if res.ok else "fail")
        else:
            out.emit("", "", res.line)
        failed += 0 if res.ok else 1
    if out.kv:
        out.emit("failed", failed)
    else:
        out.emit("", "", f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 1


# -- wiring ---------------------------------------------------------------------------

def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A flag group that the subcommands reading it take through ``parents=``."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _ints(sp: argparse.ArgumentParser, *flags: str) -> argparse.ArgumentParser:
    """Add required integer flags; --b and --c are single bits."""
    for flag in flags:
        sp.add_argument(flag, type=int, required=True, choices=(0, 1) if flag in ("--b", "--c") else None)
    return sp


def build_parser() -> argparse.ArgumentParser:
    out = _flags()
    out.add_argument("--format", choices=("text", "kv"), default="text")
    out.add_argument("--out", default=None, help="write output to a file instead of stdout")
    seed = _flags(out)
    seed.add_argument("--seed", type=_hex_seed, default="00",
                      help="hex seed; all randomness derives from it")

    ap = argparse.ArgumentParser(prog="ossprim",
                                 description="one-shot-signature machinery: permutable PRPs, "
                                             "coset hash oracles, LWE toy hash, demos")
    groups = ap.add_subparsers(dest="cmd", required=True)

    def group(name, handler, help, *common):
        g = groups.add_parser(name, help=help)
        g.set_defaults(handler=handler)
        subs = g.add_subparsers(dest="sub", required=True)
        return lambda cmd, *ints, parents=common: _ints(subs.add_parser(cmd, parents=list(parents)), *ints)

    bits = _flags(seed)
    bits.add_argument("--bits", type=_count, required=True)
    prp = group("prp", cmd_prp, "recursive neighbor-swappable PRP", bits)
    prp("eval", "--x")
    prp("inv", "--z")
    prp("permute-eval", "--z", "--c", "--x")
    prp("decompose").add_argument("--limit", type=_count, default=16)

    sizes = _ints(_flags(seed), "--n0", "--n1")
    merge = group("merge", cmd_merge, "order-preserving pseudorandom merge", sizes)
    merge("eval", "--b", "--x")
    merge("inv", "--z")
    merge("permute-eval", "--z", "--c", "--x")

    desc = _flags(out)
    desc.add_argument("--desc", required=True, help=f"e.g. '{PERM_DESC_EXAMPLE}'")
    perm = group("perm", cmd_perm, "decomposable permutation language", desc)
    perm("apply", "--x")
    perm("verify").add_argument("--budget", type=_count, default=1 << 20)

    hg = group("hypergeom", cmd_hypergeom, "exact hypergeometric sampler", out)
    hg("sample", "--N", "--t", "--s", "--r").add_argument("--kappa", type=int,
                                                          default=hypergeom.DEFAULT_KAPPA)

    owp_bits = _flags(seed)
    owp_bits.add_argument("--bits", type=int, default=12)
    owp = group("owp", cmd_owp, "trapdoor one-way permutation (mock obfuscation)", owp_bits)
    s = owp("gen")
    s.add_argument("--out-pk", default=None)
    s.add_argument("--out-sk", default=None)
    owp("eval", "--x").add_argument("--pk", default=None,
                                    help="public key file (defaults to --seed keygen)")
    owp("invert", "--y").add_argument("--sk", default=None,
                                      help="secret key file (defaults to --seed keygen)")

    params = _flags(seed)  # the OSS instance parameters
    params.add_argument("--preset", choices=("paper", "tiny"), default="tiny")
    params.add_argument("--lambda", dest="lam", type=int, default=2)
    params.add_argument("--tiny", type=_tiny_triple, default="8,4,8", help="n,r,k")
    params.add_argument("--mode", choices=("oracle", "standard"), default="oracle")
    params.add_argument("--d", type=int, default=None)
    inst = _flags(params)
    inst.add_argument("--inst", default=None, help="instance file (overrides preset)")
    oss = group("oss", cmd_oss, "coset hash oracle instances", inst)
    oss("gen", parents=[params]).add_argument("--out-inst", default=None)
    oss("hash", "--x")
    oss("p", "--x")
    oss("pinv", "--y", "--u")
    s = oss("selfreduce")
    s.add_argument("--seed2", type=_hex_seed, default="01")
    s.add_argument("--out-inst", default=None)
    oss("bloat", "--s", "--y", "--v")
    s = oss("embed-cpf", parents=[seed])
    s.add_argument("--n", type=int, default=8)
    s.add_argument("--l", type=int, default=2)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--x", type=int, default=0)

    lwe_params = _flags(seed)
    lwe_params.add_argument("--preset", choices=("insecure-demo", "micro"), default="insecure-demo")
    lwe_params.add_argument("--params-file", default=None, help="key=value parameter file")
    lwe = group("lwe", cmd_lwe, "INSECURE-DEMO LWE trapdoor hash", lwe_params)
    s = lwe("keygen")
    s.add_argument("--out-pk", default=None)
    s.add_argument("--out-td", default=None)
    lwe("eval", "--x")
    lwe("invert", "--y")

    qs = group("qsim", cmd_qsim, "statevector demos", seed)
    qs("noncollapse", "--n", "--r", "--k").add_argument("--branch", choices=("full", "partial"),
                                                        required=True)
    s = qs("sign")
    s.add_argument("--n", type=int, default=8)
    s.add_argument("--m", type=int, choices=(0, 1), default=0)
    s.add_argument("--message", default=None, help="bit string; loops one-bit instances")

    va = groups.add_parser("verify-all", parents=[out], help="run the desk-scale invariant suites")
    va.set_defaults(handler=cmd_verify_all)
    va.add_argument("--level", choices=("quick", "full"), default="quick")
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = _Out(args.format)
    try:
        code = args.handler(args, out)
    except (ContractError, ValueError, RuntimeError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    out.flush(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
