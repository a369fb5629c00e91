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


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=_hex_seed, default="00",
                    help="hex seed; all randomness derives from it")
    sp.add_argument("--format", choices=("text", "kv"), default="text")
    sp.add_argument("--out", default=None, help="write output to a file instead of stdout")


# -- prp ----------------------------------------------------------------------------

def _prp_key(args) -> nsprp.PrpKey:
    if args.bits > nsprp.EXACT_MAX_BITS:
        return nsprp.make_scale_prp_key(args.seed, args.bits)
    return nsprp.make_prp_key(args.seed, 1 << args.bits)


def cmd_prp(args, out: _Out) -> int:
    k = _prp_key(args)
    if args.prp_cmd == "eval":
        out.emit("y", nsprp.prp_forward(k, args.x))
    elif args.prp_cmd == "inv":
        out.emit("x", nsprp.prp_inverse(k, args.z))
    elif args.prp_cmd == "permute-eval":
        pk = nsprp.prp_permute(k, args.z, args.c)
        out.emit("y", nsprp.permuted_prp_forward(pk, args.x))
    elif args.prp_cmd == "decompose":
        for i, st in enumerate(nsprp.prp_decompose(k)):
            if i >= args.limit:
                break
            out.emit(f"step{i}", st.z)
    return 0


# -- merge --------------------------------------------------------------------------

def cmd_merge(args, out: _Out) -> int:
    k = merge_mod.make_merge_key(args.seed, args.n0, args.n1)
    if args.merge_cmd == "eval":
        out.emit("z", merge_mod.merge_forward(k, args.b, args.x))
    elif args.merge_cmd == "inv":
        b, x = merge_mod.merge_inverse(k, args.z)
        out.emit("b", b)
        out.emit("x", x)
    elif args.merge_cmd == "permute-eval":
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
    if args.perm_cmd == "apply":
        if not 0 <= args.x < g.n:
            raise ContractError(f"--x outside [0, {g.n})")
        out.emit("y", g.forward(args.x))
    elif args.perm_cmd == "verify":
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

def _owp_keys(args) -> opprp.TrapdoorOwpKeys:
    if getattr(args, "pk", None):
        pk = opprp.deserialize_owp_public(Path(args.pk).read_bytes())
        return opprp.TrapdoorOwpKeys(pk, None, pk.n.bit_length() - 1)
    if getattr(args, "sk", None):
        return opprp.deserialize_owp_secret(Path(args.sk).read_bytes())
    return opprp.owp_gen(args.seed, args.bits)


def cmd_owp(args, out: _Out) -> int:
    if args.owp_cmd == "gen":
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
    elif args.owp_cmd == "eval":
        keys = _owp_keys(args)
        out.emit("y", opprp.owp_forward(keys.pk, args.x))
    elif args.owp_cmd == "invert":
        out.emit("x", opprp.owp_invert(_owp_keys(args).sk, args.y))
    return 0


# -- oss --------------------------------------------------------------------------------

def _oss_params(args) -> OssParams:
    d = args.d if args.mode == "standard" else None
    if args.preset == "paper":
        return OssParams.paper_preset(args.lam, mode=args.mode, d=d)
    return OssParams.tiny(*args.tiny, mode=args.mode, d=d)


def _oss_instance(args) -> oss_mod.OssInstance:
    if getattr(args, "inst", None):
        return oss_mod.deserialize_instance(Path(args.inst).read_bytes())
    return oss_mod.oss_gen(_oss_params(args), args.seed)


def _k_vec(val: int, flag: str, k: int):
    """A --u or --v integer as a vector of Z2^k, refused outside [0, 2^k)."""
    if not 0 <= val < (1 << k):
        raise ContractError(f"{flag} outside [0, 2^{k})")
    return oss_mod.int_to_vec(val, k)


def cmd_oss(args, out: _Out) -> int:
    if args.oss_cmd == "gen":
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
    if args.oss_cmd == "hash":
        out.emit("y", oss_mod.oss_hash(inst, args.x))
    elif args.oss_cmd == "p":
        y, u = oss_mod.oss_p(inst, args.x)
        out.emit("y", y)
        out.emit("u", oss_mod.vec_to_int(u))
    elif args.oss_cmd == "pinv":
        x = oss_mod.oss_p_inv(inst, args.y, _k_vec(args.u, "--u", inst.params.k))
        out.emit("x", "bottom" if x is None else x)
    elif args.oss_cmd == "selfreduce":
        sr = oss_mod.self_reduce(inst, args.seed2)
        blob = oss_mod.serialize_instance(sr.instance)
        if args.out_inst:
            Path(args.out_inst).write_bytes(blob)
        out.emit("bytes", len(blob))
        out.emit("gamma_of_0", sr.back_map(0))
    elif args.oss_cmd == "bloat":
        dp = oss_mod.bloat_dual(inst, args.s)
        out.emit("accept", dp(args.y, _k_vec(args.v, "--v", inst.params.k)))
    elif args.oss_cmd == "embed-cpf":
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


# -- lwe --------------------------------------------------------------------------------

def _lwe_params(args) -> lwehash.LweParams:
    if getattr(args, "params_file", None):
        return lwehash.parse_params(Path(args.params_file).read_text())
    return lwehash.MICRO if args.preset == "micro" else lwehash.INSECURE_DEMO


def _lwe_keys(args):
    p = _lwe_params(args)
    stream = prng.bit_stream(prng.PrfKey(args.seed, b"lwe"), b"keygen")
    return p, *lwehash.hashl_keygen(p, stream)


def cmd_lwe(args, out: _Out) -> int:
    if args.lwe_cmd == "keygen":
        p, pk, td = _lwe_keys(args)
        pk_blob = lwehash.serialize_key(pk)
        td_blob = lwehash.serialize_trapdoor(p, td)
        if args.out_pk:
            Path(args.out_pk).write_bytes(pk_blob)
        if args.out_td:
            Path(args.out_td).write_bytes(td_blob)
        out.emit("domain_bits", p.domain_bits)
        out.emit("insecure_demo", 1 if lwehash.INSECURE_DEMO_MAGIC in pk_blob else 0)
    elif args.lwe_cmd == "eval":
        p, pk, td = _lwe_keys(args)
        out.emit("y", lwehash.hashl_eval_packed(pk, args.x))
    elif args.lwe_cmd == "invert":
        p, pk, td = _lwe_keys(args)
        pre = lwehash.hashl_invert(pk, td, lwehash.unpack_range(p, args.y))
        out.emit("count", len(pre))
        for i, (t, f, b) in enumerate(pre):
            out.emit(f"preimage{i}", lwehash.pack_domain(p, t, f, b))
    return 0


# -- qsim -------------------------------------------------------------------------------

def cmd_qsim(args, out: _Out) -> int:
    if args.qsim_cmd == "noncollapse":
        inst = oss_mod.oss_gen(OssParams.tiny(args.n, args.r, args.k), args.seed)
        prob = qsim.noncollapsing_experiment(inst, args.branch)
        out.emit("branch", args.branch)
        out.emit("accept_probability", repr(prob))
    elif args.qsim_cmd == "sign":
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

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ossprim",
                                 description="one-shot-signature machinery: permutable PRPs, "
                                             "coset hash oracles, LWE toy hash, demos")
    sub = ap.add_subparsers(dest="cmd", required=True)

    prp = sub.add_parser("prp", help="recursive neighbor-swappable PRP")
    prp_sub = prp.add_subparsers(dest="prp_cmd", required=True)
    for name in ("eval", "inv", "permute-eval", "decompose"):
        s = prp_sub.add_parser(name)
        s.add_argument("--bits", type=_count, required=True)
        _add_common(s)
        if name == "eval":
            s.add_argument("--x", type=int, required=True)
        elif name == "inv":
            s.add_argument("--z", type=int, required=True)
        elif name == "permute-eval":
            s.add_argument("--z", type=int, required=True)
            s.add_argument("--c", type=int, choices=(0, 1), required=True)
            s.add_argument("--x", type=int, required=True)
        else:
            s.add_argument("--limit", type=_count, default=16)

    mg = sub.add_parser("merge", help="order-preserving pseudorandom merge")
    mg_sub = mg.add_subparsers(dest="merge_cmd", required=True)
    for name in ("eval", "inv", "permute-eval"):
        s = mg_sub.add_parser(name)
        s.add_argument("--n0", type=int, required=True)
        s.add_argument("--n1", type=int, required=True)
        _add_common(s)
        if name == "eval":
            s.add_argument("--b", type=int, choices=(0, 1), required=True)
            s.add_argument("--x", type=int, required=True)
        elif name == "inv":
            s.add_argument("--z", type=int, required=True)
        else:
            s.add_argument("--z", type=int, required=True)
            s.add_argument("--c", type=int, choices=(0, 1), required=True)
            s.add_argument("--x", type=int, required=True)

    pm = sub.add_parser("perm", help="decomposable permutation language")
    pm_sub = pm.add_subparsers(dest="perm_cmd", required=True)
    for name in ("apply", "verify"):
        s = pm_sub.add_parser(name)
        s.add_argument("--desc", required=True,
                       help=f"e.g. '{PERM_DESC_EXAMPLE}'")
        _add_common(s)
        if name == "apply":
            s.add_argument("--x", type=int, required=True)
        else:
            s.add_argument("--budget", type=_count, default=1 << 20)

    hg = sub.add_parser("hypergeom", help="exact hypergeometric sampler")
    hg_sub = hg.add_subparsers(dest="hg_cmd", required=True)
    s = hg_sub.add_parser("sample")
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--t", type=int, required=True)
    s.add_argument("--s", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--kappa", type=int, default=hypergeom.DEFAULT_KAPPA)
    _add_common(s)

    ow = sub.add_parser("owp", help="trapdoor one-way permutation (mock obfuscation)")
    ow_sub = ow.add_subparsers(dest="owp_cmd", required=True)
    for name in ("gen", "eval", "invert"):
        s = ow_sub.add_parser(name)
        s.add_argument("--bits", type=int, default=12)
        _add_common(s)
        if name == "gen":
            s.add_argument("--out-pk", default=None)
            s.add_argument("--out-sk", default=None)
        elif name == "eval":
            s.add_argument("--pk", default=None, help="public key file (defaults to --seed keygen)")
            s.add_argument("--x", type=int, required=True)
        else:
            s.add_argument("--sk", default=None, help="secret key file (defaults to --seed keygen)")
            s.add_argument("--y", type=int, required=True)

    os_ = sub.add_parser("oss", help="coset hash oracle instances")
    os_sub = os_.add_subparsers(dest="oss_cmd", required=True)
    for name in ("gen", "hash", "p", "pinv", "selfreduce", "bloat", "embed-cpf"):
        s = os_sub.add_parser(name)
        s.add_argument("--preset", choices=("paper", "tiny"), default="tiny")
        s.add_argument("--lambda", dest="lam", type=int, default=2)
        s.add_argument("--tiny", type=_tiny_triple, default="8,4,8", help="n,r,k")
        s.add_argument("--mode", choices=("oracle", "standard"), default="oracle")
        s.add_argument("--d", type=int, default=None)
        s.add_argument("--inst", default=None, help="instance file (overrides preset)")
        _add_common(s)
        if name == "gen":
            s.add_argument("--out-inst", default=None)
        elif name in ("hash", "p"):
            s.add_argument("--x", type=int, required=True)
        elif name == "pinv":
            s.add_argument("--y", type=int, required=True)
            s.add_argument("--u", type=int, required=True)
        elif name == "selfreduce":
            s.add_argument("--seed2", type=_hex_seed, default="01")
            s.add_argument("--out-inst", default=None)
        elif name == "bloat":
            s.add_argument("--s", type=int, required=True)
            s.add_argument("--y", type=int, required=True)
            s.add_argument("--v", type=int, required=True)
        else:
            s.add_argument("--n", type=int, default=8)
            s.add_argument("--l", type=int, default=2)
            s.add_argument("--k", type=int, default=None)
            s.add_argument("--x", type=int, default=0)

    lw = sub.add_parser("lwe", help="INSECURE-DEMO LWE trapdoor hash")
    lw_sub = lw.add_subparsers(dest="lwe_cmd", required=True)
    for name in ("keygen", "eval", "invert"):
        s = lw_sub.add_parser(name)
        s.add_argument("--preset", choices=("insecure-demo", "micro"), default="insecure-demo")
        s.add_argument("--params-file", default=None, help="key=value parameter file")
        _add_common(s)
        if name == "keygen":
            s.add_argument("--out-pk", default=None)
            s.add_argument("--out-td", default=None)
        elif name == "eval":
            s.add_argument("--x", type=int, required=True)
        else:
            s.add_argument("--y", type=int, required=True)

    qs = sub.add_parser("qsim", help="statevector demos")
    qs_sub = qs.add_subparsers(dest="qsim_cmd", required=True)
    s = qs_sub.add_parser("noncollapse")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--branch", choices=("full", "partial"), required=True)
    _add_common(s)
    s = qs_sub.add_parser("sign")
    s.add_argument("--n", type=int, default=8)
    s.add_argument("--m", type=int, choices=(0, 1), default=0)
    s.add_argument("--message", default=None, help="bit string; loops one-bit instances")
    _add_common(s)

    va = sub.add_parser("verify-all", help="run the desk-scale invariant suites")
    va.add_argument("--level", choices=("quick", "full"), default="quick")
    _add_common(va)
    return ap


_DISPATCH = {
    "prp": cmd_prp,
    "merge": cmd_merge,
    "perm": cmd_perm,
    "hypergeom": cmd_hypergeom,
    "owp": cmd_owp,
    "oss": cmd_oss,
    "lwe": cmd_lwe,
    "qsim": cmd_qsim,
    "verify-all": cmd_verify_all,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = _Out(args.format)
    try:
        code = _DISPATCH[args.cmd](args, out)
    except (ContractError, ValueError, RuntimeError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    out.flush(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
