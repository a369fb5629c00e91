import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from checkout import src_env
from ossprim import gf2, oss, qsim
from ossprim.errors import ContractError, RangeError
from ossprim.oss import OssParams


def test_uniform_state_amplitudes():
    sv = qsim.uniform_state(1)
    assert np.allclose(sv.amps, [2 ** -0.5, 2 ** -0.5])
    sv3 = qsim.uniform_state(3)
    assert np.allclose(sv3.amps, 2 ** -1.5)
    assert abs(np.sum(np.abs(sv3.amps) ** 2) - 1) < 1e-12


def test_qubit_cap_enforced():
    with pytest.raises(RangeError):
        qsim.uniform_state(qsim.QUBIT_CAP + 1)


def test_apply_classical_identity_and_norm():
    sv = qsim.uniform_state(4)
    out = qsim.apply_classical(sv, lambda x: x)
    assert np.allclose(out.amps, sv.amps)


def test_apply_classical_uncompute_uniform_over_images():
    sealed, _ = oss.seal_instance(oss.oss_gen(OssParams.tiny(6, 3, 6), b"\x71" * 32))
    sv = qsim.apply_classical(qsim.uniform_state(6), sealed.forward, out_bits=9, inverse=sealed.inverse)
    nz = np.abs(sv.amps) > 0
    assert nz.sum() == 64
    assert np.allclose(np.abs(sv.amps[nz]) ** 2, 1 / 64)
    assert abs(np.sum(np.abs(sv.amps) ** 2) - 1) < 1e-12


def test_apply_classical_rejects_non_injective():
    sv = qsim.uniform_state(2)
    with pytest.raises(ContractError):
        qsim.apply_classical(sv, lambda x: 0, out_bits=2)


def test_hadamard_involution_and_uniformizer():
    sv = qsim.uniform_state(4)
    back = qsim.hadamard_all(qsim.hadamard_all(sv, range(4)), range(4))
    assert np.allclose(back.amps, sv.amps, atol=1e-12)
    z = qsim.basis_state(3, 0)
    assert np.allclose(qsim.hadamard_all(z, range(3)).amps, 2 ** -1.5)


def test_coset_superposition_hadamards_to_phased_dual():
    k = 6
    from ossprim.prng import PrfKey, bit_stream
    stream = bit_stream(PrfKey(b"\x72" * 32, b"qsim"), b"A")
    a = gf2.random_full_column_rank(k, 3, stream)
    b = gf2.BitVector(stream.bits(k), k)
    coset = gf2.AffineCoset(a, b)
    amps = np.zeros(1 << k, dtype=np.complex128)
    for pt in coset.points():
        amps[oss.vec_to_int(pt)] = 8 ** -0.5
    sv = qsim.hadamard_all(qsim.StateVector(amps, k), range(k))
    kb = gf2.kernel_basis(a)
    span = {0}
    for j in range(kb.ncols):
        span |= {s ^ kb.cols[j] for s in span}
    want = np.zeros(1 << k, dtype=np.complex128)
    for vb in span:
        want[oss.vec_to_int(gf2.BitVector(vb, k))] = (-1) ** ((b.bits & vb).bit_count() & 1) / len(span) ** 0.5
    assert np.allclose(sv.amps, want, atol=1e-12)


def test_measure_deterministic_state():
    out, collapsed = qsim.measure(qsim.basis_state(2, 0), [0, 1],
                                  rng=np.random.default_rng(0))
    assert out == 0
    assert np.allclose(collapsed.amps, qsim.basis_state(2, 0).amps)


def test_measure_exhaustive_uniform_single_qubit():
    dist = qsim.measure(qsim.uniform_state(1), [0], exhaustive=True)
    assert [(o, round(p, 12)) for o, p, _ in dist] == [(0, 0.5), (1, 0.5)]
    for _, _, collapsed in dist:
        assert abs(np.sum(np.abs(collapsed.amps) ** 2) - 1) < 1e-12


def test_norm_preserved_across_random_op_sequences():
    rng = np.random.default_rng(3)
    sv = qsim.uniform_state(8)
    table = list(rng.permutation(256))
    for _ in range(1000):
        if rng.random() < 0.5:
            sv = qsim.hadamard_all(sv, [int(rng.integers(0, 8))])
        else:
            sv = qsim.apply_classical(sv, lambda x: table[x])
        assert abs(np.sum(np.abs(sv.amps) ** 2) - 1) < 1e-12


def test_noncollapsing_values_and_gap():
    inst = oss.oss_gen(OssParams.tiny(6, 3, 6), b"\x73" * 32)
    partial = qsim.noncollapsing_experiment(inst, "partial")
    full = qsim.noncollapsing_experiment(inst, "full")
    assert abs(partial - 1.0) < 1e-9
    assert abs(full - 2.0 ** -3) < 1e-12
    assert abs((partial - full) - (1 - 2.0 ** -3)) < 1e-9


def test_noncollapsing_small_dual_gap_shrinks():
    # with k - r = 1 the full branch accepts with probability 1/2
    inst = oss.oss_gen(OssParams.tiny(4, 3, 4), b"\x74" * 32)
    assert abs(qsim.noncollapsing_experiment(inst, "full") - 0.5) < 1e-12
    assert abs(qsim.noncollapsing_experiment(inst, "partial") - 1.0) < 1e-9


def test_sign_verify_happy_path_and_rejections():
    inst = oss.oss_gen(OssParams.tiny(8, 4, 8), b"\x75" * 32)
    rng = np.random.default_rng(9)
    for m in (0, 1):
        sig = qsim.oss_sign_demo(inst, m, rng)
        assert qsim.oss_verify_demo(inst, sig.y, m, sig.x)
        assert not qsim.oss_verify_demo(inst, sig.y, 1 - m, sig.x)
        x_bad = sig.x ^ 1
        if oss.oss_hash(inst, x_bad) != sig.y:
            assert not qsim.oss_verify_demo(inst, sig.y, m, x_bad)


def test_sign_retry_budget_failure_surfaces():
    inst = oss.oss_gen(OssParams.tiny(8, 4, 8), b"\x76" * 32)
    with pytest.raises(ContractError):
        # an impossible budget forces the failure result
        qsim.oss_sign_demo(inst, 1, np.random.default_rng(0), max_retries=0)


def _noncollapse_demo_rows(*args):
    """The demo script's rows, once its header and every row's numbers check."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "noncollapse_demo.py"
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          timeout=120, env=src_env())
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["(n,r,k)", "partial", "full", "2^-(n-r)"]
    for row in rows:
        shape, partial, full, gap = row.split()
        n, r, _ = (int(v) for v in shape.split(","))
        assert partial == "1.000000000"
        assert float(full) == float(gap) == 2.0 ** -(n - r)
    return rows


def test_noncollapse_demo_script():
    assert len(_noncollapse_demo_rows()) == 4


def test_noncollapse_demo_script_with_k_above_n():
    # the default shapes all have n = k; these tell 2^-(n-r) from 2^-(k-r)
    assert len(_noncollapse_demo_rows("--shapes", "4,2,6;3,1,5")) == 2
