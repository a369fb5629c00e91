"""Dense statevector simulator for the non-collapsing demonstration.

Small and exact by design: up to QUBIT_CAP qubits, double-precision complex
amplitudes, Born-rule measurement with an exhaustive (exact distribution)
mode.  Qubit 0 is the most significant bit of a basis label, so "the first
bit of x" is the first qubit.  States are immutable snapshots; every
operation returns a new state.

The headline experiment: hash a uniform superposition with the coset oracle
pair, uncompute the input, Hadamard the coset register, and ask the dual
membership oracle.  A partially measured state (hash value measured, input
superposition kept) passes with probability exactly 1; a fully measured
input passes with probability exactly 2^-(n-r), one over the size of the
coset of 2^(n-r) inputs that share its hash value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import oss as oss_mod
from .errors import ContractError, DimensionError, RangeError
from .oss import OssInstance

QUBIT_CAP = 14

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class StateVector:
    amps: np.ndarray
    n: int

    def __post_init__(self):
        if self.n > QUBIT_CAP:
            raise RangeError(f"qubit cap is {QUBIT_CAP}")
        if self.amps.shape != (1 << self.n,):
            raise DimensionError("amplitude count != 2^n")
        norm = float(np.sum(np.abs(self.amps) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ContractError(f"state norm {norm} too far from 1")


def uniform_state(n: int) -> StateVector:
    """|+>^n: all 2^n amplitudes equal to 2^(-n/2)."""
    amps = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    return StateVector(amps, n)


def basis_state(n: int, label: int) -> StateVector:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[label] = 1.0
    return StateVector(amps, n)


def apply_classical(sv: StateVector, f: Callable[[int], int],
                    out_bits: Optional[int] = None,
                    inverse: Optional[Callable[[int], int]] = None) -> StateVector:
    """Relabel basis states by a reversible classical map.

    With out_bits = None, f must be a permutation of the current labels.  The
    uncompute form (out_bits set, typically computing f and erasing the input
    through the supplied inverse) requires f injective; a collision raises.
    """
    m = sv.n if out_bits is None else out_bits
    if m > QUBIT_CAP:
        raise RangeError(f"qubit cap is {QUBIT_CAP}")
    out = np.zeros(1 << m, dtype=np.complex128)
    hit = np.zeros(1 << m, dtype=bool)
    for x in range(1 << sv.n):
        a = sv.amps[x]
        if a == 0:
            continue
        y = f(x)
        if not 0 <= y < (1 << m):
            raise RangeError("classical map left the output register")
        if hit[y]:
            raise ContractError("classical map is not injective on the support")
        if inverse is not None and inverse(y) != x:
            raise ContractError("supplied inverse does not undo the map")
        hit[y] = True
        out[y] = a
    return StateVector(out, m)


def hadamard_all(sv: StateVector, qubits: Iterable[int]) -> StateVector:
    """Parallel Hadamards (the QFT over Z2^k) on the given qubits."""
    amps = sv.amps.reshape([2] * sv.n) if sv.n else sv.amps
    for q in qubits:
        if not 0 <= q < sv.n:
            raise RangeError("qubit index outside register")
        amps = np.moveaxis(amps, q, -1)
        a0 = amps[..., 0].copy()
        a1 = amps[..., 1].copy()
        amps[..., 0] = (a0 + a1) * _INV_SQRT2
        amps[..., 1] = (a0 - a1) * _INV_SQRT2
        amps = np.moveaxis(amps, -1, q)
    return StateVector(amps.reshape(-1), sv.n)


def _slice_value(label: int, n: int, qubits: Sequence[int]) -> int:
    out = 0
    for q in qubits:
        out = (out << 1) | ((label >> (n - 1 - q)) & 1)
    return out


def measure(sv: StateVector, qubits: Sequence[int], rng: Optional[np.random.Generator] = None,
            exhaustive: bool = False):
    """Born-rule measurement of a register slice.

    Sampling mode returns (outcome, collapsed state); exhaustive mode returns
    the exact outcome distribution as a list of (outcome, probability,
    collapsed state).
    """
    qubits = list(qubits)
    return measure_fn(sv, lambda x: _slice_value(x, sv.n, qubits), rng, exhaustive)


def measure_fn(sv: StateVector, fn: Callable[[int], int],
               rng: Optional[np.random.Generator] = None, exhaustive: bool = False):
    """Measure a classical function of the register (partial measurement)."""
    vals = {}
    for x in range(1 << sv.n):
        a = sv.amps[x]
        if a == 0:
            continue
        vals.setdefault(fn(x), []).append(x)
    probs = {o: float(sum(abs(sv.amps[x]) ** 2 for x in xs)) for o, xs in vals.items()}

    def collapse(o: int) -> StateVector:
        amps = np.zeros_like(sv.amps)
        for x in vals[o]:
            amps[x] = sv.amps[x]
        return StateVector(amps / np.sqrt(probs[o]), sv.n)

    if exhaustive:
        return [(o, p, collapse(o)) for o, p in sorted(probs.items())]
    if rng is None:
        raise ContractError("sampling measurement needs an rng")
    outs = sorted(probs)
    pvec = np.array([probs[o] for o in outs])
    o = outs[rng.choice(len(outs), p=pvec / pvec.sum())]
    return o, collapse(o)


def accept_probability(sv: StateVector, predicate: Callable[[int], bool]) -> float:
    """Probability that measuring the whole register satisfies the predicate."""
    return float(sum(abs(sv.amps[x]) ** 2 for x in range(1 << sv.n) if predicate(x)))


# -- the non-collapsing experiment ----------------------------------------------------

def _distinguisher_accept(inst: OssInstance, sv_x: StateVector) -> float:
    """Run the distinguisher on an input-register state: compute the packed
    oracle pair (y << k) | u in superposition (uncomputing x), Hadamard the
    coset register, and return the dual oracle's acceptance probability."""
    p = inst.params
    if p.mode != oss_mod.MODE_ORACLE:
        raise ContractError("the experiment drives an oracle-mode instance")
    sealed, dual = oss_mod.seal_instance(inst)
    sv = apply_classical(sv_x, sealed.forward, out_bits=p.r + p.k, inverse=sealed.inverse)
    sv = hadamard_all(sv, range(p.r, p.r + p.k))
    return accept_probability(sv, lambda packed: dual(packed) == 1)


def noncollapsing_experiment(inst: OssInstance, branch: str) -> float:
    """Exact acceptance probability of the distinguisher.

    branch "full": the uniform superposition is measured down to a classical
    x before the distinguisher runs (averaged exactly over all x).
    branch "partial": only the hash value is measured, leaving the preimage
    superposition intact (averaged exactly over the y outcomes).
    """
    p = inst.params
    if p.n > 6 or p.r + p.k > QUBIT_CAP:
        raise RangeError("experiment parameters exceed the qubit cap")
    sv = uniform_state(p.n)
    if branch == "full":
        total = 0.0
        for x, prob, _collapsed in measure(sv, range(p.n), exhaustive=True):
            total += prob * _distinguisher_accept(inst, basis_state(p.n, x))
        return total
    if branch == "partial":
        total = 0.0
        for _y, prob, collapsed in measure_fn(sv, lambda x: oss_mod.oss_hash(inst, x), exhaustive=True):
            total += prob * _distinguisher_accept(inst, collapsed)
        return total
    raise ContractError("branch must be 'full' or 'partial'")


# -- one-bit sign/verify demo ----------------------------------------------------------

@dataclass(frozen=True)
class SignResult:
    y: int
    x: int
    retries: int


def oss_sign_demo(inst: OssInstance, m: int, rng: np.random.Generator,
                  max_retries: int = 64) -> SignResult:
    """Generate a key state, steer to the branch whose first input bit is m,
    and measure a signature.

    Branch steering is measure-and-retry over fresh key generations (the
    distinguisher-driven walk of the source constructions is replaced by this
    functional stand-in at toy scale).  Raises after max_retries when the
    target branch stays empty or unlucky.
    """
    if m not in (0, 1):
        raise RangeError("message is one bit")
    p = inst.params
    for attempt in range(max_retries):
        sv = uniform_state(p.n)
        y, sv_y = measure_fn(sv, lambda x: oss_mod.oss_hash(inst, x), rng=rng)
        bit, sv_b = measure(sv_y, [0], rng=rng)
        if bit != m:
            continue
        x, _ = measure(sv_b, range(p.n), rng=rng)
        return SignResult(y=y, x=x, retries=attempt)
    raise ContractError("signing failed: branch with the requested bit not reached")


def oss_verify_demo(inst: OssInstance, y: int, m: int, x: int) -> bool:
    """Accept iff the signature starts with the message bit and hashes to y."""
    p = inst.params
    if not 0 <= x < (1 << p.n):
        return False
    first_bit = (x >> (p.n - 1)) & 1
    return first_bit == m and oss_mod.oss_hash(inst, x) == y
