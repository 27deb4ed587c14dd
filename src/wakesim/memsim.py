"""Resistive-array storage model for the front-end code tables.

Every stored bit is a complementary device pair: bit 1 means the BL device
is programmed low-resistive and the BLb device high-resistive, bit 0 the
opposite. Programming draws each device from a lognormal resistance
distribution; reading compares the pair through a sense amplifier whose
input-referred noise grows as the supply drops. The per-read flip
probability of a bit is

    eps = 0.5 * erfc(margin / (sqrt(2) * sigma_n(vdd)))

with margin = |log10(r_bl) - log10(r_blb)| of that pair, so weak pairs are
persistently unreliable while strong pairs only fail at low vdd.

Read noise is counter-based: every address (class, feature, level) owns a
Philox stream keyed by (read seed, address), and read k of that address
takes uniforms [8k, 8k + 8) of it, one per bit. A counter-based stream is
fully set by its (key, counter) pair, so these streams are positions of
one generator that a reader re-keys, and the reader keeps only a read
count per address. Repeated reads of a word get disjoint noise, and the
noise of a read does not depend on the order of reads to other addresses,
so `MemristorReader.read_many` can serve a whole stream of reads grouped by
address and return exactly what the same sequence of single reads would.

The shipped operating-regime presets are calibration constants chosen so the
benchmark reproduces three qualitative regimes (healthy, relaxed
programming, scaled supply). They are not measurements of any device.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .artifacts import NUMBER, reading, typed, typed_list
from .bayesfront import BayesModel, word_address, word_addresses

WORD_BITS = 8
# Bit 0 of the device axis is the most significant bit of the word.
_BIT_WEIGHTS = 1 << np.arange(WORD_BITS - 1, -1, -1)
# A read seed is one word of a Philox key.
READ_SEED_MAX = 2**64 - 1

VDD_RANGE = (0.5, 1.4)
VDDR_RANGE = (1.0, 3.0)

# erfc over an array, one math.erfc call per entry. The flip table is
# computed once per reader; at about 0.2 ms for its 1024 entries this loop is
# the largest share of reader set-up.
_erfc = np.vectorize(math.erfc, otypes=[np.float64])


@dataclass(frozen=True)
class OperatingPoint:
    """Read supply (vdd) and programming supply (vddr), both in volts."""

    vdd: float
    vddr: float
    label: str = ""

    def __post_init__(self):
        if not VDD_RANGE[0] <= self.vdd <= VDD_RANGE[1]:
            raise ValueError(f"vdd {self.vdd} outside {VDD_RANGE}")
        if not VDDR_RANGE[0] <= self.vddr <= VDDR_RANGE[1]:
            raise ValueError(f"vddr {self.vddr} outside {VDDR_RANGE}")


def _interp(table: tuple[tuple[float, float], ...], x: float) -> float:
    xs = [p[0] for p in table]
    ys = [p[1] for p in table]
    return float(np.interp(x, xs, ys))


@dataclass(frozen=True)
class DeviceDistributions:
    """Lognormal device parameters, in log10 ohms.

    The low-resistive state depends on the programming supply (a weaker set
    pulse leaves a thinner filament, i.e. higher and wider resistance);
    the high-resistive state does not.
    """

    lrs_log10_mean_table: tuple[tuple[float, float], ...]
    lrs_log10_sigma_table: tuple[tuple[float, float], ...]
    hrs_log10_mean: float
    hrs_log10_sigma: float

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not 0 <= self.hrs_log10_sigma < math.inf:
            raise ValueError("hrs sigma must be finite and nonnegative")
        for _, s in self.lrs_log10_sigma_table:
            if not s >= 0:
                raise ValueError("lrs sigma must be nonnegative")
        for v, m in self.lrs_log10_mean_table:
            if not m < self.hrs_log10_mean:
                raise ValueError(f"lrs mean {m} at vddr={v} not below hrs mean {self.hrs_log10_mean}")

    def lrs_log10_mean(self, vddr: float) -> float:
        return _interp(self.lrs_log10_mean_table, vddr)

    def lrs_log10_sigma(self, vddr: float) -> float:
        return _interp(self.lrs_log10_sigma_table, vddr)


@dataclass(frozen=True)
class ReadErrorModel:
    """Sense-amplifier noise versus supply, linearly interpolated."""

    sigma_n_table: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev = None
        for v, s in self.sigma_n_table:
            if not s >= 0:
                raise ValueError("sigma_n must be nonnegative")
            if prev is not None and s > prev:
                raise ValueError("sigma_n must be nonincreasing in vdd")
            prev = s

    def sigma_n(self, vdd: float) -> float:
        return _interp(self.sigma_n_table, vdd)

    def flip_probability(self, margin, vdd: float) -> np.ndarray:
        """Per-bit flip probability; the sigma -> 0 limit is a step at zero margin."""
        margin = np.asarray(margin, dtype=np.float64)
        sigma = self.sigma_n(vdd)
        if sigma == 0.0:
            return np.where(margin > 0, 0.0, 0.5)
        return 0.5 * _erfc(margin / (np.sqrt(2.0) * sigma))


def code_bits(codes) -> np.ndarray:
    """Expand words into bit planes, most significant bit first."""
    codes = np.asarray(codes, dtype=np.uint8)
    return ((codes[..., None] >> np.arange(WORD_BITS - 1, -1, -1)) & 1).astype(np.uint8)


def bits_code(bits) -> np.ndarray:
    """Collapse bit planes (MSB first) back into words."""
    return (np.asarray(bits, dtype=np.int64) * _BIT_WEIGHTS).sum(axis=-1)


@dataclass
class ArrayState:
    """Programmed resistances for every stored bit, plus the intended codes."""

    r_bl: np.ndarray
    r_blb: np.ndarray
    codes: np.ndarray
    vddr: float
    seed: int


def program_arrays(model: BayesModel, dists: DeviceDistributions, vddr: float,
                   seed: int) -> ArrayState:
    """Draw device resistances for every bit of the model's code table.

    Deterministic for a seed: resistances are drawn in one fixed-shape batch
    per state (low then high), then routed to BL/BLb according to the bit.
    """
    bits = code_bits(model.codes)
    rng = np.random.default_rng(seed)
    mean_l = dists.lrs_log10_mean(vddr)
    sigma_l = dists.lrs_log10_sigma(vddr)
    log_lrs = rng.normal(mean_l, sigma_l, size=bits.shape)
    log_hrs = rng.normal(dists.hrs_log10_mean, dists.hrs_log10_sigma, size=bits.shape)
    r_bl = np.power(10.0, np.where(bits == 1, log_lrs, log_hrs))
    r_blb = np.power(10.0, np.where(bits == 1, log_hrs, log_lrs))
    return ArrayState(r_bl=r_bl, r_blb=r_blb, codes=model.codes.copy(), vddr=vddr, seed=seed)


def margins(state: ArrayState) -> np.ndarray:
    """|log10 r_bl - log10 r_blb| per stored bit."""
    return np.abs(np.log10(state.r_bl) - np.log10(state.r_blb))


class MemristorReader:
    """Word reader with schedule-invariant noise.

    Every address (class, feature, level) has its own counter-based Philox
    stream keyed by (seed, address), and read k of an address uses
    uniforms [8k, 8k + 8) of that stream, one per bit, MSB first; a bit
    flips when its uniform falls below the bit's flip probability. Reads
    of one word therefore get disjoint noise, and the k-th read sees the
    same noise no matter how reads of different addresses are interleaved
    or batched. The streams are positions of one Philox generator, made
    with the reader: before each run of reads of an address it is re-keyed
    to (seed, address) and its counter set from that address's read count,
    the only per-address state the reader keeps.

    `read_many(class_ids, features, levels)` reads a whole sequence of words
    in one call and returns exactly what the same sequence of single reads
    `reader(c, f, l)` would; either advances the same per-address streams.
    The flip-probability table `flip_table` (class, feature, level, bit) is
    computed once, when the reader is made. An address outside the code
    table raises IndexError, and a seed outside 0..READ_SEED_MAX raises
    ValueError.
    """

    def __init__(self, state: ArrayState, op: OperatingPoint,
                 error_model: ReadErrorModel, seed: int):
        self.state = state
        self.op = op
        self.error_model = error_model
        self.seed = int(seed)
        if not 0 <= self.seed <= READ_SEED_MAX:
            raise ValueError(f"read seed {self.seed} is outside 0..{READ_SEED_MAX}")
        self._shape = state.codes.shape
        self._codes = state.codes.reshape(-1).astype(np.int64)
        # Flip probability of every stored bit, (class, feature, level, bit).
        self.flip_table = error_model.flip_probability(margins(state), op.vdd)
        self._eps = self.flip_table.reshape(-1, WORD_BITS)
        # Reads so far of each address; its stream's position is 8 x this.
        self._reads = [0] * len(self._codes)
        # The generator every address's stream is read from, and the state
        # dict that re-keys it (see _read_run), taken once from the fresh
        # generator. Its arrays become lists: the state setter reads plain
        # ints in less than half the time it takes for array items.
        self._bitgen = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        self._rng = np.random.Generator(self._bitgen)
        state = self._bitgen.state
        state["state"] = {k: v.tolist() for k, v in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
        self._bitgen_state = state

    def __call__(self, class_id: int, feature: int, level: int) -> int:
        return int(self._read_run(word_address(self._shape, class_id, feature, level), 1)[0])

    def read_many(self, class_ids, features, levels) -> np.ndarray:
        """Words of a read sequence, in order; same as one call per read."""
        addrs = word_addresses(self._shape, class_ids, features, levels)
        # A stable sort groups each address's reads and keeps them in
        # sequence order, so they take that address's next uniforms in turn.
        order = np.argsort(addrs, kind="stable")
        grouped = addrs[order]
        starts = np.flatnonzero(np.diff(grouped, prepend=-1))
        ends = np.append(starts[1:], len(grouped))
        words = np.empty(len(grouped), dtype=np.int64)
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            words[order[lo:hi]] = self._read_run(int(grouped[lo]), hi - lo)
        return words

    def _read_run(self, addr: int, count: int) -> np.ndarray:
        """The next `count` reads of one address."""
        k = self._reads[addr]
        self._reads[addr] = k + count
        # Philox makes 4 outputs per counter step and bumps the counter
        # before each step. With an empty buffer (buffer_pos 4, as in the
        # state of a fresh generator) and counter 2k, the next draw starts at
        # uniform 8k of the (seed, addr) stream. Each read takes two whole
        # steps, so the buffer is empty again after the draw.
        state = self._bitgen_state
        state["state"]["key"][1] = addr
        state["state"]["counter"][0] = 2 * k
        self._bitgen.state = state
        flips = self._rng.random((count, WORD_BITS)) < self._eps[addr]
        return self._codes[addr] ^ (flips @ _BIT_WEIGHTS)


# ---------------------------------------------------------------------------
# Operating-regime presets (synthetic calibration constants, see module
# docstring). A: healthy margins, quiet sense amp. B: programming supply
# lowered to 1.5 V, which narrows the separation between the states.
# C: same device distributions as A read at vdd = 0.8 V, where the sense
# amp noise dominates.
# ---------------------------------------------------------------------------

# Calibration constants, not measured physics. The LRS window collapses onto
# the HRS band as the programming compliance drops (window 2.0 decades at
# vddr=2.4, 0.01 at 1.5), and the sense-noise scale grows steeply below
# nominal supply. Chosen so the three shipped operating points reproduce the
# intended behavior on the synthetic benchmark: A reads clean (mean per-bit
# flip probability far below 1e-6), B and C scramble the front end badly
# enough that escalation has to carry the system.
_SHARED_DISTS = DeviceDistributions(
    lrs_log10_mean_table=((1.0, 5.995), (1.5, 5.99), (2.0, 4.80), (2.4, 4.00), (3.0, 3.80)),
    lrs_log10_sigma_table=((1.0, 0.02), (1.5, 0.02), (2.0, 0.10), (2.4, 0.15), (3.0, 0.12)),
    hrs_log10_mean=6.0,
    hrs_log10_sigma=0.06,
)

_SHARED_NOISE = ReadErrorModel(
    sigma_n_table=((0.7, 5.00), (0.8, 3.80), (0.9, 1.90), (1.0, 0.90), (1.1, 0.35), (1.2, 0.08)),
)

_REGIME_POINTS = {
    "A": OperatingPoint(vdd=1.2, vddr=2.4, label="A"),
    "B": OperatingPoint(vdd=1.2, vddr=1.5, label="B"),
    "C": OperatingPoint(vdd=0.8, vddr=2.4, label="C"),
}


def regime_preset(name: str) -> tuple[OperatingPoint, DeviceDistributions, ReadErrorModel]:
    try:
        op = _REGIME_POINTS[name]
    except KeyError:
        raise ValueError(f"unknown regime preset {name!r}; expected one of {sorted(_REGIME_POINTS)}")
    return op, _SHARED_DISTS, _SHARED_NOISE


# ---------------------------------------------------------------------------
# Persistence: a programmed array plus the operating conditions needed to
# read it back, in one npz file.
# ---------------------------------------------------------------------------

def save_array_state(path: str, state: ArrayState, op: OperatingPoint,
                     error_model: ReadErrorModel) -> None:
    meta = {
        "vddr": state.vddr,
        "seed": state.seed,
        "vdd": op.vdd,
        "label": op.label,
        "sigma_n_table": [list(p) for p in error_model.sigma_n_table],
    }
    np.savez(
        path,
        r_bl=state.r_bl,
        r_blb=state.r_blb,
        codes=state.codes,
        meta=np.array(json.dumps(meta)),
    )


def load_array_state(path: str) -> tuple[ArrayState, OperatingPoint, ReadErrorModel]:
    with reading(path, "array state"):
        # np.load takes anything that is not a zip or .npy file for a pickle.
        if not zipfile.is_zipfile(path):
            raise ValueError("not an .npz archive")
        with np.load(path, allow_pickle=False) as npz:
            r_bl, r_blb, codes = npz["r_bl"], npz["r_blb"], npz["codes"]
            meta = typed(json.loads(str(npz["meta"])), dict, "meta")
        if codes.ndim != 3 or not r_bl.shape == r_blb.shape == codes.shape + (WORD_BITS,):
            raise ValueError(f"r_bl {r_bl.shape}, r_blb {r_blb.shape} and codes {codes.shape} disagree")
        for name, r in (("r_bl", r_bl), ("r_blb", r_blb)):
            if not np.all(np.isfinite(r) & (r > 0)):
                raise ValueError(f"{name} holds a resistance that is not finite and positive")
        state = ArrayState(
            r_bl=r_bl,
            r_blb=r_blb,
            codes=codes.astype(np.uint8),
            vddr=float(typed(meta["vddr"], NUMBER, "meta.vddr")),
            seed=typed(meta["seed"], int, "meta.seed"),
        )
        op = OperatingPoint(vdd=float(typed(meta["vdd"], NUMBER, "meta.vdd")), vddr=state.vddr,
                            label=typed(meta.get("label", ""), str, "meta.label"))
        error_model = ReadErrorModel(sigma_n_table=tuple(
            tuple(float(x) for x in typed_list(pair, NUMBER, "meta.sigma_n_table entry", 2))
            for pair in typed_list(meta["sigma_n_table"], list, "meta.sigma_n_table")
        ))
        return state, op, error_model
