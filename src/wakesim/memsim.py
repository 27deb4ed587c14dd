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
count per address. The uniforms depend on the read seed and the address
alone, not on the array or the supply, so the readers of one seed share
them: a module-level store holds the uniforms drawn so far for the last
read seed used, 64 B (8 float64) per read of each address, and a reader
draws only the rows that no reader of its seed has drawn yet. A reader of
another seed replaces the store. Repeated reads of a word get disjoint
noise, and the noise of a read does not depend on the order of reads to
other addresses, so `MemristorReader.read_many` can serve a whole stream of
reads grouped by address and return exactly what the same sequence of
single reads would; a single read `reader(c, f, l)` is a one-row
read_many. bayesfront.bayes_infer_many reads a stream class-major, in
(class, feature, beat) order, where a per-beat loop reads (beat, class,
feature); both read each address in beat order, so each address's k-th
read, and its noise, is the same beat's. read_many serves a stream with
one (reads, 8) bool flip buffer per call: each address's run of reads
compares its uniforms into its rows of the buffer, and after the loop
one multiply packs every row into a word, one XOR applies the flips to
the stored codes and one scatter puts the words in sequence order, so a
stream costs the Philox draws not yet in the store plus a few
whole-stream calls.

The shipped operating-regime presets are calibration constants chosen so the
benchmark reproduces three qualitative regimes (healthy, relaxed
programming, scaled supply). They are not measurements of any device.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import NUMBER, load_npz, parse_json, reading, typed, typed_list
from .bayesfront import BayesModel, WordReader, word_addresses

WORD_BITS = 8
# Bit 0 of the device axis is the most significant bit of the word.
_BIT_WEIGHTS = 1 << np.arange(WORD_BITS - 1, -1, -1)
# pack_flips's multiplier: bit 63 - 9j for j = 0..7.
_PACK_MULTIPLIER = np.uint64(0x8040201008040201)
_PACK_SHIFT = np.uint64(64 - WORD_BITS)
# A read seed is one word of a Philox key.
READ_SEED_MAX = 2**64 - 1

VDD_RANGE = (0.5, 1.4)
VDDR_RANGE = (1.0, 3.0)


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc over an array, one math.erfc call per entry: the largest share of reader set-up."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


# The uniform store (see the module docstring): (read seed, {address:
# (float64 (capacity, 8) buffer, rows filled)}), where row k of an address
# holds the uniforms of its read k.
_uniforms: tuple = (None, {})
_NO_ROWS = (np.empty((0, WORD_BITS)), 0)


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


def _check_table(table, what: str) -> None:
    """Raise ValueError naming `what` unless table is an (x, y) table _interp can read.

    That is: not empty, every number finite, and x strictly increasing, as
    np.interp requires (it does not check, and answers wrongly otherwise).
    """
    if not table:
        raise ValueError(f"{what} is empty")
    if not all(math.isfinite(v) for pair in table for v in pair):
        raise ValueError(f"{what} holds a number that is not finite")
    xs = [x for x, _ in table]
    if not all(a < b for a, b in zip(xs, xs[1:])):
        raise ValueError(f"{what}: x values {xs} are not strictly increasing")


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
        _check_table(self.lrs_log10_mean_table, "lrs_log10_mean_table")
        _check_table(self.lrs_log10_sigma_table, "lrs_log10_sigma_table")
        # Written so that NaN fails every check.
        if not 0 <= self.hrs_log10_sigma < math.inf:
            raise ValueError("hrs sigma must be finite and nonnegative")
        if not math.isfinite(self.hrs_log10_mean):
            raise ValueError("hrs mean must be finite")
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
        _check_table(self.sigma_n_table, "sigma_n_table")
        sigmas = [s for _, s in self.sigma_n_table]
        if min(sigmas) < 0:
            raise ValueError("sigma_n must be nonnegative")
        if any(a < b for a, b in zip(sigmas, sigmas[1:])):
            raise ValueError("sigma_n must be nonincreasing in vdd")

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


def pack_flips(flips: np.ndarray) -> np.ndarray:
    """bits_code of a C-contiguous (n, 8) bool array, as int64, with one multiply.

    Row i read as a little-endian uint64 holds its byte j (0 or 1) at bit
    8j. Times 0x8040201008040201, the partial product of byte j and the
    multiplier's bit 63 - 9k sits at bit 63 + 8j - 9k, and no two (j, k)
    pairs share a bit, so nothing carries; the products with k = j land on
    bit 63 - j, which puts the row's bits, MSB first, in the top byte.
    """
    return ((flips.view("<u8").ravel() * _PACK_MULTIPLIER) >> _PACK_SHIFT).view(np.int64)


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


class MemristorReader(WordReader):
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
    the only per-address state the reader keeps. The uniforms come from the
    module's store, which every reader of the last seed used shares and a
    reader of another seed replaces; it holds 64 B per read of an address.

    `read_many(class_ids, features, levels)` reads a whole sequence of words
    in one call and returns exactly what the same sequence of single reads
    `reader(c, f, l)` would, since a single read is a one-row read_many
    (bayesfront.WordReader) and `_draw` is the only draw.
    The flip-probability table `flip_table` (class, feature, level, bit) is
    computed once, when the reader is made. An address outside the code
    table, or one that is not of integers, raises IndexError, and a seed
    outside 0..READ_SEED_MAX raises ValueError.
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
        # The smallest unsigned dtype that holds every address: read_many's
        # stable sort of such keys is a radix sort.
        self._address_dtype = np.min_scalar_type(len(self._codes) - 1)
        # The generator every address's stream is read from, and the state
        # dict that re-keys it (see _draw), taken once from the fresh
        # generator. Its arrays become lists: the state setter reads plain
        # ints in less than half the time it takes for array items.
        self._bitgen = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        self._rng = np.random.Generator(self._bitgen)
        state = self._bitgen.state
        state["state"] = {k: v.tolist() for k, v in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
        self._bitgen_state = state

    def read_many(self, class_ids, features, levels) -> np.ndarray:
        """Words of a read sequence, in order; same as one call per read.

        The integer address arrays broadcast together and are read
        flattened in C order, so they may be compact or views of any shape
        (bayes_infer_many passes a class-major (class, feature, beat) grid
        of three small arrays). Only the order of each address's own reads
        sets its noise, so any order that keeps it returns the same words
        for the same reads.

        One (reads, 8) bool buffer takes every read's flips: each address's
        run of reads fills its rows with one draw and one compare, then
        pack_flips packs all rows at once, one XOR applies them to the
        stored codes and one scatter returns the words to sequence order.
        """
        addrs = word_addresses(self._shape, class_ids, features, levels).ravel()
        # A stable sort groups each address's reads and keeps them in
        # sequence order, so they take that address's next uniforms in turn.
        order = np.argsort(addrs.astype(self._address_dtype), kind="stable")
        grouped = addrs[order]
        # A run starts where the address differs from the one before (np.diff
        # with prepend took several times as long over 51 200 reads).
        starts = np.flatnonzero(grouped != np.concatenate(([-1], grouped[:-1])))
        flips = np.empty((len(grouped), WORD_BITS), dtype=bool)
        for addr, lo, hi in zip(grouped[starts].tolist(), starts.tolist(),
                                starts[1:].tolist() + [len(grouped)]):
            self._draw(addr, flips[lo:hi])
        words = np.empty(len(grouped), dtype=np.int64)
        words[order] = self._codes[grouped] ^ pack_flips(flips)
        return words

    def _draw(self, addr: int, out: np.ndarray) -> None:
        """The flips of the next len(out) reads of one address, into the (len(out), 8) bool array out.

        Reads k..k+n of the address take rows k..k+n of its buffer in the
        uniform store; only the rows past its filled end are drawn.
        """
        global _uniforms
        k = self._reads[addr]
        end = k + len(out)
        self._reads[addr] = end
        if _uniforms[0] != self.seed:
            _uniforms = (self.seed, {})
        rows = _uniforms[1]
        buf, filled = rows.get(addr, _NO_ROWS)
        if end > filled:
            if end > len(buf):
                # Geometric growth keeps a run of single reads linear.
                grown = np.empty((max(end, 2 * len(buf)), WORD_BITS))
                grown[:filled] = buf[:filled]
                buf = grown
            # Philox makes 4 outputs per counter step and bumps the counter
            # before each step. With an empty buffer (buffer_pos 4, as in
            # the state of a fresh generator) and counter 2 * filled, the
            # next draw starts at uniform 8 * filled of the (seed, addr)
            # stream. Each row takes two whole steps, so the buffer is empty
            # again after the draw.
            state = self._bitgen_state
            state["state"]["key"][1] = addr
            state["state"]["counter"][0] = 2 * filled
            self._bitgen.state = state
            self._rng.random(out=buf[filled:end])
            rows[addr] = (buf, end)
        np.less(buf[k:end], self._eps[addr], out=out)


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
        with load_npz(path) as npz:
            r_bl, r_blb, codes = npz["r_bl"], npz["r_blb"], npz["codes"]
            meta = typed(parse_json(str(npz["meta"])), dict, "meta")
        if codes.ndim != 3 or not r_bl.shape == r_blb.shape == codes.shape + (WORD_BITS,):
            raise ValueError(f"r_bl {r_bl.shape}, r_blb {r_blb.shape} and codes {codes.shape} disagree")
        for name, r in (("r_bl", r_bl), ("r_blb", r_blb)):
            if not np.all(np.isfinite(r) & (r > 0)):
                raise ValueError(f"{name} holds a resistance that is not finite and positive")
        if codes.dtype.kind not in "iu":
            raise ValueError(f"codes are {codes.dtype}, expected integers")
        if not np.all((codes >= 0) & (codes <= 255)):
            raise ValueError("codes hold a value outside 0..255")
        seed = typed(meta["seed"], int, "meta.seed")
        if seed < 0:
            raise ValueError(f"meta.seed {seed} is negative")
        state = ArrayState(
            r_bl=r_bl,
            r_blb=r_blb,
            codes=codes.astype(np.uint8),
            vddr=float(typed(meta["vddr"], NUMBER, "meta.vddr")),
            seed=seed,
        )
        op = OperatingPoint(vdd=float(typed(meta["vdd"], NUMBER, "meta.vdd")), vddr=state.vddr,
                            label=typed(meta.get("label", ""), str, "meta.label"))
        error_model = ReadErrorModel(sigma_n_table=tuple(
            tuple(float(x) for x in typed_list(pair, NUMBER, "meta.sigma_n_table entry", 2))
            for pair in typed_list(meta["sigma_n_table"], list, "meta.sigma_n_table")
        ))
        return state, op, error_model
