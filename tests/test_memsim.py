"""Complementary-pair storage, noisy reads, and the operating-regime presets."""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.stats

from wakesim import memsim
from wakesim.bayesfront import IdealReader
from wakesim.errors import DataError
from wakesim.memsim import (
    WORD_BITS,
    ArrayState,
    DeviceDistributions,
    MemristorReader,
    OperatingPoint,
    ReadErrorModel,
    bits_code,
    code_bits,
    load_array_state,
    margins,
    pack_flips,
    program_arrays,
    regime_preset,
    save_array_state,
)

ZERO_SIGMA_DISTS = DeviceDistributions(
    lrs_log10_mean_table=((1.0, 4.0), (3.0, 4.0)),
    lrs_log10_sigma_table=((1.0, 0.0), (3.0, 0.0)),
    hrs_log10_mean=6.0,
    hrs_log10_sigma=0.0,
)

QUIET_NOISE = ReadErrorModel(sigma_n_table=((0.5, 0.0), (1.4, 0.0)))


class _FlatError:
    """Stub error model with a fixed flip probability for every bit."""

    def __init__(self, eps):
        self.eps = eps

    def flip_probability(self, margin, vdd):
        return np.full(np.shape(margin), self.eps)


# ---------------------------------------------------------------------------
# types and bit packing
# ---------------------------------------------------------------------------


def test_operating_point_bounds_are_inclusive():
    OperatingPoint(0.5, 1.0)
    OperatingPoint(1.4, 3.0)
    with pytest.raises(ValueError, match="vdd"):
        OperatingPoint(0.45, 2.0)
    with pytest.raises(ValueError, match="vdd"):
        OperatingPoint(1.45, 2.0)
    with pytest.raises(ValueError, match="vddr"):
        OperatingPoint(1.2, 0.9)
    with pytest.raises(ValueError, match="vddr"):
        OperatingPoint(1.2, 3.1)


def test_device_distribution_validation():
    with pytest.raises(ValueError, match="not below hrs"):
        DeviceDistributions(((1.0, 6.5),), ((1.0, 0.1),), 6.0, 0.1)
    with pytest.raises(ValueError, match="sigma"):
        DeviceDistributions(((1.0, 4.0),), ((1.0, -0.1),), 6.0, 0.1)
    with pytest.raises(ValueError, match="sigma"):
        DeviceDistributions(((1.0, 4.0),), ((1.0, 0.1),), 6.0, -0.1)
    for mean in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="hrs mean must be finite"):
            DeviceDistributions(((1.0, 4.0),), ((1.0, 0.1),), mean, 0.1)


def test_read_error_model_validation():
    with pytest.raises(ValueError, match="nonincreasing"):
        ReadErrorModel(sigma_n_table=((0.7, 1.0), (1.2, 2.0)))
    with pytest.raises(ValueError, match="nonnegative"):
        ReadErrorModel(sigma_n_table=((0.7, -1.0),))
    # flat tables are legal
    ReadErrorModel(sigma_n_table=((0.7, 1.0), (1.2, 1.0)))


@pytest.mark.parametrize("table, message", [
    ((), "is empty"),
    (((1.2, 3.8), (0.8, 0.08)), "not strictly increasing"),
    (((0.8, 3.8), (0.8, 0.08)), "not strictly increasing"),
    (((0.8, 3.8), (math.nan, 0.08)), "not finite"),
    (((0.8, math.inf), (1.2, 0.08)), "not finite"),
], ids=["empty", "descending", "repeated-x", "nan-x", "infinite-y"])
def test_interpolation_tables_are_checked(table, message):
    # np.interp reads a table with x out of order without complaint, and
    # wrongly: sigma_n(1.2) of the descending table would be 0.08.
    with pytest.raises(ValueError, match=f"sigma_n_table.*{message}"):
        ReadErrorModel(sigma_n_table=table)
    with pytest.raises(ValueError, match=f"lrs_log10_mean_table.*{message}"):
        DeviceDistributions(table, ((1.0, 0.1),), 6.0, 0.1)
    with pytest.raises(ValueError, match=f"lrs_log10_sigma_table.*{message}"):
        DeviceDistributions(((1.0, 4.0),), table, 6.0, 0.1)


def test_code_bits_msb_first():
    assert np.array_equal(code_bits(177), [1, 0, 1, 1, 0, 0, 0, 1])
    assert code_bits(np.zeros((4, 4, 8))).shape == (4, 4, 8, 8)


def test_bits_code_inverts_code_bits():
    codes = np.arange(256, dtype=np.uint8)
    assert np.array_equal(bits_code(code_bits(codes)), codes)


def test_pack_flips_equals_bits_code_on_every_row():
    # all 256 MSB-first bool rows; in product order, row i spells i
    rows = np.array(list(itertools.product((False, True), repeat=WORD_BITS)))
    packed = pack_flips(rows)
    assert packed.dtype == np.int64
    assert np.array_equal(packed, bits_code(rows))
    assert np.array_equal(packed, np.arange(256))


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------


def test_sigma_n_interpolation_and_clamping():
    _, _, noise = regime_preset("A")
    assert noise.sigma_n(1.2) == 0.08
    assert noise.sigma_n(1.15) == pytest.approx(0.215, abs=1e-12)
    # outside the table the end values hold
    assert noise.sigma_n(0.5) == 5.0
    assert noise.sigma_n(1.4) == 0.08


def test_flip_probability_matches_scalar_erfc():
    model = ReadErrorModel(sigma_n_table=((0.5, 1.0), (1.4, 1.0)))
    for margin in (0.0, 0.1, 0.5, 2.0):
        expected = 0.5 * math.erfc(margin / math.sqrt(2.0))
        assert model.flip_probability(margin, 1.0) == pytest.approx(expected, rel=1e-13)


def test_flip_probability_zero_sigma_is_a_step():
    out = QUIET_NOISE.flip_probability(np.array([0.0, 1e-12, 2.0]), 1.2)
    assert np.array_equal(out, [0.5, 0.0, 0.0])


def test_flip_probability_monotone_in_margin_and_vdd():
    _, _, noise = regime_preset("A")
    margins_grid = np.linspace(0.0, 3.0, 40)
    eps = noise.flip_probability(margins_grid, 0.8)
    assert np.all(np.diff(eps) <= 0)
    vdds = np.linspace(0.7, 1.2, 11)
    at_fixed_margin = [float(noise.flip_probability(0.5, v)) for v in vdds]
    assert all(a >= b for a, b in zip(at_fixed_margin, at_fixed_margin[1:]))


# ---------------------------------------------------------------------------
# programming
# ---------------------------------------------------------------------------


def test_programming_is_deterministic_per_seed(stub_model):
    model = stub_model(np.arange(128).reshape(4, 4, 8))
    a = program_arrays(model, ZERO_SIGMA_DISTS, 2.0, seed=1)
    b = program_arrays(model, ZERO_SIGMA_DISTS, 2.0, seed=1)
    assert np.array_equal(a.r_bl, b.r_bl) and np.array_equal(a.r_blb, b.r_blb)
    _, dists, _ = regime_preset("A")
    c = program_arrays(model, dists, 2.4, seed=1)
    d = program_arrays(model, dists, 2.4, seed=2)
    assert not np.array_equal(c.r_bl, d.r_bl)
    assert c.codes is not model.codes  # stored codes are a private copy


def test_zero_sigma_routing_and_margins(stub_model):
    codes = np.arange(128).reshape(4, 4, 8)
    model = stub_model(codes)
    state = program_arrays(model, ZERO_SIGMA_DISTS, 2.0, seed=0)
    bits = code_bits(model.codes)
    assert np.array_equal(state.r_bl, np.where(bits == 1, 1e4, 1e6))
    assert np.array_equal(state.r_blb, np.where(bits == 1, 1e6, 1e4))
    m = margins(state)
    assert m.shape == (4, 4, 8, 8)
    assert np.array_equal(m, np.full_like(m, 2.0))


def test_programmed_resistances_follow_the_stated_distributions(stub_model):
    # all-ones codes route every low-state draw to the BL device
    model = stub_model(np.full((4, 4, 8), 255))
    _, dists, _ = regime_preset("A")
    vddr = 2.0
    lrs, hrs = [], []
    for seed in range(10):
        state = program_arrays(model, dists, vddr, seed=seed)
        lrs.append(np.log10(state.r_bl).ravel())
        hrs.append(np.log10(state.r_blb).ravel())
    lrs = np.concatenate(lrs)
    hrs = np.concatenate(hrs)
    d_lrs = scipy.stats.kstest(lrs, "norm",
                               args=(dists.lrs_log10_mean(vddr),
                                     dists.lrs_log10_sigma(vddr))).statistic
    d_hrs = scipy.stats.kstest(hrs, "norm",
                               args=(dists.hrs_log10_mean, dists.hrs_log10_sigma)).statistic
    assert d_lrs < 0.05
    assert d_hrs < 0.05


def test_window_narrows_as_programming_supply_drops(stub_model):
    model = stub_model(np.arange(128).reshape(4, 4, 8))
    _, dists, _ = regime_preset("A")
    wide = margins(program_arrays(model, dists, 2.4, seed=3)).mean()
    narrow = margins(program_arrays(model, dists, 1.5, seed=3)).mean()
    assert narrow < 0.1 < 1.0 < wide


# ---------------------------------------------------------------------------
# reads
# ---------------------------------------------------------------------------


def test_quiet_read_returns_stored_words(stub_model):
    codes = np.arange(128).reshape(4, 4, 8)
    model = stub_model(codes)
    state = program_arrays(model, ZERO_SIGMA_DISTS, 2.0, seed=0)
    op = OperatingPoint(1.2, 2.0)
    reader = MemristorReader(state, op, QUIET_NOISE, seed=0)
    for c in range(4):
        for f in range(4):
            for l in range(8):
                assert reader(c, f, l) == codes[c, f, l]


def test_reader_seed_must_be_one_64_bit_key_word(stub_model):
    state = program_arrays(stub_model(np.zeros((4, 4, 8))), ZERO_SIGMA_DISTS, 2.0, seed=0)
    op = OperatingPoint(1.2, 2.0)
    for seed in (0, 2**64 - 1):
        assert MemristorReader(state, op, QUIET_NOISE, seed=seed).seed == seed
    # a masked -1 would read as 2**64 - 1, and 2**64 as 0
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="read seed"):
            MemristorReader(state, op, QUIET_NOISE, seed=seed)


def test_certain_flip_reads_the_complement(stub_model):
    codes = np.arange(128).reshape(4, 4, 8)
    state = program_arrays(stub_model(codes), ZERO_SIGMA_DISTS, 2.0, seed=0)
    reader = MemristorReader(state, OperatingPoint(1.2, 2.0), _FlatError(1.0), seed=0)
    for addr in ((0, 0, 0), (1, 2, 3), (3, 3, 7)):
        assert reader(*addr) == codes[addr] ^ 0xFF


def test_half_flip_rate_is_half(stub_model):
    codes = np.full((4, 4, 8), 0)
    state = program_arrays(stub_model(codes), ZERO_SIGMA_DISTS, 2.0, seed=0)
    reader = MemristorReader(state, OperatingPoint(1.2, 2.0), _FlatError(0.5), seed=9)
    flipped = total = 0
    for _ in range(1250):
        word = reader(0, 0, 0)
        flipped += bin(word).count("1")
        total += 8
    assert abs(flipped / total - 0.5) < 0.02


def test_measured_flip_rate_matches_the_model():
    # fixed margin of 0.5 decades against unit sense noise
    bits = np.zeros((4, 4, 8, 8))
    state = ArrayState(
        r_bl=np.power(10.0, 4.0 + np.zeros_like(bits)),
        r_blb=np.power(10.0, 4.5 + np.zeros_like(bits)),
        codes=np.zeros((4, 4, 8), dtype=np.uint8),
        vddr=2.0,
        seed=0,
    )
    noise = ReadErrorModel(sigma_n_table=((0.5, 1.0), (1.4, 1.0)))
    eps = 0.5 * math.erfc(0.5 / math.sqrt(2.0))
    reader = MemristorReader(state, OperatingPoint(1.0, 2.0), noise, seed=4)
    n_reads = 2500
    flipped = sum(bin(reader(0, 0, 0)).count("1") for _ in range(n_reads))
    rate = flipped / (8 * n_reads)
    se = math.sqrt(eps * (1 - eps) / (8 * n_reads))
    assert abs(rate - eps) < 3 * se


def test_reads_are_deterministic_per_seed(stub_model):
    _, dists, noise = regime_preset("B")
    model = stub_model(np.arange(128).reshape(4, 4, 8))
    state = program_arrays(model, dists, 1.5, seed=1)
    op = OperatingPoint(1.2, 1.5)
    a = MemristorReader(state, op, noise, seed=7)
    b = MemristorReader(state, op, noise, seed=7)
    seq_a = [a(c, f, l) for c in range(4) for f in range(4) for l in range(8)]
    seq_b = [b(c, f, l) for c in range(4) for f in range(4) for l in range(8)]
    assert seq_a == seq_b
    c_reader = MemristorReader(state, op, noise, seed=8)
    seq_c = [c_reader(c, f, l) for c in range(4) for f in range(4) for l in range(8)]
    assert seq_a != seq_c


def test_read_noise_is_schedule_invariant(stub_model):
    # the k-th read of an address must not depend on which other addresses
    # were read in between
    _, dists, noise = regime_preset("B")
    model = stub_model(np.arange(128).reshape(4, 4, 8))
    state = program_arrays(model, dists, 1.5, seed=1)
    op = OperatingPoint(1.2, 1.5)
    addrs = [(0, 0, 0), (1, 2, 3), (3, 3, 7)]

    def collect(schedule):
        reader = MemristorReader(state, op, noise, seed=7)
        out = {a: [] for a in addrs}
        for a in schedule:
            out[a].append(reader(*a))
        return out

    s1 = collect([addrs[0], addrs[1], addrs[0], addrs[2], addrs[1], addrs[0]])
    s2 = collect([addrs[2], addrs[0], addrs[0], addrs[1], addrs[0], addrs[1]])
    assert s1 == s2


def test_read_supply_changes_noise_not_state(stub_model):
    _, dists, noise = regime_preset("A")
    model = stub_model(np.arange(128).reshape(4, 4, 8))
    state = program_arrays(model, dists, 2.4, seed=1)
    eps_nominal = noise.flip_probability(margins(state), 1.2).mean()
    eps_scaled = noise.flip_probability(margins(state), 0.8).mean()
    assert eps_scaled > eps_nominal
    # same state object serves both operating points
    r1 = MemristorReader(state, OperatingPoint(1.2, 2.4), noise, seed=2)
    r2 = MemristorReader(state, OperatingPoint(0.8, 2.4), noise, seed=2)
    assert r1.state is r2.state


# ---------------------------------------------------------------------------
# presets and persistence
# ---------------------------------------------------------------------------


def test_regime_presets_span_the_three_regimes(stub_model):
    model = stub_model(np.arange(128).reshape(4, 4, 8))
    means = {}
    for name in ("A", "B", "C"):
        op, dists, noise = regime_preset(name)
        state = program_arrays(model, dists, op.vddr, seed=5)
        means[name] = float(noise.flip_probability(margins(state), op.vdd).mean())
    assert means["A"] < 1e-6
    assert 0.2 < means["B"] < 0.4
    assert 0.2 < means["C"] < 0.4


def test_regime_preset_structure():
    op_a, dists_a, noise_a = regime_preset("A")
    op_b, dists_b, noise_b = regime_preset("B")
    op_c, dists_c, noise_c = regime_preset("C")
    assert (op_a.vdd, op_a.vddr) == (1.2, 2.4)
    assert (op_b.vdd, op_b.vddr) == (1.2, 1.5)
    assert (op_c.vdd, op_c.vddr) == (0.8, 2.4)
    # one shared device physics and one shared noise model
    assert dists_a is dists_b is dists_c
    assert noise_a is noise_b is noise_c
    assert noise_a.sigma_n(0.8) > noise_a.sigma_n(1.2)
    with pytest.raises(ValueError, match="unknown regime"):
        regime_preset("D")


def test_array_state_round_trip(tmp_path, stub_model):
    op, dists, noise = regime_preset("B")
    model = stub_model(np.arange(128).reshape(4, 4, 8))
    state = program_arrays(model, dists, op.vddr, seed=11)
    path = str(tmp_path / "state.npz")
    save_array_state(path, state, op, noise)
    back, op_back, noise_back = load_array_state(path)
    assert np.array_equal(back.r_bl, state.r_bl)
    assert np.array_equal(back.r_blb, state.r_blb)
    assert np.array_equal(back.codes, state.codes)
    assert back.codes.dtype == np.uint8
    assert (back.vddr, back.seed) == (state.vddr, state.seed)
    assert (op_back.vdd, op_back.vddr, op_back.label) == (op.vdd, op.vddr, op.label)
    assert noise_back.sigma_n_table == noise.sigma_n_table


@pytest.mark.parametrize("edit, message", [
    (lambda a: a.update(codes=a["codes"].astype(np.int64) + 256), "codes hold a value outside 0..255"),
    (lambda a: a.update(codes=a["codes"].astype(np.int64) - 256), "codes hold a value outside 0..255"),
    (lambda a: a.update(codes=a["codes"] + 0.7), "codes are float64, expected integers"),
    (lambda a: a.update(codes=a["codes"] > 0), "codes are bool, expected integers"),
    (lambda a: a.update(meta=np.array(str(a["meta"]).replace('"seed": 11', '"seed": -11'))),
     "meta.seed -11 is negative"),
], ids=["codes+256", "codes-256", "float-codes", "bool-codes", "negative-seed"])
def test_load_array_state_refuses_codes_that_would_wrap_and_a_negative_seed(tmp_path, stub_model,
                                                                            edit, message):
    """Codes cast to uint8 would wrap (c + 256 and c - 256 load as c) or truncate (c + 0.7)."""
    op, dists, noise = regime_preset("B")
    state = program_arrays(stub_model(np.arange(128).reshape(4, 4, 8)), dists, op.vddr, seed=11)
    path = tmp_path / "state.npz"
    save_array_state(str(path), state, op, noise)
    with np.load(path) as npz:
        arrays = dict(npz)
    edit(arrays)
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=f"{path}: malformed array state: {message}"):
        load_array_state(str(path))
    # integer codes of another dtype, in range, load as the same table
    np.savez(path, **{**arrays, "codes": state.codes.astype(np.int64),
                      "meta": np.array(json.dumps({"vddr": 1.5, "seed": 0, "vdd": 1.2,
                                                   "sigma_n_table": [[0.8, 0.1]]}))})
    back, _, _ = load_array_state(str(path))
    assert np.array_equal(back.codes, state.codes) and back.codes.dtype == np.uint8 and back.seed == 0


def test_consecutive_reads_of_a_word_use_disjoint_uniforms(stub_model):
    # read k of address a takes uniforms [8k, 8k + 8) of the (seed, a)
    # Philox stream, one per bit, MSB first
    _, dists, noise = regime_preset("B")
    model = stub_model(np.arange(128).reshape(4, 4, 8))
    state = program_arrays(model, dists, 1.5, seed=1)
    reader = MemristorReader(state, OperatingPoint(1.2, 1.5), noise, seed=7)
    n_reads = 40
    for address in ((0, 0, 0), (2, 1, 5), (3, 3, 7)):
        addr = int(np.ravel_multi_index(address, state.codes.shape))
        key = np.array([7, addr], dtype=np.uint64)
        stream = np.random.Generator(np.random.Philox(key=key)).random(8 * n_reads)
        for k in range(n_reads):
            flips = stream[8 * k:8 * k + 8] < reader.flip_table[address]
            assert reader(*address) == int(bits_code(code_bits(state.codes[address]) ^ flips))


def test_consecutive_reads_share_no_noise(stub_model):
    # at flip probability 1/2 a read's bits are its uniforms; if read k+1
    # reused read k's last four uniforms as its first four, its high nibble
    # would always equal read k's low nibble (chance level is 1/16)
    state = program_arrays(stub_model(np.zeros((4, 4, 8))), ZERO_SIGMA_DISTS, 2.0, seed=0)
    reader = MemristorReader(state, OperatingPoint(1.2, 2.0), _FlatError(0.5), seed=3)
    words = [reader(1, 2, 3) for _ in range(400)]
    repeats = sum((a & 0x0F) == (b >> 4) for a, b in zip(words, words[1:]))
    assert repeats / 399 < 0.15


def _reference_words(state, reader, seed, schedule):
    # each read from a fresh (seed, address) stream at offset 8k, where k
    # counts that address's earlier reads
    reads: dict[int, int] = {}
    words = []
    for address in schedule:
        addr = int(np.ravel_multi_index(address, state.codes.shape))
        k = reads.get(addr, 0)
        reads[addr] = k + 1
        stream = np.random.Generator(np.random.Philox(key=np.array([seed, addr], dtype=np.uint64)))
        uniforms = stream.random(8 * (k + 1))[8 * k:]
        flips = uniforms < reader.flip_table[address]
        words.append(int(bits_code(code_bits(state.codes[address]) ^ flips)))
    return words


def test_read_many_equals_single_reads_over_runs_of_one_and_of_thousands(stub_model):
    # preset C flips many bits; two addresses take more than 1000 reads each (one in a
    # block, one spread out), and 21 others one read each, between them
    op, dists, noise = regime_preset("C")
    state = program_arrays(stub_model(np.arange(128).reshape(4, 4, 8)), dists, op.vddr, seed=1)
    long_a, long_b = (1, 2, 3), (3, 0, 6)
    others = [a for a in np.ndindex(state.codes.shape) if a not in (long_a, long_b)]
    rng = np.random.default_rng(5)
    singles = [others[i] for i in rng.choice(len(others), size=21, replace=False)]
    schedule = [long_a] * 1200
    for i in range(1001):
        schedule.append(long_b)
        if i % 50 == 0:
            schedule.append(singles[i // 50])
    schedule += [long_a] * 3
    one, many = (MemristorReader(state, op, noise, seed=13) for _ in range(2))
    expected = [one(*a) for a in schedule]
    assert many.read_many(*zip(*schedule)).tolist() == expected
    codes = [int(state.codes[a]) for a in schedule]
    assert sum(w != c for w, c in zip(expected, codes)) > len(schedule) / 4
    # both readers stand at the same position of every stream
    assert [many(*a) for a in (long_a, long_b, singles[0])] == [one(*a) for a in (long_a, long_b, singles[0])]


def test_rekeyed_reads_leak_no_position_between_addresses(stub_model):
    # one reader serves interleaved single reads and read_many blocks; a
    # stream position carried from one address to the next would show as a
    # word that differs from its fresh-stream reference
    _, dists, noise = regime_preset("B")
    state = program_arrays(stub_model(np.arange(128).reshape(4, 4, 8)), dists, 1.5, seed=1)
    reader = MemristorReader(state, OperatingPoint(1.2, 1.5), noise, seed=11)
    a0, a1, hot, a3, a4, a5 = (0, 0, 0), (1, 2, 3), (3, 3, 7), (2, 1, 5), (0, 3, 4), (3, 0, 1)
    assert all(reader.flip_table[a].max() > 0 for a in (a0, a1, hot, a3, a4, a5))
    steps = [
        ("one", [a0]),
        ("many", [a1, a0, a1, a4, a1]),
        ("one", [hot] * 300),
        ("many", [a5, hot, a0, hot, a3, a5, a5]),
        ("one", [a3, a1, hot, a1]),
        ("many", [a4, a4, hot] * 40),
        ("one", [a5, a4]),
        ("many", [a1, a5, a0, hot] * 3),
    ]
    schedule, got = [], []
    for how, step in steps:
        schedule.extend(step)
        if how == "one":
            got.extend(reader(*a) for a in step)
        else:
            got.extend(reader.read_many(*zip(*step)).tolist())
    assert schedule.count(hot) > 300
    assert got == _reference_words(state, reader, 11, schedule)


def test_a_reader_builds_one_philox(monkeypatch, stub_model):
    # building a Philox per address costs tens of microseconds each (it
    # draws OS entropy for a seed sequence it then discards)
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    _, dists, noise = regime_preset("B")
    state = program_arrays(stub_model(np.arange(128).reshape(4, 4, 8)), dists, 1.5, seed=1)
    reader = MemristorReader(state, OperatingPoint(1.2, 1.5), noise, seed=7)
    assert reader.flip_table.reshape(-1, 8).max(axis=1).min() > 0
    addresses = list(np.ndindex(state.codes.shape))
    for _ in range(2):
        for a in addresses:
            reader(*a)
        reader.read_many(*zip(*addresses))
    assert len(built) == 1


# ---------------------------------------------------------------------------
# the uniform store shared by the readers of one read seed
# ---------------------------------------------------------------------------


@pytest.fixture
def empty_store(monkeypatch):
    """Empty memsim's uniform store; return a callable that empties it again."""
    def empty():
        monkeypatch.setattr(memsim, "_uniforms", (None, {}))
    empty()
    return empty


class _CountingRng:
    """A reader's Generator that counts the uniforms drawn through it."""

    def __init__(self, rng):
        self.rng, self.uniforms = rng, 0

    def random(self, size=None, dtype=np.float64, out=None):
        drawn = self.rng.random(size, dtype, out)
        self.uniforms += drawn.size
        return drawn


def _counting(reader):
    reader._rng = _CountingRng(reader._rng)
    return reader._rng


def _two_arrays(stub_model):
    # two arrays and two supplies, so that the readers below share nothing
    # but their read seed
    _, dists, noise = regime_preset("B")
    model = stub_model(np.arange(128).reshape(4, 4, 8))
    state_a = program_arrays(model, dists, 1.5, seed=1)
    state_b = program_arrays(model, dists, 2.4, seed=2)
    return ((state_a, lambda seed: MemristorReader(state_a, OperatingPoint(1.2, 1.5), noise, seed)),
            (state_b, lambda seed: MemristorReader(state_b, OperatingPoint(0.8, 2.4), noise, seed)))


def test_interleaved_readers_of_one_seed_read_as_if_alone(empty_store, stub_model):
    # A reads part of its schedule, B reads all of its own (further into
    # some streams than A has gone), then A reads the rest; each gets the
    # words it gets when it runs from an empty store
    (state_a, make_a), (state_b, make_b) = _two_arrays(stub_model)
    addresses = list(np.ndindex(state_a.codes.shape))
    rng = np.random.default_rng(4)
    sched_a = [addresses[i] for i in rng.integers(0, 12, 900)]
    sched_b = [addresses[i] for i in rng.integers(4, 20, 1500)]

    def alone(make, schedule):
        empty_store()
        return make(9).read_many(*zip(*schedule)).tolist()

    want_a, want_b = alone(make_a, sched_a), alone(make_b, sched_b)
    empty_store()
    a, b = make_a(9), make_b(9)
    got_a = a.read_many(*zip(*sched_a[:300])).tolist()
    got_a += [a(*x) for x in sched_a[300:400]]
    got_b = [b(*x) for x in sched_b[:200]] + b.read_many(*zip(*sched_b[200:])).tolist()
    got_a += a.read_many(*zip(*sched_a[400:])).tolist()
    assert got_a == want_a == _reference_words(state_a, a, 9, sched_a)
    assert got_b == want_b == _reference_words(state_b, b, 9, sched_b)
    assert got_a != [int(state_a.codes[x]) for x in sched_a]
    assert got_b != [int(state_b.codes[x]) for x in sched_b]


def test_a_second_reader_of_a_seed_draws_no_row_the_first_drew(empty_store, stub_model):
    (state_a, make_a), (_, make_b) = _two_arrays(stub_model)
    schedule = list(np.ndindex(state_a.codes.shape)) * 3
    a, b = make_a(9), make_b(9)
    drawn_a, drawn_b = _counting(a), _counting(b)
    a.read_many(*zip(*schedule))
    assert drawn_a.uniforms == 8 * len(schedule)
    b.read_many(*zip(*schedule))
    assert drawn_b.uniforms == 0
    # b goes past a: it draws the next rows, which a then reads without drawing
    b.read_many(*zip(*schedule[:10]))
    a.read_many(*zip(*schedule[:10]))
    assert (drawn_a.uniforms, drawn_b.uniforms) == (8 * len(schedule), 80)


def test_a_reader_of_a_new_seed_replaces_the_store(empty_store, stub_model):
    (state_a, make_a), (_, make_b) = _two_arrays(stub_model)
    schedule = list(np.ndindex(state_a.codes.shape)) * 2
    first = make_a(9)
    first.read_many(*zip(*schedule))
    other = make_b(10)
    drawn = _counting(other)
    other.read_many(*zip(*schedule))
    assert drawn.uniforms == 8 * len(schedule)
    assert memsim._uniforms[0] == 10
    # the seed-9 rows are gone: a new seed-9 reader draws them again, and
    # gets the words of fresh streams
    again = make_a(9)
    drawn = _counting(again)
    assert again.read_many(*zip(*schedule)).tolist() == _reference_words(state_a, again, 9, schedule)
    assert drawn.uniforms == 8 * len(schedule)


def test_per_word_reads_equal_one_read_many_and_regrow_the_buffer_rarely(empty_store, stub_model):
    (state, make), _ = _two_arrays(stub_model)
    address = (2, 1, 5)
    addr = int(np.ravel_multi_index(address, state.codes.shape))
    one = make(9)
    words, buffers = [], []
    for _ in range(3000):
        words.append(one(*address))
        buffers.append(memsim._uniforms[1][addr][0])
    # capacity at least doubles each time it grows, so 3000 reads one at a
    # time copy O(3000) rows in all
    assert len({id(b) for b in buffers}) <= 2 + math.log2(3000)
    # a second reader takes all 3000 rows from the store; a third draws
    # them afresh in one block
    block = [[v] * 3000 for v in address]
    assert make(9).read_many(*block).tolist() == words
    empty_store()
    assert make(9).read_many(*block).tolist() == words
    assert sum(w != state.codes[address] for w in words) > 100


_READER_MAKERS = pytest.mark.parametrize("make_reader", [
    lambda state, model: IdealReader(model),
    lambda state, model: MemristorReader(state, OperatingPoint(1.2, 1.5), regime_preset("B")[2], seed=7),
], ids=["ideal", "memristor"])


@_READER_MAKERS
@pytest.mark.parametrize("address", [
    (-1, 0, 0), (4, 0, 0), (0, -1, 0), (0, 4, 0), (0, 0, -1), (0, 0, 8),
])
def test_readers_reject_an_address_outside_the_table(make_reader, address, stub_model):
    model = stub_model(np.arange(128).reshape(4, 4, 8))
    state = program_arrays(model, regime_preset("B")[1], 1.5, seed=1)
    reader = make_reader(state, model)
    with pytest.raises(IndexError):
        reader(*address)
    with pytest.raises(IndexError):
        reader.read_many(*([0, v] for v in address))


@_READER_MAKERS
@pytest.mark.parametrize("index", [
    ([0.9], [1.7], [2.2]), ([0], [1], [2.0]), ([0], [1], [np.nan]), ([True], [False], [True]),
], ids=["floats", "one-float-axis", "nan", "bools"])
def test_readers_refuse_a_read_sequence_that_is_not_integer(make_reader, index, stub_model):
    # a float address would be truncated to another word, a bool read as 0 or 1
    model = stub_model(np.arange(128).reshape(4, 4, 8))
    reader = make_reader(program_arrays(model, regime_preset("B")[1], 1.5, seed=1), model)
    dtype = np.asarray(index[2]).dtype
    with pytest.raises(IndexError, match=f"dtype {dtype}"):
        reader.read_many(*index)
    # the per-word call refuses the same coordinates, naming their type
    word = [v[0] for v in index]
    with pytest.raises(IndexError, match=f"dtype {dtype}"):
        reader(*word)
    assert reader.read_many([], [], []).tolist() == []
    if isinstance(reader, MemristorReader):
        assert sum(reader._reads) == 0


@_READER_MAKERS
@pytest.mark.parametrize("address", [
    (np.array([0, 1]), 0, 0), (0, [1], 0), (0, 0, np.zeros((1, 1), dtype=np.int64)),
], ids=["array", "list", "2d"])
def test_per_word_read_refuses_a_coordinate_that_is_not_a_scalar(make_reader, address, stub_model):
    # read_many would read every word such an address names; a per-word read
    # refuses it before reading any
    model = stub_model(np.arange(128).reshape(4, 4, 8))
    reader = make_reader(program_arrays(model, regime_preset("B")[1], 1.5, seed=1), model)
    with pytest.raises(IndexError, match="one scalar per coordinate"):
        reader(*address)
    if isinstance(reader, MemristorReader):
        assert sum(reader._reads) == 0
