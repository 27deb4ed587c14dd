"""Standing mutation check: each listed mutant of src/ must fail its tests.

A mutant is one exact source substitution in one file of src/wakesim, plus
the tests that must catch it. For each mutant the script copies src/ to a
temporary directory, applies the substitution there (its text must occur
exactly once, so a mutant that no longer fits the code is reported, not
skipped), and runs the named tests with pytest against the copy. A mutant
is killed when pytest reports a failing test; it survives when they all
pass. First the named tests are run once against an unmutated copy, which
must pass, so that a kill means the mutant and not a broken tree.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

It prints one line per mutant and exits 1 if the control run fails or a
mutant survives, does not apply, or could not be tested.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/wakesim
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


_MEMSIM = "tests/test_memsim.py::"
_MLPBACK = "tests/test_mlpback.py::"
_SYNTH_TEST = "tests/test_datapipe.py::test_synth_dataset_equals_the_per_beat_reference_record_for_record"
_PACK_TEST = _MEMSIM + "test_pack_flips_equals_bits_code_on_every_row"
_ADDRESS_TESTS = ("tests/test_bayesfront.py::test_word_addresses_refuse_a_bad_read_sequence",
                  "tests/test_memsim.py::test_readers_reject_an_address_outside_the_table",
                  "tests/test_memsim.py::test_readers_refuse_a_read_sequence_that_is_not_integer")

MUTANTS = (
    # pack_flips: the single uint64 multiply that packs a row of 8 flips.
    Mutant("pack shift 57", "memsim.py",
           "_PACK_SHIFT = np.uint64(64 - WORD_BITS)", "_PACK_SHIFT = np.uint64(57)",
           (_PACK_TEST,)),
    Mutant("pack multiplier low bit cleared", "memsim.py",
           "np.uint64(0x8040201008040201)", "np.uint64(0x8040201008040200)",
           (_PACK_TEST,)),
    Mutant("pack view big-endian", "memsim.py",
           'flips.view("<u8")', 'flips.view(">u8")',
           (_PACK_TEST,)),
    # read_many: the scatter that puts grouped words back in sequence order.
    Mutant("scatter without order", "memsim.py",
           "words[order] = self._codes[grouped]", "words[:] = self._codes[grouped]",
           (_MEMSIM + "test_read_many_equals_single_reads_over_runs_of_one_and_of_thousands",)),
    # _draw: the Philox re-key at counter 2 * filled, and the store's growth.
    Mutant("re-key at counter filled", "memsim.py",
           'state["state"]["counter"][0] = 2 * filled', 'state["state"]["counter"][0] = filled',
           ("tests/test_memsim.py::test_consecutive_reads_of_a_word_use_disjoint_uniforms",
            "tests/test_memsim.py::test_rekeyed_reads_leak_no_position_between_addresses")),
    Mutant("re-key at the reader's own read count, not the store's", "memsim.py",
           'state["state"]["counter"][0] = 2 * filled', 'state["state"]["counter"][0] = 2 * k',
           (_MEMSIM + "test_interleaved_readers_of_one_seed_read_as_if_alone",)),
    Mutant("store grows by the run, not geometrically", "memsim.py",
           "np.empty((max(end, 2 * len(buf)), WORD_BITS))", "np.empty((end, WORD_BITS))",
           (_MEMSIM + "test_per_word_reads_equal_one_read_many_and_regrow_the_buffer_rarely",)),
    # NaN stands for np.empty's undefined rows, so the mutant fails the same way on every run.
    Mutant("store growth drops the rows drawn so far", "memsim.py",
           "grown[:filled] = buf[:filled]", "grown[:filled] = np.nan",
           (_MEMSIM + "test_per_word_reads_equal_one_read_many_and_regrow_the_buffer_rarely",)),
    # run_stream's _once: each woken row is asked of one back end once.
    Mutant("labels memo asks for every row", "wakectl.py",
           "new = np.unique(rows[known[rows] < 0])", "new = np.unique(rows)",
           ("tests/test_batch_core.py::"
            "test_a_stream_of_the_last_streams_records_in_order_reuses_its_matrix",)),
    Mutant("labels memo asks again for rows labelled normal", "wakectl.py",
           "known[rows] < 0", "known[rows] <= 0",
           ("tests/test_mlpback.py::test_a_split_streamed_again_labels_each_row_at_most_once",)),
    # MlpFloat.activations: the float chain that training, predict and calibration share.
    Mutant("hidden ReLU dropped from the float chain", "mlpback.py",
           "                np.maximum(a, 0.0, out=a)\n", "                pass\n",
           ("tests/test_mlpback.py::test_forward_is_the_activation_chain_and_sets_each_hidden_scale",
            "tests/test_mlpback.py::test_gradients_match_finite_differences")),
    # _hidden_peaks: calibration over MLP_TILE-row tiles equals the whole-batch max.
    Mutant("calibration keeps only the last tile's peak", "mlpback.py",
           "return np.array(peaks).max(axis=0)", "return np.array(peaks)[-1]",
           (_MLPBACK + "test_calibration_scales_equal_the_whole_batch_peaks_at_tile_edges",
            _MLPBACK + "test_a_nan_row_in_one_tile_gives_the_scales_of_the_whole_batch")),
    Mutant("calibration tile drops its last row", "mlpback.py",
           "model.activations(x[start:start + MLP_TILE])", "model.activations(x[start:start + MLP_TILE][:-1])",
           (_MLPBACK + "test_calibration_scales_equal_the_whole_batch_peaks_at_tile_edges",)),
    # InputQuantizer.__call__: the in-place affine map rounds half up.
    Mutant("input quantizer drops its + 0.5", "mlpback.py",
           "        q += 0.5\n", "        pass\n",
           (_MLPBACK + "test_input_quantizer_equals_the_out_of_place_map_and_leaves_a_read_only_input",)),
    # load_classifier: the final-layer bias bound that keeps logits in int32.
    Mutant("loader logit-bias check removed", "mlpback.py",
           '                _check_logit_range(bias, shape[1], f"{where}.bias")\n',
           "                pass\n",
           ("tests/test_mlpback.py::test_load_refuses_a_final_bias_that_lets_a_logit_wrap",)),
    # word_addresses: the per-array checks that replace ravel_multi_index's.
    Mutant("address bound <= for <", "bayesfront.py",
           "a.max() < n", "a.max() <= n",
           _ADDRESS_TESTS),
    Mutant("address dtype check lets floats through", "bayesfront.py",
           'a.dtype.kind not in "iu"', 'a.dtype.kind not in "iuf"',
           _ADDRESS_TESTS),
    # WordReader.__call__: the per-word read refuses a coordinate that is not a scalar.
    Mutant("per-word read takes an array coordinate", "bayesfront.py",
           "if any(np.ndim(x) != 0 for x in address):", "if False:",
           (_MEMSIM + "test_per_word_read_refuses_a_coordinate_that_is_not_a_scalar",)),
    # bayes_infer_many: the class-major sum over the feature axis.
    Mutant("class and feature axes swapped in the class-major sum", "bayesfront.py",
           "words.sum(axis=1).T", "words.swapaxes(0, 1).sum(axis=1).T",
           ("tests/test_batch_core.py::test_class_major_batch_reads_each_address_as_a_per_beat_loop",
            "tests/test_batch_core.py::test_batched_inference_equals_bayes_infer")),
    # _synth_block: a block's tone sums equal the per-beat generator's.
    Mutant("both tones use the first phase", "datapipe/synthetic.py",
           "phases[:, k, None]", "phases[:, 0, None]",
           (_SYNTH_TEST,)),
    Mutant("channel phase shift dropped", "datapipe/synthetic.py",
           "\n                                           + ch * CHANNEL_PHASE_SHIFT)", ")",
           (_SYNTH_TEST,)),
    # write_trace: beat numbers at the even slots of the join, line bodies at the odd.
    Mutant("trace parts shifted by one slot", "wakectl.py",
           "parts[::2] = _trace_prefixes(self.n)[:self.n]\n        parts[1::2] = [",
           "parts[1::2] = _trace_prefixes(self.n)[:self.n]\n        parts[::2] = [",
           ("tests/test_batch_core.py::test_table_trace_writer_equals_csv_writer_on_every_row",)),
)


def _copy_src(root: Path) -> Path:
    src = root / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _env(src: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    command = [sys.executable, "-m", "pytest", "-q", "-x", "--tb=line", "-p", "no:cacheprovider"]
    return subprocess.run(command + list(tests), cwd=REPO, env=_env(src), capture_output=True, text=True)


def _control(tests) -> str | None:
    """None if an unmutated copy imports from itself and passes every test; else why not."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        where = subprocess.run([sys.executable, "-c", "import wakesim; print(wakesim.__file__)"],
                               env=_env(src), capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            return f"wakesim imports from {where or '?'}, not from the copy at {src}"
        run = _pytest(src, tests)
        if run.returncode != 0:
            return f"pytest exit {run.returncode}\n{run.stdout[-2000:]}"
    return None


def _run(mutant: Mutant) -> str:
    """'killed', 'SURVIVED', or why the mutant could not be tested."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        target = src / "wakesim" / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"DOES NOT APPLY: its text occurs {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        run = _pytest(src, mutant.tests)
    # pytest exits 1 when a test failed and 0 when all passed; any other
    # code (a usage error, no test collected) means the tests did not run.
    if run.returncode == 1:
        return "killed"
    if run.returncode == 0:
        return "SURVIVED"
    return f"NOT TESTED: pytest exit {run.returncode}\n{run.stdout[-2000:]}"


def main() -> int:
    t0 = time.perf_counter()
    tests = sorted({t for m in MUTANTS for t in m.tests})
    failure = _control(tests)
    if failure is not None:
        print(f"control run failed: {failure}")
        return 1
    bad = 0
    for mutant in MUTANTS:
        t = time.perf_counter()
        outcome = _run(mutant)
        bad += outcome != "killed"
        print(f"{mutant.name}: {outcome} ({time.perf_counter() - t:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in {time.perf_counter() - t0:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
