"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a wakesim checkout, importing the package from its
`src/`. Human-readable lines go first; the last line of standard output is
the JSON result: correct, attempted, failed and metrics (end-to-end metrics
untraced, per-layer metrics with --trace 1). Working files go to
`.perfbench_out/<workload>/`, including `record.json` (machine, provenance,
per-pass times, failures, noisy-path digests) and, when traced, `trace.json`
(the spans).
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("walkthrough", "regime_stream", "rates_grid")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 is the README configuration")
    parser.add_argument("--seconds", type=float, default=45.0, help="measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "wakesim" / "cli.py").is_file():
        print(f"perfbench: no wakesim source under {ROOT / 'src'}; run from a wakesim checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.bench import run_workload

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload}: setup builds {record['setup_builds_s']} s, "
          f"passes {record['pass_walls_s']} s, {record['beats_per_pass']} beats per pass")
    print(f"# unscaled median pass {record['host_wall_s']} s; probe scale per pass {record['probe_scale']}")
    for name, failures in record["failures"].items():
        print(f"# FAILED {name}: {'; '.join(failures)}")
    for c in record.get("commands", []):
        print(f"# {c['tag']} cli.{c['command']}_s={c['wall_s']:.6g} cli.{c['command']}_rss_mb={c['rss_mb']:.6g}")
    for label, row in record.get("by_reader", {}).items():
        print(f"# reader {label}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()))
    print(f"# noisy-path digests {json.dumps(record['noisy_digests'], sort_keys=True)}")
    print(f"# provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
