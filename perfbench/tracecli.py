"""Run one `wakesim` CLI command with its layers traced.

    python perfbench/tracecli.py <wakesim arguments...>

The traced walkthrough starts this in place of `python -m wakesim.cli`. It
joins the benchmark's run through the environment (`tracing.SPAN_RUN_ENV`,
`SPAN_PARENT_ENV`), writes its spans to `SPAN_OUT_ENV` when the command ends,
and exits with the command's exit code.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.tracing import SPAN_OUT_ENV, SPAN_PARENT_ENV, SPAN_RUN_ENV, Tracer, instrument
    import wakesim.cli as cli

    tracer = Tracer(os.environ[SPAN_RUN_ENV], os.environ.get(SPAN_PARENT_ENV) or None)
    code = 0
    try:
        with instrument(tracer):
            cli.main.main(args=sys.argv[1:], prog_name="wakesim")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.dump(os.environ[SPAN_OUT_ENV])
    return code


if __name__ == "__main__":
    sys.exit(main())
