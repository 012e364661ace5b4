"""Run finsite's CLI with the benchmark's tracer installed.

Usage: python perfbench/cli_shim.py SUMMARY.json SPANS.jsonl CLI-ARGS...

Stdout and the exit code are the CLI's own; the trace summary (calls, span
times, import time) goes to SUMMARY.json and the spans are appended to SPANS.jsonl.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    summary_path = Path(sys.argv[1])
    t0 = time.perf_counter()
    import finsite.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = finsite.cli.main(sys.argv[3:])
    finally:
        tracer.remove()
        sys.stdout.flush()
        data = tracer.summary()
        data["import_s"] = import_s
        info = finsite.intmat._snf_cached.cache_info()
        data["calls"]["intmat.snf_hits"] = info.hits
        data["calls"]["intmat.snf_misses"] = info.misses
        summary_path.write_text(json.dumps(data), encoding="utf-8")
        with open(sys.argv[2], "a", encoding="utf-8") as fh:
            tracer.write_spans(fh, {"process": os.getpid(), "argv": sys.argv[3:]})
    return code


if __name__ == "__main__":
    sys.exit(main())
