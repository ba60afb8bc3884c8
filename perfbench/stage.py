"""Run one eventforest CLI stage and record how long its import and main took.

Usage: python3 stage.py TIMING_JSON CLI_ARG...

This is the `eventforest` console script (``sys.exit(eventforest.cli.main())``)
plus two clocks. The timings go to TIMING_JSON so the CLI keeps its own
stdout; the benchmark reads wall time, CPU time and peak RSS of the whole
process itself with ``os.wait4``.
"""

import json
import sys
import time


def main() -> int:
    timing_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from eventforest.cli import main as cli_main

    imported = time.perf_counter()
    code = cli_main(argv)
    done = time.perf_counter()
    with open(timing_path, "w") as handle:
        json.dump({"import_s": imported - start, "main_s": done - imported}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
