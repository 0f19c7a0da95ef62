"""One workload, once, in this fresh process: ``python -m bench.worker SPEC``.

``SPEC`` is a JSON object (see ``run.py``).  The last line of standard
output is the JSON result; a failure exits non-zero with the traceback
on standard error.
"""

import time

T_ENTRY = time.perf_counter()   # set-up is timed from here, before imports

import json      # noqa: E402
import sys       # noqa: E402


def main(argv) -> int:
    spec = json.loads(argv[1])
    spec["t_entry"] = T_ENTRY
    from .workloads import WORKLOADS, run_serve_workload, run_step_workload

    w = WORKLOADS[spec["workload"]]
    run = run_serve_workload if w.kind == "serve" else run_step_workload
    result = run(w, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
