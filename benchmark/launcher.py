"""Run one `wittpolar` CLI invocation with spans installed.

    python3 benchmark/launcher.py SPANS_OUT STEP ARGS...

Times the import of wittpolar.cli, installs the wrappers of tracer.py,
calls wittpolar.cli.main(ARGS), writes the spans to SPANS_OUT and exits
with main's exit code.
"""

import sys
from time import perf_counter

spans_out, step, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
t0 = perf_counter()
import wittpolar.cli  # noqa: E402
import_s = perf_counter() - t0

import tracer  # noqa: E402

tr = tracer.Tracer()
tr.install()
t0 = perf_counter()
try:
    rc = wittpolar.cli.main(argv)
finally:
    main_s = perf_counter() - t0
    tr.uninstall()
    tr.dump(spans_out, {"step": step, "import_s": import_s, "main_s": main_s})
sys.exit(rc)
