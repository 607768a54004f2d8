"""One ladder job: ``f2dyn.cli.main(argv)`` in a fresh process.

    python3 perfbench/clijob.py READY_FD TRACE_OUT -- ARGV...

Writes "ready" to READY_FD once f2dyn.cli is imported (the set-up the
parent times), then runs the command as a user's shell would, with its
report on stdout, and writes "done SECONDS" to READY_FD: the time main()
took.  TRACE_OUT is "-" for an untraced run, timed by
clock.ReferenceClock (seconds at a fixed reference speed); otherwise the
tracer is installed after "ready", main() is timed by the wall clock, and
the tracer's summary is written to TRACE_OUT.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

import f2dyn.cli

from clock import ReferenceClock


def main(argv: list[str]) -> int:
    ready_fd, trace_out, command = int(argv[0]), argv[1], argv[3:]
    os.write(ready_fd, b"ready\n")
    if trace_out == "-":
        clock = ReferenceClock()
        clock.start()
        t0 = clock.now()
        code = f2dyn.cli.main(command)
        seconds = clock.now() - t0
        clock.stop()
    else:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        t0 = perf_counter()
        try:
            # looked up after install(), so main itself is wrapped
            code = tracer.run_job(0, lambda: f2dyn.cli.main(command))
            seconds = perf_counter() - t0
        finally:
            tracer.uninstall()
            sys.stdout.flush()
            with open(trace_out, "w") as fh:
                json.dump(tracer.summary(), fh)
    sys.stdout.flush()
    os.write(ready_fd, f"done {seconds!r}\n".encode())
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
