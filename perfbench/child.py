"""Child-process entry points of the benchmark.

    python3 perfbench/child.py setup
        Import mpschain and finish a first small eigensolve; the parent
        times the whole process as one set-up sample.

    python3 perfbench/child.py cli OUT_FILE TRACE ARG...
        Import mpschain.cli (timed) and run cli.main(ARG...), which is
        what `python -m mpschain ARG...` does, exiting with main's code.
        With TRACE 1 the span wrappers are installed first.  OUT_FILE
        gets a JSON header line {"import_s", "peak_rss_kb"} followed by
        the spans, if any.

peak_rss_kb is this process's own high-water mark (VmHWM).  The kernel
carries the parent's high-water mark into a child's ru_maxrss across
fork and exec, so the parent cannot read a child's peak from rusage.
The checkout's src directory must be on PYTHONPATH.
"""

from __future__ import annotations

import resource
import sys
import time


def setup() -> int:
    import mpschain
    params = mpschain.params_from_mapping("hardcore", {"g": 1.0})
    mpschain.spectrum(mpschain.full_chain(mpschain.build_family(params), 4))
    return 0


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cli(out_path: str, traced: bool, argv: list) -> int:
    t0 = time.perf_counter()
    import mpschain.cli
    import_s = time.perf_counter() - t0
    from tracing import Tracer
    tracer = Tracer()
    if traced:
        tracer.install()
    try:
        return mpschain.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(out_path, {"import_s": import_s,
                                "peak_rss_kb": peak_rss_kb()})


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup":
        sys.exit(setup())
    if mode == "cli" and len(sys.argv) > 3 and sys.argv[3] in ("0", "1"):
        sys.exit(cli(sys.argv[2], sys.argv[3] == "1", sys.argv[4:]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
