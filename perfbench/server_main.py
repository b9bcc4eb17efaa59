"""The chat server under test, as its own process.

Boots the same server ``repro serve`` boots (``repro.server.serve`` with
default telemetry), on an ephemeral port, and prints ``PORT <n>`` once it
listens.  With ``--trace`` the layer probes are installed first.  On
SIGTERM it stops serving and writes ``--report``: peak RSS, set-up
timings, the text-memo counters, and (traced) every span it recorded.

Run by ``chat_load.py``; not meant to be started by hand.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--telemetry-root", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import repro.server as server_mod
    from repro.llm.memo import memo_stats

    from spans import Patcher, Recorder, timed

    imported = time.perf_counter()
    recorder = Recorder()
    patcher = None
    if args.trace:
        import probes

        patcher = probes.install(recorder, server=True)
    setup = Recorder()
    timer = Patcher()
    timer.wrap_function(
        "repro.corpora.demo", "register_demo_datasets",
        lambda fn: timed(setup, "corpora.register_demo_datasets", fn))
    server = server_mod.serve(
        port=0, root=args.root, data_dir=args.data_dir,
        telemetry_root=args.telemetry_root)
    timer.restore()
    corpus_gen = sum(s[2] - s[1] for s in setup.closed())

    stop = threading.Event()

    def on_term(signum, frame):
        if not stop.is_set():
            stop.set()
            threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGINT, on_term)
    host, port = server.server_address
    print(f"PORT {port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        server.store.close()
        if patcher is not None:
            patcher.restore()
        report = {
            "peak_rss_kb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss,
            "import_s": imported - STARTED,
            "corpus_gen_s": corpus_gen,
            "memo": memo_stats(),
        }
        if args.trace:
            report.update(recorder.export())
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
