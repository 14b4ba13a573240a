"""Run the experiment service as its own process, optionally traced.

    python3 perfbench/server.py --store DIR [--spans FILE]

Calls :func:`repro.service.serve` (what ``repro-flip serve`` runs) on an
ephemeral port with one job worker and the journal on; the banner line it
prints names the port.  With ``--spans`` the tracing wrappers are installed
before the service is built, and the spans are written to ``FILE`` once the
SIGTERM drain has finished.
"""

from __future__ import annotations

import argparse
import json
import os

from common import add_src_to_path

JOB_WORKERS = 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    add_src_to_path()

    tracer = None
    if args.spans:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from repro.service import serve

    code = serve(args.store, port=0, workers=JOB_WORKERS, verbose=False, journal=True)
    if tracer is not None:
        partial = args.spans + ".partial"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
        os.replace(partial, args.spans)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
