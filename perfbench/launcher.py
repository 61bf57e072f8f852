"""Start the gateway the way ``repro serve`` does, for the serving workloads.

    python3 perfbench/launcher.py --artifact model.npz --name toy [--trace-out spans.jsonl]

Builds ``ModelRegistry(ServeConfig())`` (the defaults ``serve`` uses:
``max_batch=32``, ``max_wait_ms=2``), deploys one artifact, binds a
``GatewayServer`` to an ephemeral loopback port and prints ``PORT <n>``.
SIGTERM drains and exits 0.  With ``--trace-out`` the registry, service,
kernel and artifact-load entry points are wrapped before deployment, and the
spans plus the registry's counter snapshot are written on shutdown.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer, install_server_hooks  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--name", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    tracer = Tracer(enabled=args.trace_out is not None)
    if tracer.enabled:
        install_server_hooks(tracer)
    from repro import GatewayServer, ModelRegistry, ServeConfig

    def _graceful(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _graceful)
    registry = ModelRegistry(ServeConfig())
    try:
        registry.deploy(args.name, args.artifact)
        gateway = GatewayServer(registry)
        try:
            print(f"PORT {gateway.port}", flush=True)
            gateway.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            gateway.close()
    finally:
        counters = registry.counters_snapshot()
        registry.close()
        if tracer.enabled:
            out = Path(args.trace_out)
            tracer.dump(out)
            out.with_suffix(".counters.json").write_text(json.dumps(counters))
    return 0


if __name__ == "__main__":
    sys.exit(main())
