"""``repro serve`` with the per-layer wrappers installed in the server process.

Usage (arguments are exactly those of ``python -m repro serve``)::

    PYTHONPATH=src python perfbench/serve_traced.py --data objects.csv --port 0

The accumulated self times ride out on the ``stats`` op under a
``perfbench`` key, so the load generator can snapshot them before and
after its timed loop over the same connection it measures with.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402  (benchmark-local module, path set above)


def main() -> int:
    acc = layers.Accumulator()
    installed, absent = layers.install(acc)
    layers.propagate_context_to_pools()

    from repro.io.cli import main as cli_main
    from repro.serve.service import DatasetService

    stats_payload = DatasetService.stats_payload

    def traced_stats_payload(self):
        payload = stats_payload(self)
        payload["perfbench"] = dict(
            acc.snapshot(), installed=installed, absent=absent
        )
        return payload

    DatasetService.stats_payload = traced_stats_payload
    return cli_main(["serve", *sys.argv[1:]])


if __name__ == "__main__":
    raise SystemExit(main())
