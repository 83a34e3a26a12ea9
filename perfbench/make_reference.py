"""Regenerate ``reference.json``: the digest of every request a seed can draw.

Run from the root of a checkout, with no ``REPRO_*`` overrides::

    python3 perfbench/make_reference.py

Table III designs are customized exactly as ``table3_pass_at_k`` does;
serve-pool items through the sequential ``ChatLS.customize_and_evaluate``
on the serve workload's database (the serving engine must reproduce them
bit for bit).
"""

from __future__ import annotations

import json
import sys

import bootstrap


def main() -> int:
    bootstrap.use_checkout_source()
    import inputs
    from gate import REFERENCE, digest
    from repro.designs import benchmark_names
    from run import non_default
    from workloads import ServeBursts, Table3PassAtK

    if non_default():
        raise SystemExit(f"refusing to record with non-default settings {non_default()}")
    digests: dict[str, str] = {}
    table3 = Table3PassAtK(0, {})
    table3.setup()
    for design in benchmark_names():
        digests[f"table3/{design}"] = digest(table3.customize(design))
    print(f"table3: {len(digests)} digests", file=sys.stderr)

    serve = ServeBursts(0, {})
    serve.setup()
    for item in inputs.pool():
        digests[item.key] = digest(serve.chatls.customize_and_evaluate(**item.request()))
    print(f"serve: {len(digests)} digests", file=sys.stderr)

    with open(REFERENCE, "w") as fh:
        json.dump({"digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
