"""What a finished run leaves alive: the netlists still reachable.

Netlists hold no reference cycles, so the ones alive after a full
collection are exactly the ones something still refers to.  A served
session keeps none, so after a serve run the live netlists are the
frontend cache's entries; :func:`burst_requests` builds the fixed
sessions the checks serve.
"""

import gc

from repro.designs import FAMILIES, generate_family_variant
from repro.hdl.netlist import Netlist
from repro.serve import ServeRequest


def live_netlists() -> list[Netlist]:
    """Every netlist alive in this process, after a full collection."""
    gc.collect()
    return [obj for obj in gc.get_objects() if type(obj) is Netlist]


def netlists_since(before: list[Netlist]) -> list[Netlist]:
    """The netlists alive now that were not in ``before``.

    ``before`` is a :func:`live_netlists` list, which keeps its netlists
    alive, so no identity in it can be reused by a new one.
    """
    old = {id(netlist) for netlist in before}
    return [netlist for netlist in live_netlists() if id(netlist) not in old]


def burst_requests(variant: int) -> list[ServeRequest]:
    """One session per Chipyard family, as a ``serve_bursts`` burst."""
    requests = []
    for seed, family in enumerate(sorted(FAMILIES)):
        design = generate_family_variant(family, variant)
        requests.append(
            ServeRequest(
                verilog=design.verilog,
                design_name=design.name,
                baseline_script=f"read_verilog {design.name}\nlink\ncompile",
                requirement="fix the negative slack and improve timing",
                top=design.top,
                clock_period=1.2,
                seed=seed,
            )
        )
    return requests
