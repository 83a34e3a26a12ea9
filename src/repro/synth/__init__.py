"""Logic synthesis engine: the Design Compiler substitute.

Full flow: elaborated RTL netlist -> technology mapping (Nangate-45nm-class
built-in library or parsed Liberty) -> optimization passes (cleanup, chain
balancing, gate sizing, fanout buffering, retiming) -> static timing
analysis and QoR reporting, all driven by DC-format Tcl scripts through
:class:`DCShell`.
"""

from .cache import (
    FrontendCache,
    SynthesisCache,
    clear_caches,
    default_cache,
    elaborate_cached,
    frontend_cache,
    synthesize_batch,
    synthesize_cached,
)
from .dcshell import DCShell, DCShellError, ScriptResult
from .explore import (
    ChainResult,
    ExploreConfig,
    anneal_chain,
    explore_sizing,
)
from .liberty import LibertyError, parse_liberty, write_liberty
from .library import LibCell, TechLibrary, nangate45
from .optimizer import (
    PassResult,
    balance_chains,
    buffer_high_fanout,
    recover_area,
    retime,
    size_gates,
)
from .passes import PassContext, sizing_neighbors
from .power import PowerAnalyzer, PowerReport
from .reports import QoRSnapshot, render_qor_report, render_timing_report
from .sdc import Constraints
from .tcl import TclError, TclInterpreter
from .techmap import cleanup, map_to_library
from .timing import TimingEngine, TimingPath, TimingReport
from .wireload import WIRELOAD_MODELS, WireLoadModel, get_wireload

__all__ = [
    "PowerAnalyzer",
    "PowerReport",
    "FrontendCache",
    "SynthesisCache",
    "clear_caches",
    "default_cache",
    "elaborate_cached",
    "frontend_cache",
    "synthesize_batch",
    "synthesize_cached",
    "DCShell",
    "DCShellError",
    "ScriptResult",
    "LibertyError",
    "parse_liberty",
    "write_liberty",
    "LibCell",
    "TechLibrary",
    "nangate45",
    "PassContext",
    "sizing_neighbors",
    "ChainResult",
    "ExploreConfig",
    "anneal_chain",
    "explore_sizing",
    "PassResult",
    "balance_chains",
    "buffer_high_fanout",
    "recover_area",
    "retime",
    "size_gates",
    "QoRSnapshot",
    "render_qor_report",
    "render_timing_report",
    "Constraints",
    "TclError",
    "TclInterpreter",
    "cleanup",
    "map_to_library",
    "TimingEngine",
    "TimingPath",
    "TimingReport",
    "WIRELOAD_MODELS",
    "WireLoadModel",
    "get_wireload",
]
