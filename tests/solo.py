"""The solo run: one script alone in a fresh shell.

``src/`` runs a design's scripts through
:func:`repro.synth.cache.synthesize_batch`, as one command-prefix tree
behind the result caches.  Each result must equal this run of its
script; the tests hold the batch, the expert database and the frontend
hand-over to it.
"""

from repro.synth import DCShell, ScriptResult, TechLibrary


def run_solo(
    design_name: str,
    verilog,
    script: str,
    top: str | None = None,
    library: TechLibrary | None = None,
) -> tuple[ScriptResult, DCShell]:
    """``script`` run alone in a fresh :class:`DCShell`: the result and the shell.

    The shell keeps what the script left, such as the final netlist
    (``shell.netlist``) and the last ``write`` (``shell.last_written``).
    """
    shell = DCShell(library=library)
    shell.add_design(design_name, verilog, top=top)
    return shell.run_script(script), shell

