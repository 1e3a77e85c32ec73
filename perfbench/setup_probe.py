"""What a fresh process pays before it can solve: import, then parse.

    python3 perfbench/setup_probe.py MODULE a.mesh b.mesh ...

Imports MODULE (``confmetric`` or ``confmetric.cli``), then reads every
mesh with its targets sidecar and builds the solver's mesh and lengths.
"""

import importlib
import sys


def main() -> int:
    module, *meshes = sys.argv[1:]
    importlib.import_module(module)
    from confmetric import io

    for path in meshes:
        prob = io.read_mesh_file(path)
        io.read_targets_file(io.sidecar_path(path), prob)
        io.problem_to_mesh(prob)
    return 0


if __name__ == "__main__":
    sys.exit(main())
