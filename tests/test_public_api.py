"""The package's public surface: everything advertised is importable and
the version/quickstart contract holds."""

import pytest

import repro


class TestPublicAPI:
    def test_all_names_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_contract(self):
        """The README quickstart, verbatim."""
        from repro import OOCExecutor, ProgramBuilder, optimize_program

        b = ProgramBuilder("example", params=("N",), default_binding={"N": 16})
        N = b.param("N")
        U, V = b.array("U", (N, N)), b.array("V", (N, N))
        with b.nest("copy") as nest:
            i, j = nest.loop("i", 1, N), nest.loop("j", 1, N)
            nest.assign(U[i, j], V[j, i] + 1.0)
        program = b.build()

        decision = optimize_program(program)
        executor = OOCExecutor(decision.program, decision.layout_objects())
        result = executor.run()
        assert result.stats.calls > 0
        assert decision.layouts == {"U": (1, 0), "V": (0, 1)}

    def test_layout_from_direction_canonical_3d(self):
        from repro import col_major, layout_from_direction, row_major

        assert layout_from_direction((1, 0, 0)).d == col_major(3).d
        assert layout_from_direction((0, 0, 1)).d == row_major(3).d

    def test_version_names_frozen(self):
        assert repro.VERSION_NAMES == (
            "col", "row", "l-opt", "d-opt", "c-opt", "h-opt",
        )

    def test_import_does_not_load_networkx(self):
        """The two graphs the optimizer needs (statement SCCs, nest/array
        components) are a few dozen nodes of plain dicts; only
        ``interference_graph()`` itself hands out an ``nx.Graph``."""
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = "import repro, sys; sys.exit('networkx' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
