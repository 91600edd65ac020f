"""The complete pipeline on the Figure-1 program: imperfect trees in,
verified out-of-core execution and generated code out."""

import numpy as np
import pytest

from repro.engine import OOCExecutor, generate_tiled_code, interpret_program
from repro.engine.interpreter import initial_arrays
from repro.experiments.figure1 import figure1_program
from repro.optimizer import connected_components, optimize_program
from repro.runtime import MachineParams
from repro.transforms import normalize_program

SMALL = MachineParams(n_io_nodes=4, stripe_bytes=128, io_latency_s=0.001)


class TestFullPipeline:
    def test_trees_to_verified_execution(self):
        program = figure1_program()
        binding = program.binding()

        # reference semantics of the imperfect input
        from tests.transforms.test_sinking_edges import interpret_tree

        init = initial_arrays(program, binding)
        expected = {k: v.copy() for k, v in init.items()}
        interpret_tree(program, binding, expected)

        # step 1: normalization
        normalized = normalize_program(program)
        assert not normalized.trees
        got = interpret_program(normalized, initial=init)
        for name in expected:
            np.testing.assert_allclose(got[name], expected[name], err_msg=name)

        # steps 2-3: global optimization
        decision = optimize_program(normalized)
        comps = connected_components(decision.program)
        assert len(comps) == 2  # {U,V,W} and {X,Y}

        # out-of-core execution of the optimized program
        ex = OOCExecutor(
            decision.program,
            decision.layout_objects(),
            params=SMALL,
            backend="memory",
            memory_budget=200,
            initial=init,
        )
        ex.run()
        for name in expected:
            np.testing.assert_allclose(
                ex.array_data(name), expected[name], err_msg=name
            )

        # code generation renders the whole thing
        code = generate_tiled_code(
            decision.program, decision.layout_objects()
        )
        assert "passion_read_tiles" in code
        for arr in ("U", "V", "W", "X", "Y"):
            assert f"file layout of {arr}:" in code

    def test_optimized_beats_baseline_on_figure1(self):
        # N large enough (vs the budget) that arrays span several tiles —
        # whole-array tiles would make layouts unobservable
        binding = {"N": 16}
        program = normalize_program(figure1_program())
        from repro.layout import col_major

        init = initial_arrays(program, binding)
        base = OOCExecutor(
            program,
            {a.name: col_major(a.rank) for a in program.arrays},
            params=SMALL, backend="memory", memory_budget=150,
            binding=binding, initial=init,
        ).run()
        decision = optimize_program(program, binding=binding)
        opt = OOCExecutor(
            decision.program, decision.layout_objects(),
            params=SMALL, backend="memory", memory_budget=150,
            binding=binding, initial=init,
        ).run()
        assert opt.stats.calls < base.stats.calls
