"""Property-based end-to-end check: *random* affine programs, random
layouts, random tiling — out-of-core execution always matches the
in-core reference interpreter, and the global optimizer's output is
always semantically equivalent to its input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import OOCExecutor, interpret_program
from repro.engine.interpreter import initial_arrays
from repro.ir import ProgramBuilder
from repro.layout import LinearLayout, antidiagonal, col_major, diagonal, row_major
from repro.optimizer import optimize_program
from repro.runtime import MachineParams
from repro.transforms import no_tiling, ooc_tiling, traditional_tiling

SMALL = MachineParams(n_io_nodes=2, stripe_bytes=64, io_latency_s=0.001)

N = 5  # array extent for the random programs

# subscript building blocks over loop variables i, j
SUBSCRIPTS = [
    lambda i, j: (i, j),
    lambda i, j: (j, i),
    lambda i, j: (i, i),
    lambda i, j: (j, j),
    lambda i, j: (i - 1, j),
    lambda i, j: (i, j - 1),
    lambda i, j: (i - 1, j + 1),
    lambda i, j: (N + 1 - i, j),
]

LAYOUTS = [row_major(2), col_major(2), diagonal(), antidiagonal(),
           LinearLayout.from_hyperplane((2, 1))]

TILINGS = [ooc_tiling, traditional_tiling, no_tiling]


@st.composite
def random_programs(draw):
    n_arrays = draw(st.integers(2, 4))
    n_nests = draw(st.integers(1, 3))
    b = ProgramBuilder("rand", params=("N",), default_binding={"N": N})
    Np = b.param("N")
    handles = [
        b.array(f"A{k}", (Np + 2, Np + 2)) for k in range(n_arrays)
    ]
    for nn in range(n_nests):
        with b.nest(f"n{nn}") as nest:
            i = nest.loop("i", 2, Np)
            j = nest.loop("j", 2, Np)
            n_stmts = draw(st.integers(1, 2))
            for _ in range(n_stmts):
                lhs_arr = draw(st.sampled_from(handles))
                lhs_sub = draw(st.sampled_from(SUBSCRIPTS))
                rhs_arr = draw(st.sampled_from(handles))
                rhs_sub = draw(st.sampled_from(SUBSCRIPTS))
                const = draw(st.floats(0.5, 2.0))
                nest.assign(
                    lhs_arr[lhs_sub(i, j)],
                    rhs_arr[rhs_sub(i, j)] * 1.0 + const,
                )
    return b.build()


class TestRandomProgramEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        random_programs(),
        st.integers(0, len(TILINGS) - 1),
        st.data(),
    )
    def test_ooc_execution_matches_interpreter(self, program, tiling_idx, data):
        binding = program.binding()
        layouts = {
            a.name: data.draw(st.sampled_from(LAYOUTS), label=f"layout:{a.name}")
            for a in program.arrays
        }
        init = initial_arrays(program, binding)
        expected = interpret_program(program, initial=init)
        ex = OOCExecutor(
            program,
            layouts,
            params=SMALL,
            backend="memory",
            tiling=TILINGS[tiling_idx],
            memory_budget=data.draw(
                st.sampled_from([40, 120, 4000]), label="budget"
            ),
            initial=init,
        )
        ex.run()
        for arr in program.arrays:
            np.testing.assert_allclose(
                ex.array_data(arr.name), expected[arr.name],
                rtol=1e-10, atol=1e-10,
            )

    @settings(max_examples=20, deadline=None)
    @given(random_programs())
    def test_optimizer_preserves_semantics(self, program):
        binding = program.binding()
        init = initial_arrays(program, binding)
        expected = interpret_program(program, initial=init)
        decision = optimize_program(program)
        got = interpret_program(decision.program, initial=init)
        for arr in program.arrays:
            np.testing.assert_allclose(
                got[arr.name], expected[arr.name], rtol=1e-10, atol=1e-10
            )

    @settings(max_examples=15, deadline=None)
    @given(random_programs())
    def test_optimized_ooc_execution_matches(self, program):
        """The full pipeline: optimize, then execute out of core with the
        chosen layouts."""
        binding = program.binding()
        init = initial_arrays(program, binding)
        expected = interpret_program(program, initial=init)
        decision = optimize_program(program)
        ex = OOCExecutor(
            decision.program,
            decision.layout_objects(),
            params=SMALL,
            backend="memory",
            memory_budget=200,
            initial=init,
        )
        ex.run()
        for arr in program.arrays:
            np.testing.assert_allclose(
                ex.array_data(arr.name), expected[arr.name],
                rtol=1e-10, atol=1e-10,
            )
