import pytest

from repro.engine import generate_tiled_code, plan_nest
from repro.engine.codegen import generate_nest_code
from repro.engine.interpreter import bulk_levels
from repro.ir import ProgramBuilder
from repro.layout import col_major, row_major
from repro.transforms import no_tiling, ooc_tiling, traditional_tiling


def program(n=8):
    b = ProgramBuilder("cg", params=("N",), default_binding={"N": n})
    N = b.param("N")
    U = b.array("U", (N, N))
    V = b.array("V", (N, N))
    with b.nest("nest1") as nb:
        i = nb.loop("i", 1, N)
        j = nb.loop("j", 1, N)
        nb.assign(U[i, j], V[j, i] + 1.0)
    return b.build()


LAYOUTS = {"U": row_major(2), "V": col_major(2)}


class TestGenerateNestCode:
    def test_ooc_tiling_structure(self):
        nest = program().nests[0]
        text = generate_nest_code(nest, ooc_tiling(nest), LAYOUTS)
        lines = text.splitlines()
        # tile loop for i only; both element levels are dependence-free,
        # so they print as the one bulk box the executor runs
        assert lines[0].startswith("do IT = ")
        assert "do JT" not in text
        assert "forall (i = max(1, IT):min(N, IT+B-1), j = 1:N)" in text
        assert text.count("end forall") == 1
        assert text.count("end do") == 1  # the IT tile loop
        assert "passion_read_tiles(U, V)" in text
        assert "passion_write_tiles(U)" in text

    def test_traditional_tiling_tiles_all(self):
        nest = program().nests[0]
        text = generate_nest_code(nest, traditional_tiling(nest), LAYOUTS)
        assert "do IT = " in text and "do JT = " in text
        # element loops clipped against both tile counters
        assert "max(1, IT)" in text
        assert "min(N, JT+B-1)" in text

    def test_untiled(self):
        nest = program().nests[0]
        text = generate_nest_code(nest, no_tiling(nest), LAYOUTS)
        assert "IT" not in text
        assert "forall (i = 1:N, j = 1:N)" in text

    def test_statement_rendered(self):
        nest = program().nests[0]
        text = generate_nest_code(nest, ooc_tiling(nest), LAYOUTS)
        assert "U(i - 1, j - 1) = (V(j - 1, i - 1) + 1)" in text


    def test_sequential_levels_stay_do_loops(self):
        # a recurrence along j: the listing and the executed kernel agree
        # that j is sequential and i the bulk box
        b = ProgramBuilder("cg", params=("N",), default_binding={"N": 8})
        N = b.param("N")
        U = b.array("U", (N + 1, N + 1))
        with b.nest("rec") as nb:
            i = nb.loop("i", 1, N)
            j = nb.loop("j", 1, N)
            nb.assign(U[i, j], U[i, j - 1] + 1.0)
        nest = b.build().nests[0]
        assert bulk_levels(nest) == (0,)
        lines = generate_nest_code(nest, ooc_tiling(nest), LAYOUTS).splitlines()
        body = [line.strip() for line in lines]
        assert body.index("do j = 1, N") < body.index(
            "forall (i = max(1, IT):min(N, IT+B-1))"
        )
        assert body[-4:-1] == ["end forall", "end do", "call passion_write_tiles(U)"]
        # with edges that carry nothing, every level is bulk
        assert "forall (i = max(1, IT):min(N, IT+B-1), j = 1:N)" in (
            generate_nest_code(nest, ooc_tiling(nest), LAYOUTS, edges=[])
        )


class TestGenerateTiledCode:
    def test_layout_header(self):
        p = program()
        text = generate_tiled_code(p, LAYOUTS)
        assert "! file layout of U: linear layout g=row-major" in text
        assert "! file layout of V: linear layout g=column-major" in text

    def test_default_layout_annotated(self):
        p = program()
        text = generate_tiled_code(p, {})
        assert "row-major (default)" in text

    def test_plan_tile_size_shown(self):
        p = program()
        nest = p.nests[0]
        shapes = {a.name: a.shape({"N": 8}) for a in p.arrays}
        plan = plan_nest(nest, ooc_tiling(nest), 64, {"N": 8}, shapes)
        text = generate_tiled_code(p, LAYOUTS, plans={"nest1": plan})
        assert f"tile size B = {plan.tile_size}" in text

    def test_explicit_specs(self):
        p = program()
        nest = p.nests[0]
        text = generate_tiled_code(
            p, LAYOUTS, specs={"nest1": traditional_tiling(nest)}
        )
        assert "do JT" in text
