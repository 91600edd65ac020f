"""The global optimization algorithm (paper Section 3, steps 1–3).

1. Normalize to perfect nests (fusion / distribution / code sinking).
2. Build the interference graph; split into connected components.
3. Per component, in decreasing cost order: optimize the costliest nest
   with data transformations only; then every remaining nest with
   combined loop + data transformations, propagating the file layouts
   fixed so far.

The result carries the per-array layout hyperplanes, the per-nest loop
transformations, and the fully transformed program ready for the tiled
out-of-core executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..ir.program import Program
from ..layout import LinearLayout, Layout, col_major, row_major
from ..linalg import IMat
from ..transforms import apply_loop_transform, normalize_program
from .cost import nest_cost
from .interference import connected_components
from .locality import NestDecision, optimize_nest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import Observability


@dataclass(frozen=True)
class ReportEvent:
    """One structured entry of :attr:`GlobalDecision.report`.

    ``kind``
        ``"components"`` (interference-graph split), ``"order"``
        (per-component cost ranking), or ``"nest"`` (one nest's
        decision).
    ``data``
        the structured payload (component lists, chosen transformation,
        new layouts, ...), JSON-ready via :meth:`to_dict`.

    ``str()`` renders exactly the free-form line older versions stored,
    so existing printing code and documented output are unchanged.
    """

    kind: str
    text: str
    data: Mapping[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "text": self.text, "data": dict(self.data)}


@dataclass
class GlobalDecision:
    program: Program                      # transformed program
    layouts: dict[str, tuple[int, ...]]   # hyperplane per array (rank >= 2)
    directions: dict[str, tuple[int, ...]]  # file-fastest direction per array
    transforms: dict[str, IMat]           # per-nest loop transformation
    decisions: list[NestDecision]
    #: structured decision log; each entry stringifies to the familiar
    #: free-form report line (``for line in decision.report: print(line)``
    #: is unchanged), ``report_lines`` gives the plain strings
    report: list[ReportEvent] = field(default_factory=list)

    @property
    def report_lines(self) -> list[str]:
        return [str(e) for e in self.report]

    def layout_objects(self, default: str = "row") -> dict[str, Layout]:
        """Full :class:`Layout` objects for every array of the program.

        Arrays with a chosen fast direction ``Δa`` get the exact layout
        ``D`` with ``D·Δa = e_last`` (file-consecutive innermost
        iterations), which also realizes the reported hyperplane.
        """
        from ..layout import layout_from_direction

        out: dict[str, Layout] = {}
        for a in self.program.arrays:
            if a.rank == 1:
                out[a.name] = row_major(1)
            elif a.name in self.directions:
                out[a.name] = layout_from_direction(self.directions[a.name])
            elif a.name in self.layouts:
                out[a.name] = LinearLayout.from_hyperplane(self.layouts[a.name])
            else:
                out[a.name] = (
                    row_major(a.rank) if default == "row" else col_major(a.rank)
                )
        return out


def optimize_program(
    program: Program,
    *,
    binding: Mapping[str, int] | None = None,
    allow_loop: bool = True,
    allow_data: bool = True,
    initial_directions: Mapping[str, tuple[int, ...]] | None = None,
    nest_order: str = "cost",
    obs: "Observability | None" = None,
) -> GlobalDecision:
    """Run the paper's algorithm.

    ``allow_loop=False`` gives the pure data-transformation optimizer
    (the ``d-opt`` version); ``allow_data=False`` with
    ``initial_directions`` fixed (every array's file-fastest axis) gives
    the pure loop-transformation optimizer (``l-opt``).

    ``nest_order`` selects step (3.a)'s ordering: ``"cost"`` (the paper's
    profile-ranked order) or ``"program"`` (textual order — the ablation
    baseline).

    ``obs`` (a :class:`repro.obs.Observability`) traces the pipeline
    phases — normalize, interference, each nest's optimization — as
    wall-time spans; ``None`` (the default) records nothing.
    """
    if nest_order not in ("cost", "program"):
        raise ValueError(f"unknown nest order {nest_order!r}")
    from .locality import hyperplane_from_direction

    pipeline_span = (
        obs.tracer.begin(
            "optimize_program", "compile", program=program.name
        )
        if obs is not None
        else None
    )
    if obs is not None:
        with obs.span("normalize", "compile"):
            program = normalize_program(program)
    else:
        program = normalize_program(program)
    b = program.binding(binding)
    directions: dict[str, tuple[int, ...]] = dict(initial_directions or {})
    layouts: dict[str, tuple[int, ...]] = {}
    for name, delta in directions.items():
        g = hyperplane_from_direction(delta)
        if g is not None:
            layouts[name] = g
    transforms: dict[str, IMat] = {}
    decisions: list[NestDecision] = []
    report: list[ReportEvent] = []

    if obs is not None:
        interference_span = obs.tracer.begin("interference", "compile")
    components = connected_components(program)
    if obs is not None:
        obs.tracer.end(interference_span, n_components=len(components))
    report.append(
        ReportEvent(
            "components",
            f"{len(components)} connected component(s): "
            + "; ".join(f"{tuple(n)}~{tuple(a)}" for n, a in components),
            {
                "components": [
                    {"nests": list(n), "arrays": list(a)}
                    for n, a in components
                ]
            },
        )
    )

    nest_by_name = {n.name: n for n in program.nests}
    for nests, arrays in components:
        if nest_order == "cost":
            ordered = sorted(
                nests, key=lambda name: -nest_cost(nest_by_name[name], b)
            )
        else:
            ordered = list(nests)
        report.append(
            ReportEvent(
                "order",
                f"component order (costliest first): {ordered}",
                {"ordered": list(ordered), "nest_order": nest_order},
            )
        )
        for rank, name in enumerate(ordered):
            nest = nest_by_name[name]
            first = rank == 0
            nest_span = (
                obs.tracer.begin(f"optimize_nest {name}", "compile", nest=name)
                if obs is not None
                else None
            )
            decision = optimize_nest(
                nest,
                directions,
                b,
                # the costliest nest is optimized by data transformations
                # alone (step 3.b); later nests combine loop + data (3.c)
                allow_loop=allow_loop and not (first and allow_data),
                allow_data=allow_data,
            )
            if obs is not None:
                obs.tracer.end(
                    nest_span,
                    q_last=str(decision.q_last),
                    identity=decision.is_identity,
                )
            decisions.append(decision)
            transforms[name] = decision.t
            layouts.update(decision.new_layouts)
            directions.update(decision.new_directions)
            report.append(
                ReportEvent(
                    "nest",
                    f"{name}: q_last={decision.q_last}, "
                    f"T={'identity' if decision.is_identity else decision.t!r}, "
                    f"layouts+={decision.new_layouts}",
                    {
                        "nest": name,
                        "q_last": str(decision.q_last),
                        "identity": decision.is_identity,
                        "new_layouts": {
                            k: list(v)
                            for k, v in decision.new_layouts.items()
                        },
                    },
                )
            )

    edges = {d.nest_name: d.edges for d in decisions}
    new_nests = []
    for nest in program.nests:
        t = transforms.get(nest.name, IMat.identity(nest.depth))
        if t == IMat.identity(nest.depth):
            new_nests.append(nest)
        else:
            new_nests.append(
                apply_loop_transform(nest, t, edges=edges.get(nest.name))
            )
    transformed = program.with_nests(new_nests)
    if obs is not None:
        obs.tracer.end(pipeline_span, n_nests=len(new_nests))
    return GlobalDecision(
        transformed, layouts, directions, transforms, decisions, report
    )
