"""Traced HPCG problem generation (``GenerateProblem_ref``).

Reproduces the *allocation behaviour* the paper's §III analysis hinges
on: the reference code allocates its sparse matrix through millions of
consecutive per-row ``new`` calls of a few hundred bytes each (lines
108–110 of ``GenerateProblem_ref.cpp``) plus one ``std::map`` node per
row (line 143) — all far below any sensible object-tracking threshold —
while the vectors are single large allocations that glibc serves from
the mmap region.

With ``wrap_matrix=True`` the generator brackets the per-row loops with
the tracer's manual wrapping instrumentation under the names the
paper's Figure 1 legend shows (``124_GenerateProblem_ref.cpp`` for the
matrix arrays, ``205_GenerateProblem_ref.cpp`` for the map nodes); with
``False`` it reproduces the preliminary, unmatched-references state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.extrae.tracer import Tracer
from repro.memsim.patterns import MemOp, SequentialPattern
from repro.paper import MAP_GROUP_NAME, MATRIX_GROUP_NAME
from repro.simproc.isa import KernelBatch
from repro.vmem.callstack import CallStack, Frame
from repro.workloads.hpcg.geometry import Geometry

__all__ = ["HpcgProblem", "LevelLayout", "MATRIX_GROUP_NAME", "MAP_GROUP_NAME"]

#: per-row allocation sizes of the reference code
INDL_BYTES = 27 * 4  # local_int_t mtxIndL[27]
VALUES_BYTES = 27 * 8  # double matrixValues[27]
INDG_BYTES = 27 * 8  # global_int_t mtxIndG[27]
#: std::map<global_int_t, local_int_t> red-black-tree node
MAP_NODE_BYTES = 80

_GEN = "GenerateProblem"
_GEN_FILE = "GenerateProblem_ref.cpp"


def _site(line: int, function: str = _GEN, file: str = _GEN_FILE) -> CallStack:
    return CallStack(
        (Frame("main", "main.cpp", 87), Frame(function, file, line))
    )


@dataclass
class LevelLayout:
    """Address-space layout of one MG level's data objects."""

    level: int
    nx: int
    ny: int
    nz: int
    has_bottom: bool
    has_top: bool
    #: start of the interleaved per-row matrix region (indL, values,
    #: indG chunks repeat with ``row_stride``)
    matrix_base: int
    #: combined byte stride of one row's three chunks (incl. headers)
    row_stride: int
    map_base: int
    map_stride: int
    #: vector name -> base byte address (all 8-byte elements)
    vectors: dict[str, int] = field(default_factory=dict)

    @property
    def nrows(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def plane(self) -> int:
        return self.nx * self.ny

    @property
    def halo_entries(self) -> int:
        return self.plane * (int(self.has_bottom) + int(self.has_top))

    @property
    def ncols(self) -> int:
        return self.nrows + self.halo_entries

    def vector(self, name: str) -> int:
        try:
            return self.vectors[name]
        except KeyError:
            raise KeyError(
                f"level {self.level} has no vector {name!r}; "
                f"available: {sorted(self.vectors)}"
            ) from None

    @property
    def matrix_span(self) -> tuple[int, int]:
        """Byte range covering all three per-row matrix arrays."""
        return self.matrix_base, self.matrix_base + self.nrows * self.row_stride

    def halo_ranges(self, vector: str = "x") -> dict[str, tuple[int, int]]:
        """Annotated halo byte ranges of a gathered vector.

        Keys mirror the paper's Figure 1 labels: ``bottom`` and ``top``
        are the halo planes appended after the local entries; ``ghost``
        (if the send buffer exists) is the halo-exchange staging buffer.
        """
        base = self.vector(vector)
        out: dict[str, tuple[int, int]] = {}
        cursor = base + self.nrows * 8
        if self.has_bottom:
            out["bottom"] = (cursor, cursor + self.plane * 8)
            cursor += self.plane * 8
        if self.has_top:
            out["top"] = (cursor, cursor + self.plane * 8)
        if "sendbuf" in self.vectors:
            sb = self.vectors["sendbuf"]
            out["ghost"] = (sb, sb + self.halo_entries * 8)
        return out


class HpcgProblem:
    """All levels' layouts plus the geometry they derive from."""

    def __init__(self, geometry: Geometry, levels: list[LevelLayout]) -> None:
        if len(levels) != geometry.nlevels:
            raise ValueError("one layout per MG level required")
        self.geometry = geometry
        self.levels = levels

    @property
    def fine(self) -> LevelLayout:
        return self.levels[0]

    @classmethod
    def generate(
        cls,
        tracer: Tracer,
        geometry: Geometry,
        wrap_matrix: bool = True,
        emit_setup_traffic: bool = True,
    ) -> "HpcgProblem":
        """Run the (traced) problem generation.

        Parameters
        ----------
        tracer:
            Provides the allocator, instrumentation and machine.
        wrap_matrix:
            Apply the paper's manual allocation wrapping; ``False``
            reproduces the preliminary unmatched state.
        emit_setup_traffic:
            Execute the setup phase's store traffic (the reason the
            figure's matrix region shows *no* stores during execution:
            it was written here).
        """
        levels: list[LevelLayout] = []
        with tracer.region("GenerateProblem_ref", Frame(_GEN, _GEN_FILE, 58)):
            for lv in range(geometry.nlevels):
                levels.append(cls._generate_level(tracer, geometry, lv, wrap_matrix))
        problem = cls(geometry, levels)
        if emit_setup_traffic:
            problem._emit_setup_traffic(tracer)
        return problem

    # ------------------------------------------------------------------
    @staticmethod
    def _generate_level(
        tracer: Tracer, geometry: Geometry, lv: int, wrap_matrix: bool
    ) -> LevelLayout:
        alloc = tracer.allocator
        nx, ny, nz = geometry.dims(lv)
        nrows = geometry.nrows(lv)
        ncols = geometry.ncols(lv)

        suffix = "" if lv == 0 else f"@L{lv}"

        # The reference per-row loop allocates the three arrays for row
        # i before moving to row i+1, so they interleave in memory.
        matrix_specs = [
            (INDL_BYTES, _site(108)),
            (VALUES_BYTES, _site(109)),
            (INDG_BYTES, _site(110)),
        ]
        if wrap_matrix:
            with tracer.wrap_allocations(MATRIX_GROUP_NAME + suffix):
                runs = alloc.malloc_run_interleaved(nrows, matrix_specs)
            with tracer.wrap_allocations(MAP_GROUP_NAME + suffix):
                map_run = alloc.malloc_run(nrows, MAP_NODE_BYTES, _site(143))
        else:
            runs = alloc.malloc_run_interleaved(nrows, matrix_specs)
            map_run = alloc.malloc_run(nrows, MAP_NODE_BYTES, _site(143))
        matrix_base = runs[0].base - 16  # include the first chunk header
        row_stride = runs[0].stride

        vectors: dict[str, int] = {}
        if lv == 0:
            # GenerateProblem_ref allocates the fine-level vectors...
            vectors["b"] = alloc.malloc(nrows * 8, _site(157))
            vectors["x"] = alloc.malloc(ncols * 8, _site(158))
            vectors["xexact"] = alloc.malloc(nrows * 8, _site(159))
            # ...CGData holds the solver vectors...
            vectors["r"] = alloc.malloc(nrows * 8, _site(32, "InitializeSparseCGData", "CGData.hpp"))
            vectors["z"] = alloc.malloc(ncols * 8, _site(33, "InitializeSparseCGData", "CGData.hpp"))
            vectors["p"] = alloc.malloc(ncols * 8, _site(34, "InitializeSparseCGData", "CGData.hpp"))
            vectors["Ap"] = alloc.malloc(nrows * 8, _site(35, "InitializeSparseCGData", "CGData.hpp"))
        else:
            # ...and MGData the coarse-level ones (rhs + solution).
            vectors["r"] = alloc.malloc(nrows * 8, _site(28, "InitializeMGData", "MGData.hpp"))
            vectors["x"] = alloc.malloc(ncols * 8, _site(29, "InitializeMGData", "MGData.hpp"))
        if lv + 1 < geometry.nlevels:
            # Residual work vector for the restriction at this level.
            vectors["Axf"] = alloc.malloc(nrows * 8, _site(30, "InitializeMGData", "MGData.hpp"))
        halo = geometry.halo_entries(lv)
        if halo:
            vectors["sendbuf"] = alloc.malloc(
                max(halo * 8, 1), _site(41, "SetupHalo", "SetupHalo_ref.cpp")
            )

        return LevelLayout(
            level=lv,
            nx=nx,
            ny=ny,
            nz=nz,
            has_bottom=geometry.has_bottom_neighbor,
            has_top=geometry.has_top_neighbor,
            matrix_base=matrix_base,
            row_stride=row_stride,
            map_base=map_run.base,
            map_stride=map_run.stride,
            vectors=vectors,
        )

    def _emit_setup_traffic(self, tracer: Tracer) -> None:
        """The setup phase writes every structure once (and reads the
        global indices while building the local ones)."""
        with tracer.region("setup_fill", Frame(_GEN, _GEN_FILE, 130)):
            for layout in self.levels:
                n = layout.nrows
                patterns = [
                    SequentialPattern(
                        layout.matrix_base, n * layout.row_stride // 8, 8,
                        op=MemOp.STORE,
                    ),
                    SequentialPattern(
                        layout.map_base, n * layout.map_stride // 8, 8,
                        op=MemOp.STORE,
                    ),
                ]
                for name, addr in layout.vectors.items():
                    size = layout.ncols if name in ("x", "z", "p") else layout.nrows
                    patterns.append(
                        SequentialPattern(addr, size, 8, op=MemOp.STORE)
                    )
                total = sum(p.count for p in patterns)
                tracer.execute(
                    KernelBatch(
                        label="setup_fill",
                        patterns=tuple(patterns),
                        instructions=total * 6,
                        branches=total // 4,
                        mlp=8.0,
                        source=Frame(_GEN, _GEN_FILE, 130),
                    )
                )
