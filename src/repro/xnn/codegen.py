"""Instruction generation for RSN-XNN (Section 4.1, 4.3, 4.4).

:class:`ProgramBuilder` turns layers (GEMMs with fused non-MM operators, and
attention blocks) into the per-FU uOP sequences that drive the simulated
datapath, and into RSN instruction packets for the code-size analysis of
Fig. 9.  The three optimisation knobs of Table 9 are explicit options:

* ``interleave_load_store`` -- the fine-grained DDR load/store ordering of
  Fig. 12: output stores of one output tile are drained during the load gaps
  of the next tile instead of strictly after it ("BW Optimized").
* ``pipeline_attention`` -- execute the two attention MMs of each head as a
  chained path through two MME groups with the softmax fused in MemC, instead
  of storing the score matrix off-chip between them ("Multi MMs together").
* ``overlap_prolog_epilog`` -- hold back the stores of a layer's last output
  tile and drain them during the first loads of the *next* layer.

The builder is the software side of the RSN contract: it is responsible for
making every producer's send count match the consumers' receive counts
(Section 3.1); the FU kernels simply obey their uOPs.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import ExitUOp, InstructionPacket, MOp, RSNProgram, UOp
from ..workloads.layers import FusedOp, MatMulLayer
from .datapath import XNNDatapath
from .tiling import GemmTiling, plan_gemm_tiling

__all__ = ["CodegenOptions", "ProgramBuilder"]


#: encoded uOP sizes per FU type, in bytes.  Off-chip FUs need full addressing
#: information; on-chip stream FUs need only a few flags and counts (this is
#: the asymmetry behind Fig. 9).
UOP_NBYTES = {
    "DDR": 12,
    "LPDDR": 10,
    "MemA": 4,
    "MemB": 5,
    "MemC": 6,
    "MeshA": 6,
    "MeshB": 6,
    "MME": 4,
}

#: mapping from workload-level fused ops to the MemC operator names.
_FUSED_TO_MEMC = {
    FusedOp.BIAS: "bias",
    FusedOp.SOFTMAX: "softmax",
    FusedOp.GELU: "gelu",
    FusedOp.TRANSPOSE: "transpose",
    FusedOp.LAYER_ADD: "layer_add",
    FusedOp.SCALE_SHIFT: "scale_shift",
    FusedOp.MEAN_VAR_NORM: "mean_var_norm",
}


@dataclass(frozen=True)
class CodegenOptions:
    """Optimisation and tiling knobs for instruction generation.

    These are exactly the software-side axes a design-space exploration can
    mutate (:mod:`repro.explore`), so construction validates the tiling knobs
    up front: a non-positive tile extent would otherwise send the tiler into
    an infinite split loop long after the bad value was introduced.
    """

    interleave_load_store: bool = True
    pipeline_attention: bool = True
    overlap_prolog_epilog: bool = True
    tile_m: int = 768
    tile_k: int = 128
    super_n: int = 1024

    def __post_init__(self) -> None:
        for knob in ("tile_m", "tile_k", "super_n"):
            value = getattr(self, knob)
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"CodegenOptions.{knob} must be a positive integer, got {value!r}"
                )

    @classmethod
    def baseline(cls) -> "CodegenOptions":
        """The layer-serial overlay style of Table 9's "No Optimize" column."""
        return cls(
            interleave_load_store=False,
            pipeline_attention=False,
            overlap_prolog_epilog=False,
        )

    @classmethod
    def all_optimizations(cls) -> "CodegenOptions":
        return cls()

    @classmethod
    def with_overrides(cls, **overrides) -> "CodegenOptions":
        """Build options from keyword overrides, rejecting unknown knobs.

        The design-space explorer feeds axis assignments through this hook;
        a typo'd axis name must fail loudly here rather than silently leave
        the default in place.
        """
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ValueError(
                f"unknown codegen option(s) {unknown}; valid: {sorted(valid)}"
            )
        return cls(**overrides)


class ProgramBuilder:
    """Generates per-FU uOP sequences and RSN packets for one program.

    Typical use::

        builder = ProgramBuilder(xnn, options)
        builder.add_gemm_layer(layer, lhs="input", rhs="wq", out="query", ...)
        builder.add_attention(...)
        builder.finalize()
        builder.load_programs()          # pre-store uOPs into the datapath
        program = builder.build_rsn_program()   # packets, for Fig. 9
    """

    def __init__(self, xnn: XNNDatapath, options: Optional[CodegenOptions] = None):
        self.xnn = xnn
        self.options = options or CodegenOptions()
        self._uops: "OrderedDict[str, List[UOp]]" = OrderedDict(
            (name, []) for name in xnn.datapath.fus)
        #: DDR transfer groups awaiting scheduling: each entry is
        #: ``{"loads": [...], "stores": [...]}`` for one output tile / head.
        self._ddr_groups: List[Dict[str, List[UOp]]] = []
        #: stores of the previous layer's last group, held back for
        #: prolog/epilog overlap across layers.
        self._held_stores: List[UOp] = []
        self._finalized = False
        self._mem_a_cursor = 0
        self._mem_b_cursor = 0

    # ------------------------------------------------------------ primitives

    def _uop(self, fu_type: str, **fields) -> UOp:
        return UOp(opcode=fu_type, fields=fields, nbytes=UOP_NBYTES.get(fu_type, 4))

    def _emit(self, fu_name: str, uop: UOp) -> None:
        if fu_name not in self._uops:
            raise KeyError(f"unknown FU {fu_name!r} in datapath")
        self._uops[fu_name].append(uop)

    def _next_mem_a(self) -> str:
        name = self.xnn.mem_a_names[self._mem_a_cursor % len(self.xnn.mem_a_names)]
        self._mem_a_cursor += 1
        return name

    def _ddr_load(
        self,
        tensor: str,
        row0: int,
        col0: int,
        rows: int,
        cols: int,
        dest: str,
        strided: bool = False,
    ) -> UOp:
        return self._uop(
            "DDR",
            load=True,
            tensor=tensor,
            row0=row0,
            col0=col0,
            rows=rows,
            cols=cols,
            dest=dest,
            strided=strided,
        )

    def _ddr_store(
        self,
        tensor: str,
        row0: int,
        col0: int,
        rows: int,
        cols: int,
        src: str,
        strided: bool = False,
    ) -> UOp:
        return self._uop(
            "DDR",
            store=True,
            tensor=tensor,
            row0=row0,
            col0=col0,
            rows=rows,
            cols=cols,
            src=src,
            strided=strided,
        )

    # ---------------------------------------------------- DDR order scheduling

    def _push_group(self, loads: List[UOp], stores: List[UOp]) -> None:
        self._ddr_groups.append({"loads": loads, "stores": stores})

    @staticmethod
    def _interleave(primary: List[UOp], secondary: List[UOp]) -> List[UOp]:
        """Spread ``secondary`` uOPs evenly between ``primary`` uOPs."""
        if not primary:
            return list(secondary)
        if not secondary:
            return list(primary)
        merged: List[UOp] = []
        ratio = len(primary) / (len(secondary) + 1)
        next_insert = ratio
        pending = list(secondary)
        taken = 0
        for index, uop in enumerate(primary, start=1):
            merged.append(uop)
            while taken < len(pending) and index >= next_insert:
                merged.append(pending[taken])
                taken += 1
                next_insert += ratio
        merged.extend(pending[taken:])
        return merged

    @staticmethod
    def _transfers_conflict(store: UOp, load: UOp) -> bool:
        """True when a pending store writes a region a later load reads.

        This is the compile-time dependence check that lets the code generator
        reorder loads ahead of stores safely (Section 3.2: the order of
        execution and data dependencies is known at compile time).
        """
        if store.get("tensor") != load.get("tensor"):
            return False
        store_r0, store_c0 = int(store.get("row0", 0)), int(store.get("col0", 0))
        store_r1 = store_r0 + int(store.get("rows", 0))
        store_c1 = store_c0 + int(store.get("cols", 0))
        load_r0, load_c0 = int(load.get("row0", 0)), int(load.get("col0", 0))
        load_r1 = load_r0 + int(load.get("rows", 0))
        load_c1 = load_c0 + int(load.get("cols", 0))
        return not (store_r1 <= load_r0 or load_r1 <= store_r0
                    or store_c1 <= load_c0 or load_c1 <= store_c0)

    def _flush_ddr_groups(self) -> None:
        """Lower the collected transfer groups into the DDR FU's uOP sequence."""
        groups = self._ddr_groups
        self._ddr_groups = []
        if not groups:
            return
        interleave = self.options.interleave_load_store
        overlap = self.options.overlap_prolog_epilog and interleave
        sequence: List[UOp] = []
        previous_stores: List[UOp] = list(self._held_stores)
        self._held_stores = []
        for group in groups:
            loads = group["loads"]
            if interleave:
                # Stores whose data a load in this group depends on must retire
                # before those loads; the rest drain inside the load gaps.
                conflicting = [
                    s
                    for s in previous_stores
                    if any(self._transfers_conflict(s, load) for load in loads)
                ]
                safe = [s for s in previous_stores if s not in conflicting]
                sequence.extend(conflicting)
                sequence.extend(self._interleave(loads, safe))
            else:
                sequence.extend(previous_stores)
                sequence.extend(loads)
            previous_stores = group["stores"]
        if overlap:
            # Hold the final stores back so the next layer's loads can hide them.
            self._held_stores = previous_stores
        else:
            sequence.extend(previous_stores)
        for uop in sequence:
            self._emit("DDR", uop)

    # ----------------------------------------------------------- GEMM layers

    def add_gemm_layer(
        self,
        layer: MatMulLayer,
        lhs: str,
        rhs: str,
        out: str,
        bias: Optional[str] = None,
        residual: Optional[str] = None,
        label: Optional[str] = None,
    ) -> GemmTiling:
        """Emit instructions for one weight-stationary-off-chip GEMM layer.

        ``lhs``/``rhs``/``out`` are host-memory tensor names; the RHS is loaded
        from LPDDR (it is a weight matrix -- feature-map RHS operands are the
        attention case, handled by :meth:`add_attention`).
        """
        if layer.num != 1:
            raise ValueError(
                f"layer {layer.name!r} has num={layer.num}; multi-instance layers are "
                "attention-style and must use add_attention()"
            )
        label = label or layer.name
        options = self.options
        tiling = plan_gemm_tiling(
            layer.m,
            layer.k,
            layer.n,
            num_mme=self.xnn.config.num_mme,
            tile_m=options.tile_m,
            tile_k=options.tile_k,
            super_n=options.super_n,
        )
        ops_out = tuple(
            _FUSED_TO_MEMC[op]
            for op in layer.fused_ops
            if op in _FUSED_TO_MEMC and op != FusedOp.SOFTMAX
        )
        mem_a = self._next_mem_a()
        mem_b_names = self.xnn.mem_b_names
        mme_names = self.xnn.mme_names

        for m_block in tiling.m_blocks:
            for n_index, n_super in enumerate(tiling.n_super_blocks):
                columns = tiling.mme_columns[n_index]
                active = [(g, columns[g]) for g in range(len(columns))]
                k_steps = tiling.k_steps

                # -- DDR loads (LHS + residual) and stores for this output tile.
                loads = [
                    self._ddr_load(
                        lhs, m_block.start, kb.start, m_block.size, kb.size, dest=mem_a
                    )
                    for kb in tiling.k_blocks
                ]
                if residual is not None:
                    loads.extend(
                        self._ddr_load(
                            residual,
                            m_block.start,
                            col.start,
                            m_block.size,
                            col.size,
                            dest=self.xnn.mem_c_names[g],
                        )
                        for g, col in active
                    )
                stores = [
                    self._ddr_store(
                        out,
                        m_block.start,
                        col.start,
                        m_block.size,
                        col.size,
                        src=self.xnn.mem_c_names[g],
                    )
                    for g, col in active
                ]
                self._push_group(loads, stores)

                # -- LPDDR weight loads, one chunk per (k step, active MME).
                for kb in tiling.k_blocks:
                    for g, col in active:
                        dest = mem_b_names[g % len(mem_b_names)]
                        self._emit(
                            "LPDDR",
                            self._uop(
                                "LPDDR",
                                load=True,
                                tensor=rhs,
                                row0=kb.start,
                                col0=col.start,
                                rows=kb.size,
                                cols=col.size,
                                dest=dest,
                            ),
                        )

                # -- MemA ping-pong: prolog load, steady load+send, epilog send.
                self._emit(mem_a, self._uop("MemA", load=True, send=False))
                for _ in range(k_steps - 1):
                    self._emit(mem_a, self._uop("MemA", load=True, send=True))
                self._emit(mem_a, self._uop("MemA", load=False, send=True))

                # -- MemB ping-pong per scratchpad (serves its share of chunks).
                for b_index, mem_b in enumerate(mem_b_names):
                    owned = [g for g, _ in active if g % len(mem_b_names) == b_index]
                    chunk_count = k_steps * len(owned)
                    if not chunk_count:
                        continue
                    self._emit(
                        mem_b, self._uop("MemB", load=True, send=False, source="lpddr")
                    )
                    for _ in range(chunk_count - 1):
                        self._emit(
                            mem_b,
                            self._uop("MemB", load=True, send=True, source="lpddr"),
                        )
                    self._emit(
                        mem_b, self._uop("MemB", load=False, send=True, source="lpddr")
                    )

                # -- Mesh routing for the whole output tile.
                self._emit(
                    "MeshA",
                    self._uop(
                        "MeshA",
                        src=mem_a,
                        dests=tuple(mme_names[g] for g, _ in active),
                        count=k_steps,
                    ),
                )
                self._emit(
                    "MeshB",
                    self._uop(
                        "MeshB",
                        routes=tuple(
                            (mem_b_names[g % len(mem_b_names)], mme_names[g])
                            for g, _ in active
                        ),
                        count=k_steps,
                    ),
                )

                # -- Compute and post-processing.
                for g, col in active:
                    self._emit(
                        mme_names[g],
                        self._uop(
                            "MME",
                            k_steps=k_steps,
                            emit=True,
                            tag=f"{label}[{m_block.start},{col.start}]",
                        ),
                    )
                    self._emit(
                        self.xnn.mem_c_names[g],
                        self._uop(
                            "MemC",
                            recv=True,
                            ops=ops_out,
                            residual=residual is not None,
                            bias_tensor=bias,
                            col0=col.start,
                            send_to="ddr",
                        ),
                    )
        self._flush_ddr_groups()
        return tiling

    # ------------------------------------------------------------- attention

    def add_attention(
        self,
        seq_len: int,
        head_dim: int,
        num_heads: int,
        heads_per_sample: int,
        query: str,
        key: str,
        value: str,
        out: str,
        scores_scratch: str = "attention_scores",
        label: str = "attention",
    ) -> None:
        """Emit instructions for the attention MM1 -> softmax -> MM2 chain.

        With ``pipeline_attention`` the score matrix of each head stays on
        chip: MM1 runs on one MME group, MemC applies scale+softmax and feeds
        the result straight back through MeshA as the LHS of MM2 on a second
        MME group.  Without it, the scores are stored to (and re-loaded from)
        the ``scores_scratch`` DDR tensor, which is the layer-serial behaviour
        the paper measures an 8.5x penalty for.
        """
        if self.options.pipeline_attention:
            self._add_attention_pipelined(
                seq_len,
                head_dim,
                num_heads,
                heads_per_sample,
                query,
                key,
                value,
                out,
                label,
            )
        else:
            self._add_attention_serial(
                seq_len,
                head_dim,
                num_heads,
                heads_per_sample,
                query,
                key,
                value,
                out,
                scores_scratch,
                label,
            )

    def _head_slices(
        self, head: int, heads_per_sample: int, seq_len: int, head_dim: int
    ) -> Tuple[int, int]:
        sample = head // heads_per_sample
        head_in_sample = head % heads_per_sample
        return sample * seq_len, head_in_sample * head_dim

    def _add_attention_pipelined(
        self,
        seq_len,
        head_dim,
        num_heads,
        heads_per_sample,
        query,
        key,
        value,
        out,
        label,
    ) -> None:
        """Heads are processed in groups of ``num_mme // 2``.

        Within one group, head ``i`` runs its score MM on MM1 engine ``i`` and
        its context MM on MM2 engine ``i``; the Mesh FUs carry all of a
        group's transfers as parallel routes, so the heads of a group proceed
        concurrently and only groups are ordered.
        """
        num_mme = self.xnn.config.num_mme
        half = max(1, num_mme // 2)
        mm1_engines = list(range(half))
        mm2_engines = list(range(half, min(num_mme, 2 * half))) or mm1_engines
        mem_a_names = self.xnn.mem_a_names
        mem_b_names = self.xnn.mem_b_names
        scale = 1.0 / float(head_dim) ** 0.5

        for group_start in range(0, num_heads, half):
            heads = list(range(group_start, min(group_start + half, num_heads)))
            placements = []
            for slot, head in enumerate(heads):
                row0, col0 = self._head_slices(
                    head, heads_per_sample, seq_len, head_dim
                )
                placements.append(
                    {
                        "head": head,
                        "row0": row0,
                        "col0": col0,
                        "mme1": self.xnn.mme_names[
                            mm1_engines[slot % len(mm1_engines)]
                        ],
                        "mme2": self.xnn.mme_names[
                            mm2_engines[slot % len(mm2_engines)]
                        ],
                        "memc1": self.xnn.mem_c_names[
                            mm1_engines[slot % len(mm1_engines)]
                        ],
                        "memc2": self.xnn.mem_c_names[
                            mm2_engines[slot % len(mm2_engines)]
                        ],
                        "mem_a": mem_a_names[slot % len(mem_a_names)],
                        "mem_b": mem_b_names[slot % len(mem_b_names)],
                    }
                )

            # Off-chip traffic: one transfer group per head *group*, because the
            # group's Mesh routes need every head's operands before any of the
            # group's results exist -- interleaving a store of this group into
            # its own loads would create a circular wait.  The scheduler still
            # drains the previous group's stores inside this group's load gaps.
            group_loads: List[UOp] = []
            group_stores: List[UOp] = []
            for tensor, dest_key in (
                (query, "mem_a"),
                (key, "mem_b"),
                (value, "mem_b"),
            ):
                for p in placements:
                    group_loads.append(
                        self._ddr_load(
                            tensor,
                            p["row0"],
                            p["col0"],
                            seq_len,
                            head_dim,
                            dest=p[dest_key],
                        )
                    )
            for p in placements:
                group_stores.append(
                    self._ddr_store(
                        out, p["row0"], p["col0"], seq_len, head_dim, src=p["memc2"]
                    )
                )
            self._push_group(group_loads, group_stores)

            # Scratchpad traffic, in the same order the DDR delivers the tiles:
            # every MemB first buffers and sends its head's K tile (transposed),
            # then its head's V tile.
            for p in placements:
                self._emit(p["mem_a"], self._uop("MemA", load=True, send=False))
                self._emit(p["mem_a"], self._uop("MemA", load=False, send=True))
            for p in placements:
                self._emit(
                    p["mem_b"], self._uop("MemB", load=True, send=False, source="ddr")
                )
                self._emit(
                    p["mem_b"],
                    self._uop(
                        "MemB", load=False, send=True, source="ddr", transpose=True
                    ),
                )
            for p in placements:
                self._emit(
                    p["mem_b"], self._uop("MemB", load=True, send=False, source="ddr")
                )
                self._emit(
                    p["mem_b"], self._uop("MemB", load=False, send=True, source="ddr")
                )

            # Mesh routing: one parallel-route uOP per stage for the whole group.
            self._emit(
                "MeshA",
                self._uop(
                    "MeshA",
                    routes=tuple((p["mem_a"], p["mme1"]) for p in placements),
                    count=1,
                ),
            )
            self._emit(
                "MeshB",
                self._uop(
                    "MeshB",
                    routes=tuple((p["mem_b"], p["mme1"]) for p in placements),
                    count=1,
                ),
            )
            self._emit(
                "MeshA",
                self._uop(
                    "MeshA",
                    routes=tuple((p["memc1"], p["mme2"]) for p in placements),
                    count=1,
                ),
            )
            self._emit(
                "MeshB",
                self._uop(
                    "MeshB",
                    routes=tuple((p["mem_b"], p["mme2"]) for p in placements),
                    count=1,
                ),
            )

            # Compute and post-processing per head.
            for p in placements:
                self._emit(
                    p["mme1"],
                    self._uop(
                        "MME", k_steps=1, emit=True, tag=f"{label}-scores[{p['head']}]"
                    ),
                )
                self._emit(
                    p["memc1"],
                    self._uop(
                        "MemC",
                        recv=True,
                        ops=("scale", "softmax"),
                        scale_factor=scale,
                        send_to="mesh_a",
                    ),
                )
                self._emit(
                    p["mme2"],
                    self._uop(
                        "MME", k_steps=1, emit=True, tag=f"{label}-context[{p['head']}]"
                    ),
                )
                self._emit(
                    p["memc2"], self._uop("MemC", recv=True, ops=(), send_to="ddr")
                )
        self._flush_ddr_groups()

    def _add_attention_serial(
        self,
        seq_len,
        head_dim,
        num_heads,
        heads_per_sample,
        query,
        key,
        value,
        out,
        scores_scratch,
        label,
    ) -> None:
        """Layer-serial attention: score matrices round-trip through DDR."""
        if scores_scratch not in self.xnn.memory:
            self.xnn.memory.allocate(scores_scratch, (num_heads * seq_len, seq_len))
        num_mme = self.xnn.config.num_mme
        mem_b_names = self.xnn.mem_b_names
        scale = 1.0 / float(head_dim) ** 0.5

        # Phase 1: all heads' score matrices (MM1 + softmax), stored off-chip.
        for head in range(num_heads):
            row0, col0 = self._head_slices(head, heads_per_sample, seq_len, head_dim)
            g = head % num_mme
            mme, memc = self.xnn.mme_names[g], self.xnn.mem_c_names[g]
            mem_a = self.xnn.mem_a_names[head % len(self.xnn.mem_a_names)]
            mem_b = mem_b_names[head % len(mem_b_names)]
            loads = [
                self._ddr_load(query, row0, col0, seq_len, head_dim, dest=mem_a),
                self._ddr_load(key, row0, col0, seq_len, head_dim, dest=mem_b),
            ]
            stores = [
                self._ddr_store(
                    scores_scratch, head * seq_len, 0, seq_len, seq_len, src=memc
                )
            ]
            self._push_group(loads, stores)
            self._emit(mem_a, self._uop("MemA", load=True, send=False))
            self._emit(mem_a, self._uop("MemA", load=False, send=True))
            self._emit(mem_b, self._uop("MemB", load=True, send=False, source="ddr"))
            self._emit(
                mem_b,
                self._uop("MemB", load=False, send=True, source="ddr", transpose=True),
            )
            self._emit("MeshA", self._uop("MeshA", src=mem_a, dests=(mme,), count=1))
            self._emit("MeshB", self._uop("MeshB", routes=((mem_b, mme),), count=1))
            self._emit(
                mme,
                self._uop("MME", k_steps=1, emit=True, tag=f"{label}-scores[{head}]"),
            )
            self._emit(
                memc,
                self._uop(
                    "MemC",
                    recv=True,
                    ops=("scale", "softmax"),
                    scale_factor=scale,
                    send_to="ddr",
                ),
            )
        # Phase 2: reload the scores, multiply by V, store the context.
        for head in range(num_heads):
            row0, col0 = self._head_slices(head, heads_per_sample, seq_len, head_dim)
            g = head % num_mme
            mme, memc = self.xnn.mme_names[g], self.xnn.mem_c_names[g]
            mem_a = self.xnn.mem_a_names[head % len(self.xnn.mem_a_names)]
            mem_b = mem_b_names[head % len(mem_b_names)]
            loads = [
                self._ddr_load(
                    scores_scratch, head * seq_len, 0, seq_len, seq_len, dest=mem_a
                ),
                self._ddr_load(value, row0, col0, seq_len, head_dim, dest=mem_b),
            ]
            stores = [self._ddr_store(out, row0, col0, seq_len, head_dim, src=memc)]
            self._push_group(loads, stores)
            self._emit(mem_a, self._uop("MemA", load=True, send=False))
            self._emit(mem_a, self._uop("MemA", load=False, send=True))
            self._emit(mem_b, self._uop("MemB", load=True, send=False, source="ddr"))
            self._emit(mem_b, self._uop("MemB", load=False, send=True, source="ddr"))
            self._emit("MeshA", self._uop("MeshA", src=mem_a, dests=(mme,), count=1))
            self._emit("MeshB", self._uop("MeshB", routes=((mem_b, mme),), count=1))
            self._emit(
                mme,
                self._uop("MME", k_steps=1, emit=True, tag=f"{label}-context[{head}]"),
            )
            self._emit(memc, self._uop("MemC", recv=True, ops=(), send_to="ddr"))
        self._flush_ddr_groups()

    # -------------------------------------------------------------- finalise

    def finalize(self) -> None:
        """Flush held-back stores and append exit uOPs to every FU."""
        if self._finalized:
            return
        self._flush_ddr_groups()
        for uop in self._held_stores:
            self._emit("DDR", uop)
        self._held_stores = []
        for name in self._uops:
            self._uops[name].append(ExitUOp())
        self._finalized = True

    def per_fu_uops(self) -> Dict[str, List[UOp]]:
        return {name: list(uops) for name, uops in self._uops.items()}

    def load_programs(self) -> None:
        """Pre-store the generated uOP sequences into the datapath's FUs."""
        if not self._finalized:
            self.finalize()
        for name, uops in self._uops.items():
            self.xnn.datapath.fu(name).load_program(uops)

    def uop_count(self, fu_name: Optional[str] = None) -> int:
        if fu_name is not None:
            return len(self._uops.get(fu_name, []))
        return sum(len(uops) for uops in self._uops.values())

    def fingerprint(self) -> str:
        """Stable identity of this program on this datapath configuration.

        SHA-256 over (a) every FU's finalized uOP stream, (b) the
        :class:`~repro.xnn.datapath.XNNConfig` (a timing-only simulation is a
        pure function of uOPs + hardware configuration -- tensor *data* never
        influences latency or traffic), (c) the :class:`CodegenOptions`
        (redundant with the uOPs they shaped, but cheap insurance against a
        future option that affects execution without changing the streams),
        and (d) the code version, so editing any source file invalidates
        every memoized segment exactly like the scenario cache.

        Equal fingerprints guarantee byte-identical simulations.  This is
        not the :class:`~repro.runner.cache.SegmentMemo` key -- the executor
        keys the memo by its workload descriptor before any codegen runs
        (:meth:`repro.xnn.executor.XNNExecutor._workload_key`) -- but an
        identity of the built program for tests and tools.
        """
        if not self._finalized:
            self.finalize()
        from ..runner.cache import code_version  # runtime import: no cycle
        payload = {
            "code_version": code_version(),
            "config": asdict(self.xnn.config),
            "options": asdict(self.options),
            "uops": {
                name: [(uop.opcode, dict(uop.fields), uop.nbytes) for uop in uops]
                for name, uops in self._uops.items()
            },
        }
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode()).hexdigest()

    # ------------------------------------------------------------ packetising

    def build_rsn_program(self, name: str = "rsn-xnn") -> RSNProgram:
        """Compress the per-FU uOP streams into an RSN instruction program.

        The packetiser exploits the two kinds of regularity the second-level
        decoders exploit in hardware: identical uOPs repeated back to back
        (window 1, reuse N) and constant-stride off-chip address sequences
        (one packet with stride fields standing for the whole walk).  AIE-side
        MME uOPs are pre-stored locally (Section 4.1) and therefore do not
        appear in the PL instruction stream.
        """
        if not self._finalized:
            self.finalize()
        program = RSNProgram(name)
        for fu_name, uops in self._uops.items():
            fu_type = self.xnn.datapath.fu(fu_name).fu_type
            if fu_type == "MME":
                continue
            body = [u for u in uops if not isinstance(u, ExitUOp)]
            for packet in _packetize(fu_type, fu_name, body):
                program.append(packet)
        program.finalize(
            {
                fu_type: names
                for fu_type, names in self.xnn.fu_names_by_type.items()
                if fu_type != "MME"
            }
        )
        return program

    def mme_uop_bytes(self) -> int:
        """Bytes of locally pre-stored AIE control words (reported separately)."""
        total = 0
        for name in self.xnn.mme_names:
            total += sum(
                u.nbytes for u in self._uops[name] if not isinstance(u, ExitUOp)
            )
        return total


# ---------------------------------------------------------------- packetiser


def _uops_equal(first: UOp, second: UOp) -> bool:
    return dict(first.fields) == dict(second.fields)


def _strideable(first: UOp, second: UOp) -> Optional[Tuple[int, int]]:
    """Return the (row, col) stride if ``second`` continues an address walk."""
    keys_first = dict(first.fields)
    keys_second = dict(second.fields)
    for key in ("row0", "col0"):
        keys_first.pop(key, None)
        keys_second.pop(key, None)
    if keys_first != keys_second:
        return None
    return (
        int(second.get("row0", 0)) - int(first.get("row0", 0)),
        int(second.get("col0", 0)) - int(first.get("col0", 0)),
    )


def _packetize(
    fu_type: str, fu_name: str, uops: Sequence[UOp]
) -> List[InstructionPacket]:
    packets: List[InstructionPacket] = []
    index = 0
    mop_bytes = UOP_NBYTES.get(fu_type, 4)
    while index < len(uops):
        current = uops[index]
        # 1) run of identical uOPs -> window 1, reuse N.
        run = 1
        while index + run < len(uops) and _uops_equal(current, uops[index + run]):
            run += 1
        if run > 1:
            packets.append(
                InstructionPacket(
                    opcode=fu_type,
                    targets=[fu_name],
                    mops=[MOp(dict(current.fields), nbytes=mop_bytes)],
                    reuse=run,
                    label=f"{fu_name}-repeat",
                )
            )
            index += run
            continue
        # 2) constant-stride address walk (off-chip FUs) -> one strided packet.
        if fu_type in ("DDR", "LPDDR"):
            stride = None
            length = 1
            while index + length < len(uops):
                step = _strideable(uops[index + length - 1], uops[index + length])
                if step is None or (stride is not None and step != stride):
                    break
                stride = step if stride is None else stride
                length += 1
            if length > 2:
                fields = dict(current.fields)
                fields["stride_rows"], fields["stride_cols"] = stride
                fields["stride_count"] = length
                packets.append(
                    InstructionPacket(
                        opcode=fu_type,
                        targets=[fu_name],
                        mops=[MOp(fields, nbytes=mop_bytes)],
                        reuse=length,
                        label=f"{fu_name}-strided",
                    )
                )
                index += length
                continue
        # 3) fallback: a single-uOP packet.
        packets.append(
            InstructionPacket(
                opcode=fu_type,
                targets=[fu_name],
                mops=[MOp(dict(current.fields), nbytes=mop_bytes)],
                reuse=1,
                label=f"{fu_name}-single",
            )
        )
        index += 1
    return packets
