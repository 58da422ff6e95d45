"""Mesh FUs: the pure routing nodes of the RSN-XNN network.

MeshA and MeshB "serve purely as communication routers without memory or
computation" (Fig. 16): they fan data in from the scratchpads (or from MemC
FUs when layers are chained) and fan it out to the MME FUs.  Their control
plane is just the routing table for the current dataflow (Table 2: size,
srcFUs, destFUs), which is why "their actions are only set once" in the
Fig. 10 example -- one uOP covers an entire steady state.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, List, Sequence, Tuple

from ...core import ConfigurationError, FunctionalUnit, Parallel, UOp, Write

__all__ = ["MeshFU"]


class MeshFU(FunctionalUnit):
    """A configurable fan-in/fan-out router.

    Two routing modes, selected by the uOP:

    * **broadcast** -- fields ``src`` (input port suffix), ``dests`` (tuple of
      output port suffixes), ``count``: read one message from ``src`` and copy
      it to every destination, ``count`` times.  Used for sharing an LHS tile
      across the MMEs working on different output columns.
    * **scatter** -- field ``routes``: a tuple of ``(src, dest)`` pairs; each
      round reads one message per route and forwards it, ``count`` times.
      Used for giving each MME its own RHS tile (MeshB in Fig. 10).
    """

    def __init__(self, name: str, fu_type: str = "Mesh"):
        super().__init__(name, fu_type=fu_type)

    # Ports are added by the datapath builder (one per connected FU).

    def _out(self, suffix: str):
        return self.port(f"to_{suffix}")

    def kernel(self, uop: UOp) -> Generator:
        count = int(uop.get("count", 1))
        routes: Sequence[Tuple[str, str]] = tuple(uop.get("routes", ()))
        if routes:
            # Routes with distinct sources use distinct physical streams and
            # proceed in parallel; routes sharing a source stream are served in
            # the order listed (the source can only produce one tile at a time).
            per_source: "OrderedDict[str, List[str]]" = OrderedDict()
            for src, dest in routes:
                per_source.setdefault(src, []).append(dest)
            for _ in range(count):
                yield Parallel([self._route_chain(src, dests)
                                for src, dests in per_source.items()])
            return
        src = uop.get("src")
        dests = tuple(uop.get("dests", ()))
        if not src or not dests:
            raise ConfigurationError(
                f"{self.name}: uOP must provide either routes or src+dests, got {uop!r}"
            )
        read_src = self.read_request(f"from_{src}")
        for _ in range(count):
            message = yield read_src
            self.stats.bytes_in += message.nbytes
            self.stats.bytes_out += message.nbytes * len(dests)
            # A broadcast copies the tile onto every destination's physical
            # stream at the same time.
            yield Parallel([self._forward(dest, message) for dest in dests])

    def _forward(self, dest: str, message) -> Generator:
        yield Write(self._out(dest), message)

    def _route_chain(self, src: str, dests: Sequence[str]) -> Generator:
        """Serve one source stream: forward one tile to each listed destination."""
        read_src = self.read_request(f"from_{src}")
        for dest in dests:
            message = yield read_src
            self.stats.bytes_in += message.nbytes
            self.stats.bytes_out += message.nbytes
            yield Write(self._out(dest), message)
